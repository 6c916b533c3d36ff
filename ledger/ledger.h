#ifndef FDRMS_LEDGER_LEDGER_H_
#define FDRMS_LEDGER_LEDGER_H_

/// \file ledger.h
/// Shared pieces of the cost-ledger benchmark: run arguments, the report a
/// workload fills in, timing and quantile helpers, the brute-force oracles
/// and the lockstep layer ledger. See README.md for what each workload and
/// metric measures.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/fdrms.h"
#include "geometry/point.h"
#include "geometry/pointset.h"

namespace ledger {

using fdrms::Point;
using fdrms::PointSet;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for durable state (shard-ingest); created and
  /// emptied by the workload.
  std::string state_dir = ".bench_build/ledger_state";
};

/// What one run reports. A failed oracle sets `correct` false and keeps the
/// reason; `attempted`/`failed` count mutations plus reads.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> errors;

  void Set(const std::string& name, double v) { values[name] = v; }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  /// Fails the run when `cond` is false.
  void Expect(bool cond, const std::string& why) {
    if (!cond) Fail(why);
  }
};

/// Seed of one input stream (`stream`) of round `round` of a run: every
/// round draws its own data, operation order, utility sample and held-out
/// directions, all reproducible from the run's --seed.
inline uint64_t RoundSeed(uint64_t seed, int round, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(round) * 0xbf58476d1ce4e5b9ULL +
               stream * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile of `v` (0 when empty). Takes a copy: callers keep
/// their samples in arrival order.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);

/// CPU time of the calling thread, in seconds. Unlike Clock it stands
/// still while the thread waits, for another thread or for the host to give
/// the virtual CPU back. A reading costs a system call (~0.4 us).
double ThreadCpuSeconds();

/// Peak resident set of this process, MiB. Workloads read it after their
/// first kMinRounds rounds, so that it does not depend on how many rounds
/// the host's speed let a run hold.
double PeakRssMb();

/// Rounds every run holds, however short.
constexpr int kMinRounds = 3;

/// Log line to stderr (stdout carries only the result line).
void Log(const std::string& line);

/// End-to-end figures of one round of a workload.
struct RoundFigures {
  double setup_s = 0, updates_per_s = 0;
  /// Send -> visible latency of each update, by kind and all together.
  std::vector<double> insert_us, delete_us, all_us;
  /// Latency of each read that returned a newer view than the last one.
  std::vector<double> fresh_read_us;
  /// Max regret ratio at each point the round checks it.
  std::vector<double> regrets;
};

/// Sets every end-to-end metric but peak_rss_mb from a run's rounds: the
/// median over rounds of set-up, update rate and each round's latency
/// quantiles; the median of the reads pooled over the run; the mean of all
/// regret samples.
void ReportEndToEnd(const std::vector<RoundFigures>& rounds, Report* report);

/// Plain/traced round pairs a traced run times; trace.overhead_share is
/// the median of their time ratios, since one pair varies more than whole
/// runs do.
constexpr int kOverheadPairs = 5;

// ---------------------------------------------------------------------------
// Brute-force oracles (oracle.cpp). They read only the benchmark's own copy
// of the data and never the program's indexes.
// ---------------------------------------------------------------------------

/// The k-th best score of each vector in `vecs` over rows `live` of `data`
/// (0 when fewer than k rows are live). Runs on up to four threads.
std::vector<double> OmegaK(const PointSet& data, const std::vector<int>& live,
                           const std::vector<Point>& vecs, int k);

/// Coverage oracle: every utility i < m must have some q in `result` with
/// <u_i, q> >= (1 - eps) * omega_k(u_i) over the live rows. Returns an
/// empty string when it holds, else the first violation.
std::string CheckCoverage(const PointSet& data, const std::vector<int>& live,
                          const std::vector<Point>& utilities, int m, int k,
                          double eps, const std::vector<int>& result);

/// Result-set oracle: |result| <= budget and every id is live.
std::string CheckResultSet(const std::vector<int>& result,
                           const std::vector<int>& live_sorted, int budget);

/// Max k-regret ratio of `result` (rows of `data`) over `directions`,
/// against the live rows.
double MaxRegretRatio(const PointSet& data, const std::vector<int>& live,
                      const std::vector<int>& result,
                      const std::vector<Point>& directions, int k);

/// Held-out evaluation directions: uniform on the nonnegative unit sphere,
/// drawn from a stream independent of the algorithm's utility sample.
std::vector<Point> HeldOutDirections(int count, int dim, uint64_t seed);

/// Feeds the coverage and result-set oracles known-good and corrupted
/// inputs; returns an empty string when each check accepts the good input
/// and rejects every corruption.
std::string OracleSelfTest();

// ---------------------------------------------------------------------------
// Layer ledger (layer_ledger.cpp): replays one operation stream through
// FdRms and, in lockstep, through a standalone TopKMaintainer, KdTree and
// ConeTree built from the same utilities, timing each layer's public calls.
// ---------------------------------------------------------------------------

struct StreamOp {
  bool is_insert;
  int id;
};

struct LayerTotals {
  double core_insert_us = 0, core_delete_us = 0;
  double m_changes = 0;
  double topk_insert_us = 0, topk_delete_us = 0;
  double deltas = 0, rebuilds = 0, rebuild_deletes = 0, rebuilds_phi_local = 0;
  double kd_insert_us = 0, kd_delete_us = 0;
  double repair_query_us = 0, repair_range_ids = 0;
  double cone_reached = 0, cone_admitted = 0, cone_us = 0;
  double setcover_us = 0;
  std::vector<double> cover_sizes;  ///< sampled every `sample_every` ops
  double ops = 0;
  double cpu_s = 0;  ///< thread CPU time of the lockstep loop

  void Add(const LayerTotals& o);
};

/// Runs the lockstep ledger. `mismatch` receives a description when the
/// standalone maintainer disagrees with FdRms's own (empty otherwise).
void RunLayerLedger(const PointSet& data, const std::vector<int>& initial,
                    const std::vector<StreamOp>& ops,
                    const fdrms::FdRmsOptions& options, LayerTotals* out,
                    std::string* mismatch);

/// Writes the core/topk/index/setcover per-layer metrics into `report`.
void ReportLayers(const LayerTotals& t, Report* report);

// ---------------------------------------------------------------------------
// Workloads. Each fills every end-to-end metric (trace off) or every
// per-layer metric it measures (trace on).
// ---------------------------------------------------------------------------

void RunReplay(const Args& args, Report* report);
void RunShardIngest(const Args& args, Report* report);

}  // namespace ledger

#endif  // FDRMS_LEDGER_LEDGER_H_
