// Workload `replay`: FdRms alone on one thread, replaying the paper's
// dynamic protocol (Section IV-A) through eval::Workload on AntiCor data.
// Each round draws its own inputs from the run's seed and the round index,
// replays them, and runs the brute-force oracles at the protocol's ten
// checkpoints. A run reports medians over its rounds, so it spans as many
// datasets as rounds; n is sized so that a 45 s run holds about 35.
//
// Everything here runs on one thread, so its times are that thread's CPU
// time: on a shared virtual machine the wall clock also counts the time the
// host gives the virtual CPU to other tenants, and that share moved
// updates_per_s and delete_us_p999 by a third between runs.

#include <algorithm>

#include "data/generators.h"
#include "eval/workload.h"
#include "ledger.h"

namespace ledger {
namespace {

constexpr int kN = 50000;
constexpr int kDim = 6;
constexpr int kMaxUtilities = 2048;
constexpr int kReadEvery = 50;     // one result read per this many updates
constexpr int kDirections = 200;   // held-out directions for regret_ratio

fdrms::FdRmsOptions Options(uint64_t seed, int round) {
  fdrms::FdRmsOptions opt;
  opt.k = 1;
  opt.r = 50;
  opt.eps = 0.01;
  opt.max_utilities = kMaxUtilities;
  opt.seed = RoundSeed(seed, round, 3);
  return opt;
}

struct Inputs {
  Inputs(uint64_t seed, int round)
      : data(fdrms::GenerateAntiCor(kN, kDim, RoundSeed(seed, round, 1))),
        workload(&data, RoundSeed(seed, round, 2)) {}
  PointSet data;
  fdrms::Workload workload;
};

/// One replay of round `index`'s inputs.
RoundFigures RunRound(const Args& args, int index, Report* report) {
  RoundFigures round;
  const double setup_start = ThreadCpuSeconds();
  Inputs in(args.seed, index);
  const fdrms::FdRmsOptions opt = Options(args.seed, index);
  fdrms::FdRms algo(kDim, opt);
  std::vector<std::pair<int, Point>> initial;
  initial.reserve(in.workload.initial_ids().size());
  for (int id : in.workload.initial_ids()) initial.emplace_back(id, in.data.Get(id));
  report->Expect(algo.Initialize(initial).ok(), "replay: Initialize failed");
  round.setup_s = ThreadCpuSeconds() - setup_start;

  const auto& ops = in.workload.operations();
  const auto& checkpoints = in.workload.checkpoints();
  const std::vector<Point> directions = HeldOutDirections(kDirections, kDim, RoundSeed(args.seed, index, 4));
  round.insert_us.reserve(ops.size());
  round.delete_us.reserve(ops.size());
  round.all_us.reserve(ops.size());
  round.fresh_read_us.reserve(ops.size() / kReadEvery + 1);
  size_t next_cp = 0;
  double update_us = 0;
  // One clock reading per update: an update's time runs from the previous
  // reading, so it also holds the loop's bookkeeping and one reading
  // (about 0.4 us on the reference host).
  double last_us = ThreadCpuSeconds() * 1e6;
  for (size_t i = 0; i < ops.size(); ++i) {
    const fdrms::Operation& op = ops[i];
    const fdrms::Status st =
        op.is_insert ? algo.Insert(op.id, in.data.Get(op.id)) : algo.Delete(op.id);
    const double now_us = ThreadCpuSeconds() * 1e6;
    const double us = now_us - last_us;
    last_us = now_us;
    update_us += us;
    (op.is_insert ? round.insert_us : round.delete_us).push_back(us);
    round.all_us.push_back(us);
    ++report->attempted;
    if (!st.ok()) {
      ++report->failed;
      report->Fail("replay: update failed: " + st.ToString());
    }
    const bool read = (i + 1) % kReadEvery == 0;
    const bool cp = next_cp < checkpoints.size() &&
                    static_cast<int>(i) == checkpoints[next_cp];
    if (!read && !cp) continue;
    if (read) {
      // A read resolves Q_t and picks its best tuple along one direction.
      // Every read is fresh: updates ran since the last one.
      const double r0 = ThreadCpuSeconds();
      const auto resolved = algo.ResolvedResult();
      const Point& dir = directions[round.fresh_read_us.size() % directions.size()];
      double best = 0.0;
      for (const auto& e : resolved) best = std::max(best, fdrms::Dot(e.point, dir));
      round.fresh_read_us.push_back((ThreadCpuSeconds() - r0) * 1e6);
      ++report->attempted;
      report->Expect(best > 0.0, "replay: empty result read");
    }
    if (cp) {
      const std::vector<int> live = in.workload.LiveIdsAfter(static_cast<int>(i));
      const std::vector<int> q = algo.Result();
      if (std::string e = CheckResultSet(q, live, opt.r); !e.empty()) {
        report->Fail("replay checkpoint " + std::to_string(next_cp) + ": " + e);
      }
      // Coverage at the end of the insert phase and at the end of the run.
      if (next_cp == checkpoints.size() / 2 - 1 || next_cp + 1 == checkpoints.size()) {
        std::string e = CheckCoverage(in.data, live, algo.topk().utilities(),
                                      algo.current_m(), opt.k, opt.eps, q);
        if (!e.empty()) report->Fail("replay coverage: " + e);
      }
      round.regrets.push_back(MaxRegretRatio(in.data, live, q, directions, opt.k));
      ++next_cp;
    }
    last_us = ThreadCpuSeconds() * 1e6;
  }
  round.updates_per_s = static_cast<double>(ops.size()) / (update_us * 1e-6);
  return round;
}

}  // namespace

void RunReplay(const Args& args, Report* report) {
  if (args.trace) {
    // Traced: each pair replays one round's stream plainly and then through
    // the lockstep layer ledger; the per-layer figures are the first
    // pair's, the tracing overhead the median of the pairs' rate ratios.
    std::vector<double> overheads;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      const RoundFigures plain = RunRound(args, pair, report);
      Inputs in(args.seed, pair);
      std::vector<StreamOp> ops;
      for (const auto& op : in.workload.operations()) ops.push_back({op.is_insert, op.id});
      LayerTotals totals;
      std::string mismatch;
      RunLayerLedger(in.data, in.workload.initial_ids(), ops, Options(args.seed, pair),
                     &totals, &mismatch);
      report->Expect(mismatch.empty(), mismatch);
      report->attempted += ops.size();
      if (pair == 0) ReportLayers(totals, report);
      overheads.push_back(plain.updates_per_s / (totals.ops / totals.cpu_s) - 1.0);
    }
    report->Set("trace.overhead_share", Median(overheads));
    return;
  }
  std::vector<RoundFigures> rounds;
  const auto run_start = Clock::now();
  double round_s = 0;
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         SecondsBetween(run_start, Clock::now()) + round_s <= args.seconds) {
    const auto round_start = Clock::now();
    rounds.push_back(RunRound(args, static_cast<int>(rounds.size()), report));
    round_s = SecondsBetween(round_start, Clock::now());
    if (static_cast<int>(rounds.size()) == kMinRounds) report->Set("peak_rss_mb", PeakRssMb());
  }
  ReportEndToEnd(rounds, report);
  Log("replay: " + std::to_string(rounds.size()) + " rounds");
}

}  // namespace ledger
