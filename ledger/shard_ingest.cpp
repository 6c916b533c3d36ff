// Workload `shard-ingest`: ShardedFdRmsService with two shards, a global
// merged budget (so fresh merged reads run the greedy re-cover) and
// versioned persistence with the constellation manifest. One submitter
// pushes the paper-protocol stream in a closed loop (kBlock admits as fast
// as the writers drain); one reader queries at a fixed cadence and sleeps
// between reads. A round ends when Stop(kDrain) returns. Shards save at
// Start and at Stop only: a batch-count cadence makes the number of saves
// depend on batch timing.
//
// Updates and reads are timed in the CPU time of the thread that does the
// work: a writer's batch-apply time (ResultSnapshot::writer_busy_seconds,
// stamped on every publication) and the reader thread's own clock. On a
// shared virtual machine the wall clock also counts the time the host gives
// the virtual CPUs to other tenants, and with the wall clock visible_us_p50
// spread 0.32 of its median over ten runs while the host's steal share ran
// up to about 20%. Set-up keeps the wall clock: it waits on fsync.

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/durable_io.h"
#include "core/snapshot.h"
#include "data/generators.h"
#include "eval/workload.h"
#include "ledger.h"
#include "obs/registry.h"
#include "shard/sharded_service.h"

namespace ledger {
namespace {

constexpr int kN = 200000;
constexpr int kDim = 6;
constexpr int kShards = 2;
constexpr int kR = 50;
constexpr size_t kMinFreshReads = 1000;
// No mid-run save: the cadence is never reached, so shards persist only at
// Start (the manifest's durability root) and in their exit save at Stop.
constexpr size_t kSaveOnlyAtStartAndStop = size_t{1} << 40;
constexpr auto kReadGap = std::chrono::microseconds(250);
constexpr auto kScrapeEvery = std::chrono::milliseconds(100);
constexpr int kDirections = 500;

fdrms::ShardedServiceOptions Options(uint64_t seed, int round, const std::string& base) {
  fdrms::ShardedServiceOptions o;
  o.num_shards = kShards;
  o.merged_budget_r = kR;
  o.manifest_commit_every_ms = 0;
  o.shard.algo.k = 1;
  o.shard.algo.r = kR;
  o.shard.algo.eps = 0.01;
  o.shard.algo.max_utilities = 2048;
  o.shard.algo.seed = RoundSeed(seed, round, 3);
  o.shard.persist_every_batches = kSaveOnlyAtStartAndStop;
  o.shard.persist_path = base;
  return o;
}

struct Inputs {
  Inputs(uint64_t seed, int round)
      : data(fdrms::GenerateAntiCor(kN, kDim, RoundSeed(seed, round, 1))),
        workload(&data, RoundSeed(seed, round, 2)) {}
  PointSet data;
  fdrms::Workload workload;
};

struct Publication {
  uint64_t consumed;
  Clock::time_point at;
  double writer_busy_s;
};

struct Round {
  RoundFigures fig;
  std::vector<double> cached_us, submit_us;
  // Traced rounds only.
  std::shared_ptr<const fdrms::MergedSnapshot> final_view;
  fdrms::obs::RegistrySnapshot scrape;
  std::array<double, kShards> shard_ops{};
  double saves = 0, manifest_commits = 0, wall_s = 0;
  double probe_save_us = 0, probe_bytes = 0;
};

double BestAlong(const std::vector<Point>& points, const Point& dir) {
  double best = 0.0;
  for (const Point& p : points) best = std::max(best, fdrms::Dot(p, dir));
  return best;
}

double MeanP50(const fdrms::obs::RegistrySnapshot& scrape, const std::string& name) {
  std::vector<double> v;
  for (const auto& m : scrape.metrics) {
    if (m.name == name && m.count > 0) v.push_back(m.Quantile(0.5));
  }
  return Mean(v);
}

Round RunRound(const Args& args, int index, bool traced, Report* report) {
  namespace fs = std::filesystem;
  Round round;
  const fs::path dir = fs::path(args.state_dir) / "shard-ingest";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  report->Expect(!ec, "shard-ingest: cannot create " + dir.string());

  const auto setup_start = Clock::now();
  Inputs in(args.seed, index);
  const auto& wops = in.workload.operations();
  std::vector<fdrms::FdRms::BatchOp> ops;
  ops.reserve(wops.size());
  for (const auto& op : wops) {
    ops.push_back(op.is_insert
                      ? fdrms::FdRms::BatchOp{fdrms::FdRms::BatchOp::Kind::kInsert, op.id,
                                              in.data.Get(op.id)}
                      : fdrms::FdRms::BatchOp{fdrms::FdRms::BatchOp::Kind::kDelete, op.id,
                                              Point{}});
  }
  const fdrms::HashShardRouter router(kShards);
  std::array<std::vector<Publication>, kShards> pubs;
  for (auto& v : pubs) v.reserve(ops.size() + 2);
  std::atomic<int> unroutable_pubs{0};
  fdrms::ShardedServiceOptions opt = Options(args.seed, index, (dir / "fdrms").string());
  const std::vector<Point> directions =
      HeldOutDirections(kDirections, kDim, RoundSeed(args.seed, index, 4));
  // A shard's result ids are ids it owns, so the first one names the shard.
  opt.shard.on_publish = [&](const fdrms::ResultSnapshot& s) {
    if (s.ids.empty()) {
      unroutable_pubs.fetch_add(1);
      return;
    }
    auto& v = pubs[static_cast<size_t>(router.Route(s.ids.front()))];
    if (v.size() < v.capacity()) {
      v.push_back({s.ops_applied + s.ops_rejected, Clock::now(), s.writer_busy_seconds});
    }
  };
  fdrms::ShardedFdRmsService service(kDim, opt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : in.workload.initial_ids()) initial.emplace_back(id, in.data.Get(id));
  if (!service.Start(initial).ok()) {
    report->Fail("shard-ingest: Start failed");
    return round;
  }
  round.fig.setup_s = SecondsBetween(setup_start, Clock::now());

  std::atomic<bool> stop_reader{false};
  uint64_t reads = 0, empty_reads = 0;
  std::thread reader([&] {
    std::shared_ptr<const fdrms::MergedSnapshot> last;
    size_t d = 0;
    auto next_scrape = Clock::now() + kScrapeEvery;
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const double t0 = ThreadCpuSeconds();
      auto view = service.Query();
      const double best = BestAlong(view->points, directions[d++ % directions.size()]);
      const double us = (ThreadCpuSeconds() - t0) * 1e6;
      ++reads;
      if (best <= 0.0) ++empty_reads;
      if (last != nullptr) {
        (view.get() != last.get() ? round.fig.fresh_read_us : round.cached_us).push_back(us);
      }
      last = std::move(view);
      if (traced && Clock::now() >= next_scrape) {
        (void)service.registry()->Snapshot();
        next_scrape += kScrapeEvery;
      }
      std::this_thread::sleep_for(kReadGap);
    }
  });

  // Closed loop: each Submit returns once kBlock admitted the op.
  struct Sent {
    int shard;
    uint64_t seq;
    Clock::time_point at;
  };
  std::vector<Sent> sent_ops;
  sent_ops.reserve(ops.size());
  std::array<uint64_t, kShards> seq{};
  round.submit_us.reserve(ops.size());
  const auto t0 = Clock::now();
  for (const auto& op : ops) {
    const int s = router.Route(op.id);
    const auto sent = Clock::now();
    const fdrms::Status st = service.Submit(op);
    round.submit_us.push_back(MicrosBetween(sent, Clock::now()));
    sent_ops.push_back({s, ++seq[static_cast<size_t>(s)], sent});
    ++report->attempted;
    if (!st.ok()) {
      ++report->failed;
      report->Fail("shard-ingest: submit failed: " + st.ToString());
    }
  }
  stop_reader.store(true);
  reader.join();
  report->Expect(service.Stop(fdrms::ShardedFdRmsService::StopPolicy::kDrain).ok(),
                 "shard-ingest: Stop failed");
  round.wall_s = SecondsBetween(t0, Clock::now());
  report->attempted += reads;
  report->Expect(empty_reads == 0, "shard-ingest: a read returned an empty result");
  report->Expect(unroutable_pubs.load() == 0, "shard-ingest: a shard published an empty result");

  // Visibility per shard: an op is visible at the first publication of its
  // shard that consumed it. Its latency is the writer CPU time spent from
  // the last publication before its send to that one: with the queue full,
  // the time to apply the ops ahead of it and its own batch.
  std::array<size_t, kShards> cursor{}, before{};
  for (size_t i = 0; i < sent_ops.size(); ++i) {
    const auto& is = sent_ops[i];
    const auto& v = pubs[static_cast<size_t>(is.shard)];
    size_t& p = cursor[static_cast<size_t>(is.shard)];
    size_t& b = before[static_cast<size_t>(is.shard)];
    while (p < v.size() && v[p].consumed < is.seq) ++p;
    if (p == v.size()) {
      report->Fail("shard-ingest: op " + std::to_string(i) + " never published");
      break;
    }
    while (b < p && v[b].at <= is.at) ++b;  // v[b - 1] is the last one before the send
    const double busy_at_send = b == 0 ? 0.0 : v[b - 1].writer_busy_s;
    const double us = (v[p].writer_busy_s - busy_at_send) * 1e6;
    round.fig.all_us.push_back(us);
    (ops[i].kind == fdrms::FdRms::BatchOp::Kind::kInsert ? round.fig.insert_us
                                                          : round.fig.delete_us)
        .push_back(us);
  }
  // The busiest writer sets the rate the two shards sustain.
  double busiest_s = 0;
  for (const auto& v : pubs) {
    if (!v.empty()) busiest_s = std::max(busiest_s, v.back().writer_busy_s);
  }
  round.fig.updates_per_s = static_cast<double>(ops.size()) / busiest_s;

  // Accounting and oracles. Live rows come from the benchmark's own replay
  // of the protocol; each shard is checked over the rows it owns.
  const auto view = service.Query();
  report->Expect(view->ops_applied == ops.size() && view->ops_rejected == 0 &&
                     service.ops_submitted() == ops.size() && service.ops_dropped() == 0,
                 "shard-ingest: applied " + std::to_string(view->ops_applied) + " rejected " +
                     std::to_string(view->ops_rejected) + " of " + std::to_string(ops.size()));
  const std::vector<int> live = in.workload.LiveIdsAfter(static_cast<int>(ops.size()) - 1);
  for (int s = 0; s < kShards; ++s) {
    std::vector<int> owned;
    for (int id : live) {
      if (router.Route(id) == s) owned.push_back(id);
    }
    const fdrms::FdRms& algo = service.shard(s).algorithm();
    const std::vector<int> q = algo.Result();
    const std::string tag = "shard-ingest shard " + std::to_string(s) + ": ";
    if (std::string e = CheckResultSet(q, owned, kR); !e.empty()) report->Fail(tag + e);
    if (std::string e = CheckCoverage(in.data, owned, algo.topk().utilities(), algo.current_m(),
                                      opt.shard.algo.k, opt.shard.algo.eps, q);
        !e.empty()) {
      report->Fail(tag + "coverage: " + e);
    }
    round.shard_ops[static_cast<size_t>(s)] = static_cast<double>(seq[static_cast<size_t>(s)]);
    round.saves += static_cast<double>(service.shard(s).persists());
    report->Expect(service.shard(s).persist_failures() == 0, tag + "a save failed");
  }
  if (std::string e = CheckResultSet(view->ids, live, opt.merged_budget_r); !e.empty()) {
    report->Fail("shard-ingest merged view: " + e);
  }
  round.fig.regrets.push_back(
      MaxRegretRatio(in.data, live, view->ids, directions, opt.shard.algo.k));
  round.manifest_commits = static_cast<double>(service.manifest_commits());
  report->Expect(service.manifest_commit_failures() == 0,
                 "shard-ingest: a manifest commit failed");

  if (traced) {
    round.final_view = view;
    round.scrape = service.registry()->Snapshot();
    // One shard-sized save on the same filesystem, timed on its own.
    const auto p0 = Clock::now();
    std::ostringstream bytes;
    const bool saved = fdrms::SaveSnapshot(service.shard(0).algorithm(), &bytes).ok() &&
                       fdrms::WriteFileDurable((dir / "probe.snapshot").string(), bytes.str(),
                                               "ledger.probe")
                           .ok();
    round.probe_save_us = MicrosBetween(p0, Clock::now());
    round.probe_bytes = static_cast<double>(bytes.str().size());
    report->Expect(saved, "shard-ingest: probe save failed");
  }
  fs::remove_all(dir, ec);
  return round;
}

/// Per-layer figures of traced round `t`; `overhead` is the tracing
/// overhead measured over the run's plain/traced pairs.
void ReportTraced(const Args& args, const Round& t, double overhead, Report* report) {
  const auto& v = *t.final_view;
  report->Set("serve.submit_us_p50", Quantile(t.submit_us, 0.5));
  report->Set("serve.submit_us_p99", Quantile(t.submit_us, 0.99));
  report->Set("serve.batches", static_cast<double>(v.batches));
  report->Set("serve.ops_per_batch",
              static_cast<double>(v.ops_applied) / std::max<double>(1.0, static_cast<double>(v.batches)));
  report->Set("serve.writer_busy_share", v.writer_busy_seconds_sum / (kShards * t.wall_s));
  report->Set("serve.apply_us_p50", MeanP50(t.scrape, "fdrms_writer_apply_us"));
  report->Set("serve.publish_us_p50", MeanP50(t.scrape, "fdrms_writer_publish_us"));
  auto counter = [&](const char* name) {
    const auto* m = t.scrape.Find(name);
    return m ? static_cast<double>(m->counter_value) : 0.0;
  };
  report->Set("shard.merge_builds", counter("fdrms_merge_cache_misses_total"));
  report->Set("shard.merge_hits", counter("fdrms_merge_cache_hits_total"));
  report->Set("shard.recover_us_p50", MeanP50(t.scrape, "fdrms_merge_recover_us"));
  report->Set("shard.cached_read_us_p50", Quantile(t.cached_us, 0.5));
  report->Set("shard.writer_busy_max_s", v.writer_busy_seconds_max);
  report->Set("shard.writer_busy_sum_s", v.writer_busy_seconds_sum);
  report->Set("shard.ops_skew",
              *std::max_element(t.shard_ops.begin(), t.shard_ops.end()) /
                  (Sum({t.shard_ops.begin(), t.shard_ops.end()}) / kShards));
  report->Set("persist.saves", t.saves);
  report->Set("persist.manifest_commits", t.manifest_commits);
  report->Set("persist.save_us", t.probe_save_us);
  report->Set("persist.bytes", t.probe_bytes);
  report->Set("trace.overhead_share", overhead);

  // Off the serving path: each shard's routed stream through the layer
  // ledger, summed over shards.
  Inputs in(args.seed, 0);
  const fdrms::HashShardRouter router(kShards);
  const fdrms::ShardedServiceOptions opt = Options(args.seed, 0, "");
  LayerTotals totals;
  for (int s = 0; s < kShards; ++s) {
    std::vector<int> initial;
    for (int id : in.workload.initial_ids()) {
      if (router.Route(id) == s) initial.push_back(id);
    }
    std::vector<StreamOp> ops;
    for (const auto& op : in.workload.operations()) {
      if (router.Route(op.id) == s) ops.push_back({op.is_insert, op.id});
    }
    std::string mismatch;
    RunLayerLedger(in.data, initial, ops, opt.shard.algo, &totals, &mismatch);
    report->Expect(mismatch.empty(), mismatch);
    report->attempted += ops.size();
  }
  ReportLayers(totals, report);
}

}  // namespace

void RunShardIngest(const Args& args, Report* report) {
  if (args.trace) {
    // Each pair runs one round's inputs plainly and with registry scrapes,
    // in alternating order so that neither side always runs warm; the
    // per-layer figures are the first traced round's.
    std::vector<double> overheads;
    Round first;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      Round plain, traced;
      if (pair % 2 == 0) {
        plain = RunRound(args, pair, false, report);
        traced = RunRound(args, pair, true, report);
      } else {
        traced = RunRound(args, pair, true, report);
        plain = RunRound(args, pair, false, report);
      }
      // Scrapes run on the reader, so the overhead is read off the wall.
      overheads.push_back(traced.wall_s / plain.wall_s - 1.0);
      Log("shard-ingest: pair " + std::to_string(pair) + " overhead " +
          std::to_string(overheads.back()));
      if (pair == 0) first = std::move(traced);
    }
    ReportTraced(args, first, Median(overheads), report);
    return;
  }
  // Whole rounds until the run's time is spent and at least kMinFreshReads
  // fresh reads were seen. Fresh reads are pooled over the run and only
  // their median is a metric: timed on the wall clock on a shared 4-core
  // host, their tail (p90 as much as p99) followed how loaded the host was
  // and moved by 40% between seeds.
  std::vector<RoundFigures> rounds;
  size_t fresh = 0;
  const auto run_start = Clock::now();
  while (true) {
    const auto round_start = Clock::now();
    rounds.push_back(RunRound(args, static_cast<int>(rounds.size()), false, report).fig);
    const RoundFigures& f = rounds.back();
    Log("shard-ingest round " + std::to_string(rounds.size() - 1) + ": setup_s " +
        std::to_string(f.setup_s) + " updates_per_s " + std::to_string(f.updates_per_s) +
        " visible_us_p50 " + std::to_string(Quantile(f.all_us, 0.5)) + " insert_us_p99 " +
        std::to_string(Quantile(f.insert_us, 0.99)) + " fresh_read_us_p50 " +
        std::to_string(Quantile(f.fresh_read_us, 0.5)));
    fresh += rounds.back().fresh_read_us.size();
    if (static_cast<int>(rounds.size()) == kMinRounds) report->Set("peak_rss_mb", PeakRssMb());
    const double round_s = SecondsBetween(round_start, Clock::now());
    const double elapsed = SecondsBetween(run_start, Clock::now());
    if (static_cast<int>(rounds.size()) >= kMinRounds && elapsed + round_s > args.seconds &&
        fresh >= kMinFreshReads) {
      break;
    }
  }
  ReportEndToEnd(rounds, report);
  Log("shard-ingest: " + std::to_string(rounds.size()) + " rounds; fresh reads " +
      std::to_string(fresh));
}

}  // namespace ledger
