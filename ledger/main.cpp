// Cost-ledger benchmark entry point.
//
//   ledger --workload <replay|shard-ingest> --seed <n>
//          --seconds <s> --trace <0|1> [--state-dir <dir>]
//   ledger --selftest
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones (a
// layer that a workload does not run reports 0). The oracle self-test runs
// before every workload; a failed self-test or oracle makes "correct"
// false.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "geometry/simd_dispatch.h"
#include "ledger.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"updates_per_s", "1/s"},
    {"insert_us_p50", "us"},
    {"insert_us_p99", "us"},
    {"delete_us_p50", "us"},
    {"delete_us_p999", "us"},
    {"visible_us_p50", "us"},
    {"visible_us_p99", "us"},
    {"fresh_read_us_p50", "us"},
    {"regret_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.insert_us_sum", "us"},
    {"core.delete_us_sum", "us"},
    {"core.m_changes", "count"},
    {"topk.insert_us_sum", "us"},
    {"topk.delete_us_sum", "us"},
    {"topk.deltas", "count"},
    {"topk.rebuilds", "count"},
    {"topk.rebuild_deletes", "count"},
    {"topk.rebuilds_phi_local", "count"},
    {"index.kd_insert_us_sum", "us"},
    {"index.kd_delete_us_sum", "us"},
    {"index.repair_query_us_sum", "us"},
    {"index.repair_range_ids", "count"},
    {"index.cone_reached", "count"},
    {"index.cone_admitted", "count"},
    {"index.cone_us_sum", "us"},
    {"setcover.us_sum", "us"},
    {"setcover.cover_size", "count"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.batches", "count"},
    {"serve.ops_per_batch", "count"},
    {"serve.writer_busy_share", "ratio"},
    {"serve.apply_us_p50", "us"},
    {"serve.publish_us_p50", "us"},
    {"shard.merge_builds", "count"},
    {"shard.merge_hits", "count"},
    {"shard.recover_us_p50", "us"},
    {"shard.cached_read_us_p50", "us"},
    {"shard.writer_busy_max_s", "s"},
    {"shard.writer_busy_sum_s", "s"},
    {"shard.ops_skew", "ratio"},
    {"persist.saves", "count"},
    {"persist.manifest_commits", "count"},
    {"persist.save_us", "us"},
    {"persist.bytes", "bytes"},
    {"trace.overhead_share", "ratio"},
};

int Usage(const char* why) {
  std::cerr << "ledger: " << why << "\n"
            << "usage: ledger --workload <replay|shard-ingest> "
               "--seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]\n"
               "       ledger --selftest\n";
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Args args;
  bool selftest_only = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  const std::string selftest = ledger::OracleSelfTest();
  if (selftest_only) {
    std::cout << (selftest.empty() ? "oracle self-test: PASS" : "oracle self-test: FAIL: " + selftest)
              << std::endl;
    return selftest.empty() ? 0 : 1;
  }
  if (!have_workload) return Usage("--workload is required");

  ledger::Report report;
  if (!selftest.empty()) report.Fail("oracle self-test: " + selftest);
  ledger::Log("workload " + args.workload + " seed " + std::to_string(args.seed) +
              " seconds " + std::to_string(args.seconds) + " trace " +
              std::to_string(args.trace) + " simd " +
              fdrms::SimdTierName(fdrms::ActiveSimdTier()));
  if (args.workload == "replay") {
    ledger::RunReplay(args, &report);
  } else if (args.workload == "shard-ingest") {
    ledger::RunShardIngest(args, &report);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::string metrics;
  auto emit = [&](const MetricDef& m, bool required) {
    auto it = report.values.find(m.name);
    double v = 0.0;
    if (it != report.values.end()) {
      v = it->second;
    } else if (required) {
      report.Fail(std::string("metric not measured: ") + m.name);
    }
    if (!std::isfinite(v)) {
      report.Fail(std::string("metric not finite: ") + m.name);
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(m.unit) + "}";
  };
  if (args.trace) {
    for (const auto& m : kPerLayer) emit(m, /*required=*/false);
  } else {
    for (const auto& m : kEndToEnd) emit(m, /*required=*/true);
  }
  for (const std::string& e : report.errors) ledger::Log("CHECK FAILED: " + e);
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
