#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/greedy.h"
#include "data/generators.h"
#include "eval/runner.h"
#include "eval/service_driver.h"
#include "eval/workload.h"

namespace fdrms {
namespace {

TEST(WorkloadTest, ProtocolShape) {
  PointSet ps = GenerateIndep(100, 3, 1);
  Workload wl(&ps, 42);
  EXPECT_EQ(wl.initial_ids().size(), 50u);
  EXPECT_EQ(wl.operations().size(), 100u);  // 50 inserts + 50 deletes
  int inserts = 0, deletes = 0;
  for (const auto& op : wl.operations()) {
    (op.is_insert ? inserts : deletes)++;
  }
  EXPECT_EQ(inserts, 50);
  EXPECT_EQ(deletes, 50);
  // Inserts precede deletes (paper protocol).
  EXPECT_TRUE(wl.operations().front().is_insert);
  EXPECT_FALSE(wl.operations().back().is_insert);
  EXPECT_EQ(wl.checkpoints().size(), 10u);
  EXPECT_EQ(wl.checkpoints().back(), 99);
}

TEST(WorkloadTest, InsertsAreExactlyTheMissingHalf) {
  PointSet ps = GenerateIndep(60, 2, 2);
  Workload wl(&ps, 7);
  std::unordered_set<int> initial(wl.initial_ids().begin(),
                                  wl.initial_ids().end());
  for (const auto& op : wl.operations()) {
    if (op.is_insert) {
      EXPECT_EQ(initial.count(op.id), 0u) << "re-inserted initial tuple";
    }
  }
}

TEST(WorkloadTest, LiveIdsReplayIsConsistent) {
  PointSet ps = GenerateIndep(80, 2, 3);
  Workload wl(&ps, 9);
  // After all operations: everything inserted, half deleted.
  auto final_live = wl.LiveIdsAfter(static_cast<int>(wl.operations().size()) - 1);
  EXPECT_EQ(final_live.size(), 40u);
  // After the inserts only: everything is live.
  auto mid_live = wl.LiveIdsAfter(39);
  EXPECT_EQ(mid_live.size(), 80u);
}

TEST(WorkloadTest, LiveIdsAfterRandomAccessMatchesBruteForceReplay) {
  // The memoized replay cursor must be invisible: any query order (forward
  // sweeps, rewinds, repeats) returns exactly what a from-scratch replay
  // computes.
  PointSet ps = GenerateIndep(70, 2, 4);
  Workload wl(&ps, 21);
  auto brute_force = [&](int op_index) {
    std::unordered_set<int> live(wl.initial_ids().begin(),
                                 wl.initial_ids().end());
    for (int i = 0; i <= op_index &&
                    i < static_cast<int>(wl.operations().size());
         ++i) {
      const Operation& op = wl.operations()[i];
      if (op.is_insert) {
        live.insert(op.id);
      } else {
        live.erase(op.id);
      }
    }
    std::vector<int> out(live.begin(), live.end());
    std::sort(out.begin(), out.end());
    return out;
  };
  const int last = static_cast<int>(wl.operations().size()) - 1;
  for (int idx : {10, 40, 40, 5, last, 0, -1, 25, last}) {
    EXPECT_EQ(wl.LiveIdsAfter(idx), brute_force(idx)) << "op_index " << idx;
  }
}

TEST(WorkloadRunnerTest, FdRmsRunProducesBoundedRegret) {
  PointSet ps = GenerateIndep(400, 3, 4);
  Workload wl(&ps, 11);
  WorkloadRunner runner(&wl, /*k=*/1, /*eval_directions=*/2000, 5);
  FdRmsOptions opt;
  opt.k = 1;
  opt.r = 10;
  opt.eps = 0.05;
  opt.max_utilities = 256;
  RunResult res = runner.RunFdRms(opt);
  EXPECT_EQ(res.algorithm, "FD-RMS");
  EXPECT_EQ(res.checkpoint_regret.size(), 10u);
  for (double rr : res.checkpoint_regret) {
    EXPECT_GE(rr, 0.0);
    EXPECT_LT(rr, 0.5);
  }
  EXPECT_GT(res.mean_update_ms, 0.0);
  EXPECT_LE(static_cast<int>(res.final_result.size()), 10);
}

TEST(WorkloadRunnerTest, StaticRunChargesOnlySkylineTriggers) {
  PointSet ps = GenerateCorrelated(300, 3, 5);  // few skyline changes
  Workload wl(&ps, 13);
  WorkloadRunner runner(&wl, 1, 1000, 6);
  GeoGreedyRms algo(128, 4);
  RunResult res = runner.RunStatic(algo, /*r=*/8);
  EXPECT_EQ(res.algorithm, "GeoGreedy");
  EXPECT_GT(res.skyline_triggers, 0);
  EXPECT_LT(res.skyline_triggers, static_cast<long>(wl.operations().size()));
  // Static runs record regret at a strided subset of the checkpoints
  // (FDRMS_STATIC_CHECKPOINT_STRIDE, default 3 -> 4 of 10).
  EXPECT_GE(res.checkpoint_regret.size(), 4u);
  EXPECT_LE(res.checkpoint_regret.size(), 10u);
  for (double rr : res.checkpoint_regret) {
    EXPECT_GE(rr, 0.0);
    EXPECT_LE(rr, 1.0);
  }
}

TEST(WorkloadRunnerTest, RegretAtCheckpointZeroForFullResult) {
  PointSet ps = GenerateIndep(50, 2, 6);
  Workload wl(&ps, 17);
  WorkloadRunner runner(&wl, 1, 500, 7);
  // Offering the entire live set must give zero regret.
  int last = static_cast<int>(wl.checkpoints().size()) - 1;
  auto live = wl.LiveIdsAfter(wl.checkpoints()[last]);
  EXPECT_NEAR(runner.RegretAtCheckpoint(last, live), 0.0, 1e-12);
  // Offering a single worst tuple gives positive regret.
  EXPECT_GT(runner.RegretAtCheckpoint(last, {live[0]}), 0.0);
}

TEST(ServiceDriverTest, PartitionKeepsEachIdOnOneSubmitterInStreamOrder) {
  PointSet ps = GenerateIndep(400, 2, 4);
  Workload wl(&ps, 23);
  const std::vector<Operation>& ops = wl.operations();
  for (int submitters : {1, 3, 4}) {
    const std::vector<std::vector<size_t>> owned =
        PartitionOpsById(ops, submitters);
    ASSERT_EQ(owned.size(), static_cast<size_t>(submitters));
    std::vector<int> owner_of_position(ops.size(), -1);
    std::unordered_map<int, int> owner_of_id;
    for (int t = 0; t < submitters; ++t) {
      const std::vector<size_t>& mine = owned[static_cast<size_t>(t)];
      EXPECT_TRUE(std::is_sorted(mine.begin(), mine.end()));
      // Even split: no submitter idles while another takes the stream.
      EXPECT_GT(mine.size(), ops.size() / (2 * submitters));
      for (size_t i : mine) {
        ASSERT_LT(i, ops.size());
        EXPECT_EQ(owner_of_position[i], -1) << "position " << i;
        owner_of_position[i] = t;
        const auto it = owner_of_id.emplace(ops[i].id, t).first;
        EXPECT_EQ(it->second, t) << "id " << ops[i].id << " split";
      }
    }
    EXPECT_EQ(std::count(owner_of_position.begin(), owner_of_position.end(),
                         -1),
              0);
  }
}

}  // namespace
}  // namespace fdrms
