#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "geometry/sampling.h"
#include "topk/topk_maintainer.h"

namespace fdrms {
namespace {

TEST(TopKMaintainerTest, SingleUtilityBasics) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.1, utils);
  ASSERT_TRUE(m.Insert(0, {0.5, 0.2}, nullptr).ok());
  ASSERT_TRUE(m.Insert(1, {0.9, 0.1}, nullptr).ok());
  ASSERT_TRUE(m.Insert(2, {0.85, 0.9}, nullptr).ok());
  // omega_1 = 0.9; threshold = 0.81: tuples 1 and 2 qualify.
  EXPECT_DOUBLE_EQ(m.OmegaK(0), 0.9);
  EXPECT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{1, 2}));
  EXPECT_TRUE(m.ValidateAgainstBruteForce().ok());
}

TEST(TopKMaintainerTest, FewerTuplesThanKMeansEveryoneQualifies) {
  Rng rng(4);
  auto utils = SampleUtilityVectors(8, 3, &rng);
  TopKMaintainer m(3, /*k=*/5, /*eps=*/0.05, utils);
  for (int i = 0; i < 3; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(m.Insert(i, p, nullptr).ok());
  }
  for (int u = 0; u < m.num_utilities(); ++u) {
    EXPECT_EQ(m.ApproxTopK(u).size(), 3u);
    EXPECT_DOUBLE_EQ(m.OmegaK(u), 0.0);
  }
  EXPECT_TRUE(m.ValidateAgainstBruteForce().ok());
}

TEST(TopKMaintainerTest, DeltasDescribeExactMembershipChanges) {
  std::vector<Point> utils{{1.0, 0.0}, {0.0, 1.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.0, utils);
  std::vector<TopKDelta> deltas;
  ASSERT_TRUE(m.Insert(0, {0.5, 0.5}, &deltas).ok());
  // Tuple 0 becomes the top of both utilities.
  EXPECT_EQ(deltas.size(), 2u);
  deltas.clear();
  ASSERT_TRUE(m.Insert(1, {0.8, 0.2}, &deltas).ok());
  // Utility 0: tuple 1 displaces tuple 0 (eps = 0 keeps only the top).
  ASSERT_EQ(deltas.size(), 2u);
  bool saw_add = false, saw_remove = false;
  for (const auto& d : deltas) {
    if (d.added) {
      EXPECT_EQ(d.tuple_id, 1);
      EXPECT_EQ(d.utility, 0);
      saw_add = true;
    } else {
      EXPECT_EQ(d.tuple_id, 0);
      EXPECT_EQ(d.utility, 0);
      saw_remove = true;
    }
  }
  EXPECT_TRUE(saw_add);
  EXPECT_TRUE(saw_remove);
  // MemberOf mirrors the sets.
  EXPECT_EQ(m.MemberOf(0), (std::unordered_set<int>{1}));
  EXPECT_EQ(m.MemberOf(1), (std::unordered_set<int>{0}));
}

TEST(TopKMaintainerTest, DeleteOfNonMemberTouchesNothing) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.0, utils);
  ASSERT_TRUE(m.Insert(0, {0.9, 0.1}, nullptr).ok());
  ASSERT_TRUE(m.Insert(1, {0.1, 0.9}, nullptr).ok());
  std::vector<TopKDelta> deltas;
  ASSERT_TRUE(m.Delete(1, &deltas).ok());
  EXPECT_TRUE(deltas.empty());
  EXPECT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{0}));
}

TEST(TopKMaintainerTest, DeleteMissingIdFails) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, 1, 0.0, utils);
  EXPECT_EQ(m.Delete(3, nullptr).code(), StatusCode::kNotFound);
}

/// Deletes `id`, checks the emitted deltas against `expect` (in order) and
/// the whole state against brute force.
void DeleteAndExpect(TopKMaintainer* m, int id,
                     const std::vector<TopKDelta>& expect) {
  std::vector<TopKDelta> deltas;
  ASSERT_TRUE(m->Delete(id, &deltas).ok());
  EXPECT_EQ(deltas, expect) << "deleting " << id;
  EXPECT_TRUE(m->ValidateAgainstBruteForce().ok()) << "after deleting " << id;
}

std::vector<int> TopKIds(const TopKMaintainer& m, int utility) {
  std::vector<int> ids;
  for (const ScoredId& s : m.ExactTopK(utility)) ids.push_back(s.id);
  return ids;
}

// Φ \ {p} still holds k members, so the repair reads the new top-k from Φ
// and one range pass admits the tuple between the old and the new bar.
TEST(TopKRepairTest, PhiLocalBranchAdmitsEntrantsBelowTheOldBar) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.1, utils);
  ASSERT_TRUE(m.Insert(0, {1.0, 0.0}, nullptr).ok());
  ASSERT_TRUE(m.Insert(1, {0.95, 0.0}, nullptr).ok());
  ASSERT_TRUE(m.Insert(2, {0.87, 0.0}, nullptr).ok());
  ASSERT_TRUE(m.Insert(3, {0.5, 0.0}, nullptr).ok());
  ASSERT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{0, 1}));  // bar 0.9
  DeleteAndExpect(&m, 0, {{0, 0, false}, {0, 2, true}});         // bar 0.855
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(m.OmegaK(0), 0.95);
  EXPECT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{1, 2}));
  EXPECT_EQ(m.MemberOf(2), (std::unordered_set<int>{0}));
}

// Φ = {p}: nothing survives in Φ, so the fused kd-tree pass finds the new
// top-k and Φ together.
TEST(TopKRepairTest, TreeFallbackWhenPhiHeldOnlyTheVictim) {
  std::vector<Point> utils{{1.0, 0.0}, {0.0, 1.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.01, utils);
  ASSERT_TRUE(m.Insert(0, {1.0, 0.0}, nullptr).ok());
  ASSERT_TRUE(m.Insert(1, {0.5, 0.1}, nullptr).ok());
  ASSERT_TRUE(m.Insert(2, {0.6, 0.3}, nullptr).ok());
  ASSERT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{0}));
  DeleteAndExpect(&m, 0, {{0, 0, false}, {0, 2, true}});
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{2}));
  EXPECT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{2}));
  // The last tuple of a utility: the fused pass returns an empty top-k.
  DeleteAndExpect(&m, 2, {{0, 2, false}, {0, 1, true}, {1, 2, false},
                          {1, 1, true}});
  DeleteAndExpect(&m, 1, {{0, 1, false}, {1, 1, false}});
  EXPECT_TRUE(m.ExactTopK(0).empty());
  EXPECT_DOUBLE_EQ(m.OmegaK(0), 0.0);
}

// k = 3 walks through both branches: two Φ-local repairs (one admitting an
// entrant, one not), then a fallback once Φ \ {p} drops below k.
TEST(TopKRepairTest, KGreaterThanOneUsesBothBranches) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/3, /*eps=*/0.1, utils);
  const double scores[] = {1.0, 0.9, 0.8, 0.75, 0.7, 0.5};
  for (int id = 0; id < 6; ++id) {
    ASSERT_TRUE(m.Insert(id, {scores[id], 0.0}, nullptr).ok());
  }
  ASSERT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{0, 1, 2, 3}));
  DeleteAndExpect(&m, 1, {{0, 1, false}, {0, 4, true}});  // Φ-local
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{0, 2, 3}));
  DeleteAndExpect(&m, 0, {{0, 0, false}});  // Φ-local, no entrant
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{2, 3, 4}));
  DeleteAndExpect(&m, 2, {{0, 2, false}, {0, 5, true}});  // fallback
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{3, 4, 5}));
  EXPECT_DOUBLE_EQ(m.OmegaK(0), 0.5);
}

// ε = 0: Φ is the k-th score's tie group, so a Φ-local repair never moves
// the bar and needs no range pass.
TEST(TopKRepairTest, EpsZeroKeepsTheBarOnAPhiLocalRepair) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/1, /*eps=*/0.0, utils);
  ASSERT_TRUE(m.Insert(0, {1.0, 0.0}, nullptr).ok());
  ASSERT_TRUE(m.Insert(1, {1.0, 0.5}, nullptr).ok());
  ASSERT_TRUE(m.Insert(2, {0.8, 0.0}, nullptr).ok());
  ASSERT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{0, 1}));
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{0}));
  DeleteAndExpect(&m, 0, {{0, 0, false}});  // Φ-local
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{1}));
  DeleteAndExpect(&m, 1, {{0, 1, false}, {0, 2, true}});  // fallback
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{2}));
}

// Equal scores are ranked by ascending id in both branches.
TEST(TopKRepairTest, TiedScoresBreakByAscendingId) {
  std::vector<Point> utils{{1.0, 0.0}};
  TopKMaintainer m(2, /*k=*/2, /*eps=*/0.0, utils);
  ASSERT_TRUE(m.Insert(1, {0.9, 0.0}, nullptr).ok());
  for (int id : {9, 5, 3}) ASSERT_TRUE(m.Insert(id, {0.7, 0.1}, nullptr).ok());
  ASSERT_TRUE(m.Insert(0, {0.2, 0.0}, nullptr).ok());
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{1, 3}));
  EXPECT_EQ(m.ApproxTopK(0), (std::unordered_set<int>{1, 3, 5, 9}));
  DeleteAndExpect(&m, 3, {{0, 3, false}});  // Φ-local
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{1, 5}));
  DeleteAndExpect(&m, 1, {{0, 1, false}});  // Φ-local
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{5, 9}));
  DeleteAndExpect(&m, 5, {{0, 5, false}, {0, 0, true}});  // fallback
  EXPECT_EQ(TopKIds(m, 0), (std::vector<int>{9, 0}));
}

struct ChurnParam {
  int dim;
  int k;
  double eps;
  int num_utils;
  int num_ops;
  uint64_t seed;
};

class TopKChurnTest : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(TopKChurnTest, StateMatchesBruteForceAndDeltasAreConsistent) {
  const ChurnParam param = GetParam();
  Rng rng(param.seed);
  auto utils = SampleUtilityVectors(param.num_utils, param.dim, &rng);
  TopKMaintainer m(param.dim, param.k, param.eps, utils);
  // Shadow Φ sets reconstructed from deltas only.
  std::vector<std::unordered_set<int>> shadow(param.num_utils);
  std::unordered_map<int, Point> live;
  int next_id = 0;
  for (int op = 0; op < param.num_ops; ++op) {
    std::vector<TopKDelta> deltas;
    bool do_insert = live.empty() || rng.Uniform() < 0.55;
    if (do_insert) {
      Point p(param.dim);
      for (double& v : p) v = rng.Uniform();
      ASSERT_TRUE(m.Insert(next_id, p, &deltas).ok());
      live.emplace(next_id, p);
      ++next_id;
    } else {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(static_cast<int>(live.size())));
      ASSERT_TRUE(m.Delete(it->first, &deltas).ok());
      live.erase(it);
    }
    for (const auto& d : deltas) {
      if (d.added) {
        EXPECT_TRUE(shadow[d.utility].insert(d.tuple_id).second)
            << "duplicate add delta";
      } else {
        EXPECT_EQ(shadow[d.utility].erase(d.tuple_id), 1u)
            << "remove delta for non-member";
      }
    }
    if (op % 20 == 19) {
      ASSERT_TRUE(m.ValidateAgainstBruteForce().ok()) << "op " << op;
      for (int u = 0; u < param.num_utils; ++u) {
        EXPECT_EQ(shadow[u], m.ApproxTopK(u)) << "delta stream diverged";
      }
    }
  }
}

// A delete-heavy tail over a small pool of repeated points, so exact
// top-k lists and Φ sets are full of ties; brute force checks the state
// after every single operation.
TEST_P(TopKChurnTest, DeleteHeavyTailOverDuplicatesMatchesBruteForce) {
  const ChurnParam param = GetParam();
  Rng rng(param.seed + 1000);
  auto utils = SampleUtilityVectors(param.num_utils, param.dim, &rng);
  TopKMaintainer m(param.dim, param.k, param.eps, utils);
  std::vector<Point> pool(8, Point(param.dim));
  for (Point& p : pool) {
    for (double& v : p) v = rng.Uniform();
  }
  std::vector<std::unordered_set<int>> shadow(param.num_utils);
  std::vector<int> live;
  int next_id = 0;
  const int tail_start = param.num_ops / 2;
  for (int op = 0; op < param.num_ops; ++op) {
    std::vector<TopKDelta> deltas;
    const double insert_share = op < tail_start ? 0.9 : 0.15;
    if (live.empty() || rng.Uniform() < insert_share) {
      const Point& p = pool[rng.UniformInt(static_cast<int>(pool.size()))];
      ASSERT_TRUE(m.Insert(next_id, p, &deltas).ok());
      live.push_back(next_id++);
    } else {
      const int at = rng.UniformInt(static_cast<int>(live.size()));
      ASSERT_TRUE(m.Delete(live[at], &deltas).ok());
      live[at] = live.back();
      live.pop_back();
    }
    for (const auto& d : deltas) {
      if (d.added) {
        EXPECT_TRUE(shadow[d.utility].insert(d.tuple_id).second);
      } else {
        EXPECT_EQ(shadow[d.utility].erase(d.tuple_id), 1u);
      }
    }
    if (op >= tail_start) {
      ASSERT_TRUE(m.ValidateAgainstBruteForce().ok()) << "op " << op;
    }
  }
  for (int u = 0; u < param.num_utils; ++u) {
    EXPECT_EQ(shadow[u], m.ApproxTopK(u)) << "delta stream diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKChurnTest,
    ::testing::Values(ChurnParam{2, 1, 0.0, 8, 300, 21},
                      ChurnParam{2, 1, 0.1, 16, 300, 22},
                      ChurnParam{4, 3, 0.05, 32, 400, 23},
                      ChurnParam{6, 5, 0.02, 24, 400, 24},
                      ChurnParam{3, 2, 0.3, 12, 500, 25},
                      ChurnParam{8, 1, 0.01, 40, 300, 26}),
    [](const auto& info) {
      std::string name = "d";
      name += std::to_string(info.param.dim);
      name += 'k';
      name += std::to_string(info.param.k);
      name += 'm';
      name += std::to_string(info.param.num_utils);
      name += 's';
      name += std::to_string(info.param.seed);
      return name;
    });

}  // namespace
}  // namespace fdrms
