#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "geometry/sampling.h"
#include "index/kdtree.h"

namespace fdrms {
namespace {

/// Brute-force reference over a live id->point map.
std::vector<ScoredId> BruteTopK(const std::unordered_map<int, Point>& live,
                                const Point& u, int k) {
  std::vector<ScoredId> all;
  for (const auto& [id, p] : live) all.push_back({Dot(u, p), id});
  std::sort(all.begin(), all.end(), BetterScore);
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

std::vector<ScoredId> BruteRange(const std::unordered_map<int, Point>& live,
                                 const Point& u, double threshold) {
  std::vector<ScoredId> all;
  for (const auto& [id, p] : live) {
    double s = Dot(u, p);
    if (s >= threshold) all.push_back({s, id});
  }
  std::sort(all.begin(), all.end(), BetterScore);
  return all;
}

/// Brute-force reference of the fused query: the exact top-k and every
/// tuple at or above (1 - eps) * ω_k (ω_k = 0 below k tuples).
std::pair<std::vector<ScoredId>, std::vector<ScoredId>> BruteTopKWithApprox(
    const std::unordered_map<int, Point>& live, const Point& u, int k,
    double eps) {
  auto top = BruteTopK(live, u, k);
  const double omega =
      static_cast<int>(top.size()) < k ? 0.0 : top.back().score;
  return {top, BruteRange(live, u, (1.0 - eps) * omega)};
}

/// Checks TopK, ScoreRange and the fused query against brute force for one
/// utility. The output vectors start dirty, so the allocation-free forms
/// must overwrite them.
void ExpectQueriesMatchBruteForce(const KdTree& tree,
                                  const std::unordered_map<int, Point>& live,
                                  const Point& u, int k, double eps) {
  const auto brute_top = BruteTopK(live, u, k);
  EXPECT_EQ(tree.TopK(u, k), brute_top);
  std::vector<ScoredId> top{{-1.0, -1}}, approx{{-2.0, -2}};
  const auto [want_top, want_approx] = BruteTopKWithApprox(live, u, k, eps);
  tree.TopKWithApprox(u.data(), k, eps, &top, &approx);
  EXPECT_EQ(top, want_top) << "fused top-k, k=" << k << " eps=" << eps;
  EXPECT_EQ(approx, want_approx) << "fused approx, k=" << k << " eps=" << eps;
  std::vector<ScoredId> range{{-3.0, -3}};
  const double thr = brute_top.empty() ? 0.0 : brute_top.back().score * 0.9;
  tree.ScoreRange(u.data(), thr, &range);
  EXPECT_EQ(range, BruteRange(live, u, thr));
}

TEST(KdTreeTest, InsertDuplicateIdFails) {
  KdTree tree(2);
  ASSERT_TRUE(tree.Insert(1, {0.5, 0.5}).ok());
  EXPECT_EQ(tree.Insert(1, {0.1, 0.1}).code(), StatusCode::kAlreadyExists);
}

TEST(KdTreeTest, DeleteMissingIdFails) {
  KdTree tree(2);
  EXPECT_EQ(tree.Delete(9).code(), StatusCode::kNotFound);
}

TEST(KdTreeTest, DimensionMismatchRejected) {
  KdTree tree(3);
  EXPECT_EQ(tree.Insert(0, {1.0, 2.0}).code(), StatusCode::kInvalidArgument);
}

TEST(KdTreeTest, TopKOnTinySet) {
  KdTree tree(2);
  ASSERT_TRUE(tree.Insert(0, {0.2, 1.0}).ok());
  ASSERT_TRUE(tree.Insert(1, {0.6, 0.8}).ok());
  ASSERT_TRUE(tree.Insert(2, {1.0, 0.1}).ok());
  Point u{1.0, 0.0};
  auto top2 = tree.TopK(u, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].id, 2);
  EXPECT_EQ(top2[1].id, 1);
  // Fewer live points than k.
  auto top9 = tree.TopK(u, 9);
  EXPECT_EQ(top9.size(), 3u);
}

TEST(KdTreeTest, TieBreaksByAscendingId) {
  KdTree tree(2);
  ASSERT_TRUE(tree.Insert(7, {0.5, 0.5}).ok());
  ASSERT_TRUE(tree.Insert(3, {0.5, 0.5}).ok());
  auto top = tree.TopK({1.0, 1.0}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 3);
  EXPECT_EQ(top[1].id, 7);
}

struct RandomOpsParam {
  int dim;
  int k;
  int num_ops;
  uint64_t seed;
};

class KdTreeRandomOpsTest : public ::testing::TestWithParam<RandomOpsParam> {};

TEST_P(KdTreeRandomOpsTest, MatchesBruteForceUnderChurn) {
  const RandomOpsParam param = GetParam();
  Rng rng(param.seed);
  KdTree tree(param.dim);
  std::unordered_map<int, Point> live;
  int next_id = 0;
  for (int op = 0; op < param.num_ops; ++op) {
    bool do_insert = live.empty() || rng.Uniform() < 0.6;
    if (do_insert) {
      Point p(param.dim);
      for (double& v : p) v = rng.Uniform();
      ASSERT_TRUE(tree.Insert(next_id, p).ok());
      live.emplace(next_id, p);
      ++next_id;
    } else {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(static_cast<int>(live.size())));
      ASSERT_TRUE(tree.Delete(it->first).ok());
      live.erase(it);
    }
    ASSERT_EQ(tree.size(), static_cast<int>(live.size()));
    if (op % 25 == 0 && !live.empty()) {
      Point u = SampleUnitVectorNonneg(param.dim, &rng);
      EXPECT_EQ(tree.TopK(u, param.k), BruteTopK(live, u, param.k));
      auto brute = BruteTopK(live, u, param.k);
      double thr = brute.back().score * 0.9;
      EXPECT_EQ(tree.ScoreRange(u, thr), BruteRange(live, u, thr));
      for (double eps : {0.0, 0.05, 0.3}) {
        ExpectQueriesMatchBruteForce(tree, live, u, param.k, eps);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeRandomOpsTest,
    ::testing::Values(RandomOpsParam{2, 1, 400, 1},
                      RandomOpsParam{3, 3, 400, 2},
                      RandomOpsParam{5, 5, 600, 3},
                      RandomOpsParam{8, 2, 600, 4},
                      RandomOpsParam{4, 4, 1500, 5}),
    [](const auto& info) {
      std::string name = "d";
      name += std::to_string(info.param.dim);
      name += 'k';
      name += std::to_string(info.param.k);
      name += "ops";
      name += std::to_string(info.param.num_ops);
      return name;
    });

TEST(KdTreeTest, ExplicitRebuildPreservesContents) {
  Rng rng(77);
  KdTree tree(3);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 300; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
    live.emplace(i, p);
  }
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(tree.Delete(i * 2).ok());
    live.erase(i * 2);
  }
  tree.Rebuild();
  EXPECT_EQ(tree.size(), 150);
  Point u = SampleUnitVectorNonneg(3, &rng);
  EXPECT_EQ(tree.TopK(u, 10), BruteTopK(live, u, 10));
}

// Fewer than 64 inserts never trigger a rebuild, so every query runs on
// the insert buffer alone, tombstones included.
TEST(KdTreeTest, BufferOnlyTreeAnswersEveryQuery) {
  Rng rng(31);
  KdTree tree(4);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 50; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
    live.emplace(i, p);
  }
  for (int i = 0; i < 50; i += 4) {
    ASSERT_TRUE(tree.Delete(i).ok());
    live.erase(i);
  }
  for (int trial = 0; trial < 10; ++trial) {
    Point u = SampleUnitVectorNonneg(4, &rng);
    for (int k : {1, 3, 7}) ExpectQueriesMatchBruteForce(tree, live, u, k, 0.1);
  }
}

// Deleting most of an indexed tree leaves leaves full of tombstones.
TEST(KdTreeTest, QueriesSkipTombstonesInTreeLeaves) {
  Rng rng(32);
  KdTree tree(3, /*leaf_size=*/4);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 400; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
    live.emplace(i, p);
  }
  tree.Rebuild();
  for (int i = 0; i < 400; ++i) {
    if (i % 5 == 0) continue;
    ASSERT_TRUE(tree.Delete(i).ok());
    live.erase(i);
    if (i % 37 == 0) {
      Point u = SampleUnitVectorNonneg(3, &rng);
      ExpectQueriesMatchBruteForce(tree, live, u, 4, 0.05);
    }
  }
}

// Duplicate points: every tie must break by ascending id, in the top-k and
// at the k-th score that sets the fused query's bar.
TEST(KdTreeTest, TiesBreakByIdInEveryQuery) {
  Rng rng(33);
  std::vector<Point> pool{{0.9, 0.1}, {0.5, 0.5}, {0.1, 0.9}, {0.5, 0.5}};
  KdTree tree(2, /*leaf_size=*/2);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 300; ++i) {
    const int id = (i * 7919) % 1000;  // ids not in insert order
    const Point& p = pool[static_cast<size_t>(rng.UniformInt(4))];
    ASSERT_TRUE(tree.Insert(id, p).ok());
    live.emplace(id, p);
  }
  for (const Point& u : {Point{1.0, 0.0}, Point{0.0, 1.0}, Point{0.6, 0.8}}) {
    for (int k : {1, 5, 120}) {
      ExpectQueriesMatchBruteForce(tree, live, u, k, 0.0);
      ExpectQueriesMatchBruteForce(tree, live, u, k, 0.2);
    }
  }
}

// k above the live count returns everything; the fused query then uses
// ω_k = 0 and keeps the tuples scoring at least 0.
TEST(KdTreeTest, KAboveSizeReturnsEveryLiveTuple) {
  Rng rng(34);
  KdTree tree(3);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 90; ++i) {
    Point p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
    live.emplace(i, p);
  }
  ASSERT_TRUE(tree.Delete(3).ok());
  live.erase(3);
  Point u = SampleUnitVectorNonneg(3, &rng);
  EXPECT_EQ(tree.TopK(u, 500).size(), 89u);
  ExpectQueriesMatchBruteForce(tree, live, u, 89, 0.1);
  ExpectQueriesMatchBruteForce(tree, live, u, 500, 0.1);
}

// With negative coordinates the k-th score can be negative, where the
// fused query's approx bar lies above it; the search must prune on the
// lower of the two.
TEST(KdTreeTest, FusedQueryHandlesNegativeScores) {
  Rng rng(35);
  KdTree tree(2, /*leaf_size=*/2);
  std::unordered_map<int, Point> live;
  for (int i = 0; i < 200; ++i) {
    Point p{-1.0 - rng.Uniform(), -1.0 - rng.Uniform()};
    ASSERT_TRUE(tree.Insert(i, p).ok());
    live.emplace(i, p);
  }
  for (int trial = 0; trial < 10; ++trial) {
    Point u = SampleUnitVectorNonneg(2, &rng);
    // k = 250 exceeds the size: ω_k = 0, so no negative score qualifies.
    for (int k : {1, 4, 250}) {
      ExpectQueriesMatchBruteForce(tree, live, u, k, 0.1);
    }
  }
}

TEST(KdTreeTest, ScoreRangeWithZeroThresholdReturnsAll) {
  KdTree tree(2);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(i, {0.05 * i, 1.0 - 0.05 * i}).ok());
  }
  EXPECT_EQ(tree.ScoreRange({1.0, 1.0}, 0.0).size(), 20u);
}

TEST(KdTreeTest, ForEachVisitsExactlyLiveTuples) {
  KdTree tree(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(i, {0.1 * i, 0.1}).ok());
  }
  ASSERT_TRUE(tree.Delete(4).ok());
  std::vector<int> seen;
  tree.ForEach([&](int id, const Point&) { seen.push_back(id); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace fdrms
