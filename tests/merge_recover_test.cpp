/// Equivalence suite for the merged read's greedy re-cover
/// (shard/merge_recover.h): the lazy-greedy implementation must pick the
/// same union members, in the same order, as the eager scan it replaced.
/// That scan is kept below, verbatim in its decisions, as the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "geometry/point.h"
#include "geometry/pointset.h"
#include "geometry/sampling.h"
#include "geometry/score_kernel.h"
#include "geometry/simd_dispatch.h"
#include "shard/merge_recover.h"

namespace fdrms {
namespace {

struct EagerResult {
  std::vector<size_t> picks;  ///< entries of `candidates`, in pick order
  size_t coverage_picks = 0;  ///< how many of them the coverage pass made
  bool coverage_saturated = false;  ///< every direction got covered
};

/// The eager re-cover: every step rescans every unpicked candidate with
/// scalar Dot scores; ties resolve to the first candidate in scan order.
EagerResult EagerReCover(const std::vector<Point>& directions,
                         const std::vector<const Point*>& points,
                         const std::vector<size_t>& candidates, size_t budget,
                         double merge_eps) {
  const size_t num_dirs = directions.size();
  std::vector<double> scores(candidates.size() * num_dirs);
  std::vector<double> best(num_dirs, 0.0);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const Point& p = *points[candidates[c]];
    for (size_t j = 0; j < num_dirs; ++j) {
      const double score = Dot(directions[j], p);
      scores[c * num_dirs + j] = score;
      best[j] = std::max(best[j], score);
    }
  }

  const double kCovered = std::numeric_limits<double>::quiet_NaN();
  const double keep_share = 1.0 - merge_eps;
  std::vector<double> bar(num_dirs, kCovered);
  size_t uncovered = 0;
  for (size_t j = 0; j < num_dirs; ++j) {
    if (best[j] <= 0.0) continue;
    bar[j] = keep_share * best[j];
    ++uncovered;
  }

  EagerResult result;
  std::vector<bool> picked(candidates.size(), false);
  std::vector<size_t> selection;
  while (selection.size() < budget && uncovered > 0) {
    size_t best_c = candidates.size();
    size_t best_gain = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (picked[c]) continue;
      const double* row = &scores[c * num_dirs];
      size_t gain = 0;
      for (size_t j = 0; j < num_dirs; ++j) gain += row[j] >= bar[j];
      if (gain > best_gain) {
        best_gain = gain;
        best_c = c;
      }
    }
    if (best_c == candidates.size()) break;
    picked[best_c] = true;
    selection.push_back(best_c);
    const double* row = &scores[best_c * num_dirs];
    for (size_t j = 0; j < num_dirs; ++j) {
      if (row[j] >= bar[j]) {
        bar[j] = kCovered;
        --uncovered;
      }
    }
  }
  result.coverage_picks = selection.size();
  result.coverage_saturated = uncovered == 0;

  std::vector<double> selected_best(num_dirs, 0.0);
  for (size_t slot : selection) {
    for (size_t j = 0; j < num_dirs; ++j) {
      selected_best[j] =
          std::max(selected_best[j], scores[slot * num_dirs + j]);
    }
  }
  while (selection.size() < budget) {
    size_t best_c = candidates.size();
    double best_gain = 0.0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (picked[c]) continue;
      double gain = 0.0;
      for (size_t j = 0; j < num_dirs; ++j) {
        gain += std::max(0.0, scores[c * num_dirs + j] - selected_best[j]);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_c = c;
      }
    }
    if (best_c == candidates.size()) break;
    picked[best_c] = true;
    selection.push_back(best_c);
    for (size_t j = 0; j < num_dirs; ++j) {
      selected_best[j] =
          std::max(selected_best[j], scores[best_c * num_dirs + j]);
    }
  }

  for (size_t slot : selection) result.picks.push_back(candidates[slot]);
  return result;
}

/// One re-cover input: the union's points, the candidate list (indices
/// into `points`, as the merge passes them) and the direction sample.
struct Union {
  std::vector<Point> points;
  std::vector<size_t> candidates;
  std::vector<Point> directions;
};

std::vector<const Point*> PointerView(const Union& u) {
  std::vector<const Point*> view;
  for (const Point& p : u.points) view.push_back(&p);
  return view;
}

std::vector<Point> NonnegDirections(int count, int dim, Rng* rng) {
  std::vector<Point> dirs;
  for (int i = 0; i < count; ++i) {
    dirs.push_back(SampleUnitVectorNonneg(dim, rng));
  }
  return dirs;
}

/// `n` distinct rows of `data` in random order; the candidate list is a
/// shuffled permutation so slot order and point order differ.
Union SampleUnion(const PointSet& data, int n, std::vector<Point> directions,
                  Rng* rng) {
  std::vector<int> rows(static_cast<size_t>(data.size()));
  for (int i = 0; i < data.size(); ++i) rows[static_cast<size_t>(i)] = i;
  rng->Shuffle(&rows);
  Union u;
  for (int i = 0; i < n; ++i) u.points.push_back(data.Get(rows[i]));
  for (size_t i = 0; i < u.points.size(); ++i) u.candidates.push_back(i);
  rng->Shuffle(&u.candidates);
  u.directions = std::move(directions);
  return u;
}

/// Runs both implementations on `u` and checks the picks match in order.
EagerResult ExpectSamePicks(const Union& u, size_t budget, double merge_eps,
                            const std::string& label) {
  const std::vector<const Point*> view = PointerView(u);
  const EagerResult eager =
      EagerReCover(u.directions, view, u.candidates, budget, merge_eps);
  const std::vector<size_t> lazy = GreedyReCover(
      ScoreMatrix(u.directions), view, u.candidates, budget, merge_eps);
  EXPECT_EQ(lazy, eager.picks) << label;
  EXPECT_LE(lazy.size(), budget) << label;
  return eager;
}

std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kNeon, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    if (SimdTierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Restores the active scoring tier on scope exit.
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier tier) : prev_(ActiveSimdTier()) {
    EXPECT_TRUE(SetSimdTier(tier)) << SimdTierName(tier);
  }
  ~ScopedSimdTier() { SetSimdTier(prev_); }

 private:
  SimdTier prev_;
};

TEST(MergeReCoverTest, MatchesEagerScanOnRandomUnions) {
  struct Source {
    const char* name;
    PointSet (*generate)(int, int, uint64_t);
  };
  const Source sources[] = {{"anticor", GenerateAntiCor},
                            {"indep", GenerateIndep},
                            {"corr", GenerateCorrelated}};
  // Direction counts straddle the 64-bit word boundaries of the bitsets.
  const int dir_counts[] = {1, 63, 64, 65, 200, 512};
  const double eps_values[] = {0.0, 0.01, 0.05, 0.2};
  Rng rng(20261020);
  int topped_up = 0, cut_by_budget = 0;
  for (const Source& source : sources) {
    for (int d : {2, 4, 6}) {
      const PointSet data = source.generate(600, d, rng.NextSeed());
      for (int trial = 0; trial < 12; ++trial) {
        const int n = 1 + rng.UniformInt(200);
        const size_t budget = static_cast<size_t>(1 + rng.UniformInt(60));
        const double eps = eps_values[rng.UniformInt(4)];
        const int dirs = dir_counts[rng.UniformInt(6)];
        const Union u =
            SampleUnion(data, n, NonnegDirections(dirs, d, &rng), &rng);
        const EagerResult eager = ExpectSamePicks(
            u, budget, eps,
            std::string(source.name) + " d=" + std::to_string(d) +
                " n=" + std::to_string(n) + " budget=" +
                std::to_string(budget) + " dirs=" + std::to_string(dirs));
        if (eager.picks.size() > eager.coverage_picks) ++topped_up;
        if (!eager.coverage_saturated && eager.picks.size() == budget) {
          ++cut_by_budget;
        }
      }
    }
  }
  // The sample reaches both regimes the lazy passes must get right.
  EXPECT_GT(topped_up, 10);
  EXPECT_GT(cut_by_budget, 3);
}

TEST(MergeReCoverTest, CoverageSaturatesBeforeTheBudgetAndTopUpRuns) {
  Rng rng(7);
  const PointSet data = GenerateAntiCor(400, 4, 11);
  const Union u = SampleUnion(data, 150, NonnegDirections(512, 4, &rng), &rng);
  // Budget = union size: coverage saturates early, the top-up then runs
  // until no remaining candidate raises any direction.
  const EagerResult eager = ExpectSamePicks(u, 150, 0.05, "full budget");
  EXPECT_TRUE(eager.coverage_saturated);
  EXPECT_GT(eager.picks.size(), eager.coverage_picks);
  EXPECT_LT(eager.picks.size(), 150u);
}

TEST(MergeReCoverTest, BudgetBelowWhatCoverageNeeds) {
  Rng rng(8);
  const PointSet data = GenerateAntiCor(400, 6, 12);
  const Union u = SampleUnion(data, 200, NonnegDirections(512, 6, &rng), &rng);
  for (size_t budget : {1u, 2u, 3u, 5u}) {
    const EagerResult eager =
        ExpectSamePicks(u, budget, 0.0, "budget " + std::to_string(budget));
    EXPECT_FALSE(eager.coverage_saturated);
    EXPECT_EQ(eager.picks.size(), budget);
    EXPECT_EQ(eager.coverage_picks, budget);
  }
}

TEST(MergeReCoverTest, DuplicatePointsTieToTheFirstSlot) {
  Rng rng(9);
  const PointSet data = GenerateIndep(80, 3, 13);
  // Every point three times: both passes see exact gain ties everywhere.
  Union u;
  for (int copy = 0; copy < 3; ++copy) {
    for (int i = 0; i < data.size(); ++i) u.points.push_back(data.Get(i));
  }
  for (size_t i = 0; i < u.points.size(); ++i) u.candidates.push_back(i);
  rng.Shuffle(&u.candidates);
  u.directions = NonnegDirections(256, 3, &rng);
  for (size_t budget : {1u, 4u, 20u, 60u}) {
    const EagerResult eager =
        ExpectSamePicks(u, budget, 0.05, "budget " + std::to_string(budget));
    // A duplicate of a pick never gains anything, so no point repeats.
    std::vector<Point> picked;
    for (size_t e : eager.picks) picked.push_back(u.points[e]);
    std::sort(picked.begin(), picked.end());
    EXPECT_EQ(std::adjacent_find(picked.begin(), picked.end()), picked.end());
  }
}

TEST(MergeReCoverTest, DirectionsWithoutAPositiveOptimumAreSkipped) {
  Rng rng(10);
  const PointSet data = GenerateCorrelated(200, 4, 14);
  Union u = SampleUnion(data, 90, NonnegDirections(100, 4, &rng), &rng);
  // Directions pointing away from the orthant score <= 0 for every tuple,
  // and the origin scores 0 everywhere; both are trivially covered.
  for (int i = 0; i < 40; ++i) {
    Point dir = SampleUnitVectorNonneg(4, &rng);
    for (double& x : dir) x = -x;
    u.directions.push_back(dir);
  }
  u.directions.push_back({0.0, 0.0, 0.0, 0.0});
  u.points.push_back({0.0, 0.0, 0.0, 0.0});
  u.candidates.push_back(u.points.size() - 1);
  for (size_t budget : {1u, 10u, 91u}) {
    ExpectSamePicks(u, budget, 0.05, "budget " + std::to_string(budget));
  }

  // Only non-positive directions: nothing is ever worth picking.
  Union none = u;
  none.directions.erase(none.directions.begin(),
                        none.directions.begin() + 100);
  const EagerResult eager = ExpectSamePicks(none, 30, 0.05, "no positive");
  EXPECT_TRUE(eager.picks.empty());
}

TEST(MergeReCoverTest, EverySimdTierPicksTheSame) {
  Rng rng(11);
  const PointSet data = GenerateAntiCor(500, 6, 15);
  const Union u = SampleUnion(data, 100, NonnegDirections(512, 6, &rng), &rng);
  for (SimdTier tier : AvailableTiers()) {
    ScopedSimdTier scoped(tier);
    ExpectSamePicks(u, 50, 0.05, SimdTierName(tier));
  }
}

TEST(MergeReCoverTest, EmptyInputsPickNothing) {
  Rng rng(12);
  const std::vector<Point> dirs = NonnegDirections(16, 2, &rng);
  const std::vector<Point> points = {{0.5, 0.5}};
  const std::vector<const Point*> view = {&points[0]};
  EXPECT_TRUE(GreedyReCover(ScoreMatrix(dirs), view, {}, 5, 0.05).empty());
  EXPECT_TRUE(GreedyReCover(ScoreMatrix(dirs), view, {0}, 0, 0.05).empty());
  EXPECT_EQ(GreedyReCover(ScoreMatrix(dirs), view, {0}, 5, 0.05),
            std::vector<size_t>{0});
}

}  // namespace
}  // namespace fdrms
