#include "shard/merge_recover.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace fdrms {
namespace {

/// Candidates whose gains one evaluator call computes side by side.
constexpr size_t kGainBatch = 4;

/// Lazy greedy over slots [0, n): repeatedly picks the unpicked slot with
/// the largest positive gain, the smallest slot among equal gains, until
/// `selection` holds `budget` slots or no gain is positive.
/// `gains(slots, count, out)` writes each listed slot's current gain; a
/// gain must never rise as picks are made. `commit(slot)` records a pick
/// in the state `gains` reads.
template <typename Gain, typename GainsFn, typename CommitFn>
void LazyGreedy(size_t n, size_t budget, std::vector<bool>* picked,
                std::vector<size_t>* selection, GainsFn gains,
                CommitFn commit) {
  if (selection->size() >= budget) return;
  struct Entry {
    Gain gain;
    size_t slot;
    size_t stamp;  ///< selection size when `gain` was computed
  };
  // Heap order: larger gain first, then smaller slot.
  auto below = [](const Entry& a, const Entry& b) {
    return a.gain < b.gain || (a.gain == b.gain && a.slot > b.slot);
  };
  std::vector<size_t> slots;
  for (size_t c = 0; c < n; ++c) {
    if (!(*picked)[c]) slots.push_back(c);
  }
  std::vector<Gain> values(slots.size());
  gains(slots.data(), slots.size(), values.data());
  std::vector<Entry> heap;
  heap.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (values[i] > Gain{0}) {
      heap.push_back({values[i], slots[i], selection->size()});
    }
  }
  std::make_heap(heap.begin(), heap.end(), below);

  auto fresh = [&](const Entry& e) { return e.stamp == selection->size(); };
  while (selection->size() < budget && !heap.empty()) {
    if (fresh(heap.front())) {
      // Exact and no smaller than any other entry's bound: the eager pick.
      std::pop_heap(heap.begin(), heap.end(), below);
      const size_t slot = heap.back().slot;
      heap.pop_back();
      (*picked)[slot] = true;
      selection->push_back(slot);
      commit(slot);
      continue;
    }
    // Stale bounds on top: re-evaluate up to a batch of them together.
    size_t batch[kGainBatch] = {};
    Gain batch_gains[kGainBatch] = {};
    size_t count = 0;
    while (count < kGainBatch && !heap.empty() && !fresh(heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), below);
      batch[count++] = heap.back().slot;
      heap.pop_back();
    }
    gains(batch, count, batch_gains);
    for (size_t i = 0; i < count; ++i) {
      if (batch_gains[i] <= Gain{0}) continue;  // a zero gain never rises
      heap.push_back({batch_gains[i], batch[i], selection->size()});
      std::push_heap(heap.begin(), heap.end(), below);
    }
  }
}

}  // namespace

std::vector<size_t> GreedyReCover(const ScoreMatrix& directions,
                                  const std::vector<const Point*>& points,
                                  const std::vector<size_t>& candidates,
                                  size_t budget, double merge_eps) {
  const size_t n = candidates.size();
  const size_t num_dirs = static_cast<size_t>(directions.rows());
  const int dim = directions.dim();
  if (n == 0 || num_dirs == 0 || budget == 0) return {};

  // Score rows (candidate c against every direction, one block-kernel call
  // each, bit-identical to Dot) and the union's per-direction optimum.
  std::vector<double> scores(n * num_dirs);
  std::vector<double> best(num_dirs, 0.0);
  for (size_t c = 0; c < n; ++c) {
    const Point& p = *points[candidates[c]];
    FDRMS_DCHECK(static_cast<int>(p.size()) == dim);
    double* row = &scores[c * num_dirs];
    ScoreBlock(directions.row(0), directions.stride(), dim, num_dirs,
               p.data(), row);
    for (size_t j = 0; j < num_dirs; ++j) best[j] = std::max(best[j], row[j]);
  }

  // Coverage: a direction with a positive optimum is open until a selected
  // tuple reaches (1-ε) of it; otherwise it is trivially covered (its bar
  // is NaN, which no score reaches). A bar never moves, so the directions
  // each candidate clears are a fixed bitset and its gain is a popcount
  // against the open set.
  const size_t words = (num_dirs + 63) / 64;
  const double keep_share = 1.0 - merge_eps;
  std::vector<double> bar(num_dirs, std::numeric_limits<double>::quiet_NaN());
  std::vector<uint64_t> open(words, 0);
  for (size_t j = 0; j < num_dirs; ++j) {
    if (best[j] <= 0.0) continue;
    bar[j] = keep_share * best[j];
    open[j / 64] |= uint64_t{1} << (j % 64);
  }
  std::vector<uint64_t> clears(n * words);
  for (size_t c = 0; c < n; ++c) {
    const double* row = &scores[c * num_dirs];
    for (size_t w = 0; w < words; ++w) {
      const size_t lo = w * 64;
      const size_t hi = std::min(num_dirs, lo + 64);
      uint64_t bits = 0;
      for (size_t j = lo; j < hi; ++j) {
        bits |= static_cast<uint64_t>(row[j] >= bar[j]) << (j - lo);
      }
      clears[c * words + w] = bits;
    }
  }

  std::vector<bool> picked(n, false);
  std::vector<size_t> selection;  // slots into `candidates`/`scores`
  LazyGreedy<size_t>(
      n, budget, &picked, &selection,
      [&](const size_t* slots, size_t count, size_t* out) {
        for (size_t i = 0; i < count; ++i) {
          const uint64_t* cl = &clears[slots[i] * words];
          size_t gain = 0;
          for (size_t w = 0; w < words; ++w) {
            gain += static_cast<size_t>(std::popcount(cl[w] & open[w]));
          }
          out[i] = gain;
        }
      },
      [&](size_t c) {
        const uint64_t* cl = &clears[c * words];
        for (size_t w = 0; w < words; ++w) open[w] &= ~cl[w];
      });

  // Top-up: coverage can saturate well before the budget (a few strong
  // tuples clear the (1-ε) bar everywhere). Spend the remaining slots on
  // the picks that raise the selected set's per-direction optimum the
  // most, so the served set keeps closing the gap to the union's quality.
  std::vector<double> selected_best(num_dirs, 0.0);
  auto raise = [&](size_t c) {
    const double* row = &scores[c * num_dirs];
    for (size_t j = 0; j < num_dirs; ++j) {
      selected_best[j] = std::max(selected_best[j], row[j]);
    }
  };
  for (size_t slot : selection) raise(slot);
  LazyGreedy<double>(
      n, budget, &picked, &selection,
      [&](const size_t* slots, size_t count, double* out) {
        // kGainBatch candidates side by side, each summed in direction
        // order on its own; a short batch repeats its last candidate.
        for (size_t i = 0; i < count; i += kGainBatch) {
          const double* rows[kGainBatch];
          double gain[kGainBatch] = {};
          for (size_t k = 0; k < kGainBatch; ++k) {
            rows[k] = &scores[slots[std::min(i + k, count - 1)] * num_dirs];
          }
          for (size_t j = 0; j < num_dirs; ++j) {
            for (size_t k = 0; k < kGainBatch; ++k) {
              gain[k] += std::max(0.0, rows[k][j] - selected_best[j]);
            }
          }
          for (size_t k = 0; k < kGainBatch && i + k < count; ++k) {
            out[i + k] = gain[k];
          }
        }
      },
      raise);

  std::vector<size_t> kept;
  kept.reserve(selection.size());
  for (size_t slot : selection) kept.push_back(candidates[slot]);
  return kept;
}

}  // namespace fdrms
