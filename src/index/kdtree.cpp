#include "index/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geometry/score_kernel.h"

namespace fdrms {

KdTree::KdTree(int dim, int leaf_size)
    : dim_(dim), leaf_size_(leaf_size), points_(dim), boxmax_(dim) {
  FDRMS_CHECK(dim > 0);
  FDRMS_CHECK(leaf_size >= 2);
}

Status KdTree::Insert(int id, const Point& p) {
  if (static_cast<int>(p.size()) != dim_) {
    return Status::Invalid("point dimension mismatch");
  }
  if (slot_of_.count(id) > 0) {
    return Status::AlreadyExists("tuple id " + std::to_string(id) +
                                 " already indexed");
  }
  ++generation_;
  const int slot = points_.AppendRow(p);  // may reallocate the slab
  FDRMS_DCHECK(slot == static_cast<int>(slots_.size()));
  slots_.push_back(Slot{id, true});
  slot_of_[id] = slot;
  ++live_count_;
  MaybeRebuild();
  return Status::OK();
}

Status KdTree::Delete(int id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("tuple id " + std::to_string(id) + " not indexed");
  }
  ++generation_;
  int slot = it->second;
  slots_[slot].alive = false;
  slot_of_.erase(it);
  --live_count_;
  // Buffer slots are scanned with a liveness check, so only tree-referenced
  // tombstones count toward rebuild pressure. We cannot cheaply tell which
  // kind `slot` is; counting all deletions as tree pressure only makes
  // rebuilds slightly more eager.
  ++dead_in_tree_;
  MaybeRebuild();
  return Status::OK();
}

Point KdTree::GetPoint(int id) const {
  auto it = slot_of_.find(id);
  FDRMS_CHECK(it != slot_of_.end()) << "GetPoint on missing id " << id;
  const double* r = points_.row(it->second);
  return Point(r, r + dim_);
}

KdTree::PointRef KdTree::GetPointRef(int id) const {
  auto it = slot_of_.find(id);
  FDRMS_CHECK(it != slot_of_.end()) << "GetPoint on missing id " << id;
  return PointRef(this, it->second, generation_);
}

void KdTree::ScoreIds(const double* u, const std::vector<int>& ids,
                      double* out) const {
  // Gather in fixed-size chunks so the slot lookup needs no heap buffer.
  constexpr size_t kChunk = 64;
  int rows[kChunk];
  for (size_t base = 0; base < ids.size(); base += kChunk) {
    const size_t n = std::min(kChunk, ids.size() - base);
    for (size_t j = 0; j < n; ++j) {
      auto it = slot_of_.find(ids[base + j]);
      FDRMS_CHECK(it != slot_of_.end())
          << "ScoreIds on missing id " << ids[base + j];
      rows[j] = it->second;
    }
    ScoreGather(points_.row(0), points_.stride(), dim_, rows, n, u,
                out + base);
  }
}

void KdTree::MaybeRebuild() {
  int total = static_cast<int>(slots_.size());
  bool buffer_heavy = buffer_size() > std::max(64, total / 4);
  bool tombstone_heavy = dead_in_tree_ > std::max(64, total / 2);
  if (buffer_heavy || tombstone_heavy) Rebuild();
}

void KdTree::Rebuild() {
  ++generation_;
  nodes_.clear();
  dead_in_tree_ = 0;
  boxmax_ = ScoreMatrix(dim_);
  // Compact tombstoned slots away; `order` holds the surviving old slot
  // indices and is permuted in place by the build so that when it returns,
  // position pos belongs to exactly one leaf's [first, first + count).
  std::vector<int> order;
  order.reserve(static_cast<size_t>(live_count_));
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].alive) order.push_back(static_cast<int>(s));
  }
  if (order.empty()) {
    slots_.clear();
    slot_of_.clear();
    points_ = ScoreMatrix(dim_);
    indexed_count_ = 0;
    root_ = -1;
    return;
  }
  root_ = BuildNode(&order, 0, static_cast<int>(order.size()));
  // Apply the build permutation to the slot array and the point slab so
  // each leaf's rows are physically contiguous.
  ScoreMatrix new_points(dim_);
  new_points.Reserve(static_cast<int>(order.size()));
  std::vector<Slot> new_slots;
  new_slots.reserve(order.size());
  slot_of_.clear();
  for (size_t pos = 0; pos < order.size(); ++pos) {
    new_points.AppendRowUnchecked(points_.row(order[pos]));
    new_slots.push_back(Slot{slots_[static_cast<size_t>(order[pos])].id, true});
    slot_of_[new_slots.back().id] = static_cast<int>(pos);
  }
  points_ = std::move(new_points);
  slots_ = std::move(new_slots);
  indexed_count_ = static_cast<int>(slots_.size());
}

int KdTree::BuildNode(std::vector<int>* order, int lo, int hi) {
  // Bounding box over rows order[lo..hi) of the (pre-permutation) slab.
  std::vector<double> box_min(static_cast<size_t>(dim_),
                              std::numeric_limits<double>::infinity());
  std::vector<double> box_max(static_cast<size_t>(dim_),
                              -std::numeric_limits<double>::infinity());
  for (int i = lo; i < hi; ++i) {
    const double* p = points_.row((*order)[i]);
    for (int j = 0; j < dim_; ++j) {
      const size_t sj = static_cast<size_t>(j);
      box_min[sj] = std::min(box_min[sj], p[j]);
      box_max[sj] = std::max(box_max[sj], p[j]);
    }
  }
  int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  FDRMS_CHECK(boxmax_.AppendRowUnchecked(box_max.data()) == node_id);
  if (hi - lo <= leaf_size_) {
    nodes_[node_id].first = lo;
    nodes_[node_id].count = hi - lo;
    return node_id;
  }
  // Split on the widest dimension at the median.
  int split_dim = 0;
  double best_extent = -1.0;
  for (int j = 0; j < dim_; ++j) {
    const size_t sj = static_cast<size_t>(j);
    double extent = box_max[sj] - box_min[sj];
    if (extent > best_extent) {
      best_extent = extent;
      split_dim = j;
    }
  }
  int mid = (lo + hi) / 2;
  std::nth_element(order->begin() + lo, order->begin() + mid,
                   order->begin() + hi, [&](int a, int b) {
                     return points_.row(a)[split_dim] <
                            points_.row(b)[split_dim];
                   });
  int left = BuildNode(order, lo, mid);
  int right = BuildNode(order, mid, hi);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

template <typename Bar, typename Visit>
void KdTree::ScanRows(int first, int count, const double* u, Bar&& bar,
                      Visit&& visit) const {
  constexpr int kBlock = 64;
  double scores[kBlock];
  for (int base = first; base < first + count; base += kBlock) {
    const int n = std::min(kBlock, first + count - base);
    ScoreBlock(points_.row(base), points_.stride(), dim_,
               static_cast<size_t>(n), u, scores);
    // The bar only rises during a search, so one read per block is a safe
    // (looser) filter; `visit` rechecks against the current one.
    const double b = bar();
    for (int i = 0; i < n; ++i) {
      if (scores[i] < b) continue;
      const Slot& slot = slots_[static_cast<size_t>(base + i)];
      if (slot.alive) visit(scores[i], slot.id);
    }
  }
}

template <typename Bar, typename Visit>
void KdTree::Search(const double* u, Bar&& bar, Visit&& visit) const {
  // The buffer is scanned unconditionally, so scan it first: whatever it
  // contributes raises the bar before the tree is entered.
  ScanRows(indexed_count_, buffer_size(), u, bar, visit);
  if (root_ < 0) return;
  // Median splits halve every range, so the depth is at most 31 and a
  // depth-first stack never holds more than depth + 1 entries.
  constexpr int kMaxStack = 64;
  struct Entry {
    double bound;
    int node;
  };
  Entry stack[kMaxStack];
  int top = 0;
  // u >= 0, so the box corner box_max maximizes the inner product.
  stack[top++] = {DotContiguous(u, boxmax_.row(root_), dim_), root_};
  while (top > 0) {
    const Entry e = stack[--top];
    if (e.bound < bar()) continue;  // the bar rose since the push
    const Node& node = nodes_[static_cast<size_t>(e.node)];
    if (node.is_leaf()) {
      ScanRows(node.first, node.count, u, bar, visit);
      continue;
    }
    const int child[2] = {node.left, node.right};
    double bound[2];
    ScoreGather(boxmax_.row(0), boxmax_.stride(), dim_, child, 2, u, bound);
    // Push the worse child first so the better one is popped next.
    const int better = bound[1] > bound[0] ? 1 : 0;
    const int worse = 1 - better;
    const double b = bar();
    FDRMS_DCHECK(top + 2 <= kMaxStack);
    if (bound[worse] >= b) stack[top++] = {bound[worse], child[worse]};
    if (bound[better] >= b) stack[top++] = {bound[better], child[better]};
  }
}

namespace {

/// Offers (score, id) to a best-first list holding at most k entries.
void OfferTopK(std::vector<ScoredId>* top, int k, double score, int id) {
  const ScoredId cand{score, id};
  if (static_cast<int>(top->size()) == k) {
    if (!BetterScore(cand, top->back())) return;
    top->pop_back();
  }
  top->insert(std::upper_bound(top->begin(), top->end(), cand, BetterScore),
              cand);
}

/// Score of the k-th entry, or -inf while fewer than k are held.
double KthScore(const std::vector<ScoredId>& top, int k) {
  return static_cast<int>(top.size()) < k
             ? -std::numeric_limits<double>::infinity()
             : top.back().score;
}

}  // namespace

void KdTree::ScoreRange(const double* u, double threshold,
                        std::vector<ScoredId>* out) const {
  out->clear();
  Search(
      u, [&] { return threshold; },
      [&](double score, int id) {
        if (score >= threshold) out->push_back({score, id});
      });
  std::sort(out->begin(), out->end(), BetterScore);
}

void KdTree::TopKWithApprox(const double* u, int k, double eps,
                            std::vector<ScoredId>* top,
                            std::vector<ScoredId>* approx) const {
  FDRMS_CHECK(k >= 1);
  FDRMS_CHECK(eps >= 0.0 && eps < 1.0);
  top->clear();
  approx->clear();
  // The bar (1 - eps) * (current k-th score) only rises, and ends at the
  // final threshold, so every tuple at or above the final threshold is
  // collected. With a negative k-th score the bar lies above it, so the
  // search prunes on the lower of the two.
  auto approx_bar = [&] { return (1.0 - eps) * KthScore(*top, k); };
  Search(
      u, [&] { return std::min(approx_bar(), KthScore(*top, k)); },
      [&](double score, int id) {
        OfferTopK(top, k, score, id);
        if (score >= approx_bar()) approx->push_back({score, id});
      });
  const double tau =
      static_cast<int>(top->size()) < k ? 0.0 : (1.0 - eps) * top->back().score;
  approx->erase(std::remove_if(approx->begin(), approx->end(),
                               [&](const ScoredId& s) { return s.score < tau; }),
                approx->end());
  std::sort(approx->begin(), approx->end(), BetterScore);
}

std::vector<ScoredId> KdTree::TopK(const Point& u, int k) const {
  FDRMS_CHECK(static_cast<int>(u.size()) == dim_);
  FDRMS_CHECK(k >= 1);
  std::vector<ScoredId> out;
  // A subtree whose bound ties the k-th score may still hold a tuple that
  // wins the tie on id, so only strictly worse subtrees are skipped.
  Search(
      u.data(), [&] { return KthScore(out, k); },
      [&](double score, int id) { OfferTopK(&out, k, score, id); });
  return out;
}

std::vector<ScoredId> KdTree::ScoreRange(const Point& u,
                                         double threshold) const {
  FDRMS_CHECK(static_cast<int>(u.size()) == dim_);
  std::vector<ScoredId> out;
  ScoreRange(u.data(), threshold, &out);
  return out;
}

}  // namespace fdrms
