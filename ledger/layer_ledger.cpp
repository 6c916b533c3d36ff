// Lockstep layer ledger: one operation stream is applied to FdRms and, op by
// op, to a standalone TopKMaintainer, KdTree and ConeTree built from the
// same utility sample. Each public call is timed on its own, so the ledger
// splits an update's cost into core, topk, index and set-cover (core minus
// topk) time, and counts the work each layer did.

#include <algorithm>
#include <unordered_set>

#include "index/conetree.h"
#include "index/kdtree.h"
#include "ledger.h"
#include "topk/topk_maintainer.h"

namespace ledger {

void LayerTotals::Add(const LayerTotals& o) {
  core_insert_us += o.core_insert_us;
  core_delete_us += o.core_delete_us;
  m_changes += o.m_changes;
  topk_insert_us += o.topk_insert_us;
  topk_delete_us += o.topk_delete_us;
  deltas += o.deltas;
  rebuilds += o.rebuilds;
  rebuild_deletes += o.rebuild_deletes;
  rebuilds_phi_local += o.rebuilds_phi_local;
  kd_insert_us += o.kd_insert_us;
  kd_delete_us += o.kd_delete_us;
  repair_query_us += o.repair_query_us;
  repair_range_ids += o.repair_range_ids;
  cone_reached += o.cone_reached;
  cone_admitted += o.cone_admitted;
  cone_us += o.cone_us;
  setcover_us += o.setcover_us;
  cover_sizes.insert(cover_sizes.end(), o.cover_sizes.begin(),
                     o.cover_sizes.end());
  ops += o.ops;
  cpu_s += o.cpu_s;
}

void RunLayerLedger(const PointSet& data, const std::vector<int>& initial,
                    const std::vector<StreamOp>& ops,
                    const fdrms::FdRmsOptions& options, LayerTotals* out,
                    std::string* mismatch) {
  const int d = data.dim();
  const int k = options.k;
  const double eps = options.eps;
  fdrms::FdRms algo(d, options);
  std::vector<std::pair<int, Point>> tuples;
  tuples.reserve(initial.size());
  for (int id : initial) tuples.emplace_back(id, data.Get(id));
  if (!algo.Initialize(tuples).ok()) {
    *mismatch = "layer ledger: Initialize failed";
    return;
  }
  const std::vector<Point>& utilities = algo.topk().utilities();
  fdrms::TopKMaintainer topk(d, k, eps, utilities);
  fdrms::KdTree kd(d);
  for (const auto& [id, p] : tuples) {
    (void)topk.Insert(id, p, nullptr);
    (void)kd.Insert(id, p);
  }
  fdrms::ConeTree cone(utilities);
  for (int u = 0; u < topk.num_utilities(); ++u) {
    cone.SetThreshold(u, (1.0 - eps) * topk.OmegaK(u));
  }

  LayerTotals t;
  std::vector<fdrms::TopKDelta> deltas;
  std::vector<int> rebuild_utilities;
  std::unordered_set<int> touched;
  const size_t sample_every = std::max<size_t>(1, ops.size() / 10);
  const double loop_start = ThreadCpuSeconds();
  for (size_t i = 0; i < ops.size(); ++i) {
    const StreamOp& op = ops[i];
    const int m_before = algo.current_m();
    deltas.clear();
    double core_us = 0, topk_us = 0;
    if (op.is_insert) {
      const Point p = data.Get(op.id);
      auto c0 = Clock::now();
      const bool ok = algo.Insert(op.id, p).ok();
      auto c1 = Clock::now();
      const std::vector<int> reached = cone.FindReached(p);
      auto c2 = Clock::now();
      (void)topk.Insert(op.id, p, &deltas);
      auto c3 = Clock::now();
      (void)kd.Insert(op.id, p);
      auto c4 = Clock::now();
      if (!ok) *mismatch = "layer ledger: FdRms::Insert failed";
      core_us = MicrosBetween(c0, c1);
      topk_us = MicrosBetween(c2, c3);
      t.core_insert_us += core_us;
      t.topk_insert_us += topk_us;
      t.cone_us += MicrosBetween(c1, c2);
      t.kd_insert_us += MicrosBetween(c3, c4);
      t.cone_reached += static_cast<double>(reached.size());
      for (const auto& dl : deltas) {
        if (dl.added && dl.tuple_id == op.id) t.cone_admitted += 1;
      }
    } else {
      // Which exact top-k lists hold the victim: those force a rebuild.
      rebuild_utilities.clear();
      for (int u : topk.MemberOf(op.id)) {
        const auto& exact = topk.ExactTopK(u);
        if (std::any_of(exact.begin(), exact.end(),
                        [&](const fdrms::ScoredId& s) { return s.id == op.id; })) {
          rebuild_utilities.push_back(u);
          if (static_cast<int>(topk.ApproxTopK(u).size()) - 1 >= k) {
            t.rebuilds_phi_local += 1;
          }
        }
      }
      t.rebuilds += static_cast<double>(rebuild_utilities.size());
      if (!rebuild_utilities.empty()) t.rebuild_deletes += 1;
      auto c0 = Clock::now();
      const bool ok = algo.Delete(op.id).ok();
      auto c1 = Clock::now();
      (void)topk.Delete(op.id, &deltas);
      auto c2 = Clock::now();
      (void)kd.Delete(op.id);
      auto c3 = Clock::now();
      if (!ok) *mismatch = "layer ledger: FdRms::Delete failed";
      core_us = MicrosBetween(c0, c1);
      topk_us = MicrosBetween(c1, c2);
      t.core_delete_us += core_us;
      t.topk_delete_us += topk_us;
      t.kd_delete_us += MicrosBetween(c2, c3);
      // The root-down repair a rebuild needs, run on the post-delete tree.
      for (int u : rebuild_utilities) {
        const Point& uv = utilities[static_cast<size_t>(u)];
        auto r0 = Clock::now();
        const auto top = kd.TopK(uv, k);
        const double omega =
            static_cast<int>(top.size()) >= k ? top[static_cast<size_t>(k - 1)].score : 0.0;
        const auto range = kd.ScoreRange(uv, (1.0 - eps) * omega);
        auto r1 = Clock::now();
        t.repair_query_us += MicrosBetween(r0, r1);
        t.repair_range_ids += static_cast<double>(range.size());
      }
    }
    t.setcover_us += core_us - topk_us;
    t.deltas += static_cast<double>(deltas.size());
    if (algo.current_m() != m_before) t.m_changes += 1;
    touched.clear();
    for (const auto& dl : deltas) touched.insert(dl.utility);
    for (int u : touched) cone.SetThreshold(u, (1.0 - eps) * topk.OmegaK(u));
    if ((i + 1) % sample_every == 0) {
      t.cover_sizes.push_back(static_cast<double>(algo.cover().CoverSize()));
    }
  }
  t.cpu_s = ThreadCpuSeconds() - loop_start;
  t.ops = static_cast<double>(ops.size());

  // The standalone maintainer must track FdRms's own state exactly.
  for (int u = 0; u < topk.num_utilities() && mismatch->empty(); ++u) {
    if (topk.OmegaK(u) != algo.topk().OmegaK(u) ||
        topk.ApproxTopK(u) != algo.topk().ApproxTopK(u)) {
      *mismatch = "layer ledger: lockstep TopKMaintainer diverged from FdRms "
                  "at utility " + std::to_string(u);
    }
  }
  out->Add(t);
}

void ReportLayers(const LayerTotals& t, Report* r) {
  r->Set("core.insert_us_sum", t.core_insert_us);
  r->Set("core.delete_us_sum", t.core_delete_us);
  r->Set("core.m_changes", t.m_changes);
  r->Set("topk.insert_us_sum", t.topk_insert_us);
  r->Set("topk.delete_us_sum", t.topk_delete_us);
  r->Set("topk.deltas", t.deltas);
  r->Set("topk.rebuilds", t.rebuilds);
  r->Set("topk.rebuild_deletes", t.rebuild_deletes);
  r->Set("topk.rebuilds_phi_local", t.rebuilds_phi_local);
  r->Set("index.kd_insert_us_sum", t.kd_insert_us);
  r->Set("index.kd_delete_us_sum", t.kd_delete_us);
  r->Set("index.repair_query_us_sum", t.repair_query_us);
  r->Set("index.repair_range_ids", t.repair_range_ids);
  r->Set("index.cone_reached", t.cone_reached);
  r->Set("index.cone_admitted", t.cone_admitted);
  r->Set("index.cone_us_sum", t.cone_us);
  r->Set("setcover.us_sum", t.setcover_us);
  r->Set("setcover.cover_size", Mean(t.cover_sizes));
}

}  // namespace ledger
