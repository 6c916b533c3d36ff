#ifndef FDRMS_SHARD_MERGE_RECOVER_H_
#define FDRMS_SHARD_MERGE_RECOVER_H_

/// \file merge_recover.h
/// The merged read's greedy re-cover: picks at most `budget` members of a
/// shard union that keep every sampled utility direction within
/// (1 - merge_eps) of the union's best score, then spends any slots left
/// on the members that raise the selection's per-direction optimum most.
///
/// Both objectives are monotone submodular (a coverage count, and a
/// facility-location gain), so both passes run as lazy ("accelerated")
/// greedy (Minoux 1978; CELF, Leskovec et al., KDD 2007): a candidate's
/// last computed gain is an upper bound on its current one, and a max-heap
/// keyed on (gain desc, slot asc) re-evaluates only the entry on top until
/// that entry is fresh. The picks — and their order — are the ones an
/// eager scan of every candidate per step makes:
///
///  * coverage gains are exact integers (popcount of the candidate's
///    "clears the bar" bitset against the open-direction bitset);
///  * a top-up gain is the sequential sum over directions of
///    max(0, score - selected_best[j]); each term only falls as
///    selected_best rises, and IEEE subtraction, max and addition are
///    monotone, so an old sum bounds the new one exactly (the build pins
///    -ffp-contract=off and uses no fast-math, so no reassociation);
///  * ties go to the smallest slot, which is the eager scan's order.

#include <cstddef>
#include <vector>

#include "geometry/point.h"
#include "geometry/score_kernel.h"

namespace fdrms {

/// Greedy re-cover of `candidates` (indices into `points`, in the order
/// ties should resolve — the merge passes them sorted by id) against the
/// rows of `directions`. A direction whose union-best score is <= 0 is
/// trivially covered. Returns the picked entries of `candidates`, in pick
/// order; at most `budget` of them, fewer when no candidate improves
/// anything any more.
std::vector<size_t> GreedyReCover(const ScoreMatrix& directions,
                                  const std::vector<const Point*>& points,
                                  const std::vector<size_t>& candidates,
                                  size_t budget, double merge_eps);

}  // namespace fdrms

#endif  // FDRMS_SHARD_MERGE_RECOVER_H_
