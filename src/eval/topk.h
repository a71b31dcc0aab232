#ifndef DELREC_EVAL_TOPK_H_
#define DELREC_EVAL_TOPK_H_

#include <cstdint>
#include <vector>

namespace delrec::eval {

/// The repo's single top-k selection: positions of the k highest scores,
/// best first, ties broken toward the smaller position. This is the exact
/// ordering srmodels::TopKFromScores has always produced (it now delegates
/// here) and the positional RankOfTarget counts against, deduplicating the
/// partial-sort-with-tie-break logic that used to live in each caller.
/// −0 and +0 tie; NaN scores rank after every number, in position order.
/// It sorts packed (score, position) integer keys: all of them when k
/// covers the list (the two-tier retriever's full ordering), a partial sort
/// otherwise, so TopK(scores, k) is always a prefix of the full ordering.
std::vector<int64_t> TopK(const std::vector<float>& scores, int64_t k);

/// As above over a candidate pool with explicit item ids: returns positions
/// into `scores`/`item_ids`, but ties break by the smaller *item id* rather
/// than position, matching the id-aware RankOfTarget overload. The selected
/// set (as ids) is then invariant under any permutation of the pool — the
/// property the two-tier retriever needs so the teacher re-ranks the same
/// top-h whatever order the retriever saw candidates in. `item_ids` must be
/// distinct and parallel to `scores`.
std::vector<int64_t> TopKByIds(const std::vector<float>& scores,
                               const std::vector<int64_t>& item_ids,
                               int64_t k);

}  // namespace delrec::eval

#endif  // DELREC_EVAL_TOPK_H_
