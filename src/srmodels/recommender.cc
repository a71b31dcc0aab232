#include "srmodels/recommender.h"

#include <algorithm>

#include "eval/topk.h"
#include "nn/gemm.h"
#include "nn/ops.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace delrec::srmodels {

namespace {

std::vector<float> Gather(const std::vector<float>& all,
                          const std::vector<int64_t>& candidates) {
  std::vector<float> out;
  out.reserve(candidates.size());
  for (int64_t candidate : candidates) {
    DELREC_CHECK_GE(candidate, 0);
    DELREC_CHECK_LT(candidate, static_cast<int64_t>(all.size()));
    out.push_back(all[candidate]);
  }
  return out;
}

}  // namespace

std::vector<std::vector<float>> SequentialRecommender::ScoreAllItemsBatch(
    const std::vector<std::vector<int64_t>>& histories) const {
  std::vector<std::vector<float>> out(histories.size());
  util::ParallelFor(static_cast<int64_t>(histories.size()),
                    [&](int64_t begin, int64_t end, int) {
                      for (int64_t i = begin; i < end; ++i) {
                        out[i] = ScoreAllItems(histories[i]);
                      }
                    });
  return out;
}

std::vector<float> SequentialRecommender::ScoreCandidates(
    const std::vector<int64_t>& history,
    const std::vector<int64_t>& candidates) const {
  return Gather(ScoreAllItems(history), candidates);
}

std::vector<std::vector<float>> SequentialRecommender::ScoreCandidatesBatch(
    const std::vector<std::vector<int64_t>>& histories,
    const std::vector<std::vector<int64_t>>& candidates) const {
  DELREC_CHECK_EQ(histories.size(), candidates.size());
  std::vector<std::vector<float>> out = ScoreAllItemsBatch(histories);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = Gather(out[i], candidates[i]);
  }
  return out;
}

std::vector<std::vector<float>> ScoreRowsAgainstItems(
    const float* hidden, int64_t batch, const nn::Tensor& item_table,
    const nn::Tensor& item_bias) {
  const int64_t items = item_table.dim(0);
  util::ScopedArena arena;
  float* logits = arena.Alloc(batch * items);
  nn::GemmNT(hidden, item_table.data().data(), logits, batch, items,
             item_table.dim(1), /*accumulate=*/false);
  nn::AddBiasRows(logits, batch, items, item_bias.data().data());
  std::vector<std::vector<float>> out(batch);
  for (int64_t b = 0; b < batch; ++b) {
    out[b].assign(logits + b * items, logits + (b + 1) * items);
  }
  return out;
}

std::vector<int64_t> SequentialRecommender::TopK(
    const std::vector<int64_t>& history, int64_t k) const {
  return TopKFromScores(ScoreAllItems(history), k);
}

std::vector<int64_t> TopKFromScores(const std::vector<float>& scores,
                                    int64_t k) {
  // Full-catalog scores are indexed by item id, so positional tie-breaking
  // is id tie-breaking; the shared helper keeps this ordering in one place.
  return eval::TopK(scores, k);
}

}  // namespace delrec::srmodels
