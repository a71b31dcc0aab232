#ifndef DELREC_SRMODELS_RECOMMENDER_H_
#define DELREC_SRMODELS_RECOMMENDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/split.h"
#include "nn/anomaly.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace delrec::srmodels {

/// Training knobs shared by the conventional SR models. Defaults follow the
/// paper's implementation details, with dimensions scaled to the CPU budget.
struct TrainConfig {
  int epochs = 6;
  int batch_size = 32;
  float learning_rate = 1e-3f;
  float dropout = 0.2f;
  int64_t history_length = 10;
  float gradient_clip = 5.0f;
  uint64_t seed = 7;
  bool verbose = false;

  // Loss-anomaly guard (nn::LossAnomalyGuard): non-finite or spiking batch
  // losses are skipped (parameters restored). Knobs shared with
  // core::DelRecConfig via nn::AnomalyGuardConfig.
  nn::AnomalyGuardConfig anomaly_guard;
};

/// Interface every conventional sequential recommender implements. All
/// DELRec-side consumers (pattern distillation, baselines, benches) talk to
/// this interface only.
class SequentialRecommender {
 public:
  virtual ~SequentialRecommender() = default;

  virtual std::string name() const = 0;

  /// Fits the model on training examples. Returns non-OK when training
  /// aborts recoverably (e.g. the loss-anomaly guard trips); the model is
  /// left in its last healthy state.
  virtual util::Status Train(const std::vector<data::Example>& examples,
                             const TrainConfig& config) = 0;

  /// Scores every catalog item given a history (most recent item last).
  /// Higher is better. History may be shorter than the training length.
  virtual std::vector<float> ScoreAllItems(
      const std::vector<int64_t>& history) const = 0;

  /// Scores every catalog item for each of many histories. The default
  /// fans ScoreAllItems across the util::ParallelConfig thread budget;
  /// SASRec and GRU4Rec override it with one tape-free batched forward.
  /// Either way, row i is bit-identical to ScoreAllItems(histories[i]) for
  /// every batch composition and thread count. Requires scoring to be
  /// const-thread-safe, which all bundled models satisfy (inference mutates
  /// no model state).
  virtual std::vector<std::vector<float>> ScoreAllItemsBatch(
      const std::vector<std::vector<int64_t>>& histories) const;

  /// Scores a candidate subset (default: gather from ScoreAllItems).
  virtual std::vector<float> ScoreCandidates(
      const std::vector<int64_t>& history,
      const std::vector<int64_t>& candidates) const;

  /// Scores many (history, candidates) pairs: a gather from
  /// ScoreAllItemsBatch, so output row i is bit-identical to
  /// ScoreCandidates(histories[i], candidates[i]) for every thread count.
  std::vector<std::vector<float>> ScoreCandidatesBatch(
      const std::vector<std::vector<int64_t>>& histories,
      const std::vector<std::vector<int64_t>>& candidates) const;

  /// Item ids of the k highest-scoring items, best first.
  std::vector<int64_t> TopK(const std::vector<int64_t>& history,
                            int64_t k) const;

  /// Number of trainable scalars (RQ5 reporting).
  virtual int64_t ParameterCount() const = 0;

  /// Catalog size this model scores over — the length of ScoreAllItems()'s
  /// result. 0 when unknown (no bundled model returns 0; the default exists
  /// only so external implementations keep compiling).
  virtual int64_t item_count() const { return 0; }

  /// Differentiable all-item logits for one history, shaped (1, item_count):
  /// the tensor whose values ScoreAllItems() reads out. This is the training
  /// seam shared by the model's own next-item loss and the ranking
  /// distillation trainer (src/distill/), which adds a listwise KD term over
  /// the same logits. `rng` drives dropout; pass the training-loop RNG during
  /// training and anything with dropout 0 for inference. Models without a
  /// gradient path (PopRec) return an undefined tensor, which the distill
  /// trainer rejects with InvalidArgument.
  virtual nn::Tensor TrainingLogits(const std::vector<int64_t>& history,
                                    float dropout, util::Rng& rng) const {
    (void)history;
    (void)dropout;
    (void)rng;
    return {};
  }

  /// Dense history representation (for embedding-injection baselines like
  /// LLaRA). Empty when the model has no such representation.
  virtual std::vector<float> EncodeHistory(
      const std::vector<int64_t>& history) const {
    return {};
  }

  /// Dense item representation row. Empty when unavailable.
  virtual std::vector<float> ItemEmbedding(int64_t item) const { return {}; }

  /// Width of EncodeHistory()/ItemEmbedding() vectors (0 if unsupported).
  virtual int64_t representation_dim() const { return 0; }
};

/// Catalog scores of `batch` hidden rows (batch × D) against a tied item
/// table (N × D) plus the item bias (N): TrainingLogits' MatMul + AddBias
/// as one (batch, D)·(N, D)ᵀ GEMM, split into one row per history.
std::vector<std::vector<float>> ScoreRowsAgainstItems(
    const float* hidden, int64_t batch, const nn::Tensor& item_table,
    const nn::Tensor& item_bias);

/// Ranks item ids by descending score, best first, truncated to k.
/// Delegates to eval::TopK — the repo's single top-k ordering.
std::vector<int64_t> TopKFromScores(const std::vector<float>& scores,
                                    int64_t k);

}  // namespace delrec::srmodels

#endif  // DELREC_SRMODELS_RECOMMENDER_H_
