#ifndef DELREC_SRMODELS_GRU4REC_H_
#define DELREC_SRMODELS_GRU4REC_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "srmodels/recommender.h"
#include "util/rng.h"

namespace delrec::srmodels {

/// GRU4Rec (Hidasi et al., ICLR 2016): a GRU consumes the interaction
/// sequence; the final hidden state scores all items against the (tied) item
/// embedding table. The paper trains it with Adagrad.
class Gru4Rec : public nn::Module, public SequentialRecommender {
 public:
  Gru4Rec(int64_t num_items, int64_t embedding_dim, uint64_t seed);

  std::string name() const override { return "GRU4Rec"; }
  util::Status Train(const std::vector<data::Example>& examples,
                     const TrainConfig& config) override;
  /// ScoreAllItemsBatch({history})[0]: one inference forward.
  std::vector<float> ScoreAllItems(
      const std::vector<int64_t>& history) const override;
  /// Tape-free batched forward — the serve tier's retriever path: every
  /// history steps through the cell in one ragged lockstep (longest first,
  /// each step's GEMMs over the rows still running), then one GEMM against
  /// the item table scores the batch. Row i is bit-identical to
  /// TrainingLogits(histories[i], 0, rng) (DESIGN.md §17).
  std::vector<std::vector<float>> ScoreAllItemsBatch(
      const std::vector<std::vector<int64_t>>& histories) const override;
  nn::Tensor TrainingLogits(const std::vector<int64_t>& history,
                            float dropout, util::Rng& rng) const override;
  int64_t ParameterCount() const override {
    return nn::Module::ParameterCount();
  }
  int64_t item_count() const override { return num_items_; }

  /// Final hidden state for a history, from the inference forward (used by
  /// LLaRA-style baselines that inject conventional-SR representations into
  /// LLMs).
  std::vector<float> EncodeHistory(
      const std::vector<int64_t>& history) const override;

  /// Item representation rows (for embedding-injection baselines).
  std::vector<float> ItemEmbedding(int64_t item) const override;
  int64_t embedding_dim() const { return embedding_dim_; }
  int64_t representation_dim() const override { return embedding_dim_; }

 private:
  nn::Tensor HiddenForHistory(const std::vector<int64_t>& history,
                              float dropout, util::Rng& rng) const;
  /// The inference recurrence: one final hidden row per history, in input
  /// order, from `arena`.
  float* FinalHiddenRows(const std::vector<std::vector<int64_t>>& histories,
                         util::ScopedArena& arena) const;

  int64_t num_items_;
  int64_t embedding_dim_;
  // Declared before the layers so it can seed their initialization; no
  // forward reads it.
  util::Rng init_rng_;
  nn::Embedding item_embedding_;
  nn::GruCell cell_;
  nn::Tensor item_bias_;
};

}  // namespace delrec::srmodels

#endif  // DELREC_SRMODELS_GRU4REC_H_
