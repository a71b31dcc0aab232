#ifndef DELREC_SRMODELS_SASREC_H_
#define DELREC_SRMODELS_SASREC_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "srmodels/recommender.h"
#include "util/rng.h"

namespace delrec::srmodels {

/// SASRec (Kang & McAuley, ICDM 2018): causal self-attention over the item
/// embedding sequence with learned positions; the representation at the last
/// position scores all items against the tied embedding table.
class SasRec : public nn::Module, public SequentialRecommender {
 public:
  SasRec(int64_t num_items, int64_t embedding_dim, int64_t max_length,
         int64_t num_blocks, int64_t num_heads, uint64_t seed);

  std::string name() const override { return "SASRec"; }
  util::Status Train(const std::vector<data::Example>& examples,
                     const TrainConfig& config) override;
  /// ScoreAllItemsBatch({history})[0]: one inference forward.
  std::vector<float> ScoreAllItems(
      const std::vector<int64_t>& history) const override;
  /// Tape-free batched forward: the windows' rows stacked as ragged causal
  /// spans, the last block and the final norm on each span's last row
  /// only, and one GEMM against the item table for the whole batch. Row i
  /// is bit-identical to TrainingLogits(histories[i], 0, rng) (DESIGN.md
  /// §17).
  std::vector<std::vector<float>> ScoreAllItemsBatch(
      const std::vector<std::vector<int64_t>>& histories) const override;
  nn::Tensor TrainingLogits(const std::vector<int64_t>& history,
                            float dropout, util::Rng& rng) const override;
  int64_t ParameterCount() const override {
    return nn::Module::ParameterCount();
  }
  int64_t item_count() const override { return num_items_; }

  /// The inference forward's last hidden row (after the final norm).
  std::vector<float> EncodeHistory(
      const std::vector<int64_t>& history) const override;
  std::vector<float> ItemEmbedding(int64_t item) const override;
  int64_t embedding_dim() const { return embedding_dim_; }
  int64_t representation_dim() const override { return embedding_dim_; }

 private:
  nn::Tensor LastHidden(const std::vector<int64_t>& history, float dropout,
                        util::Rng& rng) const;
  /// The inference forward up to the final norm: one (histories, D) row
  /// per history, from `arena`.
  float* LastHiddenRows(const std::vector<std::vector<int64_t>>& histories,
                        util::ScopedArena& arena) const;

  int64_t num_items_;
  int64_t embedding_dim_;
  int64_t max_length_;
  // Seeds the layers' initialization only; no forward reads it.
  util::Rng init_rng_;
  nn::Embedding item_embedding_;
  nn::Embedding position_embedding_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> blocks_;
  nn::LayerNorm final_norm_;
  nn::Tensor item_bias_;
};

}  // namespace delrec::srmodels

#endif  // DELREC_SRMODELS_SASREC_H_
