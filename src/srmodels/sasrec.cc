#include "srmodels/sasrec.h"

#include <algorithm>

#include "nn/ops.h"
#include "nn/optimizer.h"
#include "srmodels/trainer.h"
#include "util/check.h"

namespace delrec::srmodels {

SasRec::SasRec(int64_t num_items, int64_t embedding_dim, int64_t max_length,
               int64_t num_blocks, int64_t num_heads, uint64_t seed)
    : num_items_(num_items),
      embedding_dim_(embedding_dim),
      max_length_(max_length),
      init_rng_(seed),
      item_embedding_(num_items, embedding_dim, init_rng_),
      position_embedding_(max_length, embedding_dim, init_rng_),
      final_norm_(embedding_dim) {
  // The inference forward reads each window's last row out of the last
  // block.
  DELREC_CHECK_GE(num_blocks, 1);
  RegisterModule("item_embedding", &item_embedding_);
  RegisterModule("position_embedding", &position_embedding_);
  for (int64_t b = 0; b < num_blocks; ++b) {
    blocks_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        embedding_dim, num_heads, 2 * embedding_dim, init_rng_));
    RegisterModule("block" + std::to_string(b), blocks_.back().get());
  }
  RegisterModule("final_norm", &final_norm_);
  item_bias_ = nn::Tensor::Zeros({num_items}, /*requires_grad=*/true);
  RegisterParameter("item_bias", item_bias_);
}

nn::Tensor SasRec::LastHidden(const std::vector<int64_t>& history,
                              float dropout, util::Rng& rng) const {
  DELREC_CHECK(!history.empty());
  // Keep the most recent max_length_ interactions.
  std::vector<int64_t> window = history;
  if (static_cast<int64_t>(window.size()) > max_length_) {
    window.assign(history.end() - max_length_, history.end());
  }
  const int64_t length = static_cast<int64_t>(window.size());
  std::vector<int64_t> positions(length);
  for (int64_t i = 0; i < length; ++i) positions[i] = i;
  nn::Tensor x = nn::Add(item_embedding_.Forward(window),
                         position_embedding_.Forward(positions));
  x = nn::Dropout(x, dropout, rng, training());
  nn::Tensor mask = nn::CausalMask(length);
  for (const auto& block : blocks_) {
    x = block->Forward(x, mask, rng, dropout);
  }
  x = final_norm_.Forward(x);
  return nn::SliceRows(x, length - 1, 1);  // (1, D)
}

nn::Tensor SasRec::TrainingLogits(const std::vector<int64_t>& history,
                                  float dropout, util::Rng& rng) const {
  nn::Tensor hidden = LastHidden(history, dropout, rng);
  return nn::AddBias(
      nn::MatMul(hidden, item_embedding_.table(), false, true), item_bias_);
}

util::Status SasRec::Train(const std::vector<data::Example>& examples,
                           const TrainConfig& config) {
  SetTraining(true);
  util::Rng rng(config.seed);
  nn::Adam optimizer(Parameters(), config.learning_rate);
  const auto loop_result = RunTrainingLoop(
      examples, config, optimizer, Parameters(), rng,
      [&](const data::Example& example) {
        return nn::CrossEntropyWithLogits(
            TrainingLogits(example.history, config.dropout, rng),
            {example.target});
      },
      "SASRec");
  SetTraining(false);
  return loop_result.status();
}

float* SasRec::LastHiddenRows(
    const std::vector<std::vector<int64_t>>& histories,
    util::ScopedArena& arena) const {
  const int64_t d = embedding_dim_;
  const int64_t batch = static_cast<int64_t>(histories.size());
  // Each window — the most recent max_length_ items, as LastHidden cuts
  // it — is one causal span of the stacked rows.
  std::vector<int64_t> offsets(1, 0);
  offsets.reserve(batch + 1);
  for (const std::vector<int64_t>& history : histories) {
    DELREC_CHECK(!history.empty());
    offsets.push_back(offsets.back() +
                      std::min<int64_t>(history.size(), max_length_));
  }
  const int64_t total = offsets.back();
  float* x = arena.Alloc(total * d);
  const float* items = item_embedding_.table().data().data();
  const float* positions = position_embedding_.table().data().data();
  for (int64_t s = 0; s < batch; ++s) {
    const int64_t length = offsets[s + 1] - offsets[s];
    const int64_t* window =
        histories[s].data() + (histories[s].size() - length);
    for (int64_t i = 0; i < length; ++i) {
      DELREC_CHECK_GE(window[i], 0);
      DELREC_CHECK_LT(window[i], num_items_);
      const float* item = items + window[i] * d;
      float* row = x + (offsets[s] + i) * d;
      for (int64_t j = 0; j < d; ++j) row[j] = item[j] + positions[i * d + j];
    }
  }
  // Only each span's last row reaches the scores, so the last block queries
  // that row alone (its keys and values still cover the whole span).
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const bool last = b + 1 == blocks_.size();
    float* y = arena.Alloc((last ? batch : total) * d);
    blocks_[b]->ForwardInference(x, offsets, last, y, arena);
    x = y;
  }
  final_norm_.ForwardInference(x, batch, x);
  return x;
}

std::vector<std::vector<float>> SasRec::ScoreAllItemsBatch(
    const std::vector<std::vector<int64_t>>& histories) const {
  if (histories.empty()) return {};
  util::ScopedArena arena;
  return ScoreRowsAgainstItems(LastHiddenRows(histories, arena),
                               static_cast<int64_t>(histories.size()),
                               item_embedding_.table(), item_bias_);
}

std::vector<float> SasRec::ScoreAllItems(
    const std::vector<int64_t>& history) const {
  return std::move(ScoreAllItemsBatch({history})[0]);
}

std::vector<float> SasRec::EncodeHistory(
    const std::vector<int64_t>& history) const {
  util::ScopedArena arena;
  const float* hidden = LastHiddenRows({history}, arena);
  return std::vector<float>(hidden, hidden + embedding_dim_);
}

std::vector<float> SasRec::ItemEmbedding(int64_t item) const {
  DELREC_CHECK_GE(item, 0);
  DELREC_CHECK_LT(item, num_items_);
  const auto& table = item_embedding_.table().data();
  return std::vector<float>(table.begin() + item * embedding_dim_,
                            table.begin() + (item + 1) * embedding_dim_);
}

}  // namespace delrec::srmodels
