#include "srmodels/gru4rec.h"

#include <algorithm>
#include <numeric>

#include "nn/ops.h"
#include "nn/optimizer.h"
#include "srmodels/trainer.h"
#include "util/check.h"

namespace delrec::srmodels {

Gru4Rec::Gru4Rec(int64_t num_items, int64_t embedding_dim, uint64_t seed)
    : num_items_(num_items),
      embedding_dim_(embedding_dim),
      init_rng_(seed),
      item_embedding_(num_items, embedding_dim, init_rng_),
      cell_(embedding_dim, embedding_dim, init_rng_) {
  item_bias_ = nn::Tensor::Zeros({num_items}, /*requires_grad=*/true);
  RegisterModule("item_embedding", &item_embedding_);
  RegisterModule("cell", &cell_);
  RegisterParameter("item_bias", item_bias_);
}

nn::Tensor Gru4Rec::HiddenForHistory(const std::vector<int64_t>& history,
                                     float dropout, util::Rng& rng) const {
  DELREC_CHECK(!history.empty());
  nn::Tensor embedded = item_embedding_.Forward(history);  // (T, D)
  embedded = nn::Dropout(embedded, dropout, rng, training());
  nn::Tensor hidden = nn::Tensor::Zeros({1, embedding_dim_});
  for (int64_t t = 0; t < static_cast<int64_t>(history.size()); ++t) {
    hidden = cell_.Forward(nn::SliceRows(embedded, t, 1), hidden);
  }
  return hidden;  // (1, D)
}

nn::Tensor Gru4Rec::TrainingLogits(const std::vector<int64_t>& history,
                                   float dropout, util::Rng& rng) const {
  nn::Tensor hidden = HiddenForHistory(history, dropout, rng);
  return nn::AddBias(
      nn::MatMul(hidden, item_embedding_.table(), false, true), item_bias_);
}

util::Status Gru4Rec::Train(const std::vector<data::Example>& examples,
                            const TrainConfig& config) {
  SetTraining(true);
  util::Rng rng(config.seed);
  // Paper setup: Adagrad for GRU4Rec.
  nn::Adagrad optimizer(Parameters(), config.learning_rate);
  const auto loop_result = RunTrainingLoop(
      examples, config, optimizer, Parameters(), rng,
      [&](const data::Example& example) {
        return nn::CrossEntropyWithLogits(
            TrainingLogits(example.history, config.dropout, rng),
            {example.target});
      },
      "GRU4Rec");
  SetTraining(false);
  return loop_result.status();
}

float* Gru4Rec::FinalHiddenRows(
    const std::vector<std::vector<int64_t>>& histories,
    util::ScopedArena& arena) const {
  const int64_t d = embedding_dim_;
  const int64_t batch = static_cast<int64_t>(histories.size());
  // Ragged lockstep: with the rows stable-sorted longest first, the rows
  // still running at step t are a prefix of the order, and a finished row
  // keeps its final state. Step t consumes item t of each history, as the
  // per-history recurrence does.
  std::vector<int64_t> order(batch);
  std::iota(order.begin(), order.end(), 0);
  for (const std::vector<int64_t>& history : histories) {
    DELREC_CHECK(!history.empty());
  }
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return histories[a].size() > histories[b].size();
  });
  float* hidden = arena.Alloc(batch * d);
  std::fill(hidden, hidden + batch * d, 0.0f);
  float* x = arena.Alloc(batch * d);
  const float* items = item_embedding_.table().data().data();
  util::ScopedArena step_arena;
  int64_t active = batch;
  const int64_t steps = static_cast<int64_t>(histories[order[0]].size());
  for (int64_t t = 0; t < steps; ++t) {
    while (static_cast<int64_t>(histories[order[active - 1]].size()) <= t) {
      --active;
    }
    for (int64_t r = 0; r < active; ++r) {
      const int64_t item = histories[order[r]][t];
      DELREC_CHECK_GE(item, 0);
      DELREC_CHECK_LT(item, num_items_);
      std::copy(items + item * d, items + (item + 1) * d, x + r * d);
    }
    step_arena.Reset();
    cell_.ForwardInference(x, active, hidden, step_arena);
  }
  float* out = arena.Alloc(batch * d);
  for (int64_t r = 0; r < batch; ++r) {
    std::copy(hidden + r * d, hidden + (r + 1) * d, out + order[r] * d);
  }
  return out;
}

std::vector<std::vector<float>> Gru4Rec::ScoreAllItemsBatch(
    const std::vector<std::vector<int64_t>>& histories) const {
  if (histories.empty()) return {};
  util::ScopedArena arena;
  return ScoreRowsAgainstItems(FinalHiddenRows(histories, arena),
                               static_cast<int64_t>(histories.size()),
                               item_embedding_.table(), item_bias_);
}

std::vector<float> Gru4Rec::ScoreAllItems(
    const std::vector<int64_t>& history) const {
  return std::move(ScoreAllItemsBatch({history})[0]);
}

std::vector<float> Gru4Rec::EncodeHistory(
    const std::vector<int64_t>& history) const {
  util::ScopedArena arena;
  const float* hidden = FinalHiddenRows({history}, arena);
  return std::vector<float>(hidden, hidden + embedding_dim_);
}

std::vector<float> Gru4Rec::ItemEmbedding(int64_t item) const {
  DELREC_CHECK_GE(item, 0);
  DELREC_CHECK_LT(item, num_items_);
  const auto& table = item_embedding_.table().data();
  return std::vector<float>(table.begin() + item * embedding_dim_,
                            table.begin() + (item + 1) * embedding_dim_);
}

}  // namespace delrec::srmodels
