#include "core/delrec.h"

#include <algorithm>
#include <cmath>

#include "core/checkpoint.h"
#include "nn/anomaly.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace delrec::core {
namespace {

nn::LossAnomalyGuard::Options GuardOptions(const DelRecConfig& config) {
  return nn::LossAnomalyGuard::FromConfig(config.anomaly_guard);
}

// Validates the restored-state buffers against the freshly constructed
// optimizer/rng before handing them to the abort-on-mismatch loaders.
util::Status RestoreStageState(const TrainState& resume,
                               nn::Optimizer& optimizer, util::Rng& rng,
                               nn::LossAnomalyGuard& guard, int stage) {
  const std::string prefix = "stage-" + std::to_string(stage) + " ";
  if (resume.optimizer_state.size() != optimizer.StateDump().size()) {
    return util::Status::InvalidArgument(prefix +
                                         "optimizer state size mismatch");
  }
  optimizer.LoadState(resume.optimizer_state);
  if (resume.rng_state.size() != rng.StateDump().size()) {
    return util::Status::InvalidArgument(prefix + "rng state size mismatch");
  }
  rng.LoadState(resume.rng_state);
  DELREC_RETURN_IF_ERROR(guard.LoadState(resume.guard_state));
  return util::Status::Ok();
}

}  // namespace

DelRec::DelRec(const data::CatalogView* catalog, const llm::Vocab* vocab,
               llm::TinyLm* llm, srmodels::SequentialRecommender* sr_model,
               const DelRecConfig& config)
    : catalog_(catalog),
      llm_(llm),
      sr_model_(sr_model),
      config_(config),
      prompt_builder_(catalog, vocab),
      verbalizer_(*catalog, *vocab),
      scratch_rng_(config.seed ^ 0xd1b54a32d192ed03ULL) {
  DELREC_CHECK(catalog != nullptr);
  DELREC_CHECK(llm != nullptr);
  DELREC_CHECK(sr_model != nullptr);
  util::Rng init_rng(config.seed);
  // Soft prompts are randomly initialized embeddings in the LLM's language
  // space (Eq. 2); stage 1 moves them toward the SR model's patterns.
  soft_prompts_ = nn::Tensor::Randn(
      {config.soft_prompt_count, llm->model_dim()}, init_rng, 0.02f,
      /*requires_grad=*/true);
}

std::string DelRec::name() const {
  return "DELRec (" + sr_model_->name() + ")";
}

namespace inference {

std::vector<int64_t> WindowHistory(const DelRecConfig& config,
                                   const std::vector<int64_t>& history) {
  if (static_cast<int64_t>(history.size()) <= config.history_length) {
    return history;
  }
  return std::vector<int64_t>(history.end() - config.history_length,
                              history.end());
}

nn::Tensor ActiveSoftPrompts(const DelRecConfig& config,
                             const nn::Tensor& soft_prompts) {
  if (!config.use_soft_prompts || config.manual_prompts) return nn::Tensor();
  return soft_prompts;
}

std::vector<int64_t> ActiveHintTokens(
    const DelRecConfig& config, const llm::PromptBuilder& builder,
    const srmodels::SequentialRecommender& sr_model,
    const std::vector<int64_t>& history) {
  std::vector<int64_t> tokens;
  if (config.manual_prompts) {
    tokens = builder.ManualConstructionTokens(util::ToLower(sr_model.name()));
  }
  if (config.sr_hints_in_stage2) {
    const std::vector<int64_t> top_h = sr_model.TopK(history, config.top_h);
    for (int64_t id : builder.vocab().Encode(
             "the " + util::ToLower(sr_model.name()) +
             " model recommends top items")) {
      tokens.push_back(id);
    }
    for (int64_t item : top_h) {
      for (int64_t id : builder.TitleTokens(item)) {
        tokens.push_back(id);
      }
      tokens.push_back(llm::Vocab::kSep);
    }
  }
  return tokens;
}

std::vector<int64_t> PromptCandidates(const DelRecConfig& config,
                                      const std::vector<int64_t>& candidates) {
  if (config.candidates_in_prompt) return candidates;
  return {};
}

llm::Prompt BuildScoringPrompt(const DelRecConfig& config,
                               const llm::PromptBuilder& builder,
                               const srmodels::SequentialRecommender& sr_model,
                               const nn::Tensor& soft_prompts,
                               const std::vector<int64_t>& history,
                               const std::vector<int64_t>& candidates) {
  const std::vector<int64_t> window = WindowHistory(config, history);
  return builder.BuildRecommendation(
      window, PromptCandidates(config, candidates),
      ActiveSoftPrompts(config, soft_prompts),
      ActiveHintTokens(config, builder, sr_model, window), nn::Tensor());
}

std::vector<llm::PromptPiece> BuildScoringPrefix(
    const DelRecConfig& config, const llm::PromptBuilder& builder,
    const nn::Tensor& soft_prompts) {
  return builder.RecommendationPrefix(
      ActiveSoftPrompts(config, soft_prompts));
}

}  // namespace inference

util::Status DelRec::DistillPattern(
    const std::vector<data::Example>& train_examples) {
  return DistillPatternImpl(train_examples, nullptr, nullptr);
}

util::Status DelRec::DistillPatternImpl(
    const std::vector<data::Example>& train_examples,
    const std::string* checkpoint_path, const TrainState* resume) {
  if (!config_.use_soft_prompts || config_.manual_prompts ||
      config_.skip_stage1) {
    stage1_done_ = true;
    return util::Status::Ok();
  }
  DELREC_CHECK(!config_.disable_temporal_analysis ||
               !config_.disable_pattern_simulating)
      << "stage 1 needs at least one distillation task";
  util::Rng rng(config_.seed + 1);
  std::vector<data::Example> examples =
      data::Subsample(train_examples, config_.stage1_max_examples, rng);
  DELREC_CHECK(!examples.empty());

  // Stage-1 parameter group: soft prompts only (Eq. 4/5: Φ0 frozen) unless
  // the w UDPSM ablation also updates the LLM.
  std::vector<nn::Tensor> parameters = {soft_prompts_};
  if (config_.update_llm_in_stage1) {
    for (const nn::Tensor& p : llm_->Parameters()) parameters.push_back(p);
  } else {
    llm_->SetRequiresGrad(false);
  }
  nn::Lion optimizer(parameters, config_.stage1_learning_rate, 0.9f, 0.99f,
                     config_.stage1_weight_decay);
  llm_->SetTraining(true);
  const auto finish = [this] {
    llm_->SetTraining(false);
    if (!config_.update_llm_in_stage1) {
      llm_->SetRequiresGrad(true);  // Restore for stage 2 / other users.
    }
  };

  // Dynamic λ (Eq. 6): renormalized each batch from running task losses so
  // the harder task receives more weight.
  float ta_ema = 1.0f;
  float rps_ema = 1.0f;
  nn::LossAnomalyGuard guard(GuardOptions(config_));
  int start_epoch = 0;
  if (resume != nullptr) {
    util::Status restored =
        RestoreStageState(*resume, optimizer, rng, guard, /*stage=*/1);
    if (!restored.ok()) {
      finish();
      return restored;
    }
    if (resume->stage_extra.size() != 2) {
      finish();
      return util::Status::InvalidArgument("stage-1 λ state size mismatch");
    }
    ta_ema = resume->stage_extra[0];
    rps_ema = resume->stage_extra[1];
    diagnostics_ = resume->diagnostics;
    start_epoch = resume->next_epoch;
  }
  const std::string sr_name = util::ToLower(sr_model_->name());
  std::vector<int64_t> order(examples.size());

  for (int epoch = start_epoch; epoch < config_.stage1_epochs; ++epoch) {
    // Re-derived from the identity each epoch so the permutation depends
    // only on the rng state at the epoch boundary — this is what makes a
    // checkpoint-resumed run bit-identical to an uninterrupted one.
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    float epoch_ta = 0.0f, epoch_rps = 0.0f, epoch_lambda = 0.0f;
    int64_t batches = 0;
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end =
          std::min(order.size(), start + static_cast<size_t>(config_.batch_size));
      std::vector<nn::Tensor> ta_losses;
      std::vector<nn::Tensor> rps_losses;
      for (size_t i = start; i < end; ++i) {
        const data::Example& example = examples[order[i]];
        const std::vector<int64_t> history =
            inference::WindowHistory(config_, example.history);
        // Temporal Analysis: PMRI on histories long enough for ICL + mask.
        if (!config_.disable_temporal_analysis &&
            static_cast<int64_t>(history.size()) >= 4) {
          const int64_t label = history[history.size() - 2];
          llm::Prompt prompt = prompt_builder_.BuildTemporalAnalysis(
              history, config_.icl_alpha, {}, soft_prompts_);
          nn::Tensor hidden = llm_->Encode(prompt.pieces, config_.dropout,
                                           rng, prompt.prefix_length);
          nn::Tensor logits = verbalizer_.AllItemLogits(
              llm_->LogitsAt(hidden, prompt.mask_position));
          ta_losses.push_back(nn::CrossEntropyWithLogits(logits, {label}));
        }
        // Recommendation Pattern Simulating: predict the SR model's top-1
        // (not the ground truth) given its top-h list.
        if (!config_.disable_pattern_simulating) {
          const std::vector<int64_t> top_h =
              sr_model_->TopK(history, config_.top_h);
          const int64_t label = top_h[0];
          llm::Prompt prompt = prompt_builder_.BuildPatternSimulating(
              history, top_h, {}, soft_prompts_, sr_name);
          nn::Tensor hidden = llm_->Encode(prompt.pieces, config_.dropout,
                                           rng, prompt.prefix_length);
          nn::Tensor logits = verbalizer_.AllItemLogits(
              llm_->LogitsAt(hidden, prompt.mask_position));
          rps_losses.push_back(nn::CrossEntropyWithLogits(logits, {label}));
        }
      }
      if (ta_losses.empty() && rps_losses.empty()) continue;
      // λ from running losses; tasks that are ablated get weight 0.
      float lambda = 0.5f;
      if (config_.disable_temporal_analysis) {
        lambda = 0.0f;
      } else if (config_.disable_pattern_simulating) {
        lambda = 1.0f;
      } else {
        lambda = ta_ema / (ta_ema + rps_ema + 1e-8f);
      }
      nn::Tensor ta, rps;
      float ta_value = 0.0f, rps_value = 0.0f, loss_value = 0.0f;
      if (!ta_losses.empty() && lambda > 0.0f) {
        ta = nn::MulScalar(nn::AddN(ta_losses),
                           1.0f / static_cast<float>(ta_losses.size()));
        ta_value = ta.item();
        loss_value += lambda * ta_value;
      }
      if (!rps_losses.empty() && lambda < 1.0f) {
        rps = nn::MulScalar(nn::AddN(rps_losses),
                            1.0f / static_cast<float>(rps_losses.size()));
        rps_value = rps.item();
        loss_value += (1.0f - lambda) * rps_value;
      }
      if (util::Failpoints::Instance().ShouldCorrupt("delrec.stage1.loss")) {
        loss_value = std::nanf("");
      }
      // The anomaly check runs before the λ EMAs absorb this batch, so one
      // NaN batch cannot poison the task weighting.
      if (guard.ShouldSkip(loss_value)) {
        ++train_stats_.stage1_anomalies;
        DELREC_LOG(Warning) << name() << " stage1 anomalous batch loss "
                            << loss_value << " — skipping step";
        if (guard.exhausted()) {
          finish();
          return guard.status();
        }
        continue;
      }
      std::vector<nn::Tensor> weighted;
      if (ta.defined()) {
        ta_ema = 0.9f * ta_ema + 0.1f * ta_value;
        epoch_ta += ta_value;
        weighted.push_back(nn::MulScalar(ta, lambda));
      }
      if (rps.defined()) {
        rps_ema = 0.9f * rps_ema + 0.1f * rps_value;
        epoch_rps += rps_value;
        weighted.push_back(nn::MulScalar(rps, 1.0f - lambda));
      }
      nn::Tensor loss = nn::AddN(weighted);
      std::vector<std::vector<float>> snapshot;
      if (config_.anomaly_guard.enabled) {
        snapshot = nn::SnapshotParameterData(parameters);
      }
      soft_prompts_.ZeroGrad();
      llm_->ZeroGrad();
      loss.Backward();
      nn::ClipGradNorm(parameters, 5.0f);
      optimizer.Step();
      if (config_.anomaly_guard.enabled && !nn::AllParametersFinite(parameters)) {
        nn::RestoreParameterData(parameters, snapshot);
        guard.ReportParameterAnomaly();
        ++train_stats_.stage1_anomalies;
        DELREC_LOG(Warning)
            << name() << " stage1 non-finite parameters after step — "
                         "restored pre-step values";
        if (guard.exhausted()) {
          finish();
          return guard.status();
        }
        continue;
      }
      epoch_lambda += lambda;
      ++batches;
    }
    if (batches > 0) {
      diagnostics_.lambda_per_epoch.push_back(epoch_lambda / batches);
      diagnostics_.ta_loss_per_epoch.push_back(epoch_ta / batches);
      diagnostics_.rps_loss_per_epoch.push_back(epoch_rps / batches);
    }
    if (config_.verbose) {
      DELREC_LOG(Info) << name() << " stage1 epoch " << epoch + 1
                       << " TA=" << (batches ? epoch_ta / batches : 0)
                       << " RPS=" << (batches ? epoch_rps / batches : 0);
    }
    if (checkpoint_path != nullptr) {
      TrainState state;
      state.stage = 1;
      state.next_epoch = epoch + 1;
      state.optimizer_state = optimizer.StateDump();
      state.rng_state = rng.StateDump();
      state.guard_state = guard.StateDump();
      state.stage_extra = {ta_ema, rps_ema};
      state.diagnostics = diagnostics_;
      util::Status saved =
          SaveTrainCheckpoint(*this, *llm_, state, *checkpoint_path);
      if (!saved.ok()) {
        finish();
        return saved;
      }
      // Crash-injection point for tests: fires after the epoch is durable.
      util::Status killed =
          util::Failpoints::Instance().Check("delrec.stage1.epoch_end");
      if (!killed.ok()) {
        finish();
        return killed;
      }
    }
  }
  finish();
  stage1_done_ = true;
  return util::Status::Ok();
}

util::Status DelRec::FineTune(
    const std::vector<data::Example>& train_examples) {
  return FineTuneImpl(train_examples, nullptr, nullptr);
}

util::Status DelRec::FineTuneImpl(
    const std::vector<data::Example>& train_examples,
    const std::string* checkpoint_path, const TrainState* resume) {
  if (config_.skip_stage2) return util::Status::Ok();
  DELREC_CHECK(stage1_done_ || config_.skip_stage1 ||
               !config_.use_soft_prompts || config_.manual_prompts)
      << "run DistillPattern() first";
  util::Rng rng(config_.seed + 2);
  std::vector<data::Example> examples =
      data::Subsample(train_examples, config_.stage2_max_examples, rng);
  DELREC_CHECK(!examples.empty());

  // Freeze soft prompts (Eq. 8: Φ fixed) unless the w ULSR ablation updates
  // them; trainable parameters are the AdaLoRA adapters.
  soft_prompts_.set_requires_grad(config_.update_soft_in_stage2);
  llm_->SetRequiresGrad(false);
  adapters_ = llm_->EnableAdapters(config_.lora_rank, config_.lora_scale);
  std::vector<nn::Tensor> parameters;
  nn::AdaLoraAllocator allocator(
      config_.adalora_budget > 0
          ? config_.adalora_budget
          : (2 * config_.lora_rank * static_cast<int64_t>(adapters_.size())) /
                3);
  for (nn::LoraLinear* adapter : adapters_) {
    allocator.Register(adapter);
    for (const nn::Tensor& p : adapter->Parameters()) {
      parameters.push_back(p);
    }
    adapter->SetTraining(true);
  }
  if (config_.update_soft_in_stage2) parameters.push_back(soft_prompts_);
  // BitFit-style bias/LayerNorm tuning rides along with the adapters
  // (standard PEFT companion; dense weights stay frozen).
  for (nn::Tensor p : llm_->BitFitParameters()) {
    p.set_requires_grad(true);
    parameters.push_back(p);
  }
  // Embedding-LoRA factors (tied table delta) are part of the PEFT group.
  for (nn::Tensor p : llm_->EmbeddingAdapterParameters()) {
    p.set_requires_grad(true);
    parameters.push_back(p);
  }
  // modules_to_save analog: the token table (tied with the LM head) is
  // fine-tuned fully — the standard PEFT choice when the vocabulary is the
  // task's output space.
  {
    nn::Tensor table = llm_->token_table();
    table.set_requires_grad(true);
    parameters.push_back(table);
  }
  std::unique_ptr<nn::Optimizer> optimizer;
  if (config_.stage2_use_lion) {
    optimizer = std::make_unique<nn::Lion>(
        parameters, config_.stage2_learning_rate, 0.9f, 0.99f,
        config_.stage2_weight_decay);
  } else {
    optimizer = std::make_unique<nn::Adam>(
        parameters, config_.stage2_learning_rate, 0.9f, 0.999f, 1e-8f,
        config_.stage2_weight_decay);
  }
  llm_->SetTraining(true);
  const auto finish = [this] {
    llm_->SetTraining(false);
    llm_->SetRequiresGrad(true);
    soft_prompts_.set_requires_grad(true);
  };

  nn::LossAnomalyGuard guard(GuardOptions(config_));
  int start_epoch = 0;
  int64_t batch_counter = 0;
  if (resume != nullptr) {
    util::Status restored =
        RestoreStageState(*resume, *optimizer, rng, guard, /*stage=*/2);
    if (!restored.ok()) {
      finish();
      return restored;
    }
    // stage_extra = {batch_counter, adapter 0 sensitivity EMA…, adapter 1…}.
    const size_t expected =
        1 + static_cast<size_t>(config_.lora_rank) * adapters_.size();
    if (resume->stage_extra.size() != expected) {
      finish();
      return util::Status::InvalidArgument(
          "stage-2 AdaLoRA state size mismatch");
    }
    batch_counter = static_cast<int64_t>(resume->stage_extra[0]);
    size_t offset = 1;
    for (nn::LoraLinear* adapter : adapters_) {
      adapter->set_sensitivity_ema(std::vector<float>(
          resume->stage_extra.begin() + offset,
          resume->stage_extra.begin() + offset + adapter->rank()));
      offset += adapter->rank();
    }
    start_epoch = resume->next_epoch;
  }

  std::vector<int64_t> order(examples.size());
  for (int epoch = start_epoch; epoch < config_.stage2_epochs; ++epoch) {
    // Identity-reset each epoch: the permutation depends only on the rng
    // state at the epoch boundary, which keeps resumed runs bit-identical.
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    float epoch_loss = 0.0f;
    int64_t batches = 0;
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end =
          std::min(order.size(), start + static_cast<size_t>(config_.batch_size));
      std::vector<nn::Tensor> losses;
      for (size_t i = start; i < end; ++i) {
        const data::Example& example = examples[order[i]];
        const llm::Prompt prompt = inference::BuildScoringPrompt(
            config_, prompt_builder_, *sr_model_, soft_prompts_,
            example.history, /*candidates=*/{});
        nn::Tensor hidden = llm_->Encode(prompt.pieces, config_.dropout, rng,
                                         prompt.prefix_length);
        // Full-catalog softmax supervision through the verbalizer — the
        // same full-ranking signal conventional SR models train with.
        nn::Tensor logits = verbalizer_.AllItemLogits(
            llm_->LogitsAt(hidden, prompt.mask_position));
        losses.push_back(
            nn::CrossEntropyWithLogits(logits, {example.target}));
      }
      if (losses.empty()) continue;
      nn::Tensor loss = nn::MulScalar(
          nn::AddN(losses), 1.0f / static_cast<float>(losses.size()));
      float loss_value = loss.item();
      if (util::Failpoints::Instance().ShouldCorrupt("delrec.stage2.loss")) {
        loss_value = std::nanf("");
      }
      if (guard.ShouldSkip(loss_value)) {
        ++train_stats_.stage2_anomalies;
        DELREC_LOG(Warning) << name() << " stage2 anomalous batch loss "
                            << loss_value << " — skipping step";
        if (guard.exhausted()) {
          finish();
          return guard.status();
        }
        continue;
      }
      std::vector<std::vector<float>> snapshot;
      std::vector<std::vector<float>> sensitivity_snapshot;
      if (config_.anomaly_guard.enabled) {
        snapshot = nn::SnapshotParameterData(parameters);
        sensitivity_snapshot.reserve(adapters_.size());
        for (const nn::LoraLinear* adapter : adapters_) {
          sensitivity_snapshot.push_back(adapter->sensitivity_ema());
        }
      }
      optimizer->ZeroGrad();
      loss.Backward();
      allocator.AccumulateSensitivity();
      nn::ClipGradNorm(parameters, 5.0f);
      optimizer->Step();
      if (config_.anomaly_guard.enabled && !nn::AllParametersFinite(parameters)) {
        nn::RestoreParameterData(parameters, snapshot);
        for (size_t a = 0; a < adapters_.size(); ++a) {
          adapters_[a]->set_sensitivity_ema(sensitivity_snapshot[a]);
        }
        guard.ReportParameterAnomaly();
        ++train_stats_.stage2_anomalies;
        DELREC_LOG(Warning)
            << name() << " stage2 non-finite parameters after step — "
                         "restored pre-step values";
        if (guard.exhausted()) {
          finish();
          return guard.status();
        }
        continue;
      }
      if (++batch_counter % config_.adalora_interval == 0) {
        allocator.Reallocate();
      }
      epoch_loss += loss_value;
      ++batches;
    }
    if (config_.verbose) {
      DELREC_LOG(Info) << name() << " stage2 epoch " << epoch + 1
                       << " loss=" << (batches ? epoch_loss / batches : 0);
    }
    if (checkpoint_path != nullptr) {
      TrainState state;
      state.stage = 2;
      state.next_epoch = epoch + 1;
      state.optimizer_state = optimizer->StateDump();
      state.rng_state = rng.StateDump();
      state.guard_state = guard.StateDump();
      state.stage_extra.push_back(static_cast<float>(batch_counter));
      for (const nn::LoraLinear* adapter : adapters_) {
        const std::vector<float>& ema = adapter->sensitivity_ema();
        state.stage_extra.insert(state.stage_extra.end(), ema.begin(),
                                 ema.end());
      }
      state.diagnostics = diagnostics_;
      util::Status saved =
          SaveTrainCheckpoint(*this, *llm_, state, *checkpoint_path);
      if (!saved.ok()) {
        finish();
        return saved;
      }
      // Crash-injection point for tests: fires after the epoch is durable.
      util::Status killed =
          util::Failpoints::Instance().Check("delrec.stage2.epoch_end");
      if (!killed.ok()) {
        finish();
        return killed;
      }
    }
  }
  finish();
  return util::Status::Ok();
}

util::Status DelRec::Train(const std::vector<data::Example>& train_examples) {
  DELREC_RETURN_IF_ERROR(DistillPattern(train_examples));
  return FineTune(train_examples);
}

util::Status DelRec::TrainResumable(
    const std::vector<data::Example>& train_examples,
    const std::string& checkpoint_path) {
  TrainState state;
  util::Status loaded =
      LoadTrainCheckpoint(*this, *llm_, checkpoint_path, &state);
  if (loaded.ok()) {
    DELREC_LOG(Info) << name() << " resuming stage " << state.stage
                     << " at epoch " << state.next_epoch << " from "
                     << checkpoint_path;
    if (state.stage == 1 &&
        state.next_epoch < config_.stage1_epochs) {
      DELREC_RETURN_IF_ERROR(
          DistillPatternImpl(train_examples, &checkpoint_path, &state));
      return FineTuneImpl(train_examples, &checkpoint_path, nullptr);
    }
    if (state.stage == 1) {
      // Stage 1 fully checkpointed; only stage 2 remains.
      diagnostics_ = state.diagnostics;
      stage1_done_ = true;
      return FineTuneImpl(train_examples, &checkpoint_path, nullptr);
    }
    if (state.stage == 2) {
      diagnostics_ = state.diagnostics;
      stage1_done_ = true;
      if (state.next_epoch >= config_.stage2_epochs) {
        return util::Status::Ok();  // Training already completed.
      }
      return FineTuneImpl(train_examples, &checkpoint_path, &state);
    }
    return util::Status::InvalidArgument("unknown training stage " +
                                         std::to_string(state.stage));
  }
  if (loaded.code() != util::Status::Code::kNotFound) {
    // A checkpoint exists but cannot be trusted; refuse to silently retrain
    // over it. The caller decides whether to delete and start fresh.
    return loaded;
  }
  DELREC_RETURN_IF_ERROR(
      DistillPatternImpl(train_examples, &checkpoint_path, nullptr));
  return FineTuneImpl(train_examples, &checkpoint_path, nullptr);
}

std::vector<float> DelRec::ScoreCandidates(
    const data::Example& example,
    const std::vector<int64_t>& candidates) const {
  nn::NoGradGuard no_grad;
  llm::Prompt prompt = inference::BuildScoringPrompt(
      config_, prompt_builder_, *sr_model_, soft_prompts_, example.history,
      candidates);
  nn::Tensor hidden =
      llm_->Encode(prompt.pieces, 0.0f, scratch_rng_, prompt.prefix_length);
  nn::Tensor token_logits = llm_->LogitsAt(hidden, prompt.mask_position);
  return verbalizer_.Scores(token_logits.data(), candidates);
}

std::vector<int64_t> DelRec::Recommend(
    const std::vector<int64_t>& history,
    const std::vector<int64_t>& candidate_pool, int64_t k) const {
  data::Example example;
  example.history = history;
  example.target = candidate_pool.empty() ? 0 : candidate_pool[0];
  const std::vector<float> scores = ScoreCandidates(example, candidate_pool);
  const std::vector<int64_t> order =
      srmodels::TopKFromScores(scores, std::min<int64_t>(k, scores.size()));
  std::vector<int64_t> items;
  items.reserve(order.size());
  for (int64_t index : order) items.push_back(candidate_pool[index]);
  return items;
}

int64_t DelRec::SoftPromptParameterCount() const {
  return soft_prompts_.size();
}

int64_t DelRec::AdapterParameterCount() const {
  int64_t total = 0;
  for (const nn::LoraLinear* adapter : adapters_) {
    total += adapter->ParameterCount();
  }
  return total;
}

}  // namespace delrec::core
