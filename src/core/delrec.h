#ifndef DELREC_CORE_DELREC_H_
#define DELREC_CORE_DELREC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "llm/prompt.h"
#include "llm/tiny_lm.h"
#include "llm/verbalizer.h"
#include "llm/vocab.h"
#include "nn/anomaly.h"
#include "nn/lora.h"
#include "nn/tensor.h"
#include "srmodels/recommender.h"
#include "util/rng.h"
#include "util/status.h"

namespace delrec::core {

/// DELRec hyperparameters (paper §V-A3, scaled per DESIGN.md §6) plus the
/// ablation switches of Tables III & IV.
struct DelRecConfig {
  // Task shape.
  int64_t history_length = 10;   // n: most recent interactions kept.
  int64_t candidate_count = 15;  // m: 1 positive + 14 random.
  int64_t soft_prompt_count = 16;  // k (paper: 80 at full scale).
  int64_t top_h = 5;               // h: SR items shown in RPS.
  /// Whether to spell the candidate set out in the prompt text. The paper
  /// includes it so the LLM cannot hallucinate items; this repo's verbalizer
  /// restricts outputs to the candidate set structurally, so the default
  /// omits the block (3× shorter prompts — see DESIGN.md §6).
  bool candidates_in_prompt = false;
  /// Include the conventional model's top-h titles in the stage-2 prompt as
  /// the auxiliary-information channel next to the soft prompts. At paper
  /// scale the 3B LLM absorbs the SR model's behaviour through soft prompts
  /// alone; at this repo's scale k·d floats cannot encode a full transition
  /// table, so the textual channel carries the per-history part while the
  /// soft prompts carry the behavioural prior (and stage-1 RPS training
  /// transfers directly, its prompt being structurally identical).
  bool sr_hints_in_stage2 = true;
  int64_t icl_alpha = 4;           // α: ICL split in Temporal Analysis.

  // Stage 1 — Distill Pattern from Conventional SR Models (Lion optimizer).
  int stage1_epochs = 2;
  float stage1_learning_rate = 5e-3f;
  float stage1_weight_decay = 1e-5f;
  int64_t stage1_max_examples = 250;

  // Stage 2 — LLMs-based Sequential Recommendation (AdaLoRA + Lion).
  int stage2_epochs = 8;
  float stage2_learning_rate = 3e-3f;
  float stage2_weight_decay = 1e-6f;
  /// The paper uses Lion in stage 2 (1e-4 on a 3B model). At this repo's
  /// scale Lion's uniform sign steps are too coarse for the embedding-LoRA
  /// factors, so Adam is the default; set true to match the paper exactly.
  bool stage2_use_lion = false;
  int64_t stage2_max_examples = 1200;
  int64_t lora_rank = 8;
  float lora_scale = 2.0f;
  int64_t adalora_budget = 0;  // 0 ⇒ ⅔ of the total rank pool.
  int64_t adalora_interval = 8;  // Batches between budget reallocations.

  int batch_size = 16;
  float dropout = 0.1f;
  uint64_t seed = 21;
  bool verbose = false;

  // Loss-anomaly guard (nn::LossAnomalyGuard); knobs shared with
  // srmodels::TrainConfig via nn::AnomalyGuardConfig.
  nn::AnomalyGuardConfig anomaly_guard;

  // Ablation switches.
  bool use_soft_prompts = true;        // false = "w/o SP" / "w/o DPSM".
  bool manual_prompts = false;         // true  = "w MCP".
  bool skip_stage1 = false;            // true  = "w USP" (random soft).
  bool skip_stage2 = false;            // true  = "w/o LSR".
  bool disable_temporal_analysis = false;   // "w/o TA".
  bool disable_pattern_simulating = false;  // "w/o RPS".
  bool update_llm_in_stage1 = false;   // "w UDPSM".
  bool update_soft_in_stage2 = false;  // "w ULSR".
};

/// Per-epoch stage-1 diagnostics (λ trace answers RQ2-style questions).
struct Stage1Diagnostics {
  std::vector<float> lambda_per_epoch;
  std::vector<float> ta_loss_per_epoch;
  std::vector<float> rps_loss_per_epoch;
};

/// Anomaly-guard tallies across the two training stages.
struct TrainStats {
  int64_t stage1_anomalies = 0;
  int64_t stage2_anomalies = 0;
};

/// Mid-training snapshot persisted next to the model blobs after every
/// completed epoch so an interrupted run resumes from the last epoch
/// boundary — and, because it carries the optimizer moments, RNG state,
/// λ/guard bookkeeping and AdaLoRA sensitivity, resumes bit-identically.
/// stage: 1 = soft-prompt distillation, 2 = AdaLoRA fine-tuning.
/// next_epoch: first epoch of `stage` that has not completed yet.
struct TrainState {
  int stage = 1;
  int next_epoch = 0;
  std::vector<float> optimizer_state;  // nn::Optimizer::StateDump().
  std::vector<uint64_t> rng_state;     // util::Rng::StateDump().
  std::vector<float> guard_state;      // nn::LossAnomalyGuard::StateDump().
  /// Stage-specific scalars: stage 1 = {ta_ema, rps_ema}; stage 2 =
  /// {batch_counter} followed by each adapter's sensitivity EMA (rank
  /// floats per adapter, registration order).
  std::vector<float> stage_extra;
  Stage1Diagnostics diagnostics;
};

/// Stateless building blocks of the frozen scoring path, shared by the live
/// model (DelRec::ScoreCandidates) and serve::EngineSnapshot so both
/// construct bit-identical prompts from identical state. All functions are
/// pure in their inputs; `sr_model` is only consulted for TopK hints.
namespace inference {

/// Truncates a history to config.history_length (most recent kept).
std::vector<int64_t> WindowHistory(const DelRecConfig& config,
                                   const std::vector<int64_t>& history);

/// Soft-prompt rows to splice into the prompt, or an undefined Tensor when
/// the configuration ablated them away.
nn::Tensor ActiveSoftPrompts(const DelRecConfig& config,
                             const nn::Tensor& soft_prompts);

/// Auxiliary textual channel of the stage-2 prompt: the conventional
/// model's top-h titles (sr_hints_in_stage2) and/or the "w MCP" description.
std::vector<int64_t> ActiveHintTokens(
    const DelRecConfig& config, const llm::PromptBuilder& builder,
    const srmodels::SequentialRecommender& sr_model,
    const std::vector<int64_t>& history);

/// Candidate ids rendered into the prompt (empty unless configured).
std::vector<int64_t> PromptCandidates(const DelRecConfig& config,
                                      const std::vector<int64_t>& candidates);

/// The complete recommendation-scoring prompt for (history, candidates) —
/// the exact prompt DelRec::ScoreCandidates forwards through the LLM.
llm::Prompt BuildScoringPrompt(const DelRecConfig& config,
                               const llm::PromptBuilder& builder,
                               const srmodels::SequentialRecommender& sr_model,
                               const nn::Tensor& soft_prompts,
                               const std::vector<int64_t>& history,
                               const std::vector<int64_t>& candidates);

/// The snapshot-constant head of every scoring prompt the config produces
/// — identical to llm::PromptBuilder::Split(BuildScoringPrompt(...)).prefix
/// for any request. A serve snapshot feeds this to TinyLm::BuildPrefixState
/// once per publish (DESIGN.md §15).
std::vector<llm::PromptPiece> BuildScoringPrefix(
    const DelRecConfig& config, const llm::PromptBuilder& builder,
    const nn::Tensor& soft_prompts);

}  // namespace inference

/// The DELRec framework: distills a conventional SR model's behaviour into
/// soft prompts (stage 1), then AdaLoRA-fine-tunes the LLM to exploit them
/// (stage 2). The LLM and SR model are borrowed, not owned; DELRec mutates
/// the LLM's adapters but never its base weights.
class DelRec {
 public:
  /// All pointers must outlive this object. `llm` should be pretrained;
  /// `sr_model` should be trained.
  DelRec(const data::CatalogView* catalog, const llm::Vocab* vocab,
         llm::TinyLm* llm, srmodels::SequentialRecommender* sr_model,
         const DelRecConfig& config);

  /// Stage 1: multi-task soft-prompt distillation (TA + RPS, dynamic λ).
  /// Non-OK when the loss-anomaly guard trips; the soft prompts keep their
  /// last healthy values.
  util::Status DistillPattern(const std::vector<data::Example>& train_examples);

  /// Stage 2: freeze soft prompts, fine-tune the LLM with AdaLoRA + Lion.
  util::Status FineTune(const std::vector<data::Example>& train_examples);

  /// Runs both stages (honouring the ablation switches).
  util::Status Train(const std::vector<data::Example>& train_examples);

  /// Fault-tolerant Train(): persists a full TrainState checkpoint to
  /// `checkpoint_path` after every completed epoch and, when the file
  /// already holds one, resumes from it. A resumed run produces soft
  /// prompts and adapter weights bit-identical to an uninterrupted run
  /// with the same configuration and data.
  util::Status TrainResumable(const std::vector<data::Example>& train_examples,
                              const std::string& checkpoint_path);

  /// Scores a candidate list for evaluation (higher = better).
  std::vector<float> ScoreCandidates(
      const data::Example& example,
      const std::vector<int64_t>& candidates) const;

  /// Top-k recommendation over an arbitrary candidate pool.
  std::vector<int64_t> Recommend(const std::vector<int64_t>& history,
                                 const std::vector<int64_t>& candidate_pool,
                                 int64_t k) const;

  const nn::Tensor& soft_prompts() const { return soft_prompts_; }
  const Stage1Diagnostics& stage1_diagnostics() const { return diagnostics_; }
  const TrainStats& train_stats() const { return train_stats_; }
  const DelRecConfig& config() const { return config_; }
  std::string name() const;

  int64_t SoftPromptParameterCount() const;
  int64_t AdapterParameterCount() const;

  /// The AdaLoRA adapters (empty before stage 2 / checkpoint load).
  const std::vector<nn::LoraLinear*>& adapters() const { return adapters_; }
  /// Checkpoint-restore hook: records externally enabled adapters.
  void AttachAdapters(std::vector<nn::LoraLinear*> adapters) {
    adapters_ = std::move(adapters);
  }

 private:
  /// Stage implementations. When `checkpoint_path` is non-null a
  /// TrainState is saved there after every completed epoch; when `resume`
  /// is non-null the stage restores optimizer/rng/guard/λ state from it
  /// and starts at resume->next_epoch.
  util::Status DistillPatternImpl(
      const std::vector<data::Example>& train_examples,
      const std::string* checkpoint_path, const TrainState* resume);
  util::Status FineTuneImpl(const std::vector<data::Example>& train_examples,
                            const std::string* checkpoint_path,
                            const TrainState* resume);

  const data::CatalogView* catalog_;
  llm::TinyLm* llm_;
  srmodels::SequentialRecommender* sr_model_;
  DelRecConfig config_;
  llm::PromptBuilder prompt_builder_;
  llm::Verbalizer verbalizer_;
  nn::Tensor soft_prompts_;  // (k, model_dim)
  Stage1Diagnostics diagnostics_;
  TrainStats train_stats_;
  std::vector<nn::LoraLinear*> adapters_;
  mutable util::Rng scratch_rng_;
  bool stage1_done_ = false;
};

}  // namespace delrec::core

#endif  // DELREC_CORE_DELREC_H_
