#ifndef DELREC_SERVE_SNAPSHOT_H_
#define DELREC_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/delrec.h"
#include "data/dataset.h"
#include "llm/prompt.h"
#include "llm/tiny_lm.h"
#include "llm/verbalizer.h"
#include "llm/vocab.h"
#include "nn/tensor.h"
#include "serve/scorer.h"
#include "srmodels/factory.h"
#include "srmodels/recommender.h"
#include "util/status.h"

namespace delrec::serve {

/// Snapshot build-time options (DESIGN.md §13). `quantize_int8` converts the
/// frozen TinyLm to int8 serving form after loading: adapters merged, dense
/// projections quantized per-output-channel, matmuls routed through the
/// packed int8 kernels, and the effective token table quantized too
/// (covering the input gather and the tied LM head) — the bulk of the
/// footprint win, as the table dominates weight bytes at these model sizes.
/// Scores are no longer bit-identical to the fp32 snapshot but stay within
/// the tolerance gated by tests/quant_parity_test.cc; the fp32 default is
/// bit-for-bit unchanged. Every snapshot, fp32 or int8, builds the prefix
/// KV cache (DESIGN.md §15): it is exact, so it needs no option.
/// (Namespace-scope rather than nested so it can be a default argument.)
struct SnapshotBuildOptions {
  bool quantize_int8 = false;
};

/// Where a snapshot's resident bytes live (asserted to sum to
/// MemoryFootprintBytes in tests/serve_test.cc).
struct SnapshotFootprint {
  size_t weight_bytes = 0;        ///< TinyLm serving weights (fp32 or int8).
  size_t soft_prompt_bytes = 0;   ///< Distilled soft-prompt rows.
  size_t token_table_bytes = 0;   ///< Materialized fp32 effective table.
  size_t prefix_cache_bytes = 0;  ///< PrefixState per-layer K/V.
  size_t student_bytes = 0;       ///< Embedded distilled student (0 if none).

  size_t total() const {
    return weight_bytes + soft_prompt_bytes + token_table_bytes +
           prefix_cache_bytes + student_bytes;
  }
};

/// An immutable, shareable inference artifact: the frozen TinyLm (base
/// weights + AdaLoRA adapters + embedding-LoRA factors), the distilled soft
/// prompts, the prompt templates, the verbalizer, and a materialized
/// effective token table — everything candidate scoring needs, with no
/// trainer state attached. Buildable from a live trained DelRec or straight
/// from SaveDelRecCheckpoint blobs; both construction paths produce
/// bit-identical scores to the live model (tests/serve_test.cc).
///
/// Scoring is const and thread-safe: the snapshot's own TinyLm is never
/// mutated after construction, inference draws no RNG, and grad mode is
/// thread-local. ScoreBatch() stacks the requests' prompt suffixes into one
/// row-concatenated batched encode over the prefix KV cache, bit-identical
/// per row at every thread count and batch composition — and, on fp32
/// weights, to DelRec::ScoreCandidates' per-sequence forward (DESIGN.md
/// §11, §15). Score() is a batch of one.
class EngineSnapshot : public Scorer {
 public:
  /// Borrowed, immutable context the snapshot scores against. All pointers
  /// must outlive the snapshot. `sr_model` supplies the TopK hint channel
  /// of the stage-2 prompt and must be the trained backbone DELRec
  /// distilled from (it is consulted read-only).
  struct Sources {
    const data::CatalogView* catalog = nullptr;
    const llm::Vocab* vocab = nullptr;
    const srmodels::SequentialRecommender* sr_model = nullptr;
  };

  using BuildOptions = SnapshotBuildOptions;

  /// Freezes a live trained system. Copies all parameter state out of
  /// `model`/`llm` (via the checkpoint blob path, so a frozen-from-model
  /// snapshot is byte-for-byte the same artifact as one loaded from disk).
  static util::StatusOr<std::unique_ptr<EngineSnapshot>> FromModel(
      const core::DelRec& model, const llm::TinyLm& llm,
      const Sources& sources, const BuildOptions& options = BuildOptions());

  /// Builds from checkpoint blobs. `llm_config`/`config` must describe the
  /// architecture the checkpoint was trained with (blob sizes are
  /// validated; InvalidArgument on mismatch).
  static util::StatusOr<std::unique_ptr<EngineSnapshot>> FromBlobs(
      const core::DelRecBlobs& blobs, const llm::TinyLmConfig& llm_config,
      const core::DelRecConfig& config, const Sources& sources,
      const BuildOptions& options = BuildOptions());

  /// Reads a SaveDelRecCheckpoint file and builds from its blobs.
  static util::StatusOr<std::unique_ptr<EngineSnapshot>> FromCheckpoint(
      const std::string& path, const llm::TinyLmConfig& llm_config,
      const core::DelRecConfig& config, const Sources& sources,
      const BuildOptions& options = BuildOptions());

  // Scorer interface.
  std::string name() const override;
  std::vector<float> Score(const ScoreRequest& request) const override;
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<ScoreRequest>& requests) const override;

  /// Top-k recommendation over a candidate pool, best first.
  std::vector<int64_t> Recommend(const std::vector<int64_t>& history,
                                 const std::vector<int64_t>& candidate_pool,
                                 int64_t k) const;

  const core::DelRecConfig& config() const { return config_; }
  const llm::TinyLm& llm() const { return *llm_; }
  const nn::Tensor& soft_prompts() const { return soft_prompts_; }
  bool quantized() const { return llm_->quantized(); }

  /// Bytes of model state one scoring call reads: the LLM's serving weights
  /// (fp32 or packed int8), the soft prompts, the materialized fp32
  /// effective table when one is held, and the prefix KV cache. Reported by
  /// bench_serve so the ~4× int8 weight shrink is a gated, visible number.
  size_t MemoryFootprintBytes() const { return MemoryFootprint().total(); }
  /// The same bytes, broken down by where they live.
  SnapshotFootprint MemoryFootprint() const;

  /// Tokens of every request's prompt served from the prefix KV cache — the
  /// engine's prefix_tokens_skipped counter multiplies this by requests
  /// scored.
  int64_t CachedPrefixLength() const override {
    return prefix_state_.length;
  }
  const llm::TinyLm::PrefixState& prefix_state() const {
    return prefix_state_;
  }

  /// Whether the checkpoint this snapshot was built from embedded a
  /// distilled student blob (DelRecBlobs::student_blob). When true, the
  /// snapshot carries the deserialized student alongside the teacher so
  /// MakeSnapshotTwoTier can publish both tiers as one atomic version.
  bool has_student() const { return student_.model != nullptr; }
  /// The embedded student (frozen, inference-only). CHECK-fails when
  /// has_student() is false.
  const srmodels::SequentialRecommender* student() const;
  /// The student's declared architecture (valid only when has_student()).
  const srmodels::StudentSpec& student_spec() const { return student_.spec; }

 private:
  EngineSnapshot(const core::DelRecConfig& config, const Sources& sources);

  Sources sources_;
  core::DelRecConfig config_;
  std::unique_ptr<llm::TinyLm> llm_;  // Owned, frozen after construction.
  nn::Tensor soft_prompts_;           // (k, model_dim), no grad.
  llm::PromptBuilder prompt_builder_;
  llm::Verbalizer verbalizer_;
  nn::Tensor effective_table_;  // MaterializeTokenTable(), shared by calls.
  // Precomputed K/V of the snapshot-constant prompt head. Built inside
  // FromBlobs — after quantization, so the int8 path's cache comes from the
  // int8 projections — and immutable after that, like everything else here:
  // publishing a new snapshot is what invalidates it (the old PrefixState
  // dies with the old snapshot's refcount, DESIGN.md §12/§15).
  llm::TinyLm::PrefixState prefix_state_;
  // Deserialized DelRecBlobs::student_blob (model == nullptr when the
  // checkpoint carried none). Owned and frozen like everything else here;
  // lives and dies with the snapshot so two-tier publishes are atomic.
  srmodels::LoadedStudent student_;
};

}  // namespace delrec::serve

#endif  // DELREC_SERVE_SNAPSHOT_H_
