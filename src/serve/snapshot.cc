#include "serve/snapshot.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/lora.h"
#include "nn/module.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

namespace delrec::serve {

EngineSnapshot::EngineSnapshot(const core::DelRecConfig& config,
                               const Sources& sources)
    : sources_(sources),
      config_(config),
      prompt_builder_(sources.catalog, sources.vocab),
      verbalizer_(*sources.catalog, *sources.vocab) {}

util::StatusOr<std::unique_ptr<EngineSnapshot>> EngineSnapshot::FromModel(
    const core::DelRec& model, const llm::TinyLm& llm, const Sources& sources,
    const BuildOptions& options) {
  // Round-trip through the checkpoint blob representation so a snapshot
  // frozen from a live model is the same artifact as one loaded from disk
  // (and the two construction paths cannot drift apart).
  return FromBlobs(core::ExtractDelRecBlobs(model, llm), llm.config(),
                   model.config(), sources, options);
}

util::StatusOr<std::unique_ptr<EngineSnapshot>> EngineSnapshot::FromCheckpoint(
    const std::string& path, const llm::TinyLmConfig& llm_config,
    const core::DelRecConfig& config, const Sources& sources,
    const BuildOptions& options) {
  core::DelRecBlobs blobs;
  DELREC_ASSIGN_OR_RETURN(blobs, core::ReadDelRecBlobs(path));
  return FromBlobs(blobs, llm_config, config, sources, options);
}

util::StatusOr<std::unique_ptr<EngineSnapshot>> EngineSnapshot::FromBlobs(
    const core::DelRecBlobs& blobs, const llm::TinyLmConfig& llm_config,
    const core::DelRecConfig& config, const Sources& sources,
    const BuildOptions& options) {
  DELREC_CHECK(sources.catalog != nullptr);
  DELREC_CHECK(sources.vocab != nullptr);
  DELREC_CHECK(sources.sr_model != nullptr);

  std::unique_ptr<EngineSnapshot> snapshot(
      new EngineSnapshot(config, sources));

  // Base weights. Validate sizes before every LoadState: LoadState aborts on
  // mismatch, and an architecture mismatch should be a recoverable error.
  auto lm = std::make_unique<llm::TinyLm>(llm_config, /*seed=*/0);
  if (static_cast<int64_t>(blobs.llm_state.size()) != lm->ParameterCount()) {
    return util::Status::InvalidArgument("LLM architecture mismatch");
  }
  lm->LoadState(blobs.llm_state);

  // AdaLoRA adapters + embedding-LoRA factors (absent when the snapshot was
  // taken before stage 2 or with adapters ablated).
  if (!blobs.adapter_states.empty()) {
    std::vector<nn::LoraLinear*> adapters =
        lm->EnableAdapters(config.lora_rank, config.lora_scale);
    if (adapters.size() != blobs.adapter_states.size()) {
      return util::Status::InvalidArgument("adapter count mismatch");
    }
    for (size_t i = 0; i < adapters.size(); ++i) {
      if (static_cast<int64_t>(blobs.adapter_states[i].size()) !=
          adapters[i]->ParameterCount()) {
        return util::Status::InvalidArgument("adapter size mismatch");
      }
      adapters[i]->LoadState(blobs.adapter_states[i]);
      const std::vector<float>& mask = blobs.adapter_masks[i];
      for (int64_t d = 0;
           d < std::min<int64_t>(adapters[i]->rank(),
                                 static_cast<int64_t>(mask.size()));
           ++d) {
        adapters[i]->SetDirectionActive(d, mask[d] > 0.5f);
      }
      adapters[i]->SetTraining(false);
      adapters[i]->SetRequiresGrad(false);
    }
    std::vector<nn::Tensor> embedding = lm->EmbeddingAdapterParameters();
    if (embedding.size() == 2 && !blobs.embedding_lora_a.empty()) {
      if (blobs.embedding_lora_a.size() != embedding[0].data().size() ||
          blobs.embedding_lora_b.size() != embedding[1].data().size()) {
        return util::Status::InvalidArgument("embedding adapter mismatch");
      }
      embedding[0].data() = blobs.embedding_lora_a;
      embedding[1].data() = blobs.embedding_lora_b;
    }
  }
  lm->SetTraining(false);
  lm->SetRequiresGrad(false);

  // Soft prompts.
  const int64_t expected =
      config.soft_prompt_count * llm_config.model_dim;
  if (static_cast<int64_t>(blobs.soft_prompts.size()) != expected) {
    return util::Status::InvalidArgument("soft-prompt size mismatch");
  }
  snapshot->soft_prompts_ = nn::Tensor::FromData(
      {config.soft_prompt_count, llm_config.model_dim}, blobs.soft_prompts);

  snapshot->llm_ = std::move(lm);
  if (options.quantize_int8) snapshot->llm_->QuantizeForInference();
  // Materialize the effective token table once: every request shares it
  // instead of re-deriving the embedding-LoRA delta. With a quantized table
  // the fp32 copy is deliberately never built — the gather and the LM head
  // read the packed int8 form, which is where the footprint shrink comes
  // from.
  if (!snapshot->llm_->embedding_table_quantized()) {
    snapshot->effective_table_ = snapshot->llm_->MaterializeTokenTable();
  }
  // Prefix KV cache (DESIGN.md §15), built last so it reads the final
  // serving form of the weights (post-quantization, post-materialization):
  // encode the snapshot-constant scoring-prompt head once, capture every
  // block's K/V. FromModel rides this same path, so the
  // byte-identical-construction contract covers the cache too.
  snapshot->prefix_state_ = snapshot->llm_->BuildPrefixState(
      core::inference::BuildScoringPrefix(config, snapshot->prompt_builder_,
                                          snapshot->soft_prompts_),
      snapshot->effective_table_);
  // Embedded distilled student (optional, DESIGN.md §16): deserialize the
  // blob into a frozen inference model. It rides the same artifact as the
  // teacher, so a two-tier publish swaps both tiers in one version flip.
  if (!blobs.student_blob.empty()) {
    DELREC_ASSIGN_OR_RETURN(snapshot->student_,
                            srmodels::DeserializeStudent(blobs.student_blob));
    if (auto* module = dynamic_cast<nn::Module*>(snapshot->student_.model.get())) {
      module->SetTraining(false);
      module->SetRequiresGrad(false);
    }
  }
  return snapshot;
}

const srmodels::SequentialRecommender* EngineSnapshot::student() const {
  DELREC_CHECK(student_.model != nullptr)
      << "snapshot embeds no student blob";
  return student_.model.get();
}

std::string EngineSnapshot::name() const {
  return "DELRec (" + sources_.sr_model->name() + ") snapshot" +
         (llm_->quantized() ? " int8" : "");
}

SnapshotFootprint EngineSnapshot::MemoryFootprint() const {
  SnapshotFootprint footprint;
  footprint.weight_bytes = llm_->InferenceWeightBytes();
  footprint.soft_prompt_bytes = soft_prompts_.data().size() * sizeof(float);
  if (effective_table_.defined()) {
    footprint.token_table_bytes =
        effective_table_.data().size() * sizeof(float);
  }
  footprint.prefix_cache_bytes = prefix_state_.MemoryBytes();
  if (student_.model != nullptr) {
    footprint.student_bytes =
        static_cast<size_t>(student_.model->ParameterCount()) * sizeof(float);
  }
  return footprint;
}

namespace {

/// Chaos hook: the "serve.scorer.score" failpoint simulates a scorer that
/// blows up mid-inference (OOM, bad weights page, poisoned input). It
/// throws — the worst-behaved failure mode a Scorer can exhibit — so the
/// engine dispatcher's catch path is what gets exercised, not a tidy
/// Status return (tests/serve_chaos_test.cc).
void MaybeInjectScorerFault() {
  const util::Status fault =
      util::Failpoints::Instance().Check("serve.scorer.score");
  if (!fault.ok()) throw std::runtime_error(fault.ToString());
}

}  // namespace

std::vector<float> EngineSnapshot::Score(const ScoreRequest& request) const {
  // A batch of one: Score ≡ ScoreBatch row by construction, fp32 and int8.
  // The scorer failpoint fires inside ScoreBatch, exactly once.
  return ScoreBatch({request}).front();
}

std::vector<std::vector<float>> EngineSnapshot::ScoreBatch(
    const std::vector<ScoreRequest>& requests) const {
  if (requests.empty()) return {};
  MaybeInjectScorerFault();
  const int64_t n = static_cast<int64_t>(requests.size());
  std::vector<std::vector<int64_t>> histories;
  std::vector<std::vector<int64_t>> candidates;
  histories.reserve(requests.size());
  candidates.reserve(requests.size());
  for (const ScoreRequest& request : requests) {
    histories.push_back(request.history);
    candidates.push_back(request.candidates);
  }
  // One batched SR forward serves every request's hint.
  const std::vector<llm::Prompt> prompts =
      core::inference::BuildScoringPrompts(config_, prompt_builder_,
                                           *sources_.sr_model, soft_prompts_,
                                           histories, candidates);

  // Suffix-only pieces: cut each prompt at its declared prefix boundary;
  // the cached PrefixState stands in for the head. Kept alive outside the
  // lambda since EncodeBatchWithPrefix reads pointers.
  std::vector<llm::SplitPrompt> splits(requests.size());
  for (int64_t i = 0; i < n; ++i) {
    // Every scoring prompt this config builds shares the one head the
    // snapshot cached — a mismatch means the prompt templates and the
    // cache drifted apart, which must never survive a publish.
    DELREC_CHECK_EQ(prompts[i].prefix_length, prefix_state_.length);
    splits[i] = llm::PromptBuilder::Split(prompts[i]);
  }

  // Fan the batch out as per-thread sub-batches, each running one stacked
  // suffix encode — the intra-batch parallelism a one-at-a-time caller
  // cannot have. Any partition yields bit-identical scores: each row of
  // the encode depends only on its own sequence (composition invariance,
  // tests/serve_test.cc), so the thread count never shows in the results.
  // Each chunk owns its slice of `results`; the pool buffers behind the
  // forwards are mutex-guarded (util::BufferPool).
  std::vector<std::vector<float>> results(requests.size());
  util::ParallelFor(n, [&](int64_t begin, int64_t end, int) {
    std::vector<const std::vector<llm::PromptPiece>*> pieces;
    pieces.reserve(end - begin);
    for (int64_t i = begin; i < end; ++i) pieces.push_back(&splits[i].suffix);
    std::vector<llm::SequenceSpan> spans;
    const nn::Tensor hidden = llm_->EncodeBatchWithPrefix(
        prefix_state_, pieces, effective_table_, &spans);
    // Hidden rows cover only the suffix: re-anchor the mask index.
    std::vector<int64_t> mask_rows;
    mask_rows.reserve(end - begin);
    for (int64_t i = begin; i < end; ++i) {
      mask_rows.push_back(spans[i - begin].begin + prompts[i].mask_position -
                          prefix_state_.length);
    }
    const nn::Tensor logits =
        llm_->LogitsAtRows(hidden, mask_rows, effective_table_);
    const float* rows = logits.data().data();
    const int64_t vocab = llm_->vocab_size();
    for (int64_t i = begin; i < end; ++i) {
      results[i] = verbalizer_.ScoresFromRow(rows + (i - begin) * vocab,
                                             requests[i].candidates);
    }
  });
  return results;
}

std::vector<int64_t> EngineSnapshot::Recommend(
    const std::vector<int64_t>& history,
    const std::vector<int64_t>& candidate_pool, int64_t k) const {
  ScoreRequest request;
  request.history = history;
  request.candidates = candidate_pool;
  const std::vector<float> scores = Score(request);
  const std::vector<int64_t> order =
      srmodels::TopKFromScores(scores, std::min<int64_t>(k, scores.size()));
  std::vector<int64_t> items;
  items.reserve(order.size());
  for (int64_t index : order) items.push_back(candidate_pool[index]);
  return items;
}

}  // namespace delrec::serve
