#include "traced_scorer.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/delrec.h"
#include "eval/topk.h"
#include "util/check.h"

namespace delrec::servebench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kScoreBatch: return "snapshot.score_batch";
    case Stage::kPromptBuild: return "prompt.build";
    case Stage::kPromptHint: return "prompt.hint";
    case Stage::kPromptSplit: return "prompt.split";
    case Stage::kEncode: return "tiny_lm.encode";
    case Stage::kHead: return "tiny_lm.head";
    case Stage::kVerbalizer: return "verbalizer.score";
    case Stage::kRetrieve: return "srmodels.retrieve";
    case Stage::kTopK: return "eval.topk";
    case Stage::kRerank: return "two_tier.rerank";
  }
  return "?";
}

Tracer::Tracer(int num_shards)
    : num_shards_(num_shards), buffers_(num_shards + 1) {}

void Tracer::BindDirect() {
  std::lock_guard<std::mutex> lock(mutex_);
  threads_.emplace_back(std::this_thread::get_id(), num_shards_);
}

void Tracer::ResetDispatchers() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(threads_, [this](const auto& entry) {
    return entry.second != num_shards_;
  });
  next_shard_slot_ = 0;
}

int Tracer::SlotForCurrentThread() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, slot] : threads_) {
    if (id == self) return slot;
  }
  DELREC_CHECK_LT(next_shard_slot_, num_shards_)
      << "more dispatcher threads than shards";
  threads_.emplace_back(self, next_shard_slot_);
  return next_shard_slot_++;
}

std::vector<std::vector<Span>> Tracer::Take() {
  std::vector<std::vector<Span>> taken(buffers_.size());
  for (size_t slot = 0; slot < buffers_.size(); ++slot) {
    taken[slot].swap(buffers_[slot]);
  }
  return taken;
}

/// Appends spans for one batch to the calling thread's slot.
class TracedScorer::Recorder {
 public:
  Recorder(std::vector<Span>* spans, int64_t batch)
      : spans_(spans), batch_(batch) {}

  int32_t Begin(Stage stage, int32_t parent, int32_t row) {
    Span span;
    span.stage = stage;
    span.parent = parent;
    span.row = row;
    span.batch = batch_;
    span.start_ns = NowNs();
    spans_->push_back(span);
    return static_cast<int32_t>(spans_->size() - 1);
  }
  void End(int32_t index, int32_t count = 0) {
    Span& span = (*spans_)[index];
    span.end_ns = NowNs();
    span.count = count;
  }

 private:
  std::vector<Span>* spans_;
  int64_t batch_;
};

TracedScorer::TracedScorer(
    std::shared_ptr<const serve::EngineSnapshot> snapshot,
    const data::CatalogView* catalog, const llm::Vocab* vocab,
    const srmodels::SequentialRecommender* sr_model, int64_t rerank_top_h,
    Tracer* tracer)
    : snapshot_(std::move(snapshot)),
      sr_model_(sr_model),
      rerank_top_h_(rerank_top_h),
      tracer_(tracer),
      prompt_builder_(catalog, vocab),
      verbalizer_(*catalog, *vocab) {
  DELREC_CHECK(snapshot_->prefix_state().defined())
      << "the traced scorer re-enacts the prefix-cached path only";
  // The snapshot materializes the same table at build time; the int8
  // snapshot reads its quantized table instead and holds no fp32 copy.
  if (!snapshot_->llm().embedding_table_quantized()) {
    effective_table_ = snapshot_->llm().MaterializeTokenTable();
  }
  if (rerank_top_h_ > 0) {
    student_ = serve::MakeSequentialScorer(snapshot_->student());
  }
}

std::string TracedScorer::name() const {
  return "traced(" + snapshot_->name() + ")";
}

std::vector<float> TracedScorer::Score(
    const serve::ScoreRequest& request) const {
  return ScoreBatch({request}).front();
}

std::vector<std::vector<float>> TracedScorer::ScoreBatch(
    const std::vector<serve::ScoreRequest>& requests) const {
  if (requests.empty()) return {};
  std::vector<Span>& spans = tracer_->buffer(tracer_->SlotForCurrentThread());
  int64_t batch = 0;
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->stage == Stage::kScoreBatch) {
      batch = it->batch + 1;
      break;
    }
  }
  Recorder recorder(&spans, batch);
  const int32_t root = recorder.Begin(Stage::kScoreBatch, -1, -1);
  std::vector<std::vector<float>> results =
      rerank_top_h_ > 0 ? TwoTier(requests, recorder, root)
                        : TeacherStages(requests, recorder, root);
  recorder.End(root, static_cast<int32_t>(requests.size()));
  return results;
}

std::vector<std::vector<float>> TracedScorer::TeacherStages(
    const std::vector<serve::ScoreRequest>& requests, Recorder& recorder,
    int32_t parent) const {
  const core::DelRecConfig& config = snapshot_->config();
  const llm::TinyLm& lm = snapshot_->llm();
  const llm::TinyLm::PrefixState& prefix = snapshot_->prefix_state();
  const int32_t n = static_cast<int32_t>(requests.size());

  std::vector<llm::Prompt> prompts(n);
  for (int32_t i = 0; i < n; ++i) {
    const int32_t build = recorder.Begin(Stage::kPromptBuild, parent, i);
    // core::inference::BuildScoringPrompt, with its hint call timed apart.
    const std::vector<int64_t> window =
        core::inference::WindowHistory(config, requests[i].history);
    const int32_t hint = recorder.Begin(Stage::kPromptHint, build, i);
    const std::vector<int64_t> hints = core::inference::ActiveHintTokens(
        config, prompt_builder_, *sr_model_, window);
    recorder.End(hint);
    prompts[i] = prompt_builder_.BuildRecommendation(
        window, core::inference::PromptCandidates(config, requests[i].candidates),
        core::inference::ActiveSoftPrompts(config, snapshot_->soft_prompts()),
        hints, nn::Tensor());
    recorder.End(build);
  }

  std::vector<llm::SplitPrompt> splits(n);
  int32_t suffix_tokens = 0;
  for (int32_t i = 0; i < n; ++i) {
    const int32_t split = recorder.Begin(Stage::kPromptSplit, parent, i);
    DELREC_CHECK_EQ(prompts[i].prefix_length, prefix.length);
    splits[i] = llm::PromptBuilder::Split(prompts[i]);
    recorder.End(split);
    suffix_tokens +=
        static_cast<int32_t>(prompts[i].length() - prompts[i].prefix_length);
  }

  std::vector<const std::vector<llm::PromptPiece>*> pieces;
  pieces.reserve(n);
  for (const llm::SplitPrompt& split : splits) pieces.push_back(&split.suffix);
  std::vector<llm::SequenceSpan> sequence_spans;
  const int32_t encode = recorder.Begin(Stage::kEncode, parent, -1);
  const nn::Tensor hidden = lm.EncodeBatchWithPrefix(
      prefix, pieces, effective_table_, &sequence_spans);
  recorder.End(encode, suffix_tokens);

  // Hidden rows cover only the suffix: re-anchor each mask index.
  std::vector<int64_t> mask_rows;
  mask_rows.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    mask_rows.push_back(sequence_spans[i].begin + prompts[i].mask_position -
                        prefix.length);
  }
  const int32_t head = recorder.Begin(Stage::kHead, parent, -1);
  const nn::Tensor logits = lm.LogitsAtRows(hidden, mask_rows, effective_table_);
  recorder.End(head);

  std::vector<std::vector<float>> results(n);
  const float* rows = logits.data().data();
  for (int32_t i = 0; i < n; ++i) {
    const int32_t verbalize = recorder.Begin(Stage::kVerbalizer, parent, i);
    results[i] = verbalizer_.ScoresFromRow(rows + i * lm.vocab_size(),
                                           requests[i].candidates);
    recorder.End(verbalize);
  }
  return results;
}

std::vector<std::vector<float>> TracedScorer::TwoTier(
    const std::vector<serve::ScoreRequest>& requests, Recorder& recorder,
    int32_t parent) const {
  const int32_t n = static_cast<int32_t>(requests.size());
  std::vector<std::vector<float>> retrieved(n);
  for (int32_t i = 0; i < n; ++i) {
    DELREC_CHECK(requests[i].candidates.empty())
        << "the traced two-tier path serves full-catalog requests only";
    const int32_t retrieve = recorder.Begin(Stage::kRetrieve, parent, i);
    retrieved[i] = student_->ScoreCatalog(requests[i].history);
    recorder.End(retrieve);
  }
  std::vector<std::vector<int64_t>> order(n);
  for (int32_t i = 0; i < n; ++i) {
    const int32_t topk = recorder.Begin(Stage::kTopK, parent, i);
    order[i] = eval::TopK(retrieved[i],
                          static_cast<int64_t>(retrieved[i].size()));
    recorder.End(topk);
  }

  const int32_t rerank = recorder.Begin(Stage::kRerank, parent, -1);
  std::vector<serve::ScoreRequest> heads(n);
  for (int32_t i = 0; i < n; ++i) {
    const int64_t h = std::min<int64_t>(
        rerank_top_h_, static_cast<int64_t>(order[i].size()));
    heads[i].history = requests[i].history;
    heads[i].candidates.assign(order[i].begin(), order[i].begin() + h);
  }
  const std::vector<std::vector<float>> reranked =
      TeacherStages(heads, recorder, rerank);
  recorder.End(rerank);

  // serve/two_tier.cc's composition: teacher scores verbatim for the head,
  // the tail strictly below it in retriever order.
  std::vector<std::vector<float>> results(n);
  for (int32_t i = 0; i < n; ++i) {
    const size_t h = reranked[i].size();
    results[i].resize(retrieved[i].size());
    float head_min = 0.0f;
    for (size_t j = 0; j < h; ++j) {
      results[i][order[i][j]] = reranked[i][j];
      head_min = j == 0 ? reranked[i][j] : std::min(head_min, reranked[i][j]);
    }
    const double step =
        std::max(1.0, static_cast<double>(std::fabs(head_min)) * 1e-6);
    for (size_t j = h; j < retrieved[i].size(); ++j) {
      results[i][order[i][j]] = static_cast<float>(
          static_cast<double>(head_min) -
          step * static_cast<double>(j - h + 1));
    }
  }
  return results;
}

}  // namespace delrec::servebench
