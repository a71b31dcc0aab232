#ifndef DELREC_SERVEBENCH_TRACED_SCORER_H_
#define DELREC_SERVEBENCH_TRACED_SCORER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "llm/prompt.h"
#include "llm/verbalizer.h"
#include "llm/vocab.h"
#include "nn/tensor.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"
#include "srmodels/recommender.h"

namespace delrec::servebench {

/// Layer boundaries the traced scorer records. kScoreBatch is the root of
/// every batch; kRerank wraps the teacher stages on the two-tier path.
enum class Stage : int8_t {
  kScoreBatch,
  kPromptBuild,   // core::inference prompt assembly (parent of kPromptHint).
  kPromptHint,    // core::inference::ActiveHintTokens.
  kPromptSplit,   // llm::PromptBuilder::Split.
  kEncode,        // llm::TinyLm::EncodeBatchWithPrefix.
  kHead,          // llm::TinyLm::LogitsAtRows.
  kVerbalizer,    // llm::Verbalizer::ScoresFromRow.
  kRetrieve,      // The student's serve::Scorer::ScoreCatalog.
  kTopK,          // eval::TopK over the student's catalog scores.
  kRerank,        // Teacher stages on the retriever's top-h.
};

const char* StageName(Stage stage);

/// One recorded interval. `row` is the request's row in its batch (-1 for
/// batch-wide spans); `count` is the batch size on kScoreBatch and the
/// suffix tokens encoded on kEncode.
struct Span {
  Stage stage = Stage::kScoreBatch;
  int32_t parent = -1;  // Index of the parent span in the same slot.
  int32_t row = -1;
  int32_t count = 0;
  int64_t batch = 0;    // Ordinal of the enclosing batch in its slot.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store with one append-only buffer per slot. Slots
/// [0, num_shards) belong to the serving shards' dispatcher threads; slot
/// num_shards is the "direct" slot for a thread that calls ScoreBatch
/// itself. A dispatcher thread takes the next free shard slot the first
/// time it records, so a caller that warms shard 0 before shard 1 after
/// ResetDispatchers() gets slot == shard index. Each buffer is written only
/// by its own thread; readers take it while the server is idle.
class Tracer {
 public:
  explicit Tracer(int num_shards);

  int direct_slot() const { return num_shards_; }
  /// Binds the calling thread to the direct slot.
  void BindDirect();
  /// Forgets the dispatcher threads (call between servers).
  void ResetDispatchers();
  /// The calling thread's slot, assigning the next shard slot on first use.
  int SlotForCurrentThread();

  std::vector<Span>& buffer(int slot) { return buffers_[slot]; }
  /// Moves every slot's spans out and empties the buffers.
  std::vector<std::vector<Span>> Take();

 private:
  const int num_shards_;
  std::mutex mutex_;
  std::vector<std::pair<std::thread::id, int>> threads_;  // Guarded.
  int next_shard_slot_ = 0;                                // Guarded.
  std::vector<std::vector<Span>> buffers_;
};

/// A serve::Scorer that performs an EngineSnapshot's ScoreBatch — or the
/// two-tier composition MakeSnapshotTwoTier builds over it — stage by stage
/// through the layers' public functions, recording a span around each call.
/// Scores are bitwise equal to the real scorer's (the benchmark asserts it),
/// so the spans describe the work the real scorer does.
class TracedScorer : public serve::Scorer {
 public:
  /// `catalog`, `vocab`, `sr_model` and `tracer` must outlive the scorer.
  /// `rerank_top_h` > 0 re-enacts the two-tier path with that depth (the
  /// snapshot must embed a student); 0 re-enacts teacher-only scoring.
  TracedScorer(std::shared_ptr<const serve::EngineSnapshot> snapshot,
               const data::CatalogView* catalog, const llm::Vocab* vocab,
               const srmodels::SequentialRecommender* sr_model,
               int64_t rerank_top_h, Tracer* tracer);

  std::string name() const override;
  std::vector<float> Score(const serve::ScoreRequest& request) const override;
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<serve::ScoreRequest>& requests) const override;
  int64_t CachedPrefixLength() const override {
    return snapshot_->CachedPrefixLength();
  }

 private:
  class Recorder;

  std::vector<std::vector<float>> TeacherStages(
      const std::vector<serve::ScoreRequest>& requests, Recorder& recorder,
      int32_t parent) const;
  std::vector<std::vector<float>> TwoTier(
      const std::vector<serve::ScoreRequest>& requests, Recorder& recorder,
      int32_t parent) const;

  std::shared_ptr<const serve::EngineSnapshot> snapshot_;
  const srmodels::SequentialRecommender* sr_model_;
  int64_t rerank_top_h_;
  Tracer* tracer_;
  llm::PromptBuilder prompt_builder_;
  llm::Verbalizer verbalizer_;
  nn::Tensor effective_table_;  // Undefined when the table is int8.
  std::unique_ptr<serve::Scorer> student_;  // Two-tier retriever only.
};

}  // namespace delrec::servebench

#endif  // DELREC_SERVEBENCH_TRACED_SCORER_H_
