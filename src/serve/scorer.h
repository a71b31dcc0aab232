#ifndef DELREC_SERVE_SCORER_H_
#define DELREC_SERVE_SCORER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/delrec.h"
#include "srmodels/factory.h"
#include "srmodels/recommender.h"

namespace delrec::serve {

/// One candidate-scoring request: rank `candidates` given `history` (most
/// recent interaction last).
struct ScoreRequest {
  std::vector<int64_t> history;
  std::vector<int64_t> candidates;
  /// Latency budget measured from the moment the request enters an engine's
  /// queue. 0 defers to EngineOptions::default_deadline_ms (where 0 again
  /// means "no deadline"). A request whose budget has lapsed by the time the
  /// dispatcher would score it is shed with kDeadlineExceeded instead of
  /// being scored late. Scorers themselves ignore this field — deadlines are
  /// an engine concern, so Score()/ScoreBatch() results never depend on it.
  double deadline_ms = 0.0;
};

/// What a backend can do beyond the base candidate-scoring contract
/// (DESIGN.md §16). Every Scorer can re-score an explicit candidate list;
/// only some — the conventional SR backbones and the distilled student —
/// can also score the entire catalog in one call, which is what a two-tier
/// retriever needs. Declared rather than probed so composition failures
/// (e.g. a candidate-only backend as the retriever tier) are
/// InvalidArgument at build time, not CHECK-fails under traffic.
struct ScorerCapabilities {
  /// ScoreCatalog() is implemented: one score per catalog item.
  bool full_catalog = false;
  /// Items ScoreCatalog() covers (0 when full_catalog is false).
  int64_t catalog_size = 0;
};

/// The unified serving interface every recommender in this repo sits
/// behind: DELRec itself (live or as a frozen EngineSnapshot), the four
/// baselines/ LLM paradigms, the conventional srmodels/ backbones, the
/// distilled student, and the two-tier composition of a retriever with a
/// re-ranker. A RecommendationEngine owns one Scorer and drives it from
/// its dispatcher.
///
/// Contract: Score()/ScoreBatch() must be const-thread-safe (inference
/// mutates no observable state), and ScoreBatch row i must be bit-identical
/// to Score(requests[i]) for every batch composition — this is what makes
/// the engine's micro-batching invisible to clients (DESIGN.md §11).
class Scorer {
 public:
  virtual ~Scorer() = default;

  virtual std::string name() const = 0;

  /// Scores one request (higher = better), one float per candidate.
  virtual std::vector<float> Score(const ScoreRequest& request) const = 0;

  /// Scores a micro-batch. The default loops over Score(); implementations
  /// with a genuinely batched path (EngineSnapshot) override it.
  virtual std::vector<std::vector<float>> ScoreBatch(
      const std::vector<ScoreRequest>& requests) const;

  /// What this backend declares it can do. The default is the minimum
  /// every Scorer satisfies: candidate re-scoring only.
  virtual ScorerCapabilities Capabilities() const { return {}; }

  /// Scores every catalog item for one history (index = item id). Only
  /// valid on backends whose Capabilities().full_catalog is true; the
  /// default CHECK-fails. Same determinism and thread-safety contract as
  /// Score().
  virtual std::vector<float> ScoreCatalog(
      const std::vector<int64_t>& history) const;

  /// ScoreCatalog of many histories; row i is bit-identical to
  /// ScoreCatalog(histories[i]). The default calls ScoreCatalog once per
  /// history; backends with a batched forward (the SR adapters, through
  /// SequentialRecommender::ScoreAllItemsBatch) override it.
  virtual std::vector<std::vector<float>> ScoreCatalogBatch(
      const std::vector<std::vector<int64_t>>& histories) const;

  /// Prompt tokens per request this scorer serves from a precomputed prefix
  /// KV cache instead of re-encoding (DESIGN.md §15). 0 — the default, and
  /// the value for every non-cached scorer — feeds the engine's
  /// prefix_tokens_skipped counter. Purely observational: scores are
  /// bit-identical with or without the cache.
  virtual int64_t CachedPrefixLength() const { return 0; }
};

/// Adapts a conventional sequential recommender. `model` must outlive the
/// scorer and be trained. Declares full-catalog capability (ScoreCatalog =
/// the model's ScoreAllItems), so these adapters can serve as the
/// retriever tier of a TwoTierScorer.
std::unique_ptr<Scorer> MakeSequentialScorer(
    const srmodels::SequentialRecommender* model);

/// The third backend family: a distilled student (srmodels::LoadedStudent,
/// typically deserialized from a snapshot's student blob) owned by the
/// scorer itself. Full-catalog capable, like MakeSequentialScorer, but
/// self-contained — the artifact travels with the scorer, which is what
/// lets a two-tier snapshot hot-swap as one version.
std::unique_ptr<Scorer> MakeStudentScorer(srmodels::LoadedStudent student);

/// Adapts any baselines/ LlmRecommender (all four paradigms implement that
/// interface). `model` must outlive the scorer and be trained.
std::unique_ptr<Scorer> MakeBaselineScorer(
    const baselines::LlmRecommender* model);

/// Adapts a live trained DelRec. Prefer EngineSnapshot for serving — this
/// adapter exists for parity testing and for scoring without a snapshot
/// build step. `model` must outlive the scorer.
std::unique_ptr<Scorer> MakeDelRecScorer(const core::DelRec* model);

}  // namespace delrec::serve

#endif  // DELREC_SERVE_SCORER_H_
