#ifndef DELREC_SERVE_ENGINE_H_
#define DELREC_SERVE_ENGINE_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/scorer.h"
#include "serve/snapshot_handle.h"
#include "util/status.h"

namespace delrec::serve {

struct EngineOptions {
  /// Most requests coalesced into one Scorer::ScoreBatch call.
  int64_t max_batch_size = 16;
  /// Has no effect: dispatch is work-conserving, so the dispatcher never
  /// lingers for more requests (see RecommendationEngine). Still declared
  /// and validated (>= 0) only because servebench sets it; it goes once
  /// servebench stops setting it.
  double batch_deadline_ms = 0.0;
  /// Admission cap: a request arriving while this many are already queued
  /// is shed immediately with kUnavailable instead of growing the queue
  /// without bound. 0 = unbounded (no admission control).
  int64_t max_queue_depth = 0;
  /// Deadline applied to requests that do not carry their own
  /// ScoreRequest::deadline_ms. Measured from arrival; a request still
  /// queued when its budget lapses is shed with kDeadlineExceeded at
  /// dispatch time. 0 = no default deadline.
  double default_deadline_ms = 0.0;

  /// InvalidArgument when any field is out of range (max_batch_size >= 1,
  /// the rest >= 0). The engine constructor CHECK-fails on invalid options;
  /// call this first when options come from configuration rather than code.
  util::Status Validate() const;
};

/// What a ScoreAsync future resolves to: either scores (status.ok(), tagged
/// with the snapshot version they were computed against) or a typed
/// rejection. Every accepted future resolves exactly once — shed requests
/// resolve with kUnavailable (queue full / engine shut down) or
/// kDeadlineExceeded (budget lapsed while queued), and scorer failures
/// (exceptions, injected faults) resolve with kInternal/kUnavailable rather
/// than crashing the dispatcher or abandoning the future.
struct ScoreResponse {
  util::Status status;
  std::vector<float> scores;        // Valid iff status.ok().
  uint64_t snapshot_version = 0;    // Snapshot the scores came from (ok only).
};

/// A thread-safe serving front-end over one Scorer: concurrent clients
/// submit ScoreRequests, a single dispatcher thread coalesces them (up to
/// max_batch_size) and drives the scorer's batched path. Dispatch is
/// work-conserving: a free dispatcher takes whatever is queued at once and
/// never waits for more; requests that arrive during one ScoreBatch call
/// form the next batch, so batch size follows load without a timer.
///
/// Determinism contract: results are independent of batching. The engine
/// dispatches requests in FIFO arrival order, and the Scorer contract
/// (ScoreBatch row i ≡ Score(requests[i]), bit-identical) makes every
/// coalescing decision invisible — a request's scores do not depend on
/// which requests it shared a batch with, the dispatch timing, or the
/// thread count (DESIGN.md §11). With hot swaps the contract is versioned:
/// responses tagged with the same snapshot_version are bit-identical to
/// that snapshot's single-request scores (DESIGN.md §12).
///
/// Robustness contract (DESIGN.md §12): every accepted request resolves.
/// Over-cap and post-shutdown submissions resolve immediately with
/// kUnavailable; deadline-lapsed requests resolve with kDeadlineExceeded at
/// dispatch time; a throwing Scorer::ScoreBatch (or an armed
/// "serve.engine.dispatch" / "serve.scorer.score" failpoint) fails only the
/// affected batch's promises and the dispatcher keeps running.
///
/// The dispatcher is a dedicated std::thread rather than a util::ThreadPool
/// task: the scorer's batched forward parallelizes through the global pool
/// internally, and the pool rejects nested submission from worker threads.
class RecommendationEngine {
 public:
  /// Serves whatever `handle` currently publishes, observing hot swaps at
  /// batch granularity. `handle` must outlive the engine. Spawns the
  /// dispatcher thread.
  RecommendationEngine(const SnapshotHandle* handle,
                       const EngineOptions& options);
  /// Convenience for a fixed scorer (no hot swap): wraps `scorer` in an
  /// internal single-version handle. `scorer` must outlive the engine.
  RecommendationEngine(const Scorer* scorer, const EngineOptions& options);
  /// Drains outstanding requests, then joins the dispatcher.
  ~RecommendationEngine();

  RecommendationEngine(const RecommendationEngine&) = delete;
  RecommendationEngine& operator=(const RecommendationEngine&) = delete;

  /// Enqueues a request; the future resolves when its batch completes, or
  /// immediately with a typed rejection when the request is shed (queue
  /// full, engine shut down). Never blocks on scoring and never returns a
  /// future that cannot resolve.
  std::future<ScoreResponse> ScoreAsync(ScoreRequest request);

  /// Blocking convenience: enqueue and wait. CHECK-fails on a non-ok
  /// response, so only use it on engines without admission caps or
  /// deadlines — shed-aware callers go through ScoreAsync.
  std::vector<float> ScoreCandidates(std::vector<int64_t> history,
                                     std::vector<int64_t> candidates);

  /// Stops accepting requests, drains the queue, joins the dispatcher.
  /// Idempotent; the destructor calls it. Requests submitted afterwards
  /// resolve immediately with kUnavailable.
  void Shutdown();

  /// Queue-wait histogram: bucket 0 counts waits under 1µs, bucket i
  /// counts [2^(i-1), 2^i) µs. 40 buckets span past 9 minutes.
  static constexpr int kQueueWaitBuckets = 40;
  using QueueWaitHistogram = std::array<uint64_t, kQueueWaitBuckets>;

  struct Stats {
    uint64_t submitted = 0;       // ScoreAsync calls (accepted + shed).
    uint64_t requests = 0;        // Requests dispatched to the scorer.
    uint64_t scored = 0;          // Requests resolved with ok scores.
    uint64_t batches = 0;         // ScoreBatch calls issued.
    uint64_t max_batch = 0;       // Largest batch dispatched.
    double mean_batch = 0.0;      // requests / batches.
    // Shed and failure tallies, by reason.
    uint64_t shed_queue_full = 0;   // kUnavailable at admission.
    uint64_t shed_deadline = 0;     // kDeadlineExceeded at dispatch.
    uint64_t shed_shutdown = 0;     // kUnavailable after Shutdown().
    uint64_t scorer_failures = 0;   // Requests failed by a scorer fault.
    // Hot-swap observability.
    uint64_t swaps_observed = 0;    // Version changes seen by the dispatcher.
    uint64_t snapshot_version = 0;  // Last version scored against.
    // Prompt tokens served from the scorer's prefix KV cache instead of
    // re-encoded (scored requests × Scorer::CachedPrefixLength, per the
    // snapshot version each batch actually ran against). 0 for scorers
    // without a cache.
    uint64_t prefix_tokens_skipped = 0;
    // The same tokens attributed to the snapshot version whose cache served
    // them. A hot swap can change CachedPrefixLength mid-stream, so the flat
    // counter alone cannot say which artifact did the skipping; this map
    // can. Keys are every version that scored at least one batch (entries
    // may be 0 for cacheless versions); values always sum to
    // prefix_tokens_skipped — MergeStats preserves both properties across
    // shards.
    std::map<uint64_t, uint64_t> prefix_tokens_by_version;
    // Queue-wait latency (arrival → dispatch) for dispatched requests.
    double queue_p50_ms = 0.0;
    double queue_p99_ms = 0.0;
    QueueWaitHistogram queue_wait_histogram{};
  };
  Stats GetStats() const;

  /// Fills the summary fields of `stats` — mean_batch, queue_p50_ms and
  /// queue_p99_ms — from its counts and queue-wait histogram. GetStats()
  /// and MergeStats() both finish with it.
  static void Summarize(Stats& stats);

  /// Upper-bound percentile (q in [0,1]) of a queue-wait histogram, in ms.
  /// 0 when the histogram is empty.
  static double QueueWaitPercentileMs(const QueueWaitHistogram& histogram,
                                      double q);

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ScoreRequest request;
    std::promise<ScoreResponse> promise;
    Clock::time_point arrival;
    Clock::time_point deadline;  // Clock::time_point::max() = none.
  };

  void Start();
  void DispatcherLoop();
  void RecordQueueWaitLocked(Clock::duration wait);

  const SnapshotHandle* handle_;
  std::unique_ptr<SnapshotHandle> owned_handle_;  // Fixed-scorer ctor only.
  EngineOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  // Guarded by mutex_. Its summary fields stay 0: GetStats() fills them in
  // the copy it returns.
  Stats stats_;

  std::thread dispatcher_;  // Last member: starts in the ctor body.
};

}  // namespace delrec::serve

#endif  // DELREC_SERVE_ENGINE_H_
