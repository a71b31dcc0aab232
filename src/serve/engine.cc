#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"

namespace delrec::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kNoDeadline = Clock::time_point::max();

/// Arrival-relative budget → absolute deadline. A non-positive budget means
/// "no deadline" (never sheds), and so does one that cannot end before
/// kNoDeadline (1e300 ms, +inf). The budget is compared in floating-point
/// clock ticks first: converting such a budget to integer ticks overflows.
Clock::time_point DeadlineFor(Clock::time_point arrival, double request_ms,
                              double default_ms) {
  const double budget_ms = request_ms > 0.0 ? request_ms : default_ms;
  if (budget_ms <= 0.0) return kNoDeadline;
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(budget_ms))
                           .count();
  if (!(ticks < static_cast<double>((kNoDeadline - arrival).count()))) {
    return kNoDeadline;
  }
  return arrival + Clock::duration(static_cast<Clock::rep>(ticks));
}

ScoreResponse Rejection(util::Status status) {
  ScoreResponse response;
  response.status = std::move(status);
  return response;
}

}  // namespace

util::Status EngineOptions::Validate() const {
  if (max_batch_size < 1) {
    return util::Status::InvalidArgument(
        "EngineOptions.max_batch_size must be >= 1, got " +
        std::to_string(max_batch_size));
  }
  if (!(batch_deadline_ms >= 0.0)) {  // Also rejects NaN.
    return util::Status::InvalidArgument(
        "EngineOptions.batch_deadline_ms must be >= 0, got " +
        std::to_string(batch_deadline_ms));
  }
  if (max_queue_depth < 0) {
    return util::Status::InvalidArgument(
        "EngineOptions.max_queue_depth must be >= 0, got " +
        std::to_string(max_queue_depth));
  }
  if (!(default_deadline_ms >= 0.0)) {
    return util::Status::InvalidArgument(
        "EngineOptions.default_deadline_ms must be >= 0, got " +
        std::to_string(default_deadline_ms));
  }
  return util::Status::Ok();
}

RecommendationEngine::RecommendationEngine(const SnapshotHandle* handle,
                                           const EngineOptions& options)
    : handle_(handle), options_(options) {
  DELREC_CHECK(handle != nullptr);
  Start();
}

RecommendationEngine::RecommendationEngine(const Scorer* scorer,
                                           const EngineOptions& options)
    : options_(options) {
  DELREC_CHECK(scorer != nullptr);
  // Non-owning: the caller guarantees the scorer outlives the engine, so the
  // handle's shared_ptr only has to keep the version tag alive.
  owned_handle_ = std::make_unique<SnapshotHandle>(
      std::shared_ptr<const Scorer>(scorer, [](const Scorer*) {}));
  handle_ = owned_handle_.get();
  Start();
}

void RecommendationEngine::Start() {
  const util::Status valid = options_.Validate();
  DELREC_CHECK(valid.ok()) << valid.ToString();
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

RecommendationEngine::~RecommendationEngine() { Shutdown(); }

std::future<ScoreResponse> RecommendationEngine::ScoreAsync(
    ScoreRequest request) {
  Pending pending;
  pending.arrival = Clock::now();
  pending.deadline = DeadlineFor(pending.arrival, request.deadline_ms,
                                 options_.default_deadline_ms);
  pending.request = std::move(request);
  std::future<ScoreResponse> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    if (stopping_) {
      ++stats_.shed_shutdown;
      pending.promise.set_value(Rejection(
          util::Status::Unavailable("engine is shut down")));
      return future;
    }
    if (options_.max_queue_depth > 0 &&
        queue_.size() >= static_cast<size_t>(options_.max_queue_depth)) {
      ++stats_.shed_queue_full;
      pending.promise.set_value(Rejection(util::Status::Unavailable(
          "admission queue full (depth " +
          std::to_string(options_.max_queue_depth) + ")")));
      return future;
    }
    queue_.push_back(std::move(pending));
  }
  cv_.notify_all();
  return future;
}

std::vector<float> RecommendationEngine::ScoreCandidates(
    std::vector<int64_t> history, std::vector<int64_t> candidates) {
  ScoreRequest request;
  request.history = std::move(history);
  request.candidates = std::move(candidates);
  ScoreResponse response = ScoreAsync(std::move(request)).get();
  DELREC_CHECK(response.status.ok()) << response.status.ToString();
  return std::move(response.scores);
}

void RecommendationEngine::Shutdown() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Claim the dispatcher under the lock so concurrent Shutdown() calls
    // cannot both join it; later callers get an empty thread.
    to_join = std::move(dispatcher_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

RecommendationEngine::Stats RecommendationEngine::GetStats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
  }
  Summarize(stats);
  return stats;
}

void RecommendationEngine::Summarize(Stats& stats) {
  stats.mean_batch = stats.batches == 0
                         ? 0.0
                         : static_cast<double>(stats.requests) /
                               static_cast<double>(stats.batches);
  stats.queue_p50_ms = QueueWaitPercentileMs(stats.queue_wait_histogram, 0.50);
  stats.queue_p99_ms = QueueWaitPercentileMs(stats.queue_wait_histogram, 0.99);
}

double RecommendationEngine::QueueWaitPercentileMs(
    const QueueWaitHistogram& histogram, double q) {
  uint64_t total = 0;
  for (uint64_t count : histogram) total += count;
  if (total == 0) return 0.0;
  const uint64_t rank = std::min<uint64_t>(
      total, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (int bucket = 0; bucket < kQueueWaitBuckets; ++bucket) {
    seen += histogram[bucket];
    if (seen >= std::max<uint64_t>(rank, 1)) {
      // Bucket upper bound: 2^bucket µs (bucket 0 = <1µs).
      return std::ldexp(1.0, bucket) * 1e-3;
    }
  }
  return std::ldexp(1.0, kQueueWaitBuckets - 1) * 1e-3;
}

void RecommendationEngine::RecordQueueWaitLocked(Clock::duration wait) {
  const int64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(wait).count();
  int bucket = 0;
  while (bucket < kQueueWaitBuckets - 1 && (int64_t{1} << bucket) <= us) {
    ++bucket;
  }
  ++stats_.queue_wait_histogram[bucket];
}

void RecommendationEngine::DispatcherLoop() {
  const size_t max_batch = static_cast<size_t>(options_.max_batch_size);
  while (true) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and fully drained.

    // Work-conserving: take what is queued now; requests arriving during
    // this ScoreBatch form the next batch (DESIGN.md §11). Form it in FIFO
    // order, shedding requests whose deadline lapsed while they queued —
    // scoring them now would only return a result the client has already
    // given up on, at the expense of live requests.
    const auto now = Clock::now();
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    batch.reserve(std::min(queue_.size(), max_batch));
    while (!queue_.empty() && batch.size() < max_batch) {
      Pending pending = std::move(queue_.front());
      queue_.pop_front();
      if (pending.deadline < now) {
        ++stats_.shed_deadline;
        expired.push_back(std::move(pending));
      } else {
        RecordQueueWaitLocked(now - pending.arrival);
        batch.push_back(std::move(pending));
      }
    }
    stats_.requests += batch.size();
    if (!batch.empty()) {
      stats_.batches += 1;
      stats_.max_batch = std::max<uint64_t>(stats_.max_batch, batch.size());
    }
    lock.unlock();

    for (Pending& pending : expired) {
      pending.promise.set_value(Rejection(util::Status::DeadlineExceeded(
          "deadline lapsed while queued")));
    }
    if (batch.empty()) continue;

    // Acquire the current snapshot once per batch: every request in the
    // batch scores on the same version, and the shared_ptr keeps that
    // version alive even if a publisher swaps mid-ScoreBatch.
    const SnapshotHandle::Tagged tagged = handle_->Acquire();
    {
      std::lock_guard<std::mutex> stats_lock(mutex_);
      if (tagged.version != stats_.snapshot_version) {
        if (stats_.snapshot_version != 0) ++stats_.swaps_observed;
        stats_.snapshot_version = tagged.version;
      }
    }

    // Fault delivery: an injected dispatch fault or a throwing scorer fails
    // exactly this batch's promises — each pending request still resolves,
    // and the dispatcher keeps running for the next batch.
    util::Status batch_status =
        util::Failpoints::Instance().Check("serve.engine.dispatch");
    std::vector<std::vector<float>> results;
    if (batch_status.ok()) {
      std::vector<ScoreRequest> requests;
      requests.reserve(batch.size());
      for (Pending& pending : batch) requests.push_back(pending.request);
      try {
        results = tagged.scorer->ScoreBatch(requests);
        if (results.size() != batch.size()) {
          batch_status = util::Status::Internal(
              "scorer returned " + std::to_string(results.size()) +
              " results for a batch of " + std::to_string(batch.size()));
        }
      } catch (const std::exception& e) {
        batch_status =
            util::Status::Internal(std::string("scorer threw: ") + e.what());
      } catch (...) {
        batch_status = util::Status::Internal("scorer threw a non-exception");
      }
    }

    // Tally before resolving: a client that sees its future ready must also
    // see the stats that account for it.
    {
      std::lock_guard<std::mutex> stats_lock(mutex_);
      if (batch_status.ok()) {
        stats_.scored += batch.size();
        // Count against the scorer this batch actually ran on — a hot-swap
        // can change the cached prefix length mid-stream — and attribute
        // the tokens to its version so mixed-version windows stay auditable
        // (Stats::prefix_tokens_by_version).
        const uint64_t skipped =
            batch.size() *
            static_cast<uint64_t>(tagged.scorer->CachedPrefixLength());
        stats_.prefix_tokens_skipped += skipped;
        stats_.prefix_tokens_by_version[tagged.version] += skipped;
      } else {
        stats_.scorer_failures += batch.size();
      }
    }
    if (batch_status.ok()) {
      for (size_t i = 0; i < batch.size(); ++i) {
        ScoreResponse response;
        response.scores = std::move(results[i]);
        response.snapshot_version = tagged.version;
        batch[i].promise.set_value(std::move(response));
      }
    } else {
      for (Pending& pending : batch) {
        pending.promise.set_value(Rejection(batch_status));
      }
    }
  }
}

}  // namespace delrec::serve
