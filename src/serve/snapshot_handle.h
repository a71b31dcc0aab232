#ifndef DELREC_SERVE_SNAPSHOT_HANDLE_H_
#define DELREC_SERVE_SNAPSHOT_HANDLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/scorer.h"
#include "util/check.h"

namespace delrec::serve {

/// RCU-style publication point for the scorer a serve tier runs against.
///
/// Readers (engine dispatchers) call Acquire() on every batch. Publishers
/// build the next EngineSnapshot off to the side and Publish() it. Both
/// hold one mutex only for a shared_ptr copy or swap, never for scoring or
/// freeing a snapshot. (Not std::atomic<std::shared_ptr>: libstdc++ 12's
/// load releases its lock bit relaxed, a race ThreadSanitizer reports.)
/// In-flight batches keep scoring on the shared_ptr they already acquired —
/// the old snapshot stays alive until its last batch drops the reference —
/// while every batch formed after the swap scores on the new one. No
/// request ever observes a half-swapped state, and nothing pauses.
///
/// Every published scorer gets a monotonically increasing version (the
/// initial scorer is version 1). Engines tag each response with the version
/// it was scored against, which is what makes hot swaps auditable: responses
/// carrying the same version are bit-identical to that snapshot's
/// single-request scores, whatever swaps happened around them.
class SnapshotHandle {
 public:
  struct Tagged {
    std::shared_ptr<const Scorer> scorer;
    uint64_t version = 0;
  };

  explicit SnapshotHandle(std::shared_ptr<const Scorer> initial)
      : current_{std::move(initial), 1} {
    DELREC_CHECK(current_.scorer != nullptr);
  }

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  /// Current scorer + version. The returned shared_ptr keeps the snapshot
  /// alive for as long as the caller scores against it, regardless of
  /// concurrent Publish() calls.
  Tagged Acquire() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Swaps in `next` and returns its version; versions stay dense and
  /// monotonic across concurrent publishers.
  uint64_t Publish(std::shared_ptr<const Scorer> next) {
    DELREC_CHECK(next != nullptr);
    std::shared_ptr<const Scorer> replaced;  // Released after the unlock.
    std::lock_guard<std::mutex> lock(mutex_);
    replaced = std::exchange(current_.scorer, std::move(next));
    return ++current_.version;
  }

  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_.version;
  }

 private:
  mutable std::mutex mutex_;
  Tagged current_;  // Guarded by mutex_.
};

}  // namespace delrec::serve

#endif  // DELREC_SERVE_SNAPSHOT_HANDLE_H_
