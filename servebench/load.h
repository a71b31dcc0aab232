#ifndef DELREC_SERVEBENCH_LOAD_H_
#define DELREC_SERVEBENCH_LOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/scorer.h"
#include "serve/sharded_server.h"

namespace delrec::servebench {

using Clock = std::chrono::steady_clock;

/// One request of a workload's seeded pool. Windows cycle through the pool;
/// `reference` holds the scorer's single-request Score() of every entry, the
/// oracle every served response is compared against bitwise.
struct PoolRequest {
  uint64_t user_id = 0;
  serve::ScoreRequest request;
};

struct RequestPool {
  std::vector<PoolRequest> requests;
  std::vector<std::vector<float>> reference;
};

/// One served request, stamped by the waiter of its shard.
struct Completion {
  int64_t pool_index = 0;
  Clock::time_point scheduled;  // When it was due (open loop) or sent.
  Clock::time_point sent;       // When ScoreAsync was called.
  Clock::time_point ready;      // When its future was observed ready.
  bool ok = false;
};

struct WindowResult {
  /// Per shard, in the shard's FIFO order — the order its dispatcher
  /// scored them, which is what lets a trace match requests to batches.
  std::vector<std::vector<Completion>> per_shard;
  Clock::time_point start;
  double seconds = 0.0;     // Length of the timed window.
  int64_t mismatches = 0;   // Ok responses not bitwise equal to reference.

  int64_t attempted() const;
  int64_t ok() const;
  /// Ok completions per second inside the window, timed from the window
  /// start to the last completion in it. A closed loop completes a whole
  /// batch at once, so dividing by the full window would quantize the rate
  /// to one batch per window.
  double CompletionRate() const;
  /// Seconds from the window start to the last send.
  double SendSpanSeconds() const;
};

struct OpenLoopOptions {
  double rate_rps = 0.0;   // Offered load, bursts included.
  double seconds = 0.0;
  int burst_every = 0;     // Every n-th arrival event is a burst (0 = none)
  int burst_size = 1;      // of this many simultaneous requests.
  uint64_t seed = 0;       // Poisson schedule seed.
  int64_t first_request = 0;  // Pool position the window starts at.
};

/// Open loop: one sender thread submits on a seeded Poisson schedule, and one
/// waiter per shard stamps each response the moment its future is ready,
/// consuming that shard's futures in FIFO order (the order the shard's
/// dispatcher resolves them). Latency runs from the scheduled send, so a
/// stalled sender shows up as latency, not as missing load.
WindowResult RunOpenLoop(serve::ShardedServer& server, const RequestPool& pool,
                         const OpenLoopOptions& options);

/// Closed loop: every shard keeps `outstanding_per_shard` requests in flight
/// for `seconds`; its waiter resubmits one request per completion, drawn
/// from the pool entries whose user maps to that shard.
WindowResult RunClosedLoop(serve::ShardedServer& server,
                           const RequestPool& pool, int outstanding_per_shard,
                           double seconds);

/// What a benchmark thread does. With at least four CPUs available, each
/// role runs on a CPU of its own, so the open-loop sender, which spins
/// before each due time, never takes CPU time from a shard's dispatcher.
enum class Role {
  kDispatch,  // The main thread; the dispatchers it starts inherit its CPU.
  kPublish,   // The publisher's rebuilds.
  kWait,      // Open-loop waiters and closed-loop callers.
  kSend,      // The open-loop sender.
};

/// Pins the calling thread to its role's CPU, taken from the CPUs the
/// process could use at the first call. A no-op with fewer than four.
void PinCurrentThread(Role role);

/// The role-to-CPU layout, for the pinned-configuration record.
std::string PinLayout();

/// While alive, keeps the CPUs of the latency path (dispatch, wait, send)
/// from idling: one SCHED_IDLE thread per CPU spins there, and any other
/// thread woken on that CPU preempts it at once. Without it, a wake-up on
/// an idle vCPU waits for the host to resume the halted vCPU, which on the
/// reference host took 0.1-0.6 ms at p90 and ~4 ms at p99, and varied with
/// the neighbours' load from run to run (15 us / 22 us / 0.6 ms at p50 /
/// p90 / p99 with the CPU kept awake). A no-op when threads are unpinned or
/// the kernel refuses SCHED_IDLE.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// Whether this host gets awake latency-path CPUs (probed once).
  static bool Supported();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Percentile of ascending `sorted` by nearest rank (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q);

/// Median of `values` (copied and sorted).
double Median(std::vector<double> values);

}  // namespace delrec::servebench

#endif  // DELREC_SERVEBENCH_LOAD_H_
