#include "load.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace delrec::servebench {
namespace {

constexpr auto kSpinLead = std::chrono::milliseconds(2);

struct InFlight {
  int64_t pool_index = 0;
  Clock::time_point scheduled;
  Clock::time_point sent;
  std::future<serve::ScoreResponse> future;
};

InFlight Submit(serve::ShardedServer& server, const RequestPool& pool,
                int64_t pool_index, Clock::time_point scheduled) {
  InFlight flight;
  flight.pool_index = pool_index;
  flight.scheduled = scheduled;
  const PoolRequest& entry = pool.requests[pool_index];
  flight.sent = Clock::now();
  flight.future = server.ScoreAsync(entry.user_id, entry.request);
  return flight;
}

/// Blocks until `flight` resolves, stamps it, and checks its scores against
/// the pool's reference.
Completion Resolve(InFlight& flight, const RequestPool& pool,
                   int64_t* mismatches) {
  const serve::ScoreResponse response = flight.future.get();
  Completion completion;
  completion.ready = Clock::now();
  completion.pool_index = flight.pool_index;
  completion.scheduled = flight.scheduled;
  completion.sent = flight.sent;
  completion.ok = response.status.ok();
  if (completion.ok) {
    const std::vector<float>& expected = pool.reference[flight.pool_index];
    if (response.scores.size() != expected.size() ||
        std::memcmp(response.scores.data(), expected.data(),
                    expected.size() * sizeof(float)) != 0) {
      ++*mismatches;
    }
  }
  return completion;
}

/// FIFO of one shard's in-flight requests, filled by the sender and drained
/// by that shard's waiter.
struct ShardFifo {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<InFlight> queue;  // Guarded by mutex.
  bool closed = false;         // Guarded by mutex: no more pushes.
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One CPU per role, or none: the first four CPUs the process may use,
/// read once, before any thread is pinned.
const std::vector<int>& RoleCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> found;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE && found.size() < 4; ++cpu) {
        if (CPU_ISSET(cpu, &set)) found.push_back(cpu);
      }
    }
    if (found.size() < 4) found.clear();
    return found;
  }();
  return cpus;
}

bool SetIdlePolicy() {
  sched_param param{};
  param.sched_priority = 0;
  return pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
}

}  // namespace

int64_t WindowResult::attempted() const {
  int64_t total = 0;
  for (const auto& shard : per_shard) total += shard.size();
  return total;
}

int64_t WindowResult::ok() const {
  int64_t total = 0;
  for (const auto& shard : per_shard) {
    for (const Completion& c : shard) total += c.ok ? 1 : 0;
  }
  return total;
}

double WindowResult::CompletionRate() const {
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  int64_t done = 0;
  Clock::time_point last = start;
  for (const auto& shard : per_shard) {
    for (const Completion& c : shard) {
      if (!c.ok || c.ready > end) continue;
      ++done;
      last = std::max(last, c.ready);
    }
  }
  return done == 0 ? 0.0 : static_cast<double>(done) / Seconds(last - start);
}

double WindowResult::SendSpanSeconds() const {
  Clock::time_point last = start;
  for (const auto& shard : per_shard) {
    for (const Completion& c : shard) last = std::max(last, c.sent);
  }
  return Seconds(last - start);
}

WindowResult RunOpenLoop(serve::ShardedServer& server, const RequestPool& pool,
                         const OpenLoopOptions& options) {
  DELREC_CHECK_GT(options.rate_rps, 0.0);
  // Bursts inflate the requests per arrival event, so the event rate is
  // scaled down to keep the offered load at rate_rps.
  const double per_event =
      options.burst_every > 0
          ? static_cast<double>(options.burst_every - 1 + options.burst_size) /
                static_cast<double>(options.burst_every)
          : 1.0;
  const double event_rate = options.rate_rps / per_event;
  util::Rng rng(options.seed);
  std::vector<double> offsets_s;
  for (int64_t event = 0;; ++event) {
    const double t = (offsets_s.empty() ? 0.0 : offsets_s.back()) -
                     std::log(1.0 - rng.UniformDouble()) / event_rate;
    if (t >= options.seconds) break;
    const bool burst =
        options.burst_every > 0 && event % options.burst_every == 0;
    for (int b = 0; b < (burst ? options.burst_size : 1); ++b) {
      offsets_s.push_back(t);
    }
  }

  const int shards = server.num_shards();
  const KeepAwake awake;
  WindowResult result;
  result.per_shard.resize(shards);
  result.seconds = options.seconds;
  std::vector<ShardFifo> fifos(shards);
  std::vector<int64_t> mismatches(shards, 0);
  std::vector<std::thread> waiters;
  for (int s = 0; s < shards; ++s) {
    result.per_shard[s].reserve(offsets_s.size() / shards + 64);
    waiters.emplace_back([&, s] {
      PinCurrentThread(Role::kWait);
      ShardFifo& fifo = fifos[s];
      while (true) {
        InFlight flight;
        {
          std::unique_lock<std::mutex> lock(fifo.mutex);
          fifo.ready.wait(lock,
                          [&] { return fifo.closed || !fifo.queue.empty(); });
          if (fifo.queue.empty()) return;
          flight = std::move(fifo.queue.front());
          fifo.queue.pop_front();
        }
        result.per_shard[s].push_back(Resolve(flight, pool, &mismatches[s]));
      }
    });
  }

  // A short lead lets the waiters park before the first arrival is due.
  result.start = Clock::now() + std::chrono::milliseconds(2);
  std::thread sender([&] {
    PinCurrentThread(Role::kSend);
    const int64_t pool_size = static_cast<int64_t>(pool.requests.size());
    for (size_t i = 0; i < offsets_s.size(); ++i) {
      const Clock::time_point due =
          result.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offsets_s[i]));
      // Sleep to just short of the due time, then spin: a sleeping thread
      // on a shared VM can wake milliseconds late, and that lateness would
      // be charged to the server as latency.
      if (due - Clock::now() > kSpinLead) {
        std::this_thread::sleep_until(due - kSpinLead);
      }
      while (Clock::now() < due) {
      }
      const int64_t index =
          (options.first_request + static_cast<int64_t>(i)) % pool_size;
      InFlight flight = Submit(server, pool, index, due);
      ShardFifo& fifo =
          fifos[server.ShardFor(pool.requests[index].user_id)];
      {
        std::lock_guard<std::mutex> lock(fifo.mutex);
        fifo.queue.push_back(std::move(flight));
      }
      fifo.ready.notify_one();
    }
    for (ShardFifo& fifo : fifos) {
      {
        std::lock_guard<std::mutex> lock(fifo.mutex);
        fifo.closed = true;
      }
      fifo.ready.notify_one();
    }
  });
  sender.join();
  for (std::thread& waiter : waiters) waiter.join();
  for (int64_t m : mismatches) result.mismatches += m;
  return result;
}

WindowResult RunClosedLoop(serve::ShardedServer& server,
                           const RequestPool& pool, int outstanding_per_shard,
                           double seconds) {
  const int shards = server.num_shards();
  std::vector<std::vector<int64_t>> shard_pool(shards);
  for (size_t i = 0; i < pool.requests.size(); ++i) {
    shard_pool[server.ShardFor(pool.requests[i].user_id)].push_back(
        static_cast<int64_t>(i));
  }
  WindowResult result;
  result.per_shard.resize(shards);
  result.seconds = seconds;
  result.start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point end =
      result.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<int64_t> mismatches(shards, 0);
  std::vector<std::thread> callers;
  for (int s = 0; s < shards; ++s) {
    DELREC_CHECK(!shard_pool[s].empty()) << "no pool request maps to shard "
                                         << s;
    callers.emplace_back([&, s] {
      PinCurrentThread(Role::kWait);
      const std::vector<int64_t>& indices = shard_pool[s];
      size_t cursor = 0;
      std::deque<InFlight> in_flight;
      // A closed-loop request is due the moment its caller decides to send.
      auto submit = [&] {
        const int64_t index = indices[cursor++ % indices.size()];
        in_flight.push_back(Submit(server, pool, index, Clock::now()));
      };
      std::this_thread::sleep_until(result.start);
      for (int k = 0; k < outstanding_per_shard; ++k) submit();
      while (!in_flight.empty()) {
        InFlight flight = std::move(in_flight.front());
        in_flight.pop_front();
        result.per_shard[s].push_back(Resolve(flight, pool, &mismatches[s]));
        if (result.per_shard[s].back().ready < end) submit();
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int64_t m : mismatches) result.mismatches += m;
  return result;
}

void PinCurrentThread(Role role) {
  const std::vector<int>& cpus = RoleCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<int>(role)], &set);
  DELREC_CHECK_EQ(pthread_setaffinity_np(pthread_self(), sizeof(set), &set),
                  0);
}

bool KeepAwake::Supported() {
  static const bool supported = [] {
    if (RoleCpus().empty()) return false;
    bool ok = false;
    std::thread probe([&ok] { ok = SetIdlePolicy(); });
    probe.join();
    return ok;
  }();
  return supported;
}

KeepAwake::KeepAwake() {
  if (!Supported()) return;
  for (Role role : {Role::kDispatch, Role::kWait, Role::kSend}) {
    threads_.emplace_back([this, role] {
      PinCurrentThread(role);
      // Never spin at normal priority: that would take CPU time from the
      // very threads this keeps responsive.
      if (!SetIdlePolicy()) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

std::string PinLayout() {
  const std::vector<int>& cpus = RoleCpus();
  if (cpus.empty()) return "unpinned (fewer than 4 CPUs)";
  return "dispatch+main=cpu" + std::to_string(cpus[0]) +
         " publish=cpu" + std::to_string(cpus[1]) +
         " wait=cpu" + std::to_string(cpus[2]) +
         " send=cpu" + std::to_string(cpus[3]) +
         (KeepAwake::Supported()
              ? ", dispatch/wait/send kept awake in open-loop windows"
              : ", SCHED_IDLE refused: CPUs may idle");
}

double Percentile(const std::vector<double>& sorted, double q) {
  DELREC_CHECK(!sorted.empty());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  DELREC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace delrec::servebench
