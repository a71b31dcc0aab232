// Serve-tier traffic simulator (ctest -L serve): emits BENCH_serve_load.json.
//
// Drives a serve::ShardedServer (admission caps + deadlines + user-hash
// sharding, DESIGN.md §12) with the traffic a million-user front-end
// actually sees: Zipf-skewed user popularity and bursty arrivals. Three
// phases over the same frozen snapshot:
//  1. Closed loop — concurrent clients with no think time measure the
//     tier's capacity (requests/s) and client-observed p50/p99.
//  2. Open loop below capacity — a generator thread submits on a Poisson
//     schedule with periodic bursts at ~40% of measured capacity. Gate:
//     the admission layer must be invisible (shed rate exactly 0).
//  3. Open loop overload — the same schedule at 4× the rate every shard
//     together could serve if each dispatched only full batches (timed
//     straight on the snapshot). Gate: the tier degrades instead of
//     collapsing — requests shed with typed statuses (shed rate > 0) and
//     the p99 of *successful* requests stays bounded (queue cap + deadline
//     bound the wait, so p99 cannot grow with run length the way an
//     unbounded queue's would).
//
// Latency/throughput numbers are wall-clock and unstable (no baseline
// gating); the shed-rate gates and the p99 bound are the hard asserts.
// Deadlines, rates and the p99 bound are derived from measured service
// rates so the gates track machine speed instead of hard-coding one host's
// timings.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "data/split.h"
#include "serve/engine.h"
#include "serve/scorer.h"
#include "serve/sharded_server.h"
#include "serve/snapshot.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace delrec {
namespace {

constexpr int kShards = 2;
constexpr int64_t kBatchSize = 16;
// Per shard: two full batches of backlog. Tight on purpose, so the overload
// phase hits the cap within its few hundred requests.
constexpr int64_t kQueueCap = 2 * kBatchSize;
constexpr int kClosedClients = 4;
// Every kBurstEvery-th arrival is a burst of kBurstSize simultaneous
// requests (a hot homepage module, a push-notification fan-in).
constexpr int kBurstEvery = 12;
constexpr int kBurstSize = 4;

struct LoadRequest {
  uint64_t user_id = 0;
  serve::ScoreRequest request;
};

/// Zipf-skewed request stream: user (and their history) drawn by popularity
/// rank over the test split, candidates re-sampled per request.
std::vector<LoadRequest> MakeLoadRequests(bench::DatasetHarness& harness,
                                          size_t count, uint64_t seed) {
  const auto& test = harness.workbench().splits().test;
  util::Rng rng(seed);
  std::vector<LoadRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t rank = rng.Zipf(test.size(), 1.05);
    const data::Example& example = test[rank];
    LoadRequest load;
    load.user_id = static_cast<uint64_t>(rank);
    load.request.history = example.history;
    load.request.candidates =
        data::SampleCandidates(harness.num_items(), example.target, 15, rng);
    requests.push_back(std::move(load));
  }
  return requests;
}

double Percentile(std::vector<double> values, double fraction) {
  DELREC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(fraction * static_cast<double>(values.size())));
  return values[index];
}

struct PhaseResult {
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  uint64_t completed = 0;
  uint64_t shed = 0;
};

void RecordPhase(bench::BenchRecorder& recorder, const std::string& phase,
                 const PhaseResult& result) {
  recorder.Record("serve_load_" + phase + "_rps", result.rps, "requests/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_load_" + phase + "_p50_ms", result.p50_ms, "ms",
                  bench::MetricKind::kTime);
  recorder.Record("serve_load_" + phase + "_p99_ms", result.p99_ms, "ms",
                  bench::MetricKind::kTime);
  recorder.Record("serve_load_" + phase + "_shed_rate", result.shed_rate,
                  "fraction", bench::MetricKind::kRatio);
  std::printf("[serve_load] %-8s %7.1f req/s  p50 %7.2f ms  p99 %7.2f ms  "
              "shed %5.1f%% (%llu/%llu)\n",
              phase.c_str(), result.rps, result.p50_ms, result.p99_ms,
              result.shed_rate * 100.0,
              static_cast<unsigned long long>(result.shed),
              static_cast<unsigned long long>(result.shed + result.completed));
}

/// Phase 1: closed-loop clients, no admission control — the capacity probe.
PhaseResult RunClosedLoop(serve::ShardedServer& server,
                          const std::vector<LoadRequest>& requests) {
  std::vector<std::vector<double>> latencies(kClosedClients);
  util::WallTimer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < requests.size(); i += kClosedClients) {
        util::WallTimer latency;
        const serve::ScoreResponse response =
            server.Score(requests[i].user_id, requests[i].request.history,
                         requests[i].request.candidates);
        DELREC_CHECK(response.status.ok()) << response.status.ToString();
        latencies[c].push_back(latency.ElapsedSeconds());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_s = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const auto& client : latencies) {
    all.insert(all.end(), client.begin(), client.end());
  }
  PhaseResult result;
  result.completed = all.size();
  result.rps = static_cast<double>(all.size()) / wall_s;
  result.p50_ms = Percentile(all, 0.50) * 1e3;
  result.p99_ms = Percentile(all, 0.99) * 1e3;
  return result;
}

/// Requests/s one dispatcher could serve if every batch were full: the best
/// of a few timed ScoreBatch calls on full batches, straight on the scorer
/// with no engine in front — an upper bound on any one shard's service rate.
double FullBatchRate(const serve::Scorer& scorer,
                     const std::vector<LoadRequest>& requests) {
  DELREC_CHECK_GE(requests.size(), static_cast<size_t>(kBatchSize));
  std::vector<serve::ScoreRequest> batch;
  for (int64_t i = 0; i < kBatchSize; ++i) {
    batch.push_back(requests[i].request);
  }
  scorer.ScoreBatch(batch);  // Warm-up.
  double best_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    util::WallTimer timer;
    scorer.ScoreBatch(batch);
    best_s = std::min(best_s, timer.ElapsedSeconds());
  }
  return static_cast<double>(kBatchSize) / best_s;
}

/// Phases 2/3: one generator thread submits on a precomputed bursty Poisson
/// schedule while one waiter per shard resolves that shard's futures in
/// submission order (each shard answers FIFO), stamping every completion as
/// it lands. Latency runs from each request's *scheduled* arrival, so
/// queueing delay the schedule mandates is not hidden — no coordinated
/// omission.
PhaseResult RunOpenLoop(serve::ShardedServer& server,
                        const std::vector<LoadRequest>& requests,
                        double target_rps, uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  // Burst events inflate the per-event request count, so the base Poisson
  // rate is scaled down to keep the aggregate at target_rps.
  const double events_per_base =
      static_cast<double>(kBurstEvery - 1 + kBurstSize) /
      static_cast<double>(kBurstEvery);
  const double base_rate = target_rps / events_per_base;
  util::Rng rng(seed);
  std::vector<double> offsets_s;  // Scheduled offset of each request.
  offsets_s.reserve(requests.size());
  double t = 0.0;
  for (size_t i = 0; i < requests.size();) {
    t += -std::log(1.0 - rng.UniformDouble()) / base_rate;
    const size_t fan =
        (offsets_s.size() % kBurstEvery == 0) ? kBurstSize : size_t{1};
    for (size_t b = 0; b < fan && i < requests.size(); ++b, ++i) {
      offsets_s.push_back(t);
    }
  }

  struct InFlight {
    Clock::time_point scheduled;
    std::future<serve::ScoreResponse> future;
  };
  struct Completion {
    Clock::time_point scheduled;
    Clock::time_point done;
    util::Status status;
  };
  // One shard's in-flight requests in submission order, pushed by the
  // generator and popped by that shard's waiter.
  struct ShardFifo {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<InFlight> queue;  // Guarded by mutex.
    bool closed = false;         // Guarded by mutex: no more pushes.
    std::vector<Completion> completions;  // Waiter-owned until joined.
  };
  std::vector<ShardFifo> fifos(server.num_shards());
  std::vector<std::thread> waiters;
  for (ShardFifo& fifo : fifos) {
    waiters.emplace_back([&fifo] {
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
        const serve::ScoreResponse response = flight.future.get();
        fifo.completions.push_back(
            {flight.scheduled, Clock::now(), response.status});
      }
    });
  }

  const Clock::time_point start = Clock::now();
  std::thread generator([&] {
    for (size_t i = 0; i < requests.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::microseconds(
                      static_cast<int64_t>(offsets_s[i] * 1e6));
      std::this_thread::sleep_until(due);
      InFlight flight;
      flight.scheduled = due;
      flight.future =
          server.ScoreAsync(requests[i].user_id, requests[i].request);
      ShardFifo& fifo = fifos[server.ShardFor(requests[i].user_id)];
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
  generator.join();
  for (std::thread& waiter : waiters) waiter.join();

  PhaseResult result;
  std::vector<double> ok_latencies;
  Clock::time_point last_done = start;
  for (const ShardFifo& fifo : fifos) {
    for (const Completion& completion : fifo.completions) {
      if (completion.status.ok()) {
        ++result.completed;
        last_done = std::max(last_done, completion.done);
        ok_latencies.push_back(
            std::chrono::duration<double>(completion.done -
                                          completion.scheduled)
                .count());
      } else {
        DELREC_CHECK(completion.status.code() ==
                         util::Status::Code::kUnavailable ||
                     completion.status.code() ==
                         util::Status::Code::kDeadlineExceeded)
            << completion.status.ToString();
        ++result.shed;
      }
    }
  }
  const double wall_s =
      std::chrono::duration<double>(last_done - start).count();
  result.rps = wall_s > 0.0 ? static_cast<double>(result.completed) / wall_s
                            : 0.0;
  if (!ok_latencies.empty()) {
    result.p50_ms = Percentile(ok_latencies, 0.50) * 1e3;
    result.p99_ms = Percentile(ok_latencies, 0.99) * 1e3;
  }
  result.shed_rate =
      static_cast<double>(result.shed) /
      static_cast<double>(result.completed + result.shed);
  return result;
}

}  // namespace
}  // namespace delrec

int main() {
  using namespace delrec;
  bench::BeginBench("serve_load");
  bench::BenchRecorder& recorder = bench::BenchRecorder::Global();

  bench::HarnessOptions options = bench::OptionsFromEnv();
  options.fast = true;
  options.eval_examples = 30;
  options.pretrain_epochs = 1;
  options.stage1_examples = 24;
  options.stage1_epochs = 1;
  options.stage2_examples = 40;
  options.stage2_epochs = 1;
  options.sr_epochs = 1;
  bench::DatasetHarness harness(data::MovieLens100KConfig(), options);
  // Same serve-smoke shape as bench_serve: short scoring prompt, the
  // regime micro-batching amortizes.
  core::DelRecConfig config = harness.DelRecDefaults();
  config.history_length = 1;
  config.soft_prompt_count = 4;
  config.sr_hints_in_stage2 = false;
  auto trained = harness.TrainDelRec(srmodels::Backbone::kSasRec, config);

  serve::EngineSnapshot::Sources sources;
  sources.catalog = &harness.workbench().dataset().catalog;
  sources.vocab = &harness.workbench().vocab();
  sources.sr_model = harness.Backbone(srmodels::Backbone::kSasRec);
  auto built = serve::EngineSnapshot::FromModel(*trained.model, *trained.llm,
                                                sources);
  DELREC_CHECK(built.ok()) << built.status().ToString();
  std::shared_ptr<const serve::EngineSnapshot> snapshot(
      std::move(built).value());

  const bool fast = std::getenv("DELREC_FAST") != nullptr;
  const size_t closed_requests = fast ? 120 : 240;
  const size_t open_requests = fast ? 150 : 400;
  recorder.Record("serve_load_requests_closed",
                  static_cast<double>(closed_requests), "requests",
                  bench::MetricKind::kCount, /*stable=*/true);
  recorder.Record("serve_load_requests_open",
                  static_cast<double>(open_requests), "requests",
                  bench::MetricKind::kCount, /*stable=*/true);

  // Phase 1: capacity probe — no admission control, closed loop.
  serve::ShardedServerOptions probe_options;
  probe_options.num_shards = kShards;
  probe_options.engine.max_batch_size = kBatchSize;
  PhaseResult closed;
  {
    serve::ShardedServer server(snapshot, probe_options);
    closed = RunClosedLoop(server,
                           MakeLoadRequests(harness, closed_requests, 11));
    const serve::RecommendationEngine::Stats stats = server.TotalStats();
    DELREC_CHECK_EQ(stats.shed_queue_full + stats.shed_deadline +
                        stats.scorer_failures,
                    0u);
    server.Shutdown();
  }
  RecordPhase(recorder, "closed", closed);

  // Admission policy derived from measured capacity: the deadline covers ~8
  // full batches of queue wait, so below-capacity traffic (waits of ~1-2
  // batches) never brushes it, while overload (cap-bounded waits of ~2
  // batches) sheds at the queue cap first and the deadline backstops.
  const double service_per_request_ms = 1e3 / closed.rps;
  const double deadline_ms =
      std::max(100.0, 8.0 * static_cast<double>(kBatchSize) *
                          service_per_request_ms);
  serve::ShardedServerOptions serve_options = probe_options;
  serve_options.engine.max_queue_depth = kQueueCap;
  serve_options.engine.default_deadline_ms = deadline_ms;

  // Phase 2: open loop below capacity — admission control must be invisible.
  PhaseResult below;
  {
    serve::ShardedServer server(snapshot, serve_options);
    below = RunOpenLoop(server, MakeLoadRequests(harness, open_requests, 23),
                        /*target_rps=*/0.4 * closed.rps, /*seed=*/31);
    server.Shutdown();
  }
  RecordPhase(recorder, "below", below);
  recorder.Record("serve_load_below_shed", static_cast<double>(below.shed),
                  "requests", bench::MetricKind::kCount, /*stable=*/true);
  DELREC_CHECK_EQ(below.shed, 0u)
      << "admission control shed below the cap (rate "
      << below.shed_rate << ")";

  // Phase 3: open loop at 4x what every shard together could serve with
  // only full batches. The closed-loop probe cannot set this rate: its
  // four clients keep at most four requests in flight, so it times small
  // batches, never the full ones an overload forms. Graceful degradation,
  // not collapse: typed sheds, and successful-request p99 bounded by the
  // queue-cap/deadline budget instead of growing with the backlog.
  const std::vector<LoadRequest> overload_requests =
      MakeLoadRequests(harness, open_requests, 47);
  const double full_batch_rps = FullBatchRate(*snapshot, overload_requests);
  recorder.Record("serve_load_full_batch_rps", full_batch_rps, "requests/s",
                  bench::MetricKind::kThroughput);
  PhaseResult over;
  {
    serve::ShardedServer server(snapshot, serve_options);
    over = RunOpenLoop(server, overload_requests,
                       /*target_rps=*/4.0 * kShards * full_batch_rps,
                       /*seed=*/53);
    server.Shutdown();
  }
  RecordPhase(recorder, "overload", over);
  DELREC_CHECK_GT(over.shed, 0u)
      << "overload at 4x the full-batch service rate shed nothing — "
         "admission control is not engaging";
  const double p99_bound_ms =
      deadline_ms +
      2.0 * static_cast<double>(kBatchSize) * service_per_request_ms + 100.0;
  recorder.Record("serve_load_overload_p99_bound_ms", p99_bound_ms, "ms",
                  bench::MetricKind::kTime);
  DELREC_CHECK_LE(over.p99_ms, p99_bound_ms)
      << "overload p99 exceeds the shedding bound — queue growth is leaking "
         "into served latency";

  return bench::FinishBench();
}
