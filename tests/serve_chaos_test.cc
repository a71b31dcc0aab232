// The serve-tier degradation contract (DESIGN.md §12): every submitted
// request resolves — scored and tagged with its snapshot version, or shed
// with a typed Status — under concurrent load, injected scorer faults, live
// snapshot hot-swaps, admission-cap overflow, lapsed deadlines, and racing
// shutdown. The dispatcher never crashes and no future is ever abandoned.
//
// These tests run against lightweight deterministic fake scorers (no model
// training), so the whole binary is fast enough to hammer under
// -DDELREC_SANITIZE=thread. The real-snapshot fault hook
// ("serve.scorer.score" inside EngineSnapshot) is exercised by
// ServeTest-side fixtures; here the same failpoint drives the fakes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "serve/scorer.h"
#include "serve/sharded_server.h"
#include "serve/snapshot_handle.h"
#include "serve/two_tier.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace delrec {
namespace {

using util::Status;

/// Deterministic scorer: score depends only on (bias, request), so a
/// response can be verified bit-exactly against the bias of whichever
/// snapshot version it claims to have been scored by. Consults the same
/// "serve.scorer.score" failpoint as EngineSnapshot and fails the same way
/// (throws mid-scoring).
class FakeScorer : public serve::Scorer {
 public:
  explicit FakeScorer(float bias) : bias_(bias) {}

  std::string name() const override { return "fake"; }

  std::vector<float> Score(const serve::ScoreRequest& request) const override {
    const Status fault =
        util::Failpoints::Instance().Check("serve.scorer.score");
    if (!fault.ok()) throw std::runtime_error(fault.ToString());
    std::vector<float> scores;
    scores.reserve(request.candidates.size());
    for (int64_t candidate : request.candidates) {
      scores.push_back(bias_ +
                       0.001f * static_cast<float>(
                                    (candidate * 31 +
                                     static_cast<int64_t>(
                                         request.history.size())) %
                                    97));
    }
    return scores;
  }

 private:
  float bias_;
};

/// A scorer whose ScoreBatch blocks until released — the deterministic way
/// to hold the dispatcher busy while tests fill queues or let deadlines
/// lapse.
class GatedScorer : public serve::Scorer {
 public:
  explicit GatedScorer(float bias) : inner_(bias) {}

  std::string name() const override { return "gated"; }

  std::vector<float> Score(const serve::ScoreRequest& request) const override {
    return inner_.Score(request);
  }

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<serve::ScoreRequest>& requests) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      gate_cv_.wait(lock, [this] { return open_; });
    }
    return Scorer::ScoreBatch(requests);
  }

  /// Blocks until `count` ScoreBatch calls have entered the gate.
  void AwaitEntered(int count) const {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this, count] { return entered_ >= count; });
  }

  void Open() const {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    gate_cv_.notify_all();
  }

 private:
  FakeScorer inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable gate_cv_;
  mutable int entered_ = 0;
  mutable bool open_ = false;
};

/// FakeScorer with full-catalog capability, so it can serve as the
/// retriever tier of a two-tier composition under chaos load.
class FakeCatalogScorer : public FakeScorer {
 public:
  FakeCatalogScorer(float bias, int64_t catalog_size)
      : FakeScorer(bias), catalog_size_(catalog_size) {}

  serve::ScorerCapabilities Capabilities() const override {
    return {/*full_catalog=*/true, catalog_size_};
  }

  std::vector<float> ScoreCatalog(
      const std::vector<int64_t>& history) const override {
    serve::ScoreRequest request;
    request.history = history;
    for (int64_t item = 0; item < catalog_size_; ++item) {
      request.candidates.push_back(item);
    }
    return Score(request);
  }

 private:
  int64_t catalog_size_;
};

/// FakeScorer that reports a prefix KV cache of `prefix_length` tokens per
/// request — drives the engine's per-version prefix_tokens accounting.
class PrefixFakeScorer : public FakeScorer {
 public:
  PrefixFakeScorer(float bias, int64_t prefix_length)
      : FakeScorer(bias), prefix_length_(prefix_length) {}

  int64_t CachedPrefixLength() const override { return prefix_length_; }

 private:
  int64_t prefix_length_;
};

class AlwaysThrowScorer : public serve::Scorer {
 public:
  std::string name() const override { return "throws"; }
  std::vector<float> Score(const serve::ScoreRequest&) const override {
    throw std::runtime_error("synthetic scorer failure");
  }
};

serve::ScoreRequest MakeRequest(int64_t seed) {
  serve::ScoreRequest request;
  request.history = {seed % 13, (seed * 7) % 13};
  for (int64_t c = 0; c < 10; ++c) request.candidates.push_back(seed + c);
  return request;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { util::Failpoints::Instance().Reset(); }
};

TEST_F(ServeChaosTest, EngineOptionsValidation) {
  serve::EngineOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_batch_size = 0;
  EXPECT_EQ(options.Validate().code(), Status::Code::kInvalidArgument);
  options.max_batch_size = 1;
  options.batch_deadline_ms = -0.5;
  EXPECT_EQ(options.Validate().code(), Status::Code::kInvalidArgument);
  options.batch_deadline_ms = 0.0;
  options.max_queue_depth = -1;
  EXPECT_EQ(options.Validate().code(), Status::Code::kInvalidArgument);
  options.max_queue_depth = 0;
  options.default_deadline_ms = -1.0;
  EXPECT_EQ(options.Validate().code(), Status::Code::kInvalidArgument);
  options.default_deadline_ms = 0.0;
  EXPECT_TRUE(options.Validate().ok());

  serve::ShardedServerOptions server_options;
  EXPECT_TRUE(server_options.Validate().ok());
  server_options.num_shards = 0;
  EXPECT_EQ(server_options.Validate().code(),
            Status::Code::kInvalidArgument);
  server_options.num_shards = 2;
  server_options.engine.max_batch_size = -3;
  EXPECT_EQ(server_options.Validate().code(),
            Status::Code::kInvalidArgument);
}

// The acceptance scenario: 8 concurrent clients, failpoints firing inside
// the scorer path, and >= 3 live snapshot swaps. Every submitted request
// must resolve — with scores bit-identical to the snapshot version it was
// tagged with, or with a typed shed/failure status — and the tier must
// still serve once the faults disarm.
TEST_F(ServeChaosTest, EveryRequestResolvesUnderFaultsAndSwaps) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 40;
  constexpr int kSwaps = 3;

  std::map<uint64_t, float> version_bias;
  auto v1 = std::make_shared<FakeScorer>(1.0f);
  version_bias[1] = 1.0f;

  serve::ShardedServerOptions options;
  options.num_shards = 4;
  options.engine.max_batch_size = 4;
  options.engine.batch_deadline_ms = 0.2;
  options.engine.max_queue_depth = 256;  // Roomy: this test sheds via faults.
  serve::ShardedServer server(v1, options);

  // ~1 in 4 batches hits an injected scorer fault while the load runs.
  util::Failpoints::Instance().Arm("serve.scorer.score",
                                   util::Failpoints::Mode::kFail, 30);

  std::vector<std::vector<std::future<serve::ScoreResponse>>> futures(
      kClients);
  std::vector<std::vector<serve::ScoreRequest>> sent(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> started{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      started.fetch_add(1);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        serve::ScoreRequest request = MakeRequest(c * 1000 + i);
        sent[c].push_back(request);
        futures[c].push_back(
            server.ScoreAsync(/*user_id=*/c * 7919 + i, std::move(request)));
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }
  // Publish kSwaps new snapshots while clients are submitting.
  while (started.load() < kClients) std::this_thread::yield();
  for (int s = 0; s < kSwaps; ++s) {
    const float bias = 2.0f + static_cast<float>(s);
    const uint64_t version =
        server.PublishSnapshot(std::make_shared<FakeScorer>(bias));
    version_bias[version] = bias;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& client : clients) client.join();

  // Every future resolves; ok responses are bit-identical to the snapshot
  // version they are tagged with.
  uint64_t ok_count = 0, failed = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kRequestsPerClient; ++i) {
      serve::ScoreResponse response = futures[c][i].get();
      if (response.status.ok()) {
        ++ok_count;
        auto bias = version_bias.find(response.snapshot_version);
        ASSERT_NE(bias, version_bias.end())
            << "response tagged with unpublished version "
            << response.snapshot_version;
        EXPECT_EQ(response.scores, FakeScorer(bias->second).Score(sent[c][i]))
            << "client=" << c << " i=" << i
            << " version=" << response.snapshot_version;
      } else {
        ++failed;
        const Status::Code code = response.status.code();
        EXPECT_TRUE(code == Status::Code::kInternal ||
                    code == Status::Code::kUnavailable ||
                    code == Status::Code::kDeadlineExceeded)
            << response.status.ToString();
      }
    }
  }
  EXPECT_EQ(ok_count + failed, uint64_t{kClients * kRequestsPerClient});
  EXPECT_GT(failed, 0u) << "failpoint never fired; chaos not exercised";

  // Accounting closes: submitted == scored + shed + failed across shards.
  const serve::RecommendationEngine::Stats total = server.TotalStats();
  EXPECT_EQ(total.submitted, uint64_t{kClients * kRequestsPerClient});
  EXPECT_EQ(total.scored, ok_count);
  EXPECT_EQ(total.scored + total.shed_queue_full + total.shed_deadline +
                total.shed_shutdown + total.scorer_failures,
            total.submitted);
  EXPECT_EQ(total.scorer_failures, failed);

  // The tier still serves after the chaos: disarm and probe every shard.
  util::Failpoints::Instance().Reset();
  for (uint64_t user = 0; user < 16; ++user) {
    serve::ScoreResponse probe =
        server.Score(user, {1, 2}, {10, 11, 12});
    ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
    EXPECT_EQ(probe.snapshot_version, uint64_t{1 + kSwaps});
  }
  EXPECT_EQ(server.TotalStats().snapshot_version, uint64_t{1 + kSwaps});
}

TEST_F(ServeChaosTest, DispatcherSurvivesThrowingScorer) {
  AlwaysThrowScorer scorer;
  serve::EngineOptions options;
  options.max_batch_size = 4;
  serve::RecommendationEngine engine(&scorer, options);

  std::vector<std::future<serve::ScoreResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(engine.ScoreAsync(MakeRequest(i)));
  }
  for (auto& future : futures) {
    const serve::ScoreResponse response = future.get();
    EXPECT_EQ(response.status.code(), Status::Code::kInternal);
  }
  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.scorer_failures, 12u);
  EXPECT_EQ(stats.scored, 0u);
  // The dispatcher survived 12 failed requests and still drains cleanly.
  engine.Shutdown();
}

TEST_F(ServeChaosTest, EngineDispatchFailpointFailsOnlyThatBatch) {
  FakeScorer scorer(1.0f);
  serve::EngineOptions options;
  options.max_batch_size = 2;
  options.batch_deadline_ms = 0.0;
  serve::RecommendationEngine engine(&scorer, options);

  util::Failpoints::Instance().Arm("serve.engine.dispatch",
                                   util::Failpoints::Mode::kFail, 1);
  // One batch absorbs the fault; later batches score normally.
  const serve::ScoreRequest request = MakeRequest(5);
  const serve::ScoreResponse faulted = engine.ScoreAsync(request).get();
  EXPECT_EQ(faulted.status.code(), Status::Code::kUnavailable);
  const serve::ScoreResponse scored = engine.ScoreAsync(request).get();
  ASSERT_TRUE(scored.status.ok()) << scored.status.ToString();
  EXPECT_EQ(scored.scores, scorer.Score(request));
}

TEST_F(ServeChaosTest, AdmissionCapShedsImmediatelyWithUnavailable) {
  GatedScorer scorer(1.0f);
  serve::EngineOptions options;
  options.max_batch_size = 1;
  options.batch_deadline_ms = 0.0;
  options.max_queue_depth = 2;
  serve::RecommendationEngine engine(&scorer, options);

  // First request occupies the dispatcher inside the gated ScoreBatch.
  auto in_flight = engine.ScoreAsync(MakeRequest(0));
  scorer.AwaitEntered(1);
  // Two more fill the queue to the cap...
  auto queued1 = engine.ScoreAsync(MakeRequest(1));
  auto queued2 = engine.ScoreAsync(MakeRequest(2));
  // ...so the next two shed instantly, without waiting for the scorer.
  auto shed1 = engine.ScoreAsync(MakeRequest(3));
  auto shed2 = engine.ScoreAsync(MakeRequest(4));
  ASSERT_EQ(shed1.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ASSERT_EQ(shed2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(shed1.get().status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(shed2.get().status.code(), Status::Code::kUnavailable);

  scorer.Open();
  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_TRUE(queued1.get().status.ok());
  EXPECT_TRUE(queued2.get().status.ok());

  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.scored, 3u);
  EXPECT_EQ(stats.shed_queue_full, 2u);
}

TEST_F(ServeChaosTest, LapsedDeadlineShedsAtDispatchTime) {
  GatedScorer scorer(1.0f);
  serve::EngineOptions options;
  options.max_batch_size = 4;
  options.batch_deadline_ms = 0.0;
  serve::RecommendationEngine engine(&scorer, options);

  // Occupy the dispatcher, then queue one request with a 5ms budget and one
  // without a deadline.
  auto in_flight = engine.ScoreAsync(MakeRequest(0));
  scorer.AwaitEntered(1);
  serve::ScoreRequest dated = MakeRequest(1);
  dated.deadline_ms = 5.0;
  const auto queued_at = std::chrono::steady_clock::now();
  auto expired = engine.ScoreAsync(std::move(dated));
  auto undated = engine.ScoreAsync(MakeRequest(2));

  // Only release the scorer once the 5ms budget has provably lapsed.
  std::this_thread::sleep_until(queued_at + std::chrono::milliseconds(20));
  scorer.Open();

  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_EQ(expired.get().status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(undated.get().status.ok());

  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.scored, 2u);
  // Queue-wait percentiles cover the dispatched requests.
  EXPECT_GE(stats.queue_p99_ms, stats.queue_p50_ms);
}

TEST_F(ServeChaosTest, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  GatedScorer scorer(1.0f);
  serve::EngineOptions options;
  options.max_batch_size = 4;
  options.batch_deadline_ms = 0.0;
  options.default_deadline_ms = 5.0;
  serve::RecommendationEngine engine(&scorer, options);

  auto in_flight = engine.ScoreAsync(MakeRequest(0));
  scorer.AwaitEntered(1);
  const auto queued_at = std::chrono::steady_clock::now();
  auto expired = engine.ScoreAsync(MakeRequest(1));  // Inherits 5ms default.
  std::this_thread::sleep_until(queued_at + std::chrono::milliseconds(20));
  scorer.Open();

  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_EQ(expired.get().status.code(), Status::Code::kDeadlineExceeded);
}

// Budgets too long to end before steady_clock's last time point — 1e13 ms
// already overflows int64 nanoseconds — mean no deadline, per request and
// as the engine default. Converted to integer ticks they overflow
// (undefined behaviour; -DDELREC_SANITIZE=undefined with
// UBSAN_OPTIONS=halt_on_error=1 stops on it) and wrap the deadline into the
// past, shedding every such request at once.
TEST_F(ServeChaosTest, HugeDeadlinesMeanNoDeadline) {
  using Limits = std::numeric_limits<double>;
  FakeScorer scorer(1.0f);
  serve::EngineOptions options;
  options.default_deadline_ms = Limits::infinity();
  ASSERT_TRUE(options.Validate().ok());
  serve::RecommendationEngine engine(&scorer, options);

  const std::vector<double> budgets = {1e13, 1e300, Limits::max(),
                                       Limits::infinity(),
                                       0.0 /* inherits the +inf default */};
  std::vector<serve::ScoreRequest> sent;
  std::vector<std::future<serve::ScoreResponse>> futures;
  for (size_t i = 0; i < budgets.size(); ++i) {
    serve::ScoreRequest request = MakeRequest(static_cast<int64_t>(i));
    request.deadline_ms = budgets[i];
    sent.push_back(request);
    futures.push_back(engine.ScoreAsync(std::move(request)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::ScoreResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok())
        << "deadline_ms=" << budgets[i] << ": " << response.status.ToString();
    EXPECT_EQ(response.scores, scorer.Score(sent[i]));
  }
  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.scored, budgets.size());
  EXPECT_EQ(stats.shed_deadline, 0u);
}

// Dispatch is work-conserving: a lone request on an idle engine is scored
// at once, whatever batch_deadline_ms says — an engine that lingered would
// hold it for the whole minute.
TEST_F(ServeChaosTest, LoneRequestIsNotHeldForMoreArrivals) {
  FakeScorer scorer(1.0f);
  serve::EngineOptions options;
  options.batch_deadline_ms = 60000.0;
  serve::RecommendationEngine engine(&scorer, options);

  const serve::ScoreRequest request = MakeRequest(3);
  std::future<serve::ScoreResponse> future = engine.ScoreAsync(request);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a lone request waited for followers on an idle engine";
  const serve::ScoreResponse response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.scores, scorer.Score(request));
}

// Without a linger, batches still grow with load: whatever queues while the
// dispatcher is busy goes out in FIFO batches of up to max_batch_size once
// it is free — here 9 queued requests behind a max_batch_size = 4 engine
// leave as 4 + 4 + 1.
TEST_F(ServeChaosTest, RequestsQueuedDuringABatchFormTheNextBatches) {
  GatedScorer scorer(1.0f);
  serve::EngineOptions options;
  options.max_batch_size = 4;
  serve::RecommendationEngine engine(&scorer, options);

  std::vector<serve::ScoreRequest> sent = {MakeRequest(0)};
  std::vector<std::future<serve::ScoreResponse>> futures;
  futures.push_back(engine.ScoreAsync(sent.front()));
  scorer.AwaitEntered(1);  // The dispatcher is now busy with a batch of 1.
  for (int64_t i = 1; i <= 9; ++i) {
    sent.push_back(MakeRequest(i));
    futures.push_back(engine.ScoreAsync(sent.back()));
  }
  scorer.Open();

  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::ScoreResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.scores, scorer.Score(sent[i])) << "i=" << i;
  }
  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.batches, 4u);  // 1, then 4 + 4 + 1.
  EXPECT_EQ(stats.max_batch, 4u);
}

// Concurrent ScoreAsync + Shutdown + destruction: whatever the interleaving,
// every future resolves (scored or shut-down-shed) and nothing hangs or
// crashes. Run under -DDELREC_SANITIZE=thread via `ctest -L concurrency`.
TEST_F(ServeChaosTest, LifecycleRaceEveryFutureResolves) {
  constexpr int kIterations = 25;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    FakeScorer scorer(1.0f);
    serve::EngineOptions options;
    options.max_batch_size = 3;
    options.batch_deadline_ms = 0.1;
    auto engine =
        std::make_unique<serve::RecommendationEngine>(&scorer, options);

    std::vector<std::vector<std::future<serve::ScoreResponse>>> futures(
        kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          futures[c].push_back(engine->ScoreAsync(MakeRequest(c * 100 + i)));
        }
      });
    }
    // Shutdown races the submitting clients on some iterations; on others
    // the destructor (below) does the shutting down.
    if (iteration % 2 == 0) {
      threads.emplace_back([&] { engine->Shutdown(); });
    }
    for (std::thread& thread : threads) thread.join();
    engine.reset();  // Destructor must drain whatever was accepted.

    for (int c = 0; c < kClients; ++c) {
      ASSERT_EQ(futures[c].size(), size_t{kRequestsPerClient});
      for (auto& future : futures[c]) {
        const serve::ScoreResponse response = future.get();
        EXPECT_TRUE(response.status.ok() ||
                    response.status.code() == Status::Code::kUnavailable)
            << response.status.ToString();
      }
    }
  }
}

// Hot swaps racing scoring on a bare engine + handle (no server): the
// version tag on every response matches a published version, in-flight
// batches finish on their acquired snapshot, and no swap pauses anything.
TEST_F(ServeChaosTest, SwapUnderLoadNeverTearsAVersion) {
  auto v1 = std::make_shared<FakeScorer>(1.0f);
  serve::SnapshotHandle handle(v1);
  serve::EngineOptions options;
  options.max_batch_size = 2;
  options.batch_deadline_ms = 0.05;
  serve::RecommendationEngine engine(&handle, options);

  std::map<uint64_t, float> version_bias{{1, 1.0f}};
  // The dispatcher counts a swap only between two batches it forms. Score
  // one request on version 1 before any publish, so the probe on version 7
  // below counts a swap however late the dispatcher first ran.
  const serve::ScoreRequest first = MakeRequest(0);
  const serve::ScoreResponse first_response = engine.ScoreAsync(first).get();
  ASSERT_TRUE(first_response.status.ok()) << first_response.status.ToString();
  EXPECT_EQ(first_response.snapshot_version, 1u);
  EXPECT_EQ(first_response.scores, FakeScorer(1.0f).Score(first));

  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int s = 0; s < 6; ++s) {
      const float bias = 10.0f + static_cast<float>(s);
      const uint64_t version =
          handle.Publish(std::make_shared<FakeScorer>(bias));
      // Only the publisher writes version_bias; the main thread reads it
      // after join(), so no synchronization beyond the join is needed.
      version_bias[version] = bias;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    done.store(true);
  });

  std::vector<serve::ScoreRequest> sent;
  std::vector<std::future<serve::ScoreResponse>> futures;
  int64_t seed = 0;
  while (!done.load() || futures.size() < 32) {
    sent.push_back(MakeRequest(seed++));
    futures.push_back(engine.ScoreAsync(sent.back()));
    if (futures.size() > 512) break;  // Safety valve; never hit in practice.
  }
  publisher.join();

  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::ScoreResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const auto bias = version_bias.find(response.snapshot_version);
    ASSERT_NE(bias, version_bias.end());
    EXPECT_EQ(response.scores, FakeScorer(bias->second).Score(sent[i]));
  }
  // The dispatcher only observes a version when it forms a batch, so force
  // one final batch after the last publish before pinning the stats.
  const serve::ScoreRequest probe = MakeRequest(seed);
  const serve::ScoreResponse last = engine.ScoreAsync(probe).get();
  ASSERT_TRUE(last.status.ok()) << last.status.ToString();
  EXPECT_EQ(last.snapshot_version, 7u);
  EXPECT_EQ(last.scores, FakeScorer(version_bias.at(7)).Score(probe));
  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.snapshot_version, 7u);
  EXPECT_GE(stats.swaps_observed, 1u);
}

/// Builds a two-tier fake artifact (full-catalog retriever -> re-ranker)
/// whose tiers share one bias, so each published version is recomputable.
std::shared_ptr<const serve::Scorer> MakeFakeTwoTier(float bias,
                                                     int64_t catalog_size) {
  serve::TwoTierOptions options;
  options.rerank_top_h = 3;
  auto two_tier = serve::MakeTwoTierScorer(
      std::make_shared<FakeCatalogScorer>(bias, catalog_size),
      std::make_shared<FakeScorer>(bias + 100.0f), options);
  DELREC_CHECK(two_tier.ok()) << two_tier.status().ToString();
  return std::shared_ptr<const serve::Scorer>(std::move(two_tier.value()));
}

// The ISSUE's chaos acceptance for two-tier artifacts: composed scorers
// hot-swap through the sharded server under concurrent load and injected
// faults exactly like single-model snapshots — every future resolves, ok
// responses are bit-identical to the two-tier version they are tagged
// with (both tiers from the same publish, never mixed), and explicit-pool
// and full-catalog requests both survive the swaps.
TEST_F(ServeChaosTest, TwoTierSwapUnderChaosEveryResponseVersionConsistent) {
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 30;
  constexpr int64_t kCatalog = 32;

  std::map<uint64_t, std::shared_ptr<const serve::Scorer>> versions;
  versions[1] = MakeFakeTwoTier(1.0f, kCatalog);

  serve::ShardedServerOptions options;
  options.num_shards = 3;
  options.engine.max_batch_size = 4;
  options.engine.batch_deadline_ms = 0.2;
  options.engine.max_queue_depth = 256;
  serve::ShardedServer server(versions[1], options);

  // Faults fire inside the fake tiers (both consult the same failpoint the
  // real snapshot scorer uses), mid-composition included.
  util::Failpoints::Instance().Arm("serve.scorer.score",
                                   util::Failpoints::Mode::kFail, 20);

  std::vector<std::vector<std::future<serve::ScoreResponse>>> futures(
      kClients);
  std::vector<std::vector<serve::ScoreRequest>> sent(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> started{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      started.fetch_add(1);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        serve::ScoreRequest request;
        if (i % 5 == 4) {
          // Full-catalog request: the retriever tier pre-ranks everything.
          request.history = {c % 13, (c * 3 + i) % 13};
        } else {
          request = MakeRequest(c * 1000 + i);
          for (int64_t& candidate : request.candidates) {
            candidate %= kCatalog;  // Keep pools inside the fake catalog.
          }
          // TwoTier's id-tie-break ordering needs distinct pool ids.
          std::sort(request.candidates.begin(), request.candidates.end());
          request.candidates.erase(std::unique(request.candidates.begin(),
                                               request.candidates.end()),
                                   request.candidates.end());
        }
        sent[c].push_back(request);
        futures[c].push_back(
            server.ScoreAsync(/*user_id=*/c * 7919 + i, std::move(request)));
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }
  while (started.load() < kClients) std::this_thread::yield();
  for (int s = 0; s < 3; ++s) {
    auto next = MakeFakeTwoTier(5.0f + static_cast<float>(s), kCatalog);
    versions[server.PublishSnapshot(next)] = next;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& client : clients) client.join();

  // Disarm before recomputing expectations through the same fake tiers.
  util::Failpoints::Instance().Reset();
  uint64_t ok_count = 0, failed = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kRequestsPerClient; ++i) {
      serve::ScoreResponse response = futures[c][i].get();
      if (response.status.ok()) {
        ++ok_count;
        const auto version = versions.find(response.snapshot_version);
        ASSERT_NE(version, versions.end())
            << "response tagged with unpublished version "
            << response.snapshot_version;
        EXPECT_EQ(response.scores, version->second->Score(sent[c][i]))
            << "client=" << c << " i=" << i
            << " version=" << response.snapshot_version;
      } else {
        ++failed;
        const Status::Code code = response.status.code();
        EXPECT_TRUE(code == Status::Code::kInternal ||
                    code == Status::Code::kUnavailable ||
                    code == Status::Code::kDeadlineExceeded)
            << response.status.ToString();
      }
    }
  }
  EXPECT_EQ(ok_count + failed, uint64_t{kClients * kRequestsPerClient});

  // Still serving the last two-tier version after the chaos.
  serve::ScoreResponse probe = server.Score(/*user_id=*/3, {1, 2}, {4, 7, 9});
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_EQ(probe.snapshot_version, 4u);
}

// Per-version prefix-token attribution (the satellite riding on the prefix
// KV cache counter): across a hot swap between scorers with different
// cached-prefix lengths, TotalStats' prefix_tokens_by_version keys every
// scored version, charges each version scored-requests x its own prefix
// length, and its values sum to the flat prefix_tokens_skipped — per shard
// and after the key-wise merge.
TEST_F(ServeChaosTest, PrefixTokensByVersionSumAcrossSwaps) {
  constexpr int64_t kPrefixV1 = 3;
  constexpr int64_t kPrefixV2 = 5;
  constexpr int kRequestsPerVersion = 20;

  serve::ShardedServerOptions options;
  options.num_shards = 2;
  options.engine.max_batch_size = 4;
  options.engine.batch_deadline_ms = 0.0;
  serve::ShardedServer server(
      std::make_shared<PrefixFakeScorer>(1.0f, kPrefixV1), options);

  // Blocking calls: each request's batch forms after the previous response,
  // so every request before the publish scores on v1 and every one after
  // scores on v2 — the per-version expectation is exact.
  for (int i = 0; i < kRequestsPerVersion; ++i) {
    serve::ScoreResponse response =
        server.Score(/*user_id=*/i, {1, 2}, {3, 4, 5});
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.snapshot_version, 1u);
  }
  ASSERT_EQ(
      server.PublishSnapshot(
          std::make_shared<PrefixFakeScorer>(2.0f, kPrefixV2)),
      2u);
  for (int i = 0; i < kRequestsPerVersion; ++i) {
    serve::ScoreResponse response =
        server.Score(/*user_id=*/i, {1, 2}, {3, 4, 5});
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.snapshot_version, 2u);
  }

  // Per shard: the map's values sum to the shard's flat counter.
  for (int shard = 0; shard < server.num_shards(); ++shard) {
    const serve::RecommendationEngine::Stats stats = server.ShardStats(shard);
    uint64_t sum = 0;
    for (const auto& [version, skipped] : stats.prefix_tokens_by_version) {
      EXPECT_TRUE(version == 1u || version == 2u);
      sum += skipped;
    }
    EXPECT_EQ(sum, stats.prefix_tokens_skipped);
  }

  // Merged: both versions attributed, each charged its own prefix length.
  const serve::RecommendationEngine::Stats total = server.TotalStats();
  ASSERT_EQ(total.prefix_tokens_by_version.size(), 2u);
  EXPECT_EQ(total.prefix_tokens_by_version.at(1),
            uint64_t{kRequestsPerVersion * kPrefixV1});
  EXPECT_EQ(total.prefix_tokens_by_version.at(2),
            uint64_t{kRequestsPerVersion * kPrefixV2});
  EXPECT_EQ(total.prefix_tokens_skipped,
            uint64_t{kRequestsPerVersion * (kPrefixV1 + kPrefixV2)});
}

}  // namespace
}  // namespace delrec
