// The serving-layer contract (DESIGN.md §11): an EngineSnapshot scores
// bit-identically to the live trained model it was frozen from — whether
// built from the model or from checkpoint blobs, whatever the micro-batch
// composition, and through the concurrent RecommendationEngine — and every
// recommender paradigm fits behind the unified Scorer interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/zero_shot.h"
#include "core/checkpoint.h"
#include "eval/topk.h"
#include "core/delrec.h"
#include "core/workbench.h"
#include "data/dataset.h"
#include "data/split.h"
#include "serve/engine.h"
#include "serve/scorer.h"
#include "serve/sharded_server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_handle.h"
#include "serve/two_tier.h"
#include "srmodels/factory.h"
#include "util/check.h"
#include "util/rng.h"

namespace delrec {
namespace {

core::DelRecConfig SmallDelRecConfig() {
  core::DelRecConfig config;
  config.stage1_epochs = 1;
  config.stage2_epochs = 1;
  config.stage1_max_examples = 40;
  config.stage2_max_examples = 40;
  config.soft_prompt_count = 4;
  return config;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::KuaiRecConfig();
    config.num_users = 50;
    config.num_items = 60;
    core::Workbench::Options options;
    options.pretrain_epochs = 1;
    workbench_ = new core::Workbench(config, options);
    sr_model_ = srmodels::MakeBackbone(srmodels::Backbone::kSasRec,
                                       workbench_->num_items(), 10, 5)
                    .release();
    srmodels::TrainConfig train =
        srmodels::BackboneTrainConfig(srmodels::Backbone::kSasRec);
    train.epochs = 2;
    const util::Status sr_trained =
        sr_model_->Train(workbench_->splits().train, train);
    DELREC_CHECK(sr_trained.ok()) << sr_trained.ToString();

    llm_ = workbench_->MakePretrainedLlm(core::LlmSize::kBase).release();
    model_ = new core::DelRec(&workbench_->dataset().catalog,
                              &workbench_->vocab(), llm_, sr_model_,
                              SmallDelRecConfig());
    const util::Status trained = model_->Train(workbench_->splits().train);
    DELREC_CHECK(trained.ok()) << trained.ToString();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete llm_;
    delete sr_model_;
    delete workbench_;
    model_ = nullptr;
    llm_ = nullptr;
    sr_model_ = nullptr;
    workbench_ = nullptr;
  }

  static serve::EngineSnapshot::Sources Sources() {
    serve::EngineSnapshot::Sources sources;
    sources.catalog = &workbench_->dataset().catalog;
    sources.vocab = &workbench_->vocab();
    sources.sr_model = sr_model_;
    return sources;
  }

  /// Deterministic request mix drawn from the test split.
  static std::vector<serve::ScoreRequest> MakeRequests(size_t count) {
    const auto& test = workbench_->splits().test;
    util::Rng rng(77);
    std::vector<serve::ScoreRequest> requests;
    for (size_t i = 0; i < count; ++i) {
      const data::Example& example = test[i % test.size()];
      serve::ScoreRequest request;
      request.history = example.history;
      request.candidates = data::SampleCandidates(workbench_->num_items(),
                                                  example.target, 15, rng);
      requests.push_back(std::move(request));
    }
    return requests;
  }

  static std::unique_ptr<serve::EngineSnapshot> Snapshot() {
    auto snapshot = serve::EngineSnapshot::FromModel(*model_, *llm_, Sources());
    DELREC_CHECK(snapshot.ok()) << snapshot.status().ToString();
    return std::move(snapshot.value());
  }

  static core::Workbench* workbench_;
  static srmodels::SequentialRecommender* sr_model_;
  static llm::TinyLm* llm_;
  static core::DelRec* model_;
};

core::Workbench* ServeTest::workbench_ = nullptr;
srmodels::SequentialRecommender* ServeTest::sr_model_ = nullptr;
llm::TinyLm* ServeTest::llm_ = nullptr;
core::DelRec* ServeTest::model_ = nullptr;

TEST_F(ServeTest, SnapshotMatchesLiveModelBitIdentical) {
  const auto snapshot = Snapshot();
  const std::vector<serve::ScoreRequest> requests = MakeRequests(10);
  std::vector<std::vector<float>> live;
  for (const serve::ScoreRequest& request : requests) {
    data::Example example;
    example.history = request.history;
    example.target = request.candidates[0];
    live.push_back(model_->ScoreCandidates(example, request.candidates));
    EXPECT_EQ(snapshot->Score(request), live.back());
  }
  // The same requests stacked into one batch.
  EXPECT_EQ(snapshot->ScoreBatch(requests), live);
}

TEST_F(ServeTest, SnapshotFromCheckpointMatchesFromModel) {
  const std::string path = ::testing::TempDir() + "/serve_snapshot.ckpt";
  std::remove(path.c_str());
  const util::Status saved = core::SaveDelRecCheckpoint(*model_, *llm_, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  const auto from_model = Snapshot();
  auto from_disk = serve::EngineSnapshot::FromCheckpoint(
      path, llm_->config(), model_->config(), Sources());
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  std::remove(path.c_str());

  const std::vector<serve::ScoreRequest> requests = MakeRequests(8);
  EXPECT_EQ(from_disk.value()->ScoreBatch(requests),
            from_model->ScoreBatch(requests));
  for (const serve::ScoreRequest& request : requests) {
    EXPECT_EQ(from_disk.value()->Score(request), from_model->Score(request));
  }
}

TEST_F(ServeTest, ScoreBatchInvariantUnderBatchComposition) {
  const auto snapshot = Snapshot();
  const std::vector<serve::ScoreRequest> requests = MakeRequests(11);
  std::vector<std::vector<float>> reference;
  for (const serve::ScoreRequest& request : requests) {
    reference.push_back(snapshot->Score(request));
  }
  for (size_t batch_size : {size_t{1}, size_t{2}, size_t{5}, requests.size()}) {
    std::vector<std::vector<float>> batched;
    for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
      const size_t end = std::min(begin + batch_size, requests.size());
      const std::vector<serve::ScoreRequest> chunk(requests.begin() + begin,
                                                   requests.begin() + end);
      for (std::vector<float>& scores : snapshot->ScoreBatch(chunk)) {
        batched.push_back(std::move(scores));
      }
    }
    EXPECT_EQ(batched, reference) << "batch_size=" << batch_size;
  }
}

void ExpectSameStats(const serve::RecommendationEngine::Stats& a,
                     const serve::RecommendationEngine::Stats& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.scored, b.scored);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.max_batch, b.max_batch);
  EXPECT_EQ(a.mean_batch, b.mean_batch);
  EXPECT_EQ(a.shed_queue_full, b.shed_queue_full);
  EXPECT_EQ(a.shed_deadline, b.shed_deadline);
  EXPECT_EQ(a.shed_shutdown, b.shed_shutdown);
  EXPECT_EQ(a.scorer_failures, b.scorer_failures);
  EXPECT_EQ(a.swaps_observed, b.swaps_observed);
  EXPECT_EQ(a.snapshot_version, b.snapshot_version);
  EXPECT_EQ(a.prefix_tokens_skipped, b.prefix_tokens_skipped);
  EXPECT_EQ(a.prefix_tokens_by_version, b.prefix_tokens_by_version);
  EXPECT_EQ(a.queue_p50_ms, b.queue_p50_ms);
  EXPECT_EQ(a.queue_p99_ms, b.queue_p99_ms);
  EXPECT_EQ(a.queue_wait_histogram, b.queue_wait_histogram);
}

// MergeStats, the shard merge behind TotalStats: counters sum, max_batch and
// snapshot_version take the max, prefix_tokens_by_version and the queue-wait
// histogram merge by key and by bucket, the summary fields are recomputed
// from the merged counts, and every order of the shards merges alike.
TEST(MergeStatsTest, MergesEveryFieldInAnyShardOrder) {
  using Stats = serve::RecommendationEngine::Stats;
  // Every counter differs across shards and from every other counter, so a
  // merge that reads the wrong field or drops a shard shows. The summary
  // fields hold stale values that the merge must recompute, not combine.
  auto shard = [](uint64_t base, uint64_t max_batch, uint64_t version,
                  std::map<uint64_t, uint64_t> by_version) {
    Stats stats;
    stats.submitted = base + 1;
    stats.requests = base + 2;
    stats.scored = base + 3;
    stats.batches = base + 4;
    stats.max_batch = max_batch;
    stats.mean_batch = -1.0;
    stats.shed_queue_full = base + 5;
    stats.shed_deadline = base + 6;
    stats.shed_shutdown = base + 7;
    stats.scorer_failures = base + 8;
    stats.swaps_observed = base + 9;
    stats.snapshot_version = version;
    for (const auto& [v, skipped] : by_version) {
      stats.prefix_tokens_skipped += skipped;
    }
    stats.prefix_tokens_by_version = std::move(by_version);
    stats.queue_p50_ms = -1.0;
    stats.queue_p99_ms = -1.0;
    return stats;
  };
  // Versions 5 and 6 overlap across shards; 7 and 9 appear in one each.
  std::vector<Stats> shards = {shard(100, 16, 6, {{5, 40}, {6, 60}}),
                               shard(200, 4, 9, {{6, 7}, {9, 200}}),
                               shard(300, 11, 7, {{5, 3}, {7, 30}})};
  // Own p50/p99 buckets per shard: 1/12, 6/6 and 6/6.
  shards[0].queue_wait_histogram[1] = 30;
  shards[0].queue_wait_histogram[3] = 10;
  shards[0].queue_wait_histogram[9] = 8;
  shards[0].queue_wait_histogram[12] = 1;
  shards[1].queue_wait_histogram[3] = 15;
  shards[1].queue_wait_histogram[6] = 20;
  shards[2].queue_wait_histogram[1] = 6;
  shards[2].queue_wait_histogram[6] = 10;

  const Stats merged = serve::MergeStats(shards);
  EXPECT_EQ(merged.submitted, 603u);
  EXPECT_EQ(merged.requests, 606u);
  EXPECT_EQ(merged.scored, 609u);
  EXPECT_EQ(merged.batches, 612u);
  EXPECT_EQ(merged.max_batch, 16u);
  EXPECT_EQ(merged.mean_batch, 606.0 / 612.0);
  EXPECT_EQ(merged.shed_queue_full, 615u);
  EXPECT_EQ(merged.shed_deadline, 618u);
  EXPECT_EQ(merged.shed_shutdown, 621u);
  EXPECT_EQ(merged.scorer_failures, 624u);
  EXPECT_EQ(merged.swaps_observed, 627u);
  EXPECT_EQ(merged.snapshot_version, 9u);
  EXPECT_EQ(merged.prefix_tokens_skipped, 340u);
  const std::map<uint64_t, uint64_t> by_version = {
      {5, 43}, {6, 67}, {7, 30}, {9, 200}};
  EXPECT_EQ(merged.prefix_tokens_by_version, by_version);
  serve::RecommendationEngine::QueueWaitHistogram histogram{};
  histogram[1] = 36;
  histogram[3] = 25;
  histogram[6] = 30;
  histogram[9] = 8;
  histogram[12] = 1;
  EXPECT_EQ(merged.queue_wait_histogram, histogram);
  // 100 waits: the 50th lies in bucket 3 (< 8 µs) and the 99th in bucket 9
  // (< 512 µs), buckets no shard's own p50 or p99 falls in.
  EXPECT_DOUBLE_EQ(merged.queue_p50_ms, 0.008);
  EXPECT_DOUBLE_EQ(merged.queue_p99_ms, 0.512);

  std::vector<size_t> order = {0, 1, 2};
  do {
    std::vector<Stats> permuted;
    for (size_t i : order) permuted.push_back(shards[i]);
    SCOPED_TRACE(::testing::Message() << "order " << order[0] << order[1]
                                      << order[2]);
    ExpectSameStats(serve::MergeStats(permuted), merged);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(ServeTest, FootprintBreakdownSumsToTotal) {
  const auto cached = Snapshot();
  const serve::SnapshotFootprint footprint = cached->MemoryFootprint();
  EXPECT_GT(footprint.weight_bytes, 0u);
  EXPECT_GT(footprint.soft_prompt_bytes, 0u);
  EXPECT_GT(footprint.token_table_bytes, 0u);
  EXPECT_GT(footprint.prefix_cache_bytes, 0u);
  EXPECT_EQ(footprint.total(), footprint.weight_bytes +
                                   footprint.soft_prompt_bytes +
                                   footprint.token_table_bytes +
                                   footprint.prefix_cache_bytes);
  EXPECT_EQ(cached->MemoryFootprintBytes(), footprint.total());
  EXPECT_EQ(footprint.prefix_cache_bytes,
            cached->prefix_state().MemoryBytes());
}

// prefix_tokens_skipped accounting: scored requests × the prefix length of
// the snapshot each batch actually ran against, summed across shards.
TEST_F(ServeTest, EngineAndShardedStatsCountPrefixTokensSkipped) {
  const auto snapshot = Snapshot();
  const int64_t prefix = snapshot->CachedPrefixLength();
  ASSERT_GT(prefix, 0);
  const std::vector<serve::ScoreRequest> requests = MakeRequests(12);
  {
    serve::RecommendationEngine engine(snapshot.get(),
                                       serve::EngineOptions());
    for (const serve::ScoreRequest& request : requests) {
      engine.ScoreCandidates(request.history, request.candidates);
    }
    engine.Shutdown();
    const serve::RecommendationEngine::Stats stats = engine.GetStats();
    EXPECT_EQ(stats.prefix_tokens_skipped,
              stats.scored * static_cast<uint64_t>(prefix));
    EXPECT_EQ(stats.scored, requests.size());
  }
  {
    serve::ShardedServerOptions options;
    options.num_shards = 3;
    serve::ShardedServer server(
        std::shared_ptr<const serve::Scorer>(snapshot.get(),
                                             [](const serve::Scorer*) {}),
        options);
    uint64_t user = 0;
    for (const serve::ScoreRequest& request : requests) {
      server.Score(user++, request.history, request.candidates);
    }
    server.Shutdown();
    const serve::RecommendationEngine::Stats total = server.TotalStats();
    EXPECT_EQ(total.prefix_tokens_skipped,
              total.scored * static_cast<uint64_t>(prefix));
    EXPECT_EQ(total.scored, requests.size());
  }
  // An uncached scorer reports no skipped tokens.
  {
    const auto live = serve::MakeDelRecScorer(model_);
    serve::RecommendationEngine engine(live.get(), serve::EngineOptions());
    engine.ScoreCandidates(requests[0].history, requests[0].candidates);
    engine.Shutdown();
    EXPECT_EQ(engine.GetStats().prefix_tokens_skipped, 0u);
  }
}

TEST_F(ServeTest, SnapshotRecommendRanksLikeLiveModel) {
  const auto snapshot = Snapshot();
  const std::vector<serve::ScoreRequest> requests = MakeRequests(4);
  for (const serve::ScoreRequest& request : requests) {
    EXPECT_EQ(snapshot->Recommend(request.history, request.candidates, 5),
              model_->Recommend(request.history, request.candidates, 5));
  }
}

TEST_F(ServeTest, EngineMatchesUnbatchedScoresUnderConcurrency) {
  const auto snapshot = Snapshot();
  const std::vector<serve::ScoreRequest> requests = MakeRequests(24);
  std::vector<std::vector<float>> reference;
  for (const serve::ScoreRequest& request : requests) {
    reference.push_back(snapshot->Score(request));
  }

  serve::EngineOptions options;
  options.max_batch_size = 4;
  serve::RecommendationEngine engine(snapshot.get(), options);
  constexpr int kClients = 8;
  std::vector<std::vector<std::vector<float>>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client scores every third request, staggered, so concurrent
      // submissions overlap and coalesce into mixed batches.
      for (size_t i = c % 3; i < requests.size(); i += 3) {
        results[c].push_back(
            engine.ScoreCandidates(requests[i].history,
                                   requests[i].candidates));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  engine.Shutdown();

  for (int c = 0; c < kClients; ++c) {
    size_t slot = 0;
    for (size_t i = c % 3; i < requests.size(); i += 3, ++slot) {
      EXPECT_EQ(results[c][slot], reference[i]) << "client=" << c << " i=" << i;
    }
  }
  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  size_t expected_requests = 0;
  for (int c = 0; c < kClients; ++c) {
    for (size_t i = c % 3; i < requests.size(); i += 3) ++expected_requests;
  }
  EXPECT_EQ(stats.requests, expected_requests);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.max_batch, 4u);
}

TEST_F(ServeTest, EngineAsyncAndShutdownDrainQueue) {
  const auto snapshot = Snapshot();
  serve::EngineOptions options;
  options.max_batch_size = 3;
  auto engine =
      std::make_unique<serve::RecommendationEngine>(snapshot.get(), options);
  const std::vector<serve::ScoreRequest> requests = MakeRequests(7);
  std::vector<std::future<serve::ScoreResponse>> futures;
  for (const serve::ScoreRequest& request : requests) {
    futures.push_back(engine->ScoreAsync(request));
  }
  engine->Shutdown();
  engine->Shutdown();  // Idempotent.
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::ScoreResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.scores, snapshot->Score(requests[i])) << "i=" << i;
    EXPECT_EQ(response.snapshot_version, 1u);
  }

  // Submissions after Shutdown() resolve immediately with a typed
  // rejection — no CHECK failure, no enqueue into the stopped dispatcher.
  std::future<serve::ScoreResponse> rejected =
      engine->ScoreAsync(requests.front());
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const serve::ScoreResponse response = rejected.get();
  EXPECT_EQ(response.status.code(), util::Status::Code::kUnavailable);
  EXPECT_EQ(engine->GetStats().shed_shutdown, 1u);
  engine.reset();  // Destructor after explicit Shutdown() is a no-op.
}

TEST_F(ServeTest, ShardedServerHotSwapTagsVersionsBitIdentical) {
  // Snapshot A serves as version 1; a different backend (the bare SR
  // backbone) is published as version 2 under the same server. Responses
  // must be bit-identical to whichever snapshot their version tag names —
  // the hot-swap determinism contract (DESIGN.md §12).
  std::shared_ptr<const serve::EngineSnapshot> snapshot_a(Snapshot());
  std::shared_ptr<const serve::Scorer> scorer_b(
      serve::MakeSequentialScorer(sr_model_));

  serve::ShardedServerOptions options;
  options.num_shards = 3;
  options.engine.max_batch_size = 4;
  serve::ShardedServer server(snapshot_a, options);
  EXPECT_EQ(server.snapshot_version(), 1u);

  const std::vector<serve::ScoreRequest> requests = MakeRequests(9);
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::ScoreResponse response =
        server.Score(/*user_id=*/i * 71, requests[i].history,
                     requests[i].candidates);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.snapshot_version, 1u);
    EXPECT_EQ(response.scores, snapshot_a->Score(requests[i]));
  }

  EXPECT_EQ(server.PublishSnapshot(scorer_b), 2u);
  EXPECT_EQ(server.snapshot_version(), 2u);
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::ScoreResponse response =
        server.Score(/*user_id=*/i * 71, requests[i].history,
                     requests[i].candidates);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.snapshot_version, 2u);
    EXPECT_EQ(response.scores, scorer_b->Score(requests[i]));
  }

  const serve::RecommendationEngine::Stats total = server.TotalStats();
  EXPECT_EQ(total.submitted, 2 * requests.size());
  EXPECT_EQ(total.scored, 2 * requests.size());
  EXPECT_EQ(total.snapshot_version, 2u);
  EXPECT_EQ(total.shed_queue_full + total.shed_deadline + total.shed_shutdown,
            0u);
  // Same user always lands on the same shard.
  for (uint64_t user = 0; user < 50; ++user) {
    EXPECT_EQ(server.ShardFor(user), server.ShardFor(user));
    EXPECT_GE(server.ShardFor(user), 0);
    EXPECT_LT(server.ShardFor(user), options.num_shards);
  }
}

TEST_F(ServeTest, ScorerAdaptersMatchUnderlyingModels) {
  const std::vector<serve::ScoreRequest> requests = MakeRequests(6);

  const auto sequential = serve::MakeSequentialScorer(sr_model_);
  const auto delrec = serve::MakeDelRecScorer(model_);
  baselines::ZeroShotLlm zero_shot("TinyLM zero-shot", llm_,
                                   &workbench_->dataset().catalog,
                                   &workbench_->vocab(), 10);
  const auto baseline = serve::MakeBaselineScorer(&zero_shot);

  for (const serve::ScoreRequest& request : requests) {
    data::Example example;
    example.history = request.history;
    example.target = request.candidates[0];
    EXPECT_EQ(sequential->Score(request),
              sr_model_->ScoreCandidates(request.history, request.candidates));
    EXPECT_EQ(delrec->Score(request),
              model_->ScoreCandidates(example, request.candidates));
    EXPECT_EQ(baseline->Score(request),
              zero_shot.ScoreCandidates(example, request.candidates));
  }
  // The default ScoreBatch loop and the sequential batched override both
  // honour the row-equivalence contract.
  std::vector<std::vector<float>> expected;
  for (const serve::ScoreRequest& request : requests) {
    expected.push_back(sequential->Score(request));
  }
  EXPECT_EQ(sequential->ScoreBatch(requests), expected);
  expected.clear();
  for (const serve::ScoreRequest& request : requests) {
    expected.push_back(baseline->Score(request));
  }
  EXPECT_EQ(baseline->ScoreBatch(requests), expected);
}

TEST_F(ServeTest, FromBlobsRejectsArchitectureMismatch) {
  const core::DelRecBlobs blobs = core::ExtractDelRecBlobs(*model_, *llm_);

  // Wrong LLM architecture.
  auto wrong_llm = serve::EngineSnapshot::FromBlobs(
      blobs, llm::TinyLmConfig::Large(workbench_->vocab().size()),
      model_->config(), Sources());
  EXPECT_FALSE(wrong_llm.ok());

  // Wrong soft-prompt count.
  core::DelRecConfig wrong_config = model_->config();
  wrong_config.soft_prompt_count += 1;
  auto wrong_soft = serve::EngineSnapshot::FromBlobs(blobs, llm_->config(),
                                                     wrong_config, Sources());
  EXPECT_FALSE(wrong_soft.ok());

  // Truncated adapter blob.
  core::DelRecBlobs truncated = blobs;
  if (!truncated.adapter_states.empty()) {
    truncated.adapter_states[0].pop_back();
    auto bad_adapter = serve::EngineSnapshot::FromBlobs(
        truncated, llm_->config(), model_->config(), Sources());
    EXPECT_FALSE(bad_adapter.ok());
  }
}

/// The student spec matching sr_model_'s construction in SetUpTestSuite.
srmodels::StudentSpec FixtureStudentSpec(int64_t num_items) {
  srmodels::StudentSpec spec;
  spec.backbone = srmodels::Backbone::kSasRec;
  spec.num_items = num_items;
  spec.history_length = 10;
  spec.seed = 5;
  return spec;
}

// A student blob attached to the checkpoint travels into the snapshot:
// persists through SaveDelRecBlobs/ReadDelRecBlobs byte-for-byte, the
// deserialized student scores bit-identically to the model it was
// serialized from, and the footprint accounts for it.
TEST_F(ServeTest, SnapshotEmbedsStudentBlob) {
  core::DelRecBlobs blobs = core::ExtractDelRecBlobs(*model_, *llm_);
  const srmodels::StudentSpec spec =
      FixtureStudentSpec(workbench_->num_items());
  blobs.student_blob = srmodels::SerializeStudent(spec, *sr_model_);

  // Checkpoint round trip preserves the blob bit-for-bit.
  const std::string path = ::testing::TempDir() + "/student_checkpoint.bin";
  ASSERT_TRUE(core::SaveDelRecBlobs(blobs, path).ok());
  auto reread = core::ReadDelRecBlobs(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread.value().student_blob, blobs.student_blob);
  std::remove(path.c_str());

  auto built = serve::EngineSnapshot::FromBlobs(blobs, llm_->config(),
                                                model_->config(), Sources());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::unique_ptr<serve::EngineSnapshot> snapshot =
      std::move(built.value());
  ASSERT_TRUE(snapshot->has_student());
  EXPECT_EQ(snapshot->student_spec().backbone, spec.backbone);
  EXPECT_EQ(snapshot->student_spec().num_items, spec.num_items);
  EXPECT_EQ(snapshot->student_spec().history_length, spec.history_length);
  EXPECT_EQ(snapshot->student_spec().seed, spec.seed);

  // The embedded student is the serialized model, scores and all.
  for (const serve::ScoreRequest& request : MakeRequests(4)) {
    EXPECT_EQ(
        snapshot->student()->ScoreCandidates(request.history,
                                             request.candidates),
        sr_model_->ScoreCandidates(request.history, request.candidates));
    EXPECT_EQ(snapshot->student()->ScoreAllItems(request.history),
              sr_model_->ScoreAllItems(request.history));
  }

  // Footprint: the student's bytes are visible and the parts still sum.
  const serve::SnapshotFootprint footprint = snapshot->MemoryFootprint();
  EXPECT_GT(footprint.student_bytes, 0u);
  EXPECT_EQ(snapshot->MemoryFootprintBytes(), footprint.total());

  // A studentless snapshot reports so.
  core::DelRecBlobs bare = core::ExtractDelRecBlobs(*model_, *llm_);
  auto plain = serve::EngineSnapshot::FromBlobs(bare, llm_->config(),
                                                model_->config(), Sources());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value()->has_student());
  EXPECT_EQ(plain.value()->MemoryFootprint().student_bytes, 0u);
}

TEST_F(ServeTest, SnapshotRejectsCorruptStudentBlob) {
  core::DelRecBlobs blobs = core::ExtractDelRecBlobs(*model_, *llm_);
  blobs.student_blob = srmodels::SerializeStudent(
      FixtureStudentSpec(workbench_->num_items()), *sr_model_);
  blobs.student_blob.pop_back();  // State length no longer matches the spec.
  EXPECT_FALSE(serve::EngineSnapshot::FromBlobs(blobs, llm_->config(),
                                                model_->config(), Sources())
                   .ok());
}

// MakeSnapshotTwoTier on the real stack: the ISSUE's central equivalence —
// two-tier scoring is bit-identical to the teacher re-ranking the
// student's top-h directly.
TEST_F(ServeTest, SnapshotTwoTierMatchesTeacherOnStudentTopH) {
  core::DelRecBlobs blobs = core::ExtractDelRecBlobs(*model_, *llm_);
  blobs.student_blob = srmodels::SerializeStudent(
      FixtureStudentSpec(workbench_->num_items()), *sr_model_);
  auto built = serve::EngineSnapshot::FromBlobs(blobs, llm_->config(),
                                                model_->config(), Sources());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::shared_ptr<const serve::EngineSnapshot> snapshot =
      std::move(built.value());

  serve::TwoTierOptions options;
  options.rerank_top_h = 4;
  auto made = serve::MakeSnapshotTwoTier(snapshot, options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const std::shared_ptr<const serve::Scorer> two_tier = made.value();

  for (const serve::ScoreRequest& request : MakeRequests(5)) {
    const std::vector<float> composed = two_tier->Score(request);
    ASSERT_EQ(composed.size(), request.candidates.size());
    // By hand: student pre-ranks the pool, teacher re-scores its top-h.
    const std::vector<float> pre =
        snapshot->student()->ScoreCandidates(request.history,
                                             request.candidates);
    const std::vector<int64_t> order = eval::TopKByIds(
        pre, request.candidates, static_cast<int64_t>(pre.size()));
    serve::ScoreRequest head_request;
    head_request.history = request.history;
    for (int64_t j = 0; j < options.rerank_top_h; ++j) {
      head_request.candidates.push_back(request.candidates[order[j]]);
    }
    const std::vector<float> direct = snapshot->Score(head_request);
    for (int64_t j = 0; j < options.rerank_top_h; ++j) {
      EXPECT_EQ(composed[order[j]], direct[j]);
    }
    // Tail strictly below the head, in student order.
    float head_min = direct[0];
    for (float score : direct) head_min = std::min(head_min, score);
    for (size_t j = options.rerank_top_h; j < order.size(); ++j) {
      EXPECT_LT(composed[order[j]], head_min);
    }
  }

  // The studentless artifact cannot compose.
  core::DelRecBlobs bare = core::ExtractDelRecBlobs(*model_, *llm_);
  auto plain = serve::EngineSnapshot::FromBlobs(bare, llm_->config(),
                                                model_->config(), Sources());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(serve::MakeSnapshotTwoTier(
                std::shared_ptr<const serve::EngineSnapshot>(
                    std::move(plain.value())),
                options)
                .status()
                .code(),
            util::Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace delrec
