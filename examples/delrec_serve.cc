// Serving demo: train a small DELRec, freeze it into an immutable
// EngineSnapshot, load the same artifact back from a checkpoint file, and
// put a batching RecommendationEngine in front of concurrent clients.
//
//   ./examples/delrec_serve
#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/delrec.h"
#include "core/workbench.h"
#include "data/dataset.h"
#include "data/split.h"
#include "serve/engine.h"
#include "serve/sharded_server.h"
#include "serve/snapshot.h"
#include "srmodels/factory.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

int main() {
  using namespace delrec;

  // 1. Dataset + trained system (small budgets — serving is the subject).
  data::GeneratorConfig generator = data::MovieLens100KConfig();
  core::Workbench workbench(generator, core::Workbench::Options());
  auto sasrec = srmodels::MakeBackbone(srmodels::Backbone::kSasRec,
                                       workbench.num_items(),
                                       /*history_length=*/10, /*seed=*/5);
  srmodels::TrainConfig sr_train =
      srmodels::BackboneTrainConfig(srmodels::Backbone::kSasRec);
  sr_train.epochs = 1;
  util::Status status = sasrec->Train(workbench.splits().train, sr_train);
  if (!status.ok()) {
    std::fprintf(stderr, "SASRec training failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  auto llm = workbench.MakePretrainedLlm(core::LlmSize::kBase);
  core::DelRecConfig config;
  config.stage1_epochs = 1;
  config.stage1_max_examples = 48;
  config.stage2_epochs = 1;
  config.stage2_max_examples = 64;
  core::DelRec delrec(&workbench.dataset().catalog, &workbench.vocab(),
                      llm.get(), sasrec.get(), config);
  status = delrec.Train(workbench.splits().train);
  if (!status.ok()) {
    std::fprintf(stderr, "DELRec training failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // 2. Freeze the trained system into an immutable inference snapshot. The
  //    snapshot owns copies of every parameter — the trainer-side model and
  //    LLM could keep training (or be destroyed) without affecting it.
  serve::EngineSnapshot::Sources sources;
  sources.catalog = &workbench.dataset().catalog;
  sources.vocab = &workbench.vocab();
  sources.sr_model = sasrec.get();
  auto frozen = serve::EngineSnapshot::FromModel(delrec, *llm, sources);
  if (!frozen.ok()) {
    std::fprintf(stderr, "freeze failed: %s\n",
                 frozen.status().ToString().c_str());
    return 1;
  }
  std::printf("frozen snapshot: %s\n", frozen.value()->name().c_str());

  // 3. The production path: persist a checkpoint, then build the snapshot
  //    straight from the file — no live trainer objects involved. Both
  //    construction paths score bit-identically (tests/serve_test.cc).
  const char* kCheckpoint = "delrec_serve_demo.ckpt";
  status = core::SaveDelRecCheckpoint(delrec, *llm, kCheckpoint);
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  auto snapshot = serve::EngineSnapshot::FromCheckpoint(
      kCheckpoint, workbench.LlmConfigFor(core::LlmSize::kBase), config,
      sources);
  std::remove(kCheckpoint);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot rebuilt from checkpoint file\n");

  // 4. Serve it: a RecommendationEngine coalesces concurrent clients into
  //    batches. It never waits for more requests: a free dispatcher scores
  //    whatever is queued, and requests that arrive meanwhile form the next
  //    batch, so batches grow with load. Results are bit-identical to
  //    one-at-a-time scoring no matter how requests get batched together.
  serve::EngineOptions engine_options;
  engine_options.max_batch_size = 16;
  serve::RecommendationEngine engine(snapshot.value().get(), engine_options);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 32;
  const auto& test = workbench.splits().test;
  util::Rng rng(99);
  std::vector<serve::ScoreRequest> requests;
  for (int i = 0; i < kClients * kRequestsPerClient; ++i) {
    const data::Example& example = test[i % test.size()];
    requests.push_back(
        {example.history, data::SampleCandidates(workbench.num_items(),
                                                 example.target, 15, rng)});
  }

  std::vector<std::vector<double>> latencies(kClients);
  util::WallTimer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const serve::ScoreRequest& request =
            requests[c * kRequestsPerClient + i];
        util::WallTimer latency;
        engine.ScoreCandidates(request.history, request.candidates);
        latencies[c].push_back(latency.ElapsedSeconds());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_s = wall.ElapsedSeconds();
  engine.Shutdown();

  std::vector<double> all;
  for (const auto& client : latencies) {
    all.insert(all.end(), client.begin(), client.end());
  }
  std::sort(all.begin(), all.end());
  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  std::printf("%d clients x %d requests: %.1f req/s, p50 %.2f ms, "
              "p99 %.2f ms\n",
              kClients, kRequestsPerClient,
              static_cast<double>(all.size()) / wall_s,
              all[all.size() / 2] * 1e3,
              all[std::min(all.size() - 1, all.size() * 99 / 100)] * 1e3);
  std::printf("dispatcher: %llu batches, mean batch %.2f, max batch %llu\n",
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch,
              static_cast<unsigned long long>(stats.max_batch));

  // 5. And a human-readable recommendation straight off the snapshot.
  const auto& catalog = workbench.dataset().catalog;
  const serve::ScoreRequest& request = requests.front();
  std::printf("\nuser history:\n");
  for (int64_t item : request.history) {
    std::printf("  - %s\n", catalog.items[item].title.c_str());
  }
  std::printf("top-3 from the candidate pool:\n");
  for (int64_t item :
       snapshot.value()->Recommend(request.history, request.candidates, 3)) {
    std::printf("  -> %s\n", catalog.items[item].title.c_str());
  }

  // 6. The sharded serve tier (DESIGN.md §12): user-hash sharding with
  //    admission control, and a zero-pause snapshot hot-swap under live
  //    traffic. The checkpoint-built snapshot goes live as version 1; while
  //    requests are still queued, PublishSnapshot rolls out the FromModel
  //    artifact as version 2 — no queue drain, no dispatcher pause. Batches
  //    already formed finish on the version they acquired, new batches score
  //    on the new one, and every response is tagged with the version that
  //    scored it. (Overload shedding — typed kUnavailable / kDeadlineExceeded
  //    rejections at the admission cap — is bench_serve_load's subject; the
  //    cap here is sized so the demo traffic never brushes it.)
  std::shared_ptr<const serve::EngineSnapshot> live(
      std::move(snapshot).value());
  std::shared_ptr<const serve::EngineSnapshot> retrained(
      std::move(frozen).value());
  serve::ShardedServerOptions server_options;
  server_options.num_shards = 2;
  server_options.engine = engine_options;
  server_options.engine.max_queue_depth = 96;
  serve::ShardedServer server(live, server_options);

  // One synchronous request pins a version-1 batch before the roll-out (on
  // a single-CPU host the publish would otherwise win every race).
  const serve::ScoreResponse before = server.Score(
      /*user_id=*/0, requests.front().history, requests.front().candidates);
  std::printf("\nwarm request served by snapshot version %llu\n",
              static_cast<unsigned long long>(before.snapshot_version));

  std::vector<std::future<serve::ScoreResponse>> futures;
  futures.reserve(requests.size());
  for (size_t i = 0; i < requests.size() / 2; ++i) {
    futures.push_back(server.ScoreAsync(/*user_id=*/i, requests[i]));
  }
  const uint64_t rolled = server.PublishSnapshot(retrained);
  for (size_t i = requests.size() / 2; i < requests.size(); ++i) {
    futures.push_back(server.ScoreAsync(/*user_id=*/i, requests[i]));
  }
  std::map<uint64_t, int> served_by_version;
  int shed = 0;
  for (std::future<serve::ScoreResponse>& future : futures) {
    const serve::ScoreResponse response = future.get();
    if (response.status.ok()) {
      ++served_by_version[response.snapshot_version];
    } else {
      ++shed;
    }
  }
  server.Shutdown();

  const serve::RecommendationEngine::Stats total = server.TotalStats();
  std::printf("\nhot swap: published version %llu under %zu in-flight "
              "requests\n",
              static_cast<unsigned long long>(rolled), requests.size());
  for (const auto& [version, count] : served_by_version) {
    std::printf("  version %llu served %d requests\n",
                static_cast<unsigned long long>(version), count);
  }
  std::printf("sharded tier: %d shards, %llu swap(s) observed, %d shed, "
              "queue wait p50 %.2f ms / p99 %.2f ms\n",
              server.num_shards(),
              static_cast<unsigned long long>(total.swaps_observed), shed,
              total.queue_p50_ms, total.queue_p99_ms);
  return 0;
}
