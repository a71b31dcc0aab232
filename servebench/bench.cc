// Serving benchmark: measures one workload per process through
// serve::ShardedServer, loading a pre-trained fixture (servebench_fixture).
//
// Usage:
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --fixture <dir> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 serves through
// TracedScorer instead and prints the per-layer metrics. Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics}, and
// every line before it is a human-readable record of the run: pinned
// configuration, workload properties, sample counts.
//
// A run is kRounds rounds. Each round sets servers up afresh from the
// checkpoint file and runs every timed phase once, so every phase samples
// the whole run:
//   setup  checkpoint file -> warmed server (kSetupsPerRound per round)
//   low    open-loop Poisson at the workload's fixed low rate
//   high   open-loop Poisson at the workload's fixed high rate
//   sat    closed loop, 2 full batches outstanding per shard
//   batch  full batches straight into the scorer's ScoreBatch
// Latency and rate metrics are medians over the rounds. The correctness
// checks (every response bitwise against the single-request oracle, HR@5
// twice) do their expensive work outside the timed phases.
//
// Layers each workload predicts will not move:
//   short_burst    prompt hints, two-tier stages, int8 kernels, publish
//                  under load
//   two_tier_swap  none: it is the only workload on every serving layer
//   paper_prompt   (not in BENCHMARK.json) two-tier stages, publish under
//                  load
// Deliberately not workloads: training (the fixture trains once, in its own
// process), the out-of-core data plane (bench_datalane covers it), and
// invalid requests (they still abort the process until admission-time
// validation exists).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/delrec.h"
#include "core/workbench.h"
#include "data/split.h"
#include "eval/topk.h"
#include "fixture.h"
#include "load.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "serve/sharded_server.h"
#include "serve/snapshot.h"
#include "serve/two_tier.h"
#include "traced_scorer.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace delrec::servebench {
namespace {

// Pinned serving configuration (printed with every result). One shard: with
// two, two_tier_swap's sat_rps was bimodal on the reference host (the
// shards' ScoreBatch calls serialized at times; run-to-run spread 0.44-0.68)
// while its single-thread batch_rps held. One dispatcher plus the sender,
// one waiter and the publisher keep busy threads within 4 vCPUs, each on a
// CPU of its own (PinCurrentThread), and the open-loop windows keep the
// latency path's CPUs from idling (KeepAwake). On the reference host,
// two_tier_swap's high.p75_ms spread 0.31 between runs with threads left
// to float, 0.10-0.55 pinned (depending on how busy the host was), and
// 0.05-0.14 pinned and kept awake. The scorer runs single-threaded inside
// the shard.
constexpr int kShards = 1;
constexpr int kScorerThreads = 1;
constexpr int64_t kMaxBatch = 16;
constexpr double kLingerMs = 1.0;
// Two full batches per shard: the next batch is always queued when the
// current one finishes, so batches are full and no linger is waited out.
constexpr int kOutstandingPerShard = 2 * static_cast<int>(kMaxBatch);
// Seeded requests per run; windows cycle through them. Every entry's
// single-request Score() is the oracle its served responses must equal.
constexpr int64_t kPoolSize = 1024;
// Timed phases run interleaved in this many rounds, each on a freshly
// set-up server. Every round also times extra set-ups and, on workloads
// without a publisher under load, idle publishes, so setup_s and publish_s
// are medians of many short samples spread across the run.
constexpr int kRounds = 15;
constexpr int kSetupsPerRound = 3;
constexpr int kIdlePublishesPerRound = 3;
constexpr int64_t kRerankTopH = 8;
// HR@5 candidate sets are drawn from a fixed seed, not the run seed, so
// the metric is comparable across runs.
constexpr uint64_t kEvalSeed = 2024;
// Tail percentile of the open-loop latency metrics. p75, not p90: even with
// the latency path kept awake, two_tier_swap's p90 spread 0.07-0.11 of its
// median over five runs of identical code on the reference host, against
// 0.04-0.05 for p75, and busy stretches of that host doubled such spreads.
// The benchmark's latency bound is 0.25 of the median.
constexpr double kTail = 0.75;
// Share of each round each timed phase gets. The open-loop phases get the
// most: their tails rest on a few hundred requests a round, while sat and
// batch complete thousands.
constexpr double kLowShare = 0.35;
constexpr double kHighShare = 0.35;
constexpr double kSatShare = 0.15;
constexpr double kBatchShare = 0.15;

struct Workload {
  const char* name;
  Shape shape;
  bool int8;
  int64_t rerank_top_h;   // > 0: two-tier over the embedded student.
  double zipf;            // User popularity exponent (0 = uniform users).
  int burst_every;        // Every n-th arrival is a burst (0 = none)
  int burst_size;         // of this many requests.
  int64_t candidates;     // Per request (0 = the full catalog).
  double low_rps;         // Fixed offered rates, sized on a 4-vCPU host.
  double high_rps;
  double publish_every_s; // > 0: rebuild + publish during server windows.
};

// Rates are absolute and fixed, set from each workload's one-shard sat_rps
// on the 4-vCPU KVM host the benchmark was defined on (paper_prompt ~0.7k,
// short_burst ~8-13k, two_tier_swap ~0.8-1.7k req/s). That host's speed
// drifts by up to 2x over minutes, so the rates sit far below the knee:
// short_burst's low is ~8% and high ~16% of sat_rps. At 3x the low rate,
// high.p50_ms already moved by a quarter of its median between runs.
// two_tier_swap's low rate is lower still: a lone request there takes the
// 1 ms linger plus ~1.7 ms of scoring, so at 100 req/s about a quarter of
// requests queue behind another, which put low.p75_ms on the edge between
// the lone-request mode and the queueing tail, where it moved with every
// change in host speed (spread 0.18 over ten runs). At 50 req/s, p75 stays
// inside the lone-request mode.
//
// paper_prompt stays runnable but is not in BENCHMARK.json: on that host
// its figures did not hold still, as its 1.8 ms fp32 service time scales
// with the host's drifting speed. Over five 35 s runs, pinned and kept
// awake, batch_rps spread 0.18, high.p50_ms 0.21 and high.p75_ms 0.28 of
// their medians (earlier, floating: low.p50_ms 0.10-0.38 and the p90 tails
// 0.3-0.7 over sets of five 30 s runs). A third workload would also cut
// every run to ~35 s to fit the time all runs may take. Its layers stay
// measured: two_tier_swap re-ranks with the same paper prompt (hints
// included), and short_burst runs the fp32 encoder.
constexpr Workload kWorkloads[] = {
    {"paper_prompt", Shape::kPaper, false, 0, 0.0, 0, 1, 15, 100.0, 300.0,
     0.0},
    {"short_burst", Shape::kShort, false, 0, 1.05, 12, 4, 15, 800.0, 1600.0,
     0.0},
    {"two_tier_swap", Shape::kPaper, true, kRerankTopH, 1.05, 0, 1, 0, 50.0,
     200.0, 0.5},
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Everything a run loads once: the regenerated dataset and vocab, the hint
/// backbone, and where the workload's checkpoint lives.
struct Context {
  Context(const Workload& w, const std::string& fixture_dir, Tracer* t)
      : workload(w),
        workbench(DatasetConfig(), WorkbenchOptions()),
        llm_config(workbench.LlmConfigFor(core::LlmSize::kXL)),
        config(DelRecConfigFor(w.shape)),
        checkpoint(CheckpointPath(fixture_dir, w.shape)),
        tracer(t) {
    auto loaded = LoadHintBackbone(HintBackbonePath(fixture_dir));
    DELREC_CHECK(loaded.ok()) << loaded.status().ToString();
    hint = std::move(loaded).value();
    sources.catalog = &workbench.dataset().catalog;
    sources.vocab = &workbench.vocab();
    sources.sr_model = hint.model.get();
  }

  const Workload& workload;
  core::Workbench workbench;
  llm::TinyLmConfig llm_config;
  core::DelRecConfig config;
  std::string checkpoint;
  Tracer* tracer;  // Recorded into by traced scorers only.
  srmodels::LoadedStudent hint;
  serve::EngineSnapshot::Sources sources;
};

/// A scorer rebuilt from the checkpoint file, with its build stages timed.
struct Built {
  std::shared_ptr<const serve::EngineSnapshot> snapshot;
  std::shared_ptr<const serve::Scorer> scorer;  // What the server serves.
  double read_s = 0.0;
  double build_s = 0.0;
};

Built BuildFromCheckpoint(const Context& ctx, bool traced) {
  Built built;
  Clock::time_point start = Clock::now();
  auto blobs = core::ReadDelRecBlobs(ctx.checkpoint);
  DELREC_CHECK(blobs.ok()) << blobs.status().ToString();
  built.read_s = Since(start);
  start = Clock::now();
  serve::SnapshotBuildOptions options;
  options.quantize_int8 = ctx.workload.int8;
  auto snapshot = serve::EngineSnapshot::FromBlobs(
      blobs.value(), ctx.llm_config, ctx.config, ctx.sources, options);
  DELREC_CHECK(snapshot.ok()) << snapshot.status().ToString();
  built.snapshot = std::move(snapshot).value();
  built.build_s = Since(start);
  if (traced) {
    built.scorer = std::make_shared<TracedScorer>(
        built.snapshot, ctx.sources.catalog, ctx.sources.vocab,
        ctx.sources.sr_model, ctx.workload.rerank_top_h, ctx.tracer);
  } else if (ctx.workload.rerank_top_h > 0) {
    serve::TwoTierOptions options;
    options.rerank_top_h = ctx.workload.rerank_top_h;
    auto composed = serve::MakeSnapshotTwoTier(built.snapshot, options);
    DELREC_CHECK(composed.ok()) << composed.status().ToString();
    built.scorer = std::move(composed).value();
  } else {
    built.scorer = built.snapshot;
  }
  return built;
}

RequestPool MakePool(const Context& ctx, uint64_t seed) {
  const std::vector<data::UserSequence>& users =
      ctx.workbench.dataset().sequences;
  const int64_t window = ctx.config.history_length;
  util::Rng rng(seed);
  RequestPool pool;
  pool.requests.reserve(kPoolSize);
  for (int64_t i = 0; i < kPoolSize; ++i) {
    const size_t user = ctx.workload.zipf > 0.0
                            ? rng.Zipf(users.size(), ctx.workload.zipf)
                            : rng.UniformUint64(users.size());
    const std::vector<int64_t>& items = users[user].items;
    const int64_t length = static_cast<int64_t>(items.size());
    // Cut the user's sequence at a random point with a full window before
    // it where the sequence allows one.
    const int64_t cut =
        rng.UniformInt(std::min(window, length - 1), length - 1);
    PoolRequest entry;
    entry.user_id = static_cast<uint64_t>(users[user].user);
    entry.request.history.assign(
        items.begin() + std::max<int64_t>(0, cut - window),
        items.begin() + cut);
    if (ctx.workload.candidates > 0) {
      entry.request.candidates = data::SampleCandidates(
          ctx.workbench.num_items(), items[cut], ctx.workload.candidates, rng);
    }
    pool.requests.push_back(std::move(entry));
  }
  return pool;
}

/// The test split in the workload's request shape, for HR@5.
struct EvalSet {
  std::vector<serve::ScoreRequest> requests;
  std::vector<uint64_t> users;
  std::vector<int64_t> target_index;  // Position of the target in scores.
};

EvalSet MakeEvalSet(const Context& ctx) {
  util::Rng rng(kEvalSeed);
  EvalSet set;
  for (const data::Example& example : ctx.workbench.splits().test) {
    serve::ScoreRequest request;
    request.history = example.history;
    int64_t target = example.target;
    if (ctx.workload.candidates > 0) {
      request.candidates = data::SampleCandidates(
          ctx.workbench.num_items(), example.target, ctx.workload.candidates,
          rng);
      target = std::find(request.candidates.begin(),
                         request.candidates.end(), example.target) -
               request.candidates.begin();
    }
    set.requests.push_back(std::move(request));
    set.users.push_back(static_cast<uint64_t>(example.user));
    set.target_index.push_back(target);
  }
  return set;
}

double HitRateAt5(const EvalSet& set,
                  const std::vector<std::vector<float>>& scores) {
  int64_t hits = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const std::vector<int64_t> top = eval::TopK(scores[i], 5);
    hits += std::count(top.begin(), top.end(), set.target_index[i]);
  }
  return static_cast<double>(hits) / static_cast<double>(scores.size());
}

std::vector<std::vector<float>> ScoreInBatches(
    const serve::Scorer& scorer,
    const std::vector<serve::ScoreRequest>& requests) {
  std::vector<std::vector<float>> scores;
  for (size_t begin = 0; begin < requests.size(); begin += kMaxBatch) {
    const size_t end = std::min(requests.size(), begin + kMaxBatch);
    for (auto& row : scorer.ScoreBatch(std::vector<serve::ScoreRequest>(
             requests.begin() + begin, requests.begin() + end))) {
      scores.push_back(std::move(row));
    }
  }
  return scores;
}

bool Bitwise(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

serve::ShardedServerOptions ServerOptions() {
  serve::ShardedServerOptions options;
  options.num_shards = kShards;
  options.engine.max_batch_size = kMaxBatch;
  options.engine.batch_deadline_ms = kLingerMs;
  return options;
}

/// One set-up repetition: checkpoint file -> warmed server.
struct Served {
  Built built;
  std::unique_ptr<serve::ShardedServer> server;
  double setup_s = 0.0;
  double first_batch_s = 0.0;
};

Served SetUp(const Context& ctx, const RequestPool& pool, bool traced) {
  Served served;
  const Clock::time_point start = Clock::now();
  served.built = BuildFromCheckpoint(ctx, traced);
  if (traced) ctx.tracer->ResetDispatchers();
  served.server = std::make_unique<serve::ShardedServer>(served.built.scorer,
                                                         ServerOptions());
  // First batch on every shard, shard 0 first: a traced run relies on this
  // order to map dispatcher threads to shards.
  const Clock::time_point warm = Clock::now();
  for (int shard = 0; shard < kShards; ++shard) {
    size_t index = 0;
    while (served.server->ShardFor(pool.requests[index].user_id) != shard) {
      ++index;
      DELREC_CHECK_LT(index, pool.requests.size());
    }
    const serve::ScoreResponse response =
        served.server
            ->ScoreAsync(pool.requests[index].user_id,
                         pool.requests[index].request)
            .get();
    DELREC_CHECK(response.status.ok()) << response.status.ToString();
    DELREC_CHECK(Bitwise(response.scores, pool.reference[index]))
        << "warm-up response differs from the single-request reference";
  }
  served.first_batch_s = Since(warm);
  served.setup_s = Since(start);
  if (traced) ctx.tracer->Take();  // Warm-up spans are not part of a window.
  return served;
}

/// Rebuilds the scorer from the checkpoint and publishes it at a fixed
/// interval, starting at once, until stopped.
class Publisher {
 public:
  Publisher(const Context& ctx, serve::ShardedServer* server, bool traced,
            double every_s)
      : ctx_(ctx), server_(server), traced_(traced), every_s_(every_s) {
    if (every_s_ > 0.0) thread_ = std::thread([this] { Loop(); });
  }
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Rebuild + publish, seconds (valid after Stop()).
  const std::vector<double>& publish_s() const { return publish_s_; }
  /// The PublishSnapshot call alone, seconds.
  const std::vector<double>& swap_s() const { return swap_s_; }

  /// One rebuild + publish on the calling thread.
  void PublishOnce() {
    const Clock::time_point start = Clock::now();
    Built built = BuildFromCheckpoint(ctx_, traced_);
    const Clock::time_point swap = Clock::now();
    server_->PublishSnapshot(std::move(built.scorer));
    swap_s_.push_back(Since(swap));
    publish_s_.push_back(Since(start));
  }

 private:
  void Loop() {
    PinCurrentThread(Role::kPublish);
    std::unique_lock<std::mutex> lock(mutex_);
    do {
      lock.unlock();
      PublishOnce();
      lock.lock();
    } while (!wake_.wait_for(lock, std::chrono::duration<double>(every_s_),
                             [this] { return stopping_; }));
  }

  const Context& ctx_;
  serve::ShardedServer* server_;
  const bool traced_;
  const double every_s_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  // Guarded by mutex_.
  std::vector<double> publish_s_;
  std::vector<double> swap_s_;
  std::thread thread_;  // Last: starts in the constructor body.
};

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    DELREC_CHECK(std::isfinite(value)) << name << " is not finite";
    entries_.push_back({name, value, unit});
  }
  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", entries_[i].name.c_str(),
                  entries_[i].value, entries_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Prompt shape of the pool, from the same public functions the scorer
/// calls (candidates are never rendered into the prompt by this config, so
/// the two-tier re-rank prompt has the same shape).
struct PromptShape {
  double prefix_tokens = 0.0;
  double suffix_tokens = 0.0;
  double attention_pairs = 0.0;  // Mean suffix x (prefix + suffix) keys.
};

PromptShape MeasurePromptShape(const Context& ctx, const Built& built,
                               const RequestPool& pool) {
  llm::PromptBuilder builder(ctx.sources.catalog, ctx.sources.vocab);
  PromptShape shape;
  for (const PoolRequest& entry : pool.requests) {
    const llm::Prompt prompt = core::inference::BuildScoringPrompt(
        ctx.config, builder, *ctx.sources.sr_model,
        built.snapshot->soft_prompts(), entry.request.history,
        entry.request.candidates);
    const double prefix = static_cast<double>(prompt.prefix_length);
    const double suffix = static_cast<double>(prompt.length()) - prefix;
    shape.prefix_tokens += prefix;
    shape.suffix_tokens += suffix;
    shape.attention_pairs += suffix * (prefix + suffix);
  }
  const double n = static_cast<double>(pool.requests.size());
  shape.prefix_tokens /= n;
  shape.suffix_tokens /= n;
  shape.attention_pairs /= n;
  return shape;
}

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// One timed slice of a phase, with the spans it left on a traced run.
struct Slice {
  WindowResult result;
  std::vector<std::vector<Span>> spans;  // Per tracer slot.
};

/// A timed phase: its slices from every round of the run.
struct Phase {
  std::string name;
  std::vector<Slice> slices;

  int64_t attempted() const {
    int64_t total = 0;
    for (const Slice& slice : slices) total += slice.result.attempted();
    return total;
  }
  int64_t ok() const {
    int64_t total = 0;
    for (const Slice& slice : slices) total += slice.result.ok();
    return total;
  }
  int64_t mismatches() const {
    int64_t total = 0;
    for (const Slice& slice : slices) total += slice.result.mismatches;
    return total;
  }
  /// Latency percentile q (ready - scheduled, ok requests, ms) of each
  /// slice, then the median over slices: one slow stretch of the host moves
  /// one slice, not the result.
  double LatencyPercentileMs(double q) const {
    std::vector<double> per_slice;
    for (const Slice& slice : slices) {
      std::vector<double> latencies;
      for (const auto& shard : slice.result.per_shard) {
        for (const Completion& c : shard) {
          if (!c.ok) continue;
          latencies.push_back(
              std::chrono::duration<double, std::milli>(c.ready - c.scheduled)
                  .count());
        }
      }
      if (latencies.empty()) continue;  // Only in very short runs.
      std::sort(latencies.begin(), latencies.end());
      per_slice.push_back(Percentile(latencies, q));
    }
    return Median(per_slice);
  }
  /// Generator lag (sent - scheduled), ms, sorted, over all slices.
  std::vector<double> LagMs() const {
    std::vector<double> lags;
    for (const Slice& slice : slices) {
      for (const auto& shard : slice.result.per_shard) {
        for (const Completion& c : shard) {
          lags.push_back(
              std::chrono::duration<double, std::milli>(c.sent - c.scheduled)
                  .count());
        }
      }
    }
    std::sort(lags.begin(), lags.end());
    return lags;
  }
  double AchievedRps() const {
    double span = 0.0;
    for (const Slice& slice : slices) span += slice.result.SendSpanSeconds();
    return static_cast<double>(attempted()) / span;
  }
  /// Ok completions per second inside each slice, median over slices.
  double CompletedRps() const {
    std::vector<double> per_slice;
    for (const Slice& slice : slices) {
      per_slice.push_back(slice.result.CompletionRate());
    }
    return Median(per_slice);
  }
  /// Matches every shard's batches to the slice's requests in that shard's
  /// FIFO order; false when the counts disagree.
  bool FifoMatches() const {
    for (const Slice& slice : slices) {
      for (int shard = 0; shard < kShards; ++shard) {
        int64_t scored = 0;
        for (const Span& span : slice.spans[shard]) {
          if (span.stage == Stage::kScoreBatch) scored += span.count;
        }
        if (scored !=
            static_cast<int64_t>(slice.result.per_shard[shard].size())) {
          return false;
        }
      }
    }
    return true;
  }
  /// Calls fn(batch span, completion) for every scored request, in FIFO
  /// order per shard. Requires FifoMatches().
  template <typename Fn>
  void ForEachRequest(Fn fn) const {
    for (const Slice& slice : slices) {
      for (int shard = 0; shard < kShards; ++shard) {
        size_t next = 0;
        for (const Span& span : slice.spans[shard]) {
          if (span.stage != Stage::kScoreBatch) continue;
          for (int32_t row = 0; row < span.count; ++row) {
            fn(span, slice.result.per_shard[shard][next++]);
          }
        }
      }
    }
  }
};

void WriteTrace(const std::string& path,
                const std::vector<const Phase*>& phases) {
  std::ofstream out(path);
  out << "phase\tslice\tslot\tbatch\trequest\tstage\tparent\tstart_ns\t"
         "end_ns\tcount\n";
  int64_t slice_id = 0;
  for (const Phase* phase : phases) {
    for (const Slice& slice : phase->slices) {
      for (size_t slot = 0; slot < slice.spans.size(); ++slot) {
        // Request ids: the request's FIFO position in its shard (server
        // phases) or its position in the run of direct batches.
        int64_t first_of_batch = 0;
        int64_t batch_size = 0;
        for (const Span& span : slice.spans[slot]) {
          if (span.stage == Stage::kScoreBatch) {
            first_of_batch += batch_size;
            batch_size = span.count;
          }
          const int64_t request =
              span.row < 0 ? -1
                           : (slice_id << 40) |
                                 (static_cast<int64_t>(slot) << 32) |
                                 (first_of_batch + span.row);
          out << phase->name << '\t' << slice_id << '\t' << slot << '\t'
              << span.batch << '\t' << request << '\t'
              << StageName(span.stage) << '\t' << span.parent << '\t'
              << span.start_ns << '\t' << span.end_ns << '\t' << span.count
              << '\n';
        }
      }
      ++slice_id;
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fixture;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--fixture") {
      args->fixture = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->fixture.empty() &&
         args->seconds > 0.0;
}

int Run(const Workload& workload, const Args& args) {
  util::SetParallelism(kScorerThreads);
  // Before any server starts: shard dispatchers inherit this CPU.
  PinCurrentThread(Role::kDispatch);
  const bool traced = args.trace;
  Tracer tracer(kShards);
  tracer.BindDirect();
  Context ctx(workload, args.fixture, &tracer);

  std::printf("[servebench] workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.name, static_cast<unsigned long long>(args.seed),
              args.seconds, traced ? 1 : 0);
  const char* env_threads = std::getenv("DELREC_NUM_THREADS");
  std::printf("[servebench] config: shards=%d scorer_threads=%d "
              "DELREC_NUM_THREADS=%s max_batch=%lld linger_ms=%g "
              "closed_loop_outstanding_per_shard=%d low_rps=%g high_rps=%g "
              "rounds=%d\n",
              kShards, util::ParallelThreads(),
              env_threads != nullptr ? env_threads : "unset",
              static_cast<long long>(kMaxBatch), kLingerMs,
              kOutstandingPerShard, workload.low_rps, workload.high_rps,
              kRounds);
  std::printf("[servebench] threads: %d shard dispatchers, 1 sender "
              "(open loop), %d waiters (one per shard), %s; pinned %s\n",
              kShards, kShards,
              workload.publish_every_s > 0.0 ? "1 publisher" : "no publisher",
              PinLayout().c_str());
  std::printf("[servebench] kernels: gemm=%s int8=%s\n",
              nn::GemmKernelConfig().c_str(),
              nn::Int8GemmKernelConfig().c_str());

  // Oracle and first HR@5, outside every timed window.
  RequestPool pool = MakePool(ctx, args.seed);
  const Built reference = BuildFromCheckpoint(ctx, /*traced=*/false);
  pool.reference.reserve(pool.requests.size());
  for (const PoolRequest& entry : pool.requests) {
    pool.reference.push_back(reference.scorer->Score(entry.request));
  }
  const EvalSet eval_set = MakeEvalSet(ctx);
  const double hr5 = HitRateAt5(
      eval_set, ScoreInBatches(*reference.scorer, eval_set.requests));
  int64_t traced_mismatches = 0;
  const Built traced_scorer =
      traced ? BuildFromCheckpoint(ctx, /*traced=*/true) : Built();
  if (traced) {
    std::vector<serve::ScoreRequest> requests;
    for (const PoolRequest& entry : pool.requests) {
      requests.push_back(entry.request);
    }
    const std::vector<std::vector<float>> scores =
        ScoreInBatches(*traced_scorer.scorer, requests);
    for (size_t i = 0; i < scores.size(); ++i) {
      traced_mismatches += Bitwise(scores[i], pool.reference[i]) ? 0 : 1;
    }
    tracer.Take();
  }

  // Workload record.
  const PromptShape shape = MeasurePromptShape(ctx, reference, pool);
  std::set<std::vector<int64_t>> distinct;
  for (const PoolRequest& entry : pool.requests) {
    distinct.insert(entry.request.history);
  }
  const double burst_share =
      workload.burst_every > 0
          ? static_cast<double>(workload.burst_size) /
                static_cast<double>(workload.burst_every - 1 +
                                    workload.burst_size)
          : 0.0;
  std::printf("[servebench] workload record: pool=%lld distinct_history_share="
              "%.4f prefix_tokens=%.2f suffix_tokens=%.2f "
              "candidates_per_request=%lld burst_share=%.4f zipf=%g "
              "rerank_top_h=%lld int8=%d\n",
              static_cast<long long>(pool.requests.size()),
              static_cast<double>(distinct.size()) /
                  static_cast<double>(pool.requests.size()),
              shape.prefix_tokens, shape.suffix_tokens,
              static_cast<long long>(workload.candidates > 0
                                         ? workload.candidates
                                         : ctx.workbench.num_items()),
              burst_share, workload.zipf,
              static_cast<long long>(workload.rerank_top_h),
              workload.int8 ? 1 : 0);

  std::vector<double> setup_s, first_batch_s, read_s, build_s;
  std::vector<double> publish_s, swap_s;
  int64_t shed = 0, scorer_failures = 0, swaps_observed = 0;
  auto set_up = [&] {
    Served served = SetUp(ctx, pool, traced);
    setup_s.push_back(served.setup_s);
    first_batch_s.push_back(served.first_batch_s);
    read_s.push_back(served.built.read_s);
    build_s.push_back(served.built.build_s);
    return served;
  };
  auto retire = [&](Served& served) {
    served.server->Shutdown();
    const serve::RecommendationEngine::Stats stats =
        served.server->TotalStats();
    shed += static_cast<int64_t>(stats.shed_queue_full + stats.shed_deadline +
                                 stats.shed_shutdown);
    scorer_failures += static_cast<int64_t>(stats.scorer_failures);
    swaps_observed += static_cast<int64_t>(stats.swaps_observed);
  };

  // Timed phases, interleaved in rounds so that every phase samples the
  // whole run: on a host whose speed drifts over seconds, a phase measured
  // in one contiguous window would see a different machine than the rest.
  Phase low{"low", {}}, high{"high", {}}, sat{"sat", {}}, batch{"batch", {}};
  const double round_s = args.seconds / kRounds;
  int64_t low_cursor = 0, high_cursor = kPoolSize / 2, batch_cursor = 0;
  uint64_t sat_fresh_allocs = 0;
  size_t pool_cached_bytes = 0;
  double real_s = 0.0, traced_s = 0.0;
  int64_t batch_requests = 0, batch_mismatches = 0;
  std::vector<double> batch_rps;  // Per round.
  auto finish_slice = [&](Phase& phase, WindowResult result) {
    Slice slice;
    slice.result = std::move(result);
    if (traced) slice.spans = tracer.Take();
    phase.slices.push_back(std::move(slice));
  };
  auto open_loop = [&](serve::ShardedServer& server, double rate_rps,
                       double share, int64_t* cursor, uint64_t seed) {
    OpenLoopOptions options;
    options.rate_rps = rate_rps;
    options.seconds = share * round_s;
    options.burst_every = workload.burst_every;
    options.burst_size = workload.burst_size;
    options.seed = seed;
    options.first_request = *cursor;
    WindowResult result = RunOpenLoop(server, pool, options);
    *cursor += result.attempted();
    return result;
  };
  for (int round = 0; round < kRounds; ++round) {
    for (int extra = 1; extra < kSetupsPerRound; ++extra) {
      Served served = set_up();
      retire(served);
    }
    Served served = set_up();
    {
      Publisher publisher(ctx, served.server.get(), traced,
                          workload.publish_every_s);
      const uint64_t seed = args.seed * 1000 + round * 10;
      finish_slice(low, open_loop(*served.server, workload.low_rps, kLowShare,
                                  &low_cursor, seed + 1));
      finish_slice(high, open_loop(*served.server, workload.high_rps,
                                   kHighShare, &high_cursor, seed + 2));
      const uint64_t fresh_before =
          util::BufferPool::Global().GetStats().fresh_allocations;
      WindowResult closed = RunClosedLoop(*served.server, pool,
                                          kOutstandingPerShard,
                                          kSatShare * round_s);
      const util::BufferPool::Stats pool_stats =
          util::BufferPool::Global().GetStats();
      sat_fresh_allocs += pool_stats.fresh_allocations - fresh_before;
      pool_cached_bytes = pool_stats.cached_bytes;
      finish_slice(sat, std::move(closed));
      publisher.Stop();
      if (workload.publish_every_s <= 0.0) {
        for (int i = 0; i < kIdlePublishesPerRound; ++i) {
          publisher.PublishOnce();
        }
      }
      publish_s.insert(publish_s.end(), publisher.publish_s().begin(),
                       publisher.publish_s().end());
      swap_s.insert(swap_s.end(), publisher.swap_s().begin(),
                    publisher.swap_s().end());
    }
    retire(served);

    // Full batches straight into ScoreBatch, timed per call. A traced run
    // alternates the real and the traced scorer on the same batches, which
    // gives the tracing overhead.
    const Clock::time_point start = Clock::now();
    const double round_real_s = real_s;
    const int64_t round_requests = batch_requests;
    while (Since(start) < kBatchShare * round_s) {
      std::vector<serve::ScoreRequest> requests;
      std::vector<int64_t> indices;
      for (int64_t i = 0; i < kMaxBatch; ++i, ++batch_cursor) {
        indices.push_back(batch_cursor % kPoolSize);
        requests.push_back(pool.requests[indices.back()].request);
      }
      Clock::time_point call = Clock::now();
      std::vector<std::vector<float>> scores =
          reference.scorer->ScoreBatch(requests);
      real_s += Since(call);
      for (size_t i = 0; i < indices.size(); ++i) {
        batch_mismatches +=
            Bitwise(scores[i], pool.reference[indices[i]]) ? 0 : 1;
      }
      if (traced) {
        call = Clock::now();
        scores = traced_scorer.scorer->ScoreBatch(requests);
        traced_s += Since(call);
        for (size_t i = 0; i < indices.size(); ++i) {
          traced_mismatches +=
              Bitwise(scores[i], pool.reference[indices[i]]) ? 0 : 1;
        }
      }
      batch_requests += kMaxBatch;
    }
    batch_rps.push_back(static_cast<double>(batch_requests - round_requests) /
                        (real_s - round_real_s));
    finish_slice(batch, WindowResult());
  }

  // The second HR@5, through a freshly set-up server.
  double hr5_served = -1.0;
  {
    Served served = set_up();
    std::vector<std::future<serve::ScoreResponse>> futures;
    for (size_t i = 0; i < eval_set.requests.size(); ++i) {
      futures.push_back(
          served.server->ScoreAsync(eval_set.users[i], eval_set.requests[i]));
    }
    std::vector<std::vector<float>> scores;
    bool all_ok = true;
    for (auto& future : futures) {
      serve::ScoreResponse response = future.get();
      all_ok = all_ok && response.status.ok();
      scores.push_back(std::move(response.scores));
    }
    if (all_ok) hr5_served = HitRateAt5(eval_set, scores);
    retire(served);
    if (traced) tracer.Take();
  }

  // Correctness.
  const int64_t served_attempted =
      low.attempted() + high.attempted() + sat.attempted();
  const int64_t served_ok = low.ok() + high.ok() + sat.ok();
  const int64_t attempted = served_attempted + batch_requests;
  const int64_t failed = served_attempted - served_ok;
  const int64_t mismatches = low.mismatches() + high.mismatches() +
                             sat.mismatches() + batch_mismatches +
                             traced_mismatches;
  const bool hr5_repeats = hr5 == hr5_served;
  const bool fifo_ok =
      !traced || (low.FifoMatches() && high.FifoMatches() && sat.FifoMatches());
  const bool correct =
      failed == 0 && mismatches == 0 && hr5_repeats && fifo_ok;
  std::printf("[servebench] correctness: responses_checked=%lld "
              "mismatches=%lld traced_mismatches=%lld failed=%lld "
              "hr5=%.6f hr5_served=%.6f repeats=%d trace_fifo_match=%d\n",
              static_cast<long long>(attempted),
              static_cast<long long>(mismatches),
              static_cast<long long>(traced_mismatches),
              static_cast<long long>(failed), hr5, hr5_served,
              hr5_repeats ? 1 : 0, fifo_ok ? 1 : 0);
  for (const auto& [phase, rate] : {std::pair<const Phase*, double>{
                                        &low, workload.low_rps},
                                    {&high, workload.high_rps}}) {
    const std::vector<double> lag = phase->LagMs();
    std::printf("[servebench] %s: offered_rps=%g achieved_rps=%.1f "
                "samples=%lld ok=%lld gen_lag_p90_ms=%.4f "
                "gen_lag_p99_ms=%.4f\n",
                phase->name.c_str(), rate, phase->AchievedRps(),
                static_cast<long long>(phase->attempted()),
                static_cast<long long>(phase->ok()), Percentile(lag, 0.90),
                Percentile(lag, 0.99));
  }
  std::printf("[servebench] sat: completed=%lld; batch: %lld requests; "
              "setup reps=%zu; publishes=%zu (%s)\n",
              static_cast<long long>(sat.ok()),
              static_cast<long long>(batch_requests), setup_s.size(),
              publish_s.size(),
              workload.publish_every_s > 0.0 ? "under load" : "idle");

  Metrics metrics;
  if (!traced) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("low.p50_ms", low.LatencyPercentileMs(0.50), "ms");
    metrics.Add("low.p75_ms", low.LatencyPercentileMs(kTail), "ms");
    metrics.Add("high.p50_ms", high.LatencyPercentileMs(0.50), "ms");
    metrics.Add("high.p75_ms", high.LatencyPercentileMs(kTail), "ms");
    metrics.Add("sat_rps", sat.CompletedRps(), "1/s");
    metrics.Add("batch_rps", Median(batch_rps), "1/s");
    metrics.Add("ok_ratio",
                static_cast<double>(served_ok) /
                    static_cast<double>(served_attempted),
                "ratio");
    metrics.Add("hr5", hr5, "ratio");
    metrics.Add("peak_rss_mb",
                static_cast<double>(util::PeakRssBytes()) / (1 << 20), "MB");
    metrics.Add("publish_s", Median(publish_s), "s");
    std::printf("[servebench] samples: setup_s=%zu low=%lld high=%lld "
                "sat=%lld batch=%lld hr5=%zu publish_s=%zu (latency and rate "
                "metrics are medians over %d rounds)\n",
                setup_s.size(), static_cast<long long>(low.ok()),
                static_cast<long long>(high.ok()),
                static_cast<long long>(sat.ok()),
                static_cast<long long>(batch_requests),
                eval_set.requests.size(), publish_s.size(), kRounds);
  } else {
    // Engine layer: queueing and resolution from the low phase (what a
    // client sees at light load), dispatch gaps and busy share from the
    // sat phase (what bounds throughput).
    std::vector<double> queue_ms, resolve_us;
    double batches = 0.0, batched = 0.0;
    if (fifo_ok) {
      low.ForEachRequest([&](const Span& root, const Completion& c) {
        queue_ms.push_back(static_cast<double>(root.start_ns - ToNs(c.sent)) *
                           1e-6);
        resolve_us.push_back(static_cast<double>(ToNs(c.ready) - root.end_ns) *
                             1e-3);
      });
    }
    for (const Slice& slice : low.slices) {
      for (int shard = 0; shard < kShards; ++shard) {
        for (const Span& span : slice.spans[shard]) {
          if (span.stage != Stage::kScoreBatch) continue;
          batches += 1.0;
          batched += span.count;
        }
      }
    }
    std::vector<double> gaps_us;
    double busy_ns = 0.0, sat_ns = 0.0;
    for (const Slice& slice : sat.slices) {
      const int64_t begin = ToNs(slice.result.start);
      const int64_t end = begin + static_cast<int64_t>(slice.result.seconds * 1e9);
      sat_ns += static_cast<double>(kShards) * (end - begin);
      for (int shard = 0; shard < kShards && fifo_ok; ++shard) {
        const std::vector<Completion>& fifo = slice.result.per_shard[shard];
        size_t next = 0;
        const Span* previous = nullptr;
        for (const Span& span : slice.spans[shard]) {
          if (span.stage != Stage::kScoreBatch) continue;
          busy_ns += static_cast<double>(std::max<int64_t>(
              0, std::min(span.end_ns, end) - std::max(span.start_ns, begin)));
          // A gap counts only while the shard's queue held a request.
          if (previous != nullptr &&
              ToNs(fifo[next].sent) < previous->end_ns) {
            gaps_us.push_back(
                static_cast<double>(span.start_ns - previous->end_ns) * 1e-3);
          }
          next += span.count;
          previous = &span;
        }
      }
    }
    std::sort(queue_ms.begin(), queue_ms.end());
    metrics.Add("engine.queue_wait_p50_ms",
                queue_ms.empty() ? 0.0 : Percentile(queue_ms, 0.50), "ms");
    metrics.Add("engine.queue_wait_p90_ms",
                queue_ms.empty() ? 0.0 : Percentile(queue_ms, 0.90), "ms");
    metrics.Add("engine.resolve_us",
                resolve_us.empty() ? 0.0 : Median(resolve_us), "us");
    metrics.Add("engine.dispatch_gap_us",
                gaps_us.empty() ? 0.0 : Median(gaps_us), "us");
    metrics.Add("engine.batch_size_mean",
                batches > 0.0 ? batched / batches : 0.0, "count");
    metrics.Add("engine.busy_share", busy_ns / sat_ns, "ratio");
    metrics.Add("engine.shed", static_cast<double>(shed), "count");
    metrics.Add("engine.scorer_failures", static_cast<double>(scorer_failures),
                "count");
    metrics.Add("engine.swaps_observed", static_cast<double>(swaps_observed),
                "count");
    metrics.Add("engine.publish_us", Median(swap_s) * 1e6, "us");

    // Scorer stages, from the traced calls of the batch phase.
    std::map<Stage, double> ns;
    double encoded_tokens = 0.0;
    for (const Slice& slice : batch.slices) {
      for (const Span& span : slice.spans[tracer.direct_slot()]) {
        ns[span.stage] += static_cast<double>(span.end_ns - span.start_ns);
        if (span.stage == Stage::kEncode) encoded_tokens += span.count;
      }
    }
    auto total = [&](Stage stage) {
      const auto it = ns.find(stage);
      return it == ns.end() ? 0.0 : it->second;
    };
    auto per_request_us = [&](Stage stage) {
      return total(stage) / static_cast<double>(batch_requests) * 1e-3;
    };
    const bool two_tier = workload.rerank_top_h > 0;
    const double teacher_ns =
        two_tier ? total(Stage::kRerank) : total(Stage::kScoreBatch);
    const double stage_ns = total(Stage::kPromptBuild) +
                            total(Stage::kPromptSplit) + total(Stage::kEncode) +
                            total(Stage::kHead) + total(Stage::kVerbalizer);
    metrics.Add("snapshot.score_us_per_req",
                per_request_us(Stage::kScoreBatch), "us");
    metrics.Add("snapshot.stage_coverage", stage_ns / teacher_ns, "ratio");
    metrics.Add("snapshot.build_ms", Median(build_s) * 1e3, "ms");
    metrics.Add("snapshot.first_batch_ms", Median(first_batch_s) * 1e3, "ms");
    metrics.Add("snapshot.footprint_bytes",
                static_cast<double>(reference.snapshot->MemoryFootprintBytes()),
                "bytes");
    metrics.Add("prompt.build_us", per_request_us(Stage::kPromptBuild), "us");
    metrics.Add("prompt.hint_us", per_request_us(Stage::kPromptHint), "us");
    metrics.Add("prompt.split_us", per_request_us(Stage::kPromptSplit), "us");
    metrics.Add("prompt.prefix_tokens", shape.prefix_tokens, "count");
    metrics.Add("prompt.suffix_tokens", shape.suffix_tokens, "count");
    metrics.Add("tiny_lm.encode_us", per_request_us(Stage::kEncode), "us");
    metrics.Add("tiny_lm.encode_ns_per_token",
                total(Stage::kEncode) / encoded_tokens, "ns");
    metrics.Add("tiny_lm.head_us", per_request_us(Stage::kHead), "us");
    metrics.Add("verbalizer.score_us", per_request_us(Stage::kVerbalizer),
                "us");
    metrics.Add("srmodels.retrieve_us", per_request_us(Stage::kRetrieve), "us");
    metrics.Add("eval.topk_us", per_request_us(Stage::kTopK), "us");
    metrics.Add("two_tier.rerank_us", per_request_us(Stage::kRerank), "us");
    metrics.Add("two_tier.coverage",
                two_tier ? (total(Stage::kRetrieve) + total(Stage::kTopK) +
                            total(Stage::kRerank)) /
                               total(Stage::kScoreBatch)
                         : 0.0,
                "ratio");
    metrics.Add("checkpoint.read_ms", Median(read_s) * 1e3, "ms");

    // Computed from tensor shapes, not timed: dense = the Q/K/V/O and FFN
    // projections, attention = QK^T and AV over prefix + suffix keys, head
    // = one vocab-wide LM-head row.
    const double d = static_cast<double>(ctx.llm_config.model_dim);
    const double f = static_cast<double>(ctx.llm_config.ffn_dim);
    const double layers = static_cast<double>(ctx.llm_config.num_layers);
    metrics.Add("nn.dense_mflop_per_req",
                layers * 2.0 * shape.suffix_tokens *
                    (4.0 * d * d + 2.0 * d * f) * 1e-6,
                "MFLOP");
    metrics.Add("nn.attention_mflop_per_req",
                layers * 4.0 * shape.attention_pairs * d * 1e-6, "MFLOP");
    metrics.Add("nn.head_mflop_per_req",
                2.0 * static_cast<double>(ctx.llm_config.vocab_size) * d * 1e-6,
                "MFLOP");
    metrics.Add("util.pool_fresh_allocs_per_req",
                static_cast<double>(sat_fresh_allocs) /
                    static_cast<double>(std::max<int64_t>(1, sat.ok())),
                "count");
    metrics.Add("util.pool_cached_mb",
                static_cast<double>(pool_cached_bytes) / (1 << 20), "MB");
    const std::vector<double> lag = high.LagMs();
    metrics.Add("gen.lag_p90_ms", Percentile(lag, 0.90), "ms");
    metrics.Add("gen.lag_p99_ms", Percentile(lag, 0.99), "ms");
    metrics.Add("gen.achieved_rps", high.AchievedRps(), "1/s");

    std::printf("[servebench] trace: engine.* from the low phase except "
                "dispatch_gap_us and busy_share (sat phase); stage metrics "
                "from %lld traced requests of the batch phase; gen.* from "
                "the high phase; nn.* computed from tensor shapes, not "
                "timed; two-tier stage metrics read 0 off the two-tier "
                "path\n",
                static_cast<long long>(batch_requests));
    std::printf("[servebench] tracing overhead: traced ScoreBatch %.4f s vs "
                "untraced %.4f s on the same batches (%+.2f%%)\n",
                traced_s, real_s, (traced_s / real_s - 1.0) * 100.0);
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, {&low, &high, &sat, &batch});
    }
  }
  metrics.PrintJson(correct, attempted, failed + mismatches);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace delrec::servebench

int main(int argc, char** argv) {
  using namespace delrec::servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --fixture <dir> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  for (const Workload& workload : kWorkloads) {
    if (args.workload == workload.name) return Run(workload, args);
  }
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}
