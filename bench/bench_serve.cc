// Serve-throughput bench (ctest -L serve): emits BENCH_serve.json.
//
// Trains a small DELRec at a serve-smoke config (short prompt: history
// window 1, 4 soft prompts, no SR hint text — serving amortization matters
// most when per-request GEMMs are small, and quality is not this bench's
// object), freezes it into a serve::EngineSnapshot, then measures the
// serving layer two ways:
//  1. Batched snapshot scoring vs the pre-PR one-at-a-time path (the live
//     model's ScoreCandidates through the DelRecScorer adapter) on the same
//     fixed request set. The serve layer must win by ≥1.5× (the PR's
//     acceptance floor; relaxed on pre-AVX2 hosts where the scalar GEMM
//     fallback flattens the gap). Both sides take the best of five
//     interleaved passes so a scheduling hiccup cannot decide the gate.
//  2. A RecommendationEngine under N concurrent client threads: sustained
//     requests/s plus client-observed p50/p99 latency and the dispatcher's
//     mean coalesced batch size.
//  3. The batched workload through an int8-quantized snapshot vs the fp32
//     one: serve throughput (no-regression floor — the serve-smoke prompt
//     is attention-dominated at model_dim 32, so the GEMM win is diluted
//     here) and the weight footprint shrink (≥3× floor, deterministic and
//     baseline-gated).
//  4. A serve-scale TinyLm (model_dim 256 — the width class quantized
//     serving exists for; the trained stand-in above is deliberately tiny)
//     measured straight through EncodeBatch+LogitsAtRows, fp32 vs
//     QuantizeForInference. This is the committed shape for the int8
//     tentpole's ≥2× serve-throughput floor, gated where the vpdpbusd tile
//     dispatches (nn/gemm_int8.h).
//  5. Prefix-KV-cached snapshot scoring vs the uncached TinyLm::EncodeBatch
//     reference across a prompt-shape sweep (three prefix:suffix ratios).
//     Scores are asserted bit-identical; the long-prefix shape carries the
//     ≥1.5× cached-vs-uncached throughput floor and records engine
//     prefix_tokens_skipped.
//  6. The two-tier backend sweep (DESIGN.md §16): the teacher is distilled
//     into a GRU4Rec student through the real export+trainer path, the
//     student blob is embedded into a rebuilt snapshot, and the same
//     request set is served teacher-only, student-only, and two-tier at
//     several re-rank depths h. Gates: student batched throughput ≥5× the
//     teacher's (this PR's acceptance floor — the reason the tier exists)
//     and two-tier HR@5/NDCG@5 within tolerance of teacher-only quality.
// Wall-clock metrics are unstable (no baseline gating); the JSON record
// exists for tracking, the floor asserts are the hard gates. Footprint
// metrics are deterministic and baseline-gated.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/checkpoint.h"
#include "data/event_stream.h"
#include "data/split.h"
#include "distill/export.h"
#include "distill/trainer.h"
#include "eval/protocol.h"
#include "llm/prompt.h"
#include "llm/tiny_lm.h"
#include "llm/verbalizer.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "serve/engine.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"
#include "serve/two_tier.h"
#include "srmodels/factory.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"

namespace delrec {
namespace {

constexpr int64_t kBatchSize = 16;
constexpr int kClientThreads = 4;
constexpr int kRequestsPerClient = 48;

std::vector<serve::ScoreRequest> MakeRequests(bench::DatasetHarness& harness,
                                              size_t count) {
  const auto& test = harness.workbench().splits().test;
  util::Rng rng(97);
  std::vector<serve::ScoreRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const data::Example& example = test[i % test.size()];
    serve::ScoreRequest request;
    request.history = example.history;
    request.candidates =
        data::SampleCandidates(harness.num_items(), example.target, 15, rng);
    requests.push_back(std::move(request));
  }
  return requests;
}

double Percentile(std::vector<double> sorted_ascending, double fraction) {
  DELREC_CHECK(!sorted_ascending.empty());
  const size_t index = std::min(
      sorted_ascending.size() - 1,
      static_cast<size_t>(fraction *
                          static_cast<double>(sorted_ascending.size())));
  return sorted_ascending[index];
}

/// Section 1: the same request set scored one-at-a-time through the live
/// model (the pre-PR serving path) and via snapshot ScoreBatch chunks.
/// Results are bit-identical (serve_test proves it); here we time the two
/// paths and gate the batched speedup.
void BenchBatchedVsSingle(bench::BenchRecorder& recorder,
                          const serve::Scorer& live_scorer,
                          const serve::EngineSnapshot& snapshot,
                          const std::vector<serve::ScoreRequest>& requests) {
  constexpr int kPasses = 5;
  // Warm-up both paths (first-touch pool allocations).
  live_scorer.Score(requests[0]);
  snapshot.ScoreBatch({requests[0], requests[1]});

  // Passes interleave the two sides so a slow stretch of the machine (this
  // is a wall-clock bench on a shared host) degrades the same pass of both,
  // and the min picks a matched-conditions pass for each side.
  double single_s = std::numeric_limits<double>::infinity();
  double batched_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < kPasses; ++pass) {
    util::WallTimer single_timer;
    for (const serve::ScoreRequest& request : requests) {
      live_scorer.Score(request);
    }
    single_s = std::min(single_s, single_timer.ElapsedSeconds());

    util::WallTimer batched_timer;
    for (size_t begin = 0; begin < requests.size();
         begin += static_cast<size_t>(kBatchSize)) {
      const size_t end =
          std::min(begin + static_cast<size_t>(kBatchSize), requests.size());
      snapshot.ScoreBatch(std::vector<serve::ScoreRequest>(
          requests.begin() + begin, requests.begin() + end));
    }
    batched_s = std::min(batched_s, batched_timer.ElapsedSeconds());
  }

  const double n = static_cast<double>(requests.size());
  const double speedup = single_s / batched_s;
  recorder.Record("serve_requests", n, "requests", bench::MetricKind::kCount,
                  /*stable=*/true);
  recorder.Record("serve_single_rps", n / single_s, "requests/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_batched_rps", n / batched_s, "requests/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_batch_speedup_vs_single", speedup, "x",
                  bench::MetricKind::kRatio);
  std::printf("[serve] single %.1f req/s, batched(%lld) %.1f req/s, "
              "speedup %.2fx\n",
              n / single_s, static_cast<long long>(kBatchSize), n / batched_s,
              speedup);

  // Acceptance floor: the batched serve path must be ≥1.5× the pre-PR
  // one-at-a-time path on these shapes. The scalar GEMM fallback
  // reorganizes the same arithmetic without wider registers, so it only has
  // to not regress.
  const double floor = bench::GemmHasSimdTiles() ? 1.5 : 1.0;
  DELREC_CHECK_GE(speedup, floor)
      << "batched serve speedup below floor (" << speedup << " < " << floor
      << ") with kernel " << nn::GemmKernelConfig();
}

/// Section 3: the same batched workload through an int8-quantized snapshot
/// vs the fp32 one (DESIGN.md §13). Times interleave like section 1. Besides
/// the int8 projections, the int8 snapshot runs the vectorized attention
/// softmax and GELU of nn/vecmath.h where the fp32 one keeps std::exp and
/// std::tanh, so at this serve-smoke shape (model_dim 32, short prompts) the
/// ratio prices both. The gate here is a loose floor; the tentpole's ≥2×
/// floor binds in section 4 at serve-scale width. The weight footprint
/// shrink is recorded as a stable (deterministic) metric so a packing
/// regression cannot land silently.
void BenchInt8VsFp32(bench::BenchRecorder& recorder,
                     const serve::EngineSnapshot& fp32_snapshot,
                     const serve::EngineSnapshot& int8_snapshot,
                     const std::vector<serve::ScoreRequest>& requests) {
  constexpr int kPasses = 5;
  fp32_snapshot.ScoreBatch({requests[0], requests[1]});
  int8_snapshot.ScoreBatch({requests[0], requests[1]});

  auto timed_batched = [&](const serve::EngineSnapshot& snapshot) {
    util::WallTimer timer;
    for (size_t begin = 0; begin < requests.size();
         begin += static_cast<size_t>(kBatchSize)) {
      const size_t end =
          std::min(begin + static_cast<size_t>(kBatchSize), requests.size());
      snapshot.ScoreBatch(std::vector<serve::ScoreRequest>(
          requests.begin() + begin, requests.begin() + end));
    }
    return timer.ElapsedSeconds();
  };
  double fp32_s = std::numeric_limits<double>::infinity();
  double int8_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < kPasses; ++pass) {
    fp32_s = std::min(fp32_s, timed_batched(fp32_snapshot));
    int8_s = std::min(int8_s, timed_batched(int8_snapshot));
  }

  const double n = static_cast<double>(requests.size());
  const double speedup = fp32_s / int8_s;
  const double fp32_bytes =
      static_cast<double>(fp32_snapshot.MemoryFootprintBytes());
  const double int8_bytes =
      static_cast<double>(int8_snapshot.MemoryFootprintBytes());
  recorder.Record("serve_int8_rps", n / int8_s, "requests/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_int8_speedup_vs_fp32", speedup, "x",
                  bench::MetricKind::kRatio);
  recorder.Record("serve_fp32_footprint_bytes", fp32_bytes, "bytes",
                  bench::MetricKind::kCount, /*stable=*/true);
  recorder.Record("serve_int8_footprint_bytes", int8_bytes, "bytes",
                  bench::MetricKind::kCount, /*stable=*/true);
  recorder.Record("serve_int8_footprint_shrink", fp32_bytes / int8_bytes, "x",
                  bench::MetricKind::kRatio, /*stable=*/true);
  std::printf("[serve] int8 %.1f req/s vs fp32 %.1f req/s (%.2fx), "
              "footprint %.0f -> %.0f bytes (%.2fx)\n",
              n / int8_s, n / fp32_s, speedup, fp32_bytes, int8_bytes,
              fp32_bytes / int8_bytes);

  // Acceptance floors: the quantized snapshot must shrink serve-path weight
  // bytes by ≥3× (the table and dense matrices go 4×; fp32 LN/bias/position
  // state dilutes it). The ratio is taken with the prefix KV cache excluded:
  // the cache is deliberately fp32 on both snapshots (identical absolute
  // bytes each side), so including it would let a larger soft-prompt config
  // dilute a gate that measures quantization packing. The full-footprint
  // shrink is still recorded (stable) above. Throughput at this shape must
  // not regress where the vpdpbusd tile dispatches (measured ~2× there — the
  // 1.3 floor leaves headroom for a noisy shared host); the weaker tiles
  // only have to keep the comparison recorded.
  const serve::SnapshotFootprint fp32_parts = fp32_snapshot.MemoryFootprint();
  const serve::SnapshotFootprint int8_parts = int8_snapshot.MemoryFootprint();
  const double cache_free_shrink =
      static_cast<double>(fp32_parts.total() - fp32_parts.prefix_cache_bytes) /
      static_cast<double>(int8_parts.total() - int8_parts.prefix_cache_bytes);
  DELREC_CHECK_GE(cache_free_shrink, 3.0)
      << "int8 snapshot footprint shrink below floor";
  if (nn::Int8KernelIsa() == "avxvnni") {
    DELREC_CHECK_GE(speedup, 1.3)
        << "int8 serve speedup below no-regression floor (" << speedup
        << ") with kernel " << nn::Int8GemmKernelConfig();
  }
}

/// Section 4: the committed shape for the int8 tentpole's ≥2× floor. The
/// trained serve-smoke model above is deliberately tiny (model_dim 32) and
/// its serve pass is attention-bound; production LLM backbones live at
/// hundreds-to-thousands of hidden dims where the dense projections are the
/// pass. This section builds the same TinyLm at serve-scale width (raw
/// seeded weights — GEMM wall-clock is data-independent, so no training is
/// needed to measure throughput), quantizes a twin via
/// TinyLm::QuantizeForInference (the exact transform EngineSnapshot's
/// quantize_int8 option applies), and drives both through the
/// EncodeBatch+LogitsAtRows serve tier.
void BenchServeScaleInt8(bench::BenchRecorder& recorder) {
  llm::TinyLmConfig config;
  config.vocab_size = 1740;
  config.model_dim = 256;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_dim = 512;
  config.max_positions = 64;
  config.dropout = 0.0f;
  constexpr int64_t kSeqLen = 8;
  constexpr uint64_t kSeed = 7;

  // Twin models from the same seed: identical weights, one quantized.
  llm::TinyLm fp32_lm(config, kSeed);
  fp32_lm.SetTraining(false);
  fp32_lm.SetRequiresGrad(false);
  llm::TinyLm int8_lm(config, kSeed);
  int8_lm.SetTraining(false);
  int8_lm.SetRequiresGrad(false);
  int8_lm.QuantizeForInference();

  util::Rng rng(131);
  std::vector<std::vector<llm::PromptPiece>> prompts;
  for (int64_t b = 0; b < kBatchSize; ++b) {
    std::vector<int64_t> tokens;
    for (int64_t t = 0; t < kSeqLen; ++t) {
      tokens.push_back(rng.UniformInt(0, config.vocab_size - 1));
    }
    prompts.push_back({llm::PromptPiece::Tokens(std::move(tokens))});
  }
  std::vector<const std::vector<llm::PromptPiece>*> ptrs;
  for (const auto& prompt : prompts) ptrs.push_back(&prompt);
  std::vector<int64_t> head_rows;
  for (int64_t b = 0; b < kBatchSize; ++b) {
    head_rows.push_back(b * kSeqLen + kSeqLen - 1);
  }

  const nn::Tensor fp32_table = fp32_lm.MaterializeTokenTable();
  const nn::Tensor int8_table;  // Quantized model gathers from its own codes.
  auto timed_pass = [&](const llm::TinyLm& lm, const nn::Tensor& table) {
    std::vector<llm::SequenceSpan> spans;
    util::WallTimer timer;
    const nn::Tensor hidden = lm.EncodeBatch(ptrs, table, &spans);
    lm.LogitsAtRows(hidden, head_rows, table);
    return timer.ElapsedSeconds();
  };
  timed_pass(fp32_lm, fp32_table);  // Warm-up (pool first-touch).
  timed_pass(int8_lm, int8_table);

  constexpr int kPasses = 5;
  double fp32_s = std::numeric_limits<double>::infinity();
  double int8_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < kPasses; ++pass) {
    fp32_s = std::min(fp32_s, timed_pass(fp32_lm, fp32_table));
    int8_s = std::min(int8_s, timed_pass(int8_lm, int8_table));
  }

  const double sequences = static_cast<double>(kBatchSize);
  const double speedup = fp32_s / int8_s;
  const double fp32_bytes = static_cast<double>(fp32_lm.InferenceWeightBytes());
  const double int8_bytes = static_cast<double>(int8_lm.InferenceWeightBytes());
  recorder.Record("serve_scale_fp32_sps", sequences / fp32_s, "sequences/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_scale_int8_sps", sequences / int8_s, "sequences/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_scale_int8_speedup", speedup, "x",
                  bench::MetricKind::kRatio);
  recorder.Record("serve_scale_fp32_weight_bytes", fp32_bytes, "bytes",
                  bench::MetricKind::kCount, /*stable=*/true);
  recorder.Record("serve_scale_int8_weight_bytes", int8_bytes, "bytes",
                  bench::MetricKind::kCount, /*stable=*/true);
  std::printf("[serve] serve-scale(d=%lld): int8 %.1f seq/s vs fp32 %.1f "
              "seq/s (%.2fx), weights %.1f MB -> %.1f MB\n",
              static_cast<long long>(config.model_dim), sequences / int8_s,
              sequences / fp32_s, speedup, fp32_bytes / 1e6, int8_bytes / 1e6);

  // The tentpole floor: ≥2× serve throughput where the vpdpbusd tile
  // dispatches (measured ~3.5× on the reference host — the floor leaves a
  // wide noise margin). The pmaddwd fallbacks win less per instruction and
  // gate no-regression; the scalar tile trades a byte-unpack per MAC for no
  // register-width win, so it carries no throughput promise. The ~4× weight
  // shrink is deterministic and gates everywhere.
  const std::string isa = nn::Int8KernelIsa();
  if (isa == "avxvnni") {
    DELREC_CHECK_GE(speedup, 2.0)
        << "serve-scale int8 speedup below the 2x tentpole floor ("
        << speedup << ") with kernel " << nn::Int8GemmKernelConfig();
  } else if (isa != "scalar") {
    DELREC_CHECK_GE(speedup, 1.0)
        << "serve-scale int8 speedup regressed (" << speedup
        << ") with kernel " << nn::Int8GemmKernelConfig();
  }
  DELREC_CHECK_GE(fp32_bytes / int8_bytes, 3.5)
      << "serve-scale weight shrink below floor";
}

/// Section 5: the prefix KV cache (DESIGN.md §15) across three prompt
/// shapes — prefix:suffix ratios from suffix-heavy to prefix-heavy, steered
/// by soft_prompt_count (prefix length) and history_length (suffix length).
/// Each shape freezes a snapshot of an untrained model (wall-clock is
/// weight-independent, like section 4). Its ScoreBatch is the cached side.
/// The uncached side scores the same batches through the snapshot's own
/// model without the cache: each whole prompt through TinyLm::EncodeBatch
/// with its frozen-head boundary, then LogitsAtRows and a Verbalizer. Scores
/// are asserted bit-identical on the full request set before batched
/// serving is timed both ways. Counts (prefix length, engine tokens
/// skipped) are deterministic and baseline-gated; timings are advisory
/// except the long-prefix shape, which carries the ≥1.5× cached-vs-uncached
/// acceptance floor — that is the shape the cache exists for (a shared
/// instruction+pattern-knowledge head dominating the prompt).
void BenchPrefixCache(bench::BenchRecorder& recorder,
                      bench::DatasetHarness& harness,
                      const serve::EngineSnapshot::Sources& sources,
                      const std::vector<serve::ScoreRequest>& requests) {
  struct PrefixShape {
    const char* name;
    int64_t soft_prompts;  // Prefix driver: pattern-knowledge rows.
    int64_t history;       // Suffix driver: items rendered per request.
    bool gated;            // Carries the ≥1.5× acceptance floor.
  };
  const PrefixShape shapes[] = {
      {"short", 4, 8, false},    // Suffix-heavy: cache saves little.
      {"balanced", 16, 4, false},
      {"long", 48, 1, true},     // Prefix-heavy: the cache's home turf.
  };
  auto llm = harness.workbench().MakePretrainedLlm(core::LlmSize::kBase);
  constexpr int kPasses = 5;

  for (const PrefixShape& shape : shapes) {
    core::DelRecConfig config = harness.DelRecDefaults();
    config.soft_prompt_count = shape.soft_prompts;
    config.history_length = shape.history;
    config.sr_hints_in_stage2 = false;
    core::DelRec model(&harness.workbench().dataset().catalog,
                       &harness.workbench().vocab(), llm.get(),
                       harness.Backbone(srmodels::Backbone::kSasRec), config);
    auto built = serve::EngineSnapshot::FromModel(model, *llm, sources);
    DELREC_CHECK(built.ok()) << built.status().ToString();
    const serve::EngineSnapshot& snapshot = *built.value();
    const int64_t prefix_tokens = snapshot.CachedPrefixLength();
    DELREC_CHECK_GT(prefix_tokens, 0);

    using Batch = std::vector<serve::ScoreRequest>;
    const auto cached = [&](const Batch& batch) {
      return snapshot.ScoreBatch(batch);
    };
    const llm::TinyLm& lm = snapshot.llm();
    const nn::Tensor table = lm.MaterializeTokenTable();
    const llm::PromptBuilder builder(sources.catalog, sources.vocab);
    const llm::Verbalizer verbalizer(*sources.catalog, *sources.vocab);
    const auto uncached = [&](const Batch& batch) {
      std::vector<llm::Prompt> prompts;
      for (const serve::ScoreRequest& request : batch) {
        prompts.push_back(core::inference::BuildScoringPrompt(
            snapshot.config(), builder, *sources.sr_model,
            snapshot.soft_prompts(), request.history, request.candidates));
      }
      std::vector<const std::vector<llm::PromptPiece>*> pieces;
      std::vector<int64_t> prefix_lengths;
      for (const llm::Prompt& prompt : prompts) {
        pieces.push_back(&prompt.pieces);
        prefix_lengths.push_back(prompt.prefix_length);
      }
      std::vector<llm::SequenceSpan> spans;
      const nn::Tensor hidden =
          lm.EncodeBatch(pieces, table, &spans, &prefix_lengths);
      std::vector<int64_t> mask_rows;
      for (size_t i = 0; i < prompts.size(); ++i) {
        mask_rows.push_back(spans[i].begin + prompts[i].mask_position);
      }
      const nn::Tensor logits = lm.LogitsAtRows(hidden, mask_rows, table);
      std::vector<std::vector<float>> scores;
      for (size_t i = 0; i < batch.size(); ++i) {
        scores.push_back(verbalizer.ScoresFromRow(
            logits.data().data() + i * lm.vocab_size(), batch[i].candidates));
      }
      return scores;
    };

    // The cache must be invisible in the output: bit-identical scores on
    // the full request set before any timing is trusted.
    DELREC_CHECK(cached(requests) == uncached(requests))
        << "cached scores diverged from uncached at shape " << shape.name;

    auto timed_batched = [&](const auto& score_batch) {
      util::WallTimer timer;
      for (size_t begin = 0; begin < requests.size();
           begin += static_cast<size_t>(kBatchSize)) {
        const size_t end = std::min(begin + static_cast<size_t>(kBatchSize),
                                    requests.size());
        score_batch(Batch(requests.begin() + begin, requests.begin() + end));
      }
      return timer.ElapsedSeconds();
    };
    timed_batched(cached);  // Warm-up.
    timed_batched(uncached);
    double cached_s = std::numeric_limits<double>::infinity();
    double uncached_s = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      uncached_s = std::min(uncached_s, timed_batched(uncached));
      cached_s = std::min(cached_s, timed_batched(cached));
    }

    const double n = static_cast<double>(requests.size());
    const double speedup = uncached_s / cached_s;
    const std::string prefix = std::string("serve_prefix_") + shape.name;
    recorder.Record(prefix + "_prefix_tokens",
                    static_cast<double>(prefix_tokens), "tokens",
                    bench::MetricKind::kCount, /*stable=*/true);
    recorder.Record(prefix + "_uncached_rps", n / uncached_s, "requests/s",
                    bench::MetricKind::kThroughput);
    recorder.Record(prefix + "_cached_rps", n / cached_s, "requests/s",
                    bench::MetricKind::kThroughput);
    recorder.Record(prefix + "_cached_speedup", speedup, "x",
                    bench::MetricKind::kRatio);
    std::printf("[serve] prefix-cache(%s, prefix=%lld): cached %.1f req/s "
                "vs uncached %.1f req/s (%.2fx)\n",
                shape.name, static_cast<long long>(prefix_tokens),
                n / cached_s, n / uncached_s, speedup);

    if (!shape.gated) continue;

    // End-to-end stat wiring at the gated shape: an engine pass over the
    // cached snapshot must account prefix_tokens_skipped = scored × prefix
    // length — deterministic, so it gates against the committed baseline.
    serve::EngineOptions engine_options;
    engine_options.max_batch_size = kBatchSize;
    serve::RecommendationEngine engine(&snapshot, engine_options);
    for (const serve::ScoreRequest& request : requests) {
      engine.ScoreCandidates(request.history, request.candidates);
    }
    engine.Shutdown();
    const serve::RecommendationEngine::Stats stats = engine.GetStats();
    DELREC_CHECK_EQ(stats.prefix_tokens_skipped,
                    stats.scored * static_cast<uint64_t>(prefix_tokens));
    recorder.Record("serve_prefix_tokens_skipped",
                    static_cast<double>(stats.prefix_tokens_skipped),
                    "tokens", bench::MetricKind::kCount, /*stable=*/true);
    recorder.Record("serve_cached_speedup_vs_uncached", speedup, "x",
                    bench::MetricKind::kRatio);

    // The PR's acceptance floor: at the long-prefix serve shape the cached
    // path must win ≥1.5× (measured well above that on the reference host —
    // the uncached side re-encodes a 48-row soft block plus the instruction
    // run per request, the cached side only each request's short tail). The
    // scalar GEMM fallback reorganizes the same arithmetic without wider
    // registers, so there it only has to not regress.
    const double floor = bench::GemmHasSimdTiles() ? 1.5 : 1.0;
    DELREC_CHECK_GE(speedup, floor)
        << "cached-vs-uncached serve speedup below floor (" << speedup
        << " < " << floor << ") with kernel " << nn::GemmKernelConfig();
  }
}

/// Section 2: concurrent clients against the micro-batching engine.
void BenchEngineThroughput(bench::BenchRecorder& recorder,
                           const serve::EngineSnapshot& snapshot,
                           const std::vector<serve::ScoreRequest>& requests) {
  serve::EngineOptions options;
  options.max_batch_size = kBatchSize;
  serve::RecommendationEngine engine(&snapshot, options);

  std::vector<std::vector<double>> latencies(kClientThreads);
  util::WallTimer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const serve::ScoreRequest& request =
            requests[(c + i * kClientThreads) % requests.size()];
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
  for (const std::vector<double>& client : latencies) {
    all.insert(all.end(), client.begin(), client.end());
  }
  std::sort(all.begin(), all.end());
  const double total = static_cast<double>(all.size());
  const serve::RecommendationEngine::Stats stats = engine.GetStats();
  DELREC_CHECK_EQ(stats.requests, all.size());

  // Stable counts: the workload is fixed, so these gate against the
  // committed baseline (a drift means the bench silently changed shape).
  recorder.Record("serve_engine_requests", total, "requests",
                  bench::MetricKind::kCount, /*stable=*/true);
  recorder.Record("serve_engine_shed",
                  static_cast<double>(stats.shed_queue_full +
                                      stats.shed_deadline +
                                      stats.shed_shutdown +
                                      stats.scorer_failures),
                  "requests", bench::MetricKind::kCount, /*stable=*/true);
  recorder.Record("serve_engine_rps", total / wall_s, "requests/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_engine_p50_latency_ms", Percentile(all, 0.50) * 1e3,
                  "ms", bench::MetricKind::kTime);
  recorder.Record("serve_engine_p99_latency_ms", Percentile(all, 0.99) * 1e3,
                  "ms", bench::MetricKind::kTime);
  recorder.Record("serve_engine_mean_batch", stats.mean_batch, "requests",
                  bench::MetricKind::kRatio);
  std::printf("[serve] engine: %d clients, %.1f req/s, p50 %.2f ms, "
              "p99 %.2f ms, mean batch %.2f (max %llu over %llu batches)\n",
              kClientThreads, total / wall_s, Percentile(all, 0.50) * 1e3,
              Percentile(all, 0.99) * 1e3, stats.mean_batch,
              static_cast<unsigned long long>(stats.max_batch),
              static_cast<unsigned long long>(stats.batches));
}

/// Section 6: the two-tier quality/throughput frontier (DESIGN.md §16).
/// Runs the real distillation pipeline — teacher-list export off an
/// EventStream, ranking-distillation fine-tune of a GRU4Rec student, blob
/// embedding through core::DelRecBlobs::student_blob — then sweeps the
/// serving backends on one request set and one candidate-eval protocol.
void BenchTwoTier(bench::BenchRecorder& recorder,
                  bench::DatasetHarness& harness,
                  const core::DelRec& model, const llm::TinyLm& llm,
                  const serve::EngineSnapshot::Sources& sources,
                  const std::vector<serve::ScoreRequest>& requests) {
  // Distill: export teacher lists from the frozen artifact (the snapshot the
  // blob path below rebuilds scores bit-identically to this one). The other
  // sections run the deliberately tiny hl=1 smoke prompt (the batching
  // regime); the frontier claim is about real serving, so this section
  // rebuilds the same weights behind a serve-realistic prompt window — the
  // same window the student is distilled on.
  core::DelRecBlobs blobs = core::ExtractDelRecBlobs(model, llm);
  core::DelRecConfig serve_config = model.config();
  serve_config.history_length = 8;
  auto teacher_only = serve::EngineSnapshot::FromBlobs(
      blobs, llm.config(), serve_config, sources);
  DELREC_CHECK(teacher_only.ok()) << teacher_only.status().ToString();

  distill::TeacherExportOptions export_options;
  export_options.top_k = 4;
  export_options.candidate_pool = 20;
  export_options.history_length = 8;
  export_options.batch_size = 16;
  export_options.max_users = 96;
  data::EventStream stream(harness.workbench().dataset());
  auto exported = distill::ExportTeacherLists(
      *teacher_only.value(), stream, harness.num_items(), export_options);
  DELREC_CHECK(exported.ok()) << exported.status().ToString();
  recorder.Record("serve_two_tier_distill_examples",
                  static_cast<double>(exported.value().examples.size()),
                  "examples", bench::MetricKind::kCount, /*stable=*/true);

  srmodels::StudentSpec spec;
  spec.backbone = srmodels::Backbone::kGru4Rec;
  spec.num_items = harness.num_items();
  spec.history_length = export_options.history_length;
  spec.seed = 23;
  auto student = srmodels::MakeBackbone(spec.backbone, spec.num_items,
                                        spec.history_length, spec.seed);
  distill::DistillTrainConfig train_config;
  train_config.base = srmodels::BackboneTrainConfig(spec.backbone);
  train_config.base.epochs = 2;
  train_config.base.history_length = spec.history_length;
  auto distilled =
      distill::DistillStudent(*student, exported.value(), train_config);
  DELREC_CHECK(distilled.ok()) << distilled.status().ToString();

  // Embed: attach the student blob and rebuild — one artifact now carries
  // both tiers, the shape PublishSnapshot hot-swaps atomically.
  blobs.student_blob = srmodels::SerializeStudent(spec, *student);
  auto built = serve::EngineSnapshot::FromBlobs(blobs, llm.config(),
                                                serve_config, sources);
  DELREC_CHECK(built.ok()) << built.status().ToString();
  std::shared_ptr<const serve::EngineSnapshot> two_tier_snapshot(
      std::move(built.value()));
  DELREC_CHECK(two_tier_snapshot->has_student());
  recorder.Record(
      "serve_two_tier_student_params",
      static_cast<double>(two_tier_snapshot->student()->ParameterCount()),
      "params", bench::MetricKind::kCount, /*stable=*/true);

  const std::unique_ptr<serve::Scorer> student_scorer =
      serve::MakeSequentialScorer(two_tier_snapshot->student());
  constexpr int64_t kRerankDepths[] = {2, 4, 8};
  std::vector<std::shared_ptr<const serve::Scorer>> two_tier;
  for (const int64_t h : kRerankDepths) {
    serve::TwoTierOptions options;
    options.rerank_top_h = h;
    auto composed = serve::MakeSnapshotTwoTier(two_tier_snapshot, options);
    DELREC_CHECK(composed.ok()) << composed.status().ToString();
    two_tier.push_back(std::move(composed.value()));
  }

  // Throughput: the same batched pass as section 1 over every backend.
  auto timed_batched = [&](const serve::Scorer& scorer) {
    constexpr int kPasses = 3;
    double best = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass <= kPasses; ++pass) {  // Pass 0 is warm-up.
      util::WallTimer timer;
      for (size_t begin = 0; begin < requests.size();
           begin += static_cast<size_t>(kBatchSize)) {
        const size_t end =
            std::min(begin + static_cast<size_t>(kBatchSize), requests.size());
        scorer.ScoreBatch(std::vector<serve::ScoreRequest>(
            requests.begin() + begin, requests.begin() + end));
      }
      if (pass > 0) best = std::min(best, timer.ElapsedSeconds());
    }
    return best;
  };
  const double n = static_cast<double>(requests.size());
  const double teacher_s = timed_batched(*two_tier_snapshot);
  const double student_s = timed_batched(*student_scorer);
  recorder.Record("serve_two_tier_teacher_rps", n / teacher_s, "requests/s",
                  bench::MetricKind::kThroughput);
  recorder.Record("serve_two_tier_student_rps", n / student_s, "requests/s",
                  bench::MetricKind::kThroughput);
  const double student_speedup = teacher_s / student_s;
  recorder.Record("serve_two_tier_student_speedup", student_speedup, "x",
                  bench::MetricKind::kRatio);

  // Layer numbers of the SR tier (DESIGN.md §17): per-request µs of the
  // student's and the SASRec hint backbone's tape-free ScoreAllItemsBatch
  // at batch 1 and 16, and of the autograd TrainingLogits forward it
  // replaced at inference, all over the same histories. Advisory timings.
  std::vector<std::vector<int64_t>> histories;
  for (const serve::ScoreRequest& request : requests) {
    histories.push_back(request.history);
  }
  auto per_request_us = [&](const auto& pass) {
    constexpr int kPasses = 3;
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i <= kPasses; ++i) {  // Pass 0 is warm-up.
      util::WallTimer timer;
      pass();
      if (i > 0) best = std::min(best, timer.ElapsedSeconds());
    }
    return best / static_cast<double>(histories.size()) * 1e6;
  };
  auto record_sr_layers = [&](const std::string& name,
                              const srmodels::SequentialRecommender& sr) {
    const double batch1_us = per_request_us([&] {
      for (const std::vector<int64_t>& history : histories) {
        sr.ScoreAllItemsBatch({history});
      }
    });
    const double batch16_us = per_request_us([&] {
      for (size_t begin = 0; begin < histories.size(); begin += kBatchSize) {
        const size_t end = std::min(begin + static_cast<size_t>(kBatchSize),
                                    histories.size());
        sr.ScoreAllItemsBatch(std::vector<std::vector<int64_t>>(
            histories.begin() + begin, histories.begin() + end));
      }
    });
    const double autograd_us = per_request_us([&] {
      nn::NoGradGuard no_grad;
      util::Rng rng(0);
      for (const std::vector<int64_t>& history : histories) {
        sr.TrainingLogits(history, 0.0f, rng);
      }
    });
    const std::string prefix = "serve_sr_" + name;
    recorder.Record(prefix + "_batch1_us", batch1_us, "us",
                    bench::MetricKind::kTime);
    recorder.Record(prefix + "_batch16_us", batch16_us, "us",
                    bench::MetricKind::kTime);
    recorder.Record(prefix + "_autograd_us", autograd_us, "us",
                    bench::MetricKind::kTime);
    std::printf("[serve] %s ScoreAllItemsBatch: %.1f us/req at batch 1, "
                "%.1f at batch %lld; autograd TrainingLogits %.1f us/req\n",
                name.c_str(), batch1_us, batch16_us,
                static_cast<long long>(kBatchSize), autograd_us);
  };
  record_sr_layers("student", *two_tier_snapshot->student());
  record_sr_layers("sasrec", *sources.sr_model);

  // Quality: the harness protocol (fixed candidate sets — every backend
  // ranks identical pools) per backend.
  auto evaluate = [&](const serve::Scorer& scorer) {
    return harness
        .Evaluate([&](const data::Example& example,
                      const std::vector<int64_t>& candidates) {
          serve::ScoreRequest request;
          request.history = example.history;
          request.candidates = candidates;
          return scorer.Score(request);
        })
        .Result();
  };
  const eval::RankedMetrics teacher_quality = evaluate(*two_tier_snapshot);
  const eval::RankedMetrics student_quality = evaluate(*student_scorer);
  recorder.Record("serve_two_tier_teacher_hr5", teacher_quality.hr_at_5, "",
                  bench::MetricKind::kRatio);
  recorder.Record("serve_two_tier_teacher_ndcg5", teacher_quality.ndcg_at_5,
                  "", bench::MetricKind::kRatio);
  recorder.Record("serve_two_tier_student_hr5", student_quality.hr_at_5, "",
                  bench::MetricKind::kRatio);
  std::printf("[serve] two-tier: teacher %.1f req/s (HR@5 %.3f), student "
              "%.1f req/s (HR@5 %.3f, %.1fx)\n",
              n / teacher_s, teacher_quality.hr_at_5, n / student_s,
              student_quality.hr_at_5, student_speedup);

  double frontier_hr5 = 0.0;
  double frontier_ndcg5 = 0.0;
  for (size_t i = 0; i < two_tier.size(); ++i) {
    const double tier_s = timed_batched(*two_tier[i]);
    const eval::RankedMetrics quality = evaluate(*two_tier[i]);
    const std::string prefix =
        "serve_two_tier_h" + std::to_string(kRerankDepths[i]);
    recorder.Record(prefix + "_rps", n / tier_s, "requests/s",
                    bench::MetricKind::kThroughput);
    recorder.Record(prefix + "_hr5", quality.hr_at_5, "",
                    bench::MetricKind::kRatio);
    recorder.Record(prefix + "_ndcg5", quality.ndcg_at_5, "",
                    bench::MetricKind::kRatio);
    std::printf("[serve] two-tier h=%lld: %.1f req/s, HR@5 %.3f, "
                "NDCG@5 %.3f\n",
                static_cast<long long>(kRerankDepths[i]), n / tier_s,
                quality.hr_at_5, quality.ndcg_at_5);
    frontier_hr5 = std::max(frontier_hr5, quality.hr_at_5);
    frontier_ndcg5 = std::max(frontier_ndcg5, quality.ndcg_at_5);
  }

  // Acceptance floors. (1) The student must be ≥5× the teacher on batched
  // throughput — a ragged-lockstep GRU sweep over 15-item pools vs a
  // transformer prompt encode; measured ~13× on the reference host, and the
  // gap is architectural (layers of GEMMs over prompt tokens vs one (B, D)
  // recurrence), so the floor holds on every ISA. (2) The best two-tier point must hold teacher-class quality:
  // HR@5/NDCG@5 within an absolute 0.15 of teacher-only on this smoke-sized
  // eval (30 examples ⇒ one example moves HR@5 by 0.033; the tolerance
  // allows a few boundary flips, not a collapse to student-only quality).
  DELREC_CHECK_GE(student_speedup, 5.0)
      << "student throughput below the 5x floor (" << student_speedup
      << "x) with kernel " << nn::GemmKernelConfig();
  DELREC_CHECK_GE(frontier_hr5, teacher_quality.hr_at_5 - 0.15)
      << "two-tier HR@5 fell outside tolerance (" << frontier_hr5 << " vs "
      << teacher_quality.hr_at_5 << ")";
  DELREC_CHECK_GE(frontier_ndcg5, teacher_quality.ndcg_at_5 - 0.15)
      << "two-tier NDCG@5 fell outside tolerance (" << frontier_ndcg5
      << " vs " << teacher_quality.ndcg_at_5 << ")";
}

void ValidateEmittedJson(const std::string& path) {
  std::ifstream in(path);
  DELREC_CHECK(static_cast<bool>(in)) << "missing bench JSON " << path;
  std::ostringstream text;
  text << in.rdbuf();
  util::Json doc;
  const util::Status parsed = util::Json::Parse(text.str(), &doc);
  DELREC_CHECK(parsed.ok()) << parsed.ToString();
  const util::Status valid = bench::BenchRecorder::ValidateSchema(doc);
  DELREC_CHECK(valid.ok()) << valid.ToString();
  DELREC_CHECK(doc.Find("bench")->str() == "serve");
  const util::Json* metrics = doc.Find("metrics");
  bool has_rps = false, has_speedup = false, has_int8 = false,
       has_scale = false, has_cached = false, has_skipped = false,
       has_sweep = false, has_student = false, has_frontier = false;
  for (size_t i = 0; i < metrics->size(); ++i) {
    const std::string& name = metrics->at(i).Find("name")->str();
    has_rps = has_rps || name == "serve_engine_rps";
    has_speedup = has_speedup || name == "serve_batch_speedup_vs_single";
    has_int8 = has_int8 || name == "serve_int8_speedup_vs_fp32";
    has_scale = has_scale || name == "serve_scale_int8_speedup";
    has_cached = has_cached || name == "serve_cached_speedup_vs_uncached";
    has_skipped = has_skipped || name == "serve_prefix_tokens_skipped";
    has_sweep = has_sweep || name == "serve_prefix_short_prefix_tokens";
    has_student = has_student || name == "serve_two_tier_student_speedup";
    has_frontier = has_frontier || name == "serve_two_tier_h8_hr5";
  }
  DELREC_CHECK(has_rps) << "engine throughput missing from " << path;
  DELREC_CHECK(has_speedup) << "batched speedup missing from " << path;
  DELREC_CHECK(has_int8) << "int8 comparison missing from " << path;
  DELREC_CHECK(has_scale) << "serve-scale int8 section missing from " << path;
  DELREC_CHECK(has_cached) << "prefix-cache comparison missing from " << path;
  DELREC_CHECK(has_skipped) << "prefix_tokens_skipped missing from " << path;
  DELREC_CHECK(has_sweep) << "prompt-shape sweep missing from " << path;
  DELREC_CHECK(has_student) << "two-tier student sweep missing from " << path;
  DELREC_CHECK(has_frontier) << "two-tier frontier missing from " << path;
  std::printf("[serve] %s: schema valid (%zu metrics)\n", path.c_str(),
              metrics->size());
}

}  // namespace
}  // namespace delrec

int main() {
  using namespace delrec;
  bench::BeginBench("serve");
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
  // Serve-smoke shape: a short scoring prompt (the regime where batching
  // pays — per-request GEMMs too small to saturate the kernel alone).
  core::DelRecConfig config = harness.DelRecDefaults();
  config.history_length = 1;
  config.soft_prompt_count = 4;
  config.sr_hints_in_stage2 = false;
  auto trained = harness.TrainDelRec(srmodels::Backbone::kSasRec, config);

  serve::EngineSnapshot::Sources sources;
  sources.catalog = &harness.workbench().dataset().catalog;
  sources.vocab = &harness.workbench().vocab();
  sources.sr_model = harness.Backbone(srmodels::Backbone::kSasRec);
  auto snapshot = serve::EngineSnapshot::FromModel(*trained.model,
                                                   *trained.llm, sources);
  DELREC_CHECK(snapshot.ok()) << snapshot.status().ToString();
  serve::EngineSnapshot::BuildOptions quant_options;
  quant_options.quantize_int8 = true;
  auto int8_snapshot = serve::EngineSnapshot::FromModel(
      *trained.model, *trained.llm, sources, quant_options);
  DELREC_CHECK(int8_snapshot.ok()) << int8_snapshot.status().ToString();
  std::printf("[serve] int8 kernel: %s\n",
              nn::Int8GemmKernelConfig().c_str());
  const std::unique_ptr<serve::Scorer> live_scorer =
      serve::MakeDelRecScorer(trained.model.get());

  const std::vector<serve::ScoreRequest> requests =
      MakeRequests(harness, 96);
  BenchBatchedVsSingle(recorder, *live_scorer, *snapshot.value(), requests);
  BenchInt8VsFp32(recorder, *snapshot.value(), *int8_snapshot.value(),
                  requests);
  BenchServeScaleInt8(recorder);
  BenchPrefixCache(recorder, harness, sources, requests);
  BenchEngineThroughput(recorder, *snapshot.value(), requests);
  BenchTwoTier(recorder, harness, *trained.model, *trained.llm, sources,
               requests);

  const int rc = bench::FinishBench();
  const std::string path = bench::BenchRecorder::OutputPath("serve");
  if (!path.empty()) ValidateEmittedJson(path);
  return rc;
}
