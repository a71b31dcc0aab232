// Perf smoke bench (ctest -L perf_smoke): emits the machine-readable RQ5
// record BENCH_rq5.json and gates it against the committed baseline.
//
// Four sections, all sized to finish in seconds:
//  1. Op-level GEMM GFLOP/s for the blocked kernels on repo-model shapes,
//     plus blocked-vs-reference speedups on the canonical 256³ shape and on
//     the narrow head_dim-8 shapes of training's autograd attention, with
//     hard ≥2× floors on 256³ and narrow GemmNN where the GEMM has SIMD
//     tiles.
//  2. The served teacher's fused attention head (nn::AttendHead) against the
//     GEMM and softmax sequence it replaced, timed interleaved, with a hard
//     ≥1.3× floor on the int8 shape where vecmath dispatches AVX-512 or
//     AVX2.
//  3. A tiny end-to-end train/eval through DatasetHarness, which records
//     stage1_distill_s / stage2_finetune_s / eval_s via the harness hooks.
//  4. Warm-pool allocation counts for a repeated fixed eval workload —
//     deterministic at one thread, so they gate hard in the baseline
//     comparison (allocation regressions fail CI even on noisy machines).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/vecmath.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace delrec {
namespace {

using GemmFn = void (*)(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, bool);

struct Shape {
  const char* label;  // Where the shape shows up in this repo's models.
  int64_t m, n, k;
};

// Embedding/hidden dims of the repo's backbones and TinyLM (see srmodels/
// and llm/): these are the GEMMs training actually issues, plus the
// canonical square used for the acceptance criterion.
const Shape kShapes[] = {
    {"gru4rec_64x24x24", 64, 24, 24},
    {"sasrec_64x32x32", 64, 32, 32},
    {"tinylm_ffn_128x128x32", 128, 128, 32},
    {"square_256x256x256", 256, 256, 256},
};

/// Seconds per call, best of `rounds` timed runs of `reps` calls each. Small
/// fixed budgets: this is a smoke probe, not a rigorous microbenchmark.
double TimeGemm(GemmFn fn, const std::vector<float>& a,
                const std::vector<float>& b, std::vector<float>& c, int64_t m,
                int64_t n, int64_t k, int reps, int rounds) {
  fn(a.data(), b.data(), c.data(), m, n, k, /*accumulate=*/false);  // Warm-up.
  double best = 1e300;
  for (int round = 0; round < rounds; ++round) {
    util::WallTimer timer;
    for (int rep = 0; rep < reps; ++rep) {
      fn(a.data(), b.data(), c.data(), m, n, k, /*accumulate=*/false);
    }
    best = std::min(best, timer.ElapsedSeconds() / reps);
  }
  return best;
}

double Gflops(int64_t m, int64_t n, int64_t k, double seconds) {
  return 2.0 * static_cast<double>(m) * n * k / seconds * 1e-9;
}

void BenchGemmShapes(bench::BenchRecorder& recorder) {
  util::Rng rng(41);
  const struct {
    const char* name;
    GemmFn blocked;
    GemmFn reference;
  } kVariants[] = {
      {"nn", nn::GemmNN, nn::GemmNNRef},
      {"nt", nn::GemmNT, nn::GemmNTRef},
      {"tn", nn::GemmTN, nn::GemmTNRef},
  };
  for (const Shape& shape : kShapes) {
    std::vector<float> a(shape.m * shape.k), b(shape.k * shape.n);
    std::vector<float> c(shape.m * shape.n);
    for (float& v : a) v = rng.UniformFloat(-1.0f, 1.0f);
    for (float& v : b) v = rng.UniformFloat(-1.0f, 1.0f);
    const bool canonical = shape.m == 256;
    // ~40 MFLOP per timed round on the canonical shape, less on the rest.
    const int reps = canonical ? 3 : 50;
    for (const auto& variant : kVariants) {
      const double blocked_s =
          TimeGemm(variant.blocked, a, b, c, shape.m, shape.n, shape.k, reps,
                   /*rounds=*/3);
      const double blocked_gflops = Gflops(shape.m, shape.n, shape.k, blocked_s);
      recorder.Record(std::string("gemm_") + variant.name + "_" + shape.label +
                          "_gflops",
                      blocked_gflops, "GFLOP/s", bench::MetricKind::kThroughput);
      if (!canonical) continue;
      const double ref_s = TimeGemm(variant.reference, a, b, c, shape.m,
                                    shape.n, shape.k, reps, /*rounds=*/3);
      const double speedup = ref_s / blocked_s;
      recorder.Record(std::string("gemm_") + variant.name + "_" + shape.label +
                          "_ref_gflops",
                      Gflops(shape.m, shape.n, shape.k, ref_s), "GFLOP/s",
                      bench::MetricKind::kThroughput);
      recorder.Record(std::string("gemm_") + variant.name +
                          "_speedup_vs_ref",
                      speedup, "x", bench::MetricKind::kRatio);
      std::printf("[perf_smoke] gemm_%s %s: blocked %.2f GFLOP/s, ref %.2f, "
                  "speedup %.2fx\n",
                  variant.name, shape.label, blocked_gflops,
                  Gflops(shape.m, shape.n, shape.k, ref_s), speedup);
      if (std::string(variant.name) == "nn") {
        // Acceptance floor: ≥2× over the naive kernel on 256³ GemmNN. The
        // scalar fallback (pre-AVX2 hosts) reorganizes the same arithmetic,
        // so it only has to not regress there.
        const double floor = bench::GemmHasSimdTiles() ? 2.0 : 0.8;
        DELREC_CHECK_GE(speedup, floor)
            << "blocked GemmNN speedup below floor (" << speedup << " < "
            << floor << ") with kernel " << nn::GemmKernelConfig();
      }
    }
  }
}

/// Attention's per-head GEMMs at head_dim 8, at the served teacher's
/// 69-row suffix over a 98-column context; the serve path now runs
/// nn::AttendHead instead, so these are training's autograd attention
/// shapes. A·V (NN, n = 8) has no full 16-column panel, so all its tiles run
/// on the zero-padded edge panel; Q·Kᵀ (NT, n = 98) ends in a 2-column one.
void BenchAttentionGemms(bench::BenchRecorder& recorder) {
  util::Rng rng(43);
  const struct {
    const char* label;
    GemmFn blocked;
    GemmFn reference;
    int64_t m, n, k;
  } kShapes[] = {
      {"nn_attn_av_69x8x98", nn::GemmNN, nn::GemmNNRef, 69, 8, 98},
      {"nt_attn_qk_69x98x8", nn::GemmNT, nn::GemmNTRef, 69, 98, 8},
  };
  for (const auto& shape : kShapes) {
    std::vector<float> a(shape.m * shape.k), b(shape.k * shape.n);
    std::vector<float> c(shape.m * shape.n);
    for (float& v : a) v = rng.UniformFloat(0.0f, 1.0f);
    for (float& v : b) v = rng.UniformFloat(-1.0f, 1.0f);
    // ~0.1 MFLOP per call: many reps, best of more rounds, to see past
    // timer and scheduler noise.
    const double blocked_s = TimeGemm(shape.blocked, a, b, c, shape.m,
                                      shape.n, shape.k, /*reps=*/400,
                                      /*rounds=*/5);
    const double ref_s = TimeGemm(shape.reference, a, b, c, shape.m, shape.n,
                                  shape.k, /*reps=*/400, /*rounds=*/5);
    const double gflops = Gflops(shape.m, shape.n, shape.k, blocked_s);
    const double speedup = ref_s / blocked_s;
    const std::string name = std::string("gemm_") + shape.label;
    recorder.Record(name + "_gflops", gflops, "GFLOP/s",
                    bench::MetricKind::kThroughput);
    recorder.Record(name + "_speedup_vs_ref", speedup, "x",
                    bench::MetricKind::kRatio);
    std::printf("[perf_smoke] %s: blocked %.2f GFLOP/s, ref %.2f, "
                "speedup %.2fx\n",
                name.c_str(), gflops,
                Gflops(shape.m, shape.n, shape.k, ref_s), speedup);
    if (shape.blocked == nn::GemmNN && bench::GemmHasSimdTiles()) {
      // The padded edge panel must put the SIMD tile to work: the scalar
      // edge tile it replaced ran at about the naive kernel's speed here
      // (0.7–1.3× across hosts and runs).
      DELREC_CHECK_GE(speedup, 2.0)
          << "narrow GemmNN speedup below floor with kernel "
          << nn::GemmKernelConfig();
    }
  }
}

/// One head of the served teacher's attention at head_dim 8 (TinyLm XL's 4
/// heads, model_dim 32): `rows` queries over `cached` prefix keys followed
/// by the span's own `rows`, each at the model's row stride.
struct AttentionCase {
  const char* name;
  nn::AttentionSoftmax softmax;
  int64_t rows, cached;
};

/// The sequence nn::AttendHead replaced in TinyLmBlock::AttendSpans, on the
/// GEMM tiles and softmax body of one width: copy the head out, GemmNT, the
/// softmax, GemmNN, copy the result back.
void AttendBySequence(const nn::AttentionHead& h, nn::GemmTileWidth gemm,
                      nn::VecMathBody softmax_body, std::vector<float>& work) {
  const int64_t keys = h.cached + h.own;
  const int64_t hd = h.head_dim;
  work.resize(static_cast<size_t>(2 * h.rows * hd + 2 * keys * hd +
                                  h.rows * keys));
  float* qh = work.data();
  float* kh = qh + h.rows * hd;
  float* vh = kh + keys * hd;
  float* logits = vh + keys * hd;
  float* head_out = logits + h.rows * keys;
  for (int64_t i = 0; i < h.rows; ++i) {
    std::copy_n(h.queries + i * h.stride, hd, qh + i * hd);
  }
  for (int64_t j = 0; j < keys; ++j) {
    const bool cached = j < h.cached;
    const int64_t row = (cached ? j : j - h.cached) * h.stride;
    std::copy_n((cached ? h.cached_keys : h.keys) + row, hd, kh + j * hd);
    std::copy_n((cached ? h.cached_values : h.values) + row, hd, vh + j * hd);
  }
  nn::GemmNTWith(gemm, qh, kh, logits, h.rows, keys, hd,
                 /*accumulate=*/false);
  if (h.softmax == nn::AttentionSoftmax::kApprox) {
    nn::ApproxSoftmaxRowsWith(softmax_body, logits, h.rows, keys, h.scale);
  } else {
    for (int64_t i = 0; i < h.rows * keys; ++i) logits[i] *= h.scale;
    nn::SoftmaxRows(logits, h.rows, keys, logits);
  }
  nn::GemmNNWith(gemm, logits, vh, head_out, h.rows, hd, keys,
                 /*accumulate=*/false);
  for (int64_t i = 0; i < h.rows; ++i) {
    std::copy_n(head_out + i * hd, hd, h.out + i * h.stride);
  }
}

/// The fused head against the sequence at each body width this host runs,
/// after checking that the two agree bitwise: 15 alternating rounds of 200
/// calls each, medians. The widest width is the one the process
/// dispatches, so it is recorded as `<case>_us` (the fused head per call)
/// and `<case>_speedup_vs_sequence`; narrower widths are printed only.
void BenchAttentionHead(bench::BenchRecorder& recorder) {
  constexpr int64_t kHeadDim = 8;
  constexpr int64_t kStride = 32;
  const AttentionCase kCases[] = {
      // two_tier_swap's int8 teacher: 69 suffix rows over 29 cached keys.
      {"attn_int8_69x98x8", nn::AttentionSoftmax::kApprox, 69, 29},
      // short_burst's fp32 teacher: 11 suffix rows over 17 cached keys.
      {"attn_fp32_11x28x8", nn::AttentionSoftmax::kStd, 11, 17},
  };
  const struct {
    const char* label;
    nn::VecMathBody body;
    nn::GemmTileWidth gemm;
  } kWidths[] = {
      {"w16", nn::VecMathBody::kAvx512, nn::GemmTileWidth::k16},
      {"w8", nn::VecMathBody::kAvx2, nn::GemmTileWidth::k8},
      {"w4", nn::VecMathBody::kVec4, nn::GemmTileWidth::k4},
  };
  util::Rng rng(47);
  for (const AttentionCase& c : kCases) {
    const auto random_rows = [&](int64_t rows) {
      std::vector<float> x(static_cast<size_t>(rows * kStride));
      for (float& v : x) v = rng.UniformFloat(-2.0f, 2.0f);
      return x;
    };
    const std::vector<float> q = random_rows(c.rows), k = random_rows(c.rows),
                             v = random_rows(c.rows),
                             ck = random_rows(c.cached),
                             cv = random_rows(c.cached);
    std::vector<float> fused_out(q.size()), sequence_out(q.size()), work;
    std::vector<float> scratch(static_cast<size_t>(
        nn::AttendHeadScratch(c.cached + c.rows, kHeadDim)));
    nn::AttentionHead fused;
    fused.queries = q.data();
    fused.rows = c.rows;
    fused.cached_keys = ck.data();
    fused.cached_values = cv.data();
    fused.cached = c.cached;
    fused.keys = k.data();
    fused.values = v.data();
    fused.own = c.rows;
    fused.head_dim = kHeadDim;
    fused.stride = kStride;
    fused.scale = 1.0f / std::sqrt(static_cast<float>(kHeadDim));
    fused.softmax = c.softmax;
    fused.out = fused_out.data();
    nn::AttentionHead sequence = fused;
    sequence.out = sequence_out.data();
    bool dispatched = true;
    for (const auto& width : kWidths) {
      if (!nn::VecMathBodySupported(width.body) ||
          !nn::GemmTileWidthSupported(width.gemm)) {
        continue;
      }
      const auto run_fused = [&] {
        nn::AttendHeadWith(width.body, fused, scratch.data());
      };
      const auto run_sequence = [&] {
        AttendBySequence(sequence, width.gemm, width.body, work);
      };
      run_fused();
      run_sequence();
      DELREC_CHECK(std::memcmp(fused_out.data(), sequence_out.data(),
                               fused_out.size() * sizeof(float)) == 0)
          << c.name << " " << width.label << ": fused head and sequence differ";
      std::vector<double> fused_us, sequence_us;
      for (int round = 0; round < 15; ++round) {
        for (int side = 0; side < 2; ++side) {
          const bool fused_side = (side == 0) == (round % 2 == 0);
          util::WallTimer timer;
          for (int rep = 0; rep < 200; ++rep) {
            fused_side ? run_fused() : run_sequence();
          }
          (fused_side ? fused_us : sequence_us)
              .push_back(timer.ElapsedSeconds() * 1e6 / 200);
        }
      }
      std::sort(fused_us.begin(), fused_us.end());
      std::sort(sequence_us.begin(), sequence_us.end());
      const double fused_median = fused_us[fused_us.size() / 2];
      const double speedup = sequence_us[sequence_us.size() / 2] / fused_median;
      std::printf("[perf_smoke] %s %s: fused %.2f us, sequence %.2f us, "
                  "speedup %.2fx\n",
                  c.name, width.label, fused_median,
                  sequence_us[sequence_us.size() / 2], speedup);
      if (!dispatched) continue;
      dispatched = false;
      const std::string name = c.name;
      recorder.Record(name + "_us", fused_median, "us",
                      bench::MetricKind::kTime);
      recorder.Record(name + "_speedup_vs_sequence", speedup, "x",
                      bench::MetricKind::kRatio);
      if (c.softmax == nn::AttentionSoftmax::kApprox &&
          width.body != nn::VecMathBody::kVec4) {
        // Measured 1.84–1.88× with the 16-lane body.
        DELREC_CHECK_GE(speedup, 1.3)
            << "fused int8 attention head below its floor over the "
               "sequence at " << width.label;
      }
    }
  }
}

/// Tiny end-to-end train + eval. The harness hooks populate the stage and
/// eval timing metrics; this adds eval throughput and the deterministic
/// warm-pool allocation counts.
void BenchTrainEval(bench::BenchRecorder& recorder) {
  bench::HarnessOptions options = bench::OptionsFromEnv();
  options.fast = true;
  options.eval_examples = 30;
  options.pretrain_epochs = 1;
  options.stage1_examples = 24;
  options.stage1_epochs = 1;
  options.stage2_examples = 40;
  options.stage2_epochs = 1;
  options.baseline_examples = 20;
  options.baseline_epochs = 1;
  options.sr_epochs = 1;
  bench::DatasetHarness harness(data::MovieLens100KConfig(), options);
  auto trained =
      harness.TrainDelRec(srmodels::Backbone::kSasRec, harness.DelRecDefaults());

  util::WallTimer timer;
  const eval::MetricsAccumulator metrics =
      harness.EvaluateDelRec(*trained.model);
  const double eval_s = timer.ElapsedSeconds();
  const double examples =
      static_cast<double>(metrics.hit_at_1_samples().size());
  recorder.Record("eval_throughput_eps", examples / eval_s, "examples/s",
                  bench::MetricKind::kThroughput);

  // Second, identical eval against a now-warm pool: at one thread the
  // acquire/release trace is deterministic, so these counts are stable and
  // the baseline comparison hard-gates them.
  util::BufferPool& pool = util::BufferPool::Global();
  pool.ResetStatCounters();
  harness.EvaluateDelRec(*trained.model);
  const util::BufferPool::Stats stats = pool.GetStats();
  const bool stable = util::ParallelThreads() == 1 && pool.enabled();
  const double acquires =
      static_cast<double>(stats.pool_hits + stats.fresh_allocations);
  recorder.Record("eval_warm_fresh_allocations",
                  static_cast<double>(stats.fresh_allocations), "allocs",
                  bench::MetricKind::kCount, stable);
  recorder.Record("eval_warm_pool_hit_ratio",
                  acquires > 0 ? stats.pool_hits / acquires : 1.0, "ratio",
                  bench::MetricKind::kRatio, stable);
  std::printf("[perf_smoke] warm eval: %llu pool hits, %llu fresh allocs\n",
              static_cast<unsigned long long>(stats.pool_hits),
              static_cast<unsigned long long>(stats.fresh_allocations));
}

/// Re-reads the emitted file and structurally validates it — the smoke test
/// covers the emitter, not just the in-memory document.
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
  DELREC_CHECK(doc.Find("bench")->str() == "rq5");
  const util::Json* metrics = doc.Find("metrics");
  bool has_gemm = false, has_stage = false;
  for (size_t i = 0; i < metrics->size(); ++i) {
    const std::string& name = metrics->at(i).Find("name")->str();
    has_gemm = has_gemm || name == "gemm_nn_square_256x256x256_gflops";
    has_stage = has_stage || name == "stage2_finetune_s";
  }
  DELREC_CHECK(has_gemm) << "GEMM metrics missing from " << path;
  DELREC_CHECK(has_stage) << "stage timing metrics missing from " << path;
  std::printf("[perf_smoke] %s: schema valid (%zu metrics)\n", path.c_str(),
              metrics->size());
}

}  // namespace
}  // namespace delrec

int main() {
  using namespace delrec;
  bench::BeginBench("rq5");
  bench::BenchRecorder& recorder = bench::BenchRecorder::Global();
  BenchGemmShapes(recorder);
  BenchAttentionGemms(recorder);
  BenchAttentionHead(recorder);
  BenchTrainEval(recorder);
  const int rc = bench::FinishBench();
  const std::string path = bench::BenchRecorder::OutputPath("rq5");
  if (!path.empty()) ValidateEmittedJson(path);
  return rc;
}
