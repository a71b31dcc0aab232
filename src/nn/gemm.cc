#include "nn/gemm.h"

#include <algorithm>
#include <functional>

#include "util/buffer_pool.h"
#include "util/threadpool.h"

// This translation unit is compiled with -ffp-contract=off (set in
// src/nn/CMakeLists.txt): the blocked kernels stay bit-identical to the
// scalar reference kernels only because every multiply and add rounds
// separately — a contracted FMA would round once and break the oracle,
// including under -DDELREC_NATIVE=ON. The AVX2/AVX-512 paths use explicit
// mul/add intrinsics, which map to fixed instructions and are never
// contracted either.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DELREC_GEMM_X86 1
#include <immintrin.h>
#else
#define DELREC_GEMM_X86 0
#endif

namespace delrec::nn {
namespace {

constexpr int MR = kGemmRowTile;
constexpr int NR = kGemmColTile;
constexpr int kNtScalarColTile = 4;  // Unpacked NT keeps 4×4 dot chains.
static_assert(NR == 16, "microkernels assume one 16-lane (or two 8-lane) "
                        "vector of C columns per row");

// Row-partitioned dispatch over C across util::ParallelConfig threads.
// Determinism contract (DESIGN.md §9): every C row is written by exactly one
// chunk of a static partition, and each element's accumulation order over k
// is fixed (ascending p) regardless of the chunking — so all kernels are
// bit-identical to their serial (num_threads = 1) reference for any thread
// count, and need no synchronisation or float atomics. GEMMs whose m·n·k
// falls below ParallelMinWork() skip dispatch and run serially, which by the
// same argument cannot change results.
void GemmRows(int64_t m, int64_t n, int64_t k,
              const std::function<void(int64_t, int64_t)>& rows) {
  if (util::ParallelThreads() > 1 && m * n * k >= util::ParallelMinWork()) {
    util::ParallelFor(
        m, [&rows](int64_t begin, int64_t end, int) { rows(begin, end); });
  } else {
    rows(0, m);
  }
}

// -- Microkernel tiles --------------------------------------------------------
// All full tiles share one signature so the ISA is picked once per GEMM call
// (function-pointer dispatch via __builtin_cpu_supports); the drivers and
// row-remainder edge tiles are ISA-agnostic scalar code, while column edges
// of packed B run the full tiles on zero-padded panels (ViaLocalTile). Per
// output element every variant accumulates ascending p into a single chain
// from the same start value, so lane width never changes results — vector
// lanes are distinct C columns.
//
// NN/TN tiles come in two zero-handling flavours with reference semantics:
// `skip` replicates the reference's per-(row, p) `a == 0.0f` skip (it is
// semantically observable — it avoids 0·inf → NaN and signed-zero flips);
// `dense` drops the branch and is only chosen after a prescan proves the A
// tile zero-free, where skipping and not-skipping are the same program.
// NT tiles start each accumulator at 0 and combine with C at the end — the
// reference's dot-then-combine association, distinct from NN/TN which seed
// the accumulator from C.

using TileFn = void (*)(const float* a, int64_t a_i_stride,
                        int64_t a_p_stride, const float* bpanel,
                        int64_t b_p_stride, float* c, int64_t n, int64_t k,
                        int64_t i0, int64_t j0, bool accumulate);
using NtTileFn = void (*)(const float* a, const float* bpanel, float* c,
                          int64_t n, int64_t k, int64_t i0, int64_t j0,
                          bool accumulate);
using ZeroScanFn = bool (*)(const float* a, int64_t a_i_stride,
                            int64_t a_p_stride, int64_t i0, int64_t k);

// ---- Portable scalar tiles (and the only path off x86-64) ----

void TileDenseScalar(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                     const float* bpanel, int64_t b_p_stride, float* c,
                     int64_t n, int64_t k, int64_t i0, int64_t j0,
                     bool accumulate) {
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    float* cr = c + (i0 + r) * n + j0;
    float acc[NR];
    for (int jr = 0; jr < NR; ++jr) acc[jr] = accumulate ? cr[jr] : 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ar[p * a_p_stride];
      const float* bp = bpanel + p * b_p_stride;
      for (int jr = 0; jr < NR; ++jr) acc[jr] += av * bp[jr];
    }
    for (int jr = 0; jr < NR; ++jr) cr[jr] = acc[jr];
  }
}

void TileSkipScalar(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                    const float* bpanel, int64_t b_p_stride, float* c,
                    int64_t n, int64_t k, int64_t i0, int64_t j0,
                    bool accumulate) {
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    float* cr = c + (i0 + r) * n + j0;
    float acc[NR];
    for (int jr = 0; jr < NR; ++jr) acc[jr] = accumulate ? cr[jr] : 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ar[p * a_p_stride];
      if (av == 0.0f) continue;
      const float* bp = bpanel + p * b_p_stride;
      for (int jr = 0; jr < NR; ++jr) acc[jr] += av * bp[jr];
    }
    for (int jr = 0; jr < NR; ++jr) cr[jr] = acc[jr];
  }
}

void NtTileScalar(const float* a, const float* bpanel, float* c, int64_t n,
                  int64_t k, int64_t i0, int64_t j0, bool accumulate) {
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * k;
    float* cr = c + (i0 + r) * n + j0;
    float acc[NR];
    for (int jr = 0; jr < NR; ++jr) acc[jr] = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ar[p];
      const float* bp = bpanel + p * NR;
      for (int jr = 0; jr < NR; ++jr) acc[jr] += av * bp[jr];
    }
    for (int jr = 0; jr < NR; ++jr) {
      cr[jr] = accumulate ? cr[jr] + acc[jr] : acc[jr];
    }
  }
}

// Dense-tile eligibility prescan: true iff any A element in the MR-row tile
// compares == 0.0f (matches ±0, never NaN — the exact predicate the skip
// tile applies per element). This runs once per 4-row tile over 4×k floats,
// so on small GEMMs it is a visible fraction of the whole product; the
// vector variants below evaluate the same predicate 8/16 lanes at a time
// (_CMP_EQ_OQ is the ordered quiet ==, identical to the scalar compare).
bool TileHasZeroScalar(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                       int64_t i0, int64_t k) {
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    for (int64_t p = 0; p < k; ++p) {
      if (ar[p * a_p_stride] == 0.0f) return true;
    }
  }
  return false;
}

#if DELREC_GEMM_X86

// ---- AVX2 tiles: NR = two 8-lane registers per row, 8 accumulators ----

__attribute__((target("avx2"))) void TileDenseAvx2(
    const float* a, int64_t a_i_stride, int64_t a_p_stride,
    const float* bpanel, int64_t b_p_stride, float* c, int64_t n, int64_t k,
    int64_t i0, int64_t j0, bool accumulate) {
  const float* a0 = a + (i0 + 0) * a_i_stride;
  const float* a1 = a + (i0 + 1) * a_i_stride;
  const float* a2 = a + (i0 + 2) * a_i_stride;
  const float* a3 = a + (i0 + 3) * a_i_stride;
  float* c0 = c + (i0 + 0) * n + j0;
  float* c1 = c + (i0 + 1) * n + j0;
  float* c2 = c + (i0 + 2) * n + j0;
  float* c3 = c + (i0 + 3) * n + j0;
  __m256 x0, y0, x1, y1, x2, y2, x3, y3;
  if (accumulate) {
    x0 = _mm256_loadu_ps(c0);
    y0 = _mm256_loadu_ps(c0 + 8);
    x1 = _mm256_loadu_ps(c1);
    y1 = _mm256_loadu_ps(c1 + 8);
    x2 = _mm256_loadu_ps(c2);
    y2 = _mm256_loadu_ps(c2 + 8);
    x3 = _mm256_loadu_ps(c3);
    y3 = _mm256_loadu_ps(c3 + 8);
  } else {
    x0 = y0 = x1 = y1 = x2 = y2 = x3 = y3 = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = bpanel + p * b_p_stride;
    const __m256 blo = _mm256_loadu_ps(bp);
    const __m256 bhi = _mm256_loadu_ps(bp + 8);
    const int64_t pa = p * a_p_stride;
    __m256 av;
    av = _mm256_set1_ps(a0[pa]);
    x0 = _mm256_add_ps(x0, _mm256_mul_ps(av, blo));
    y0 = _mm256_add_ps(y0, _mm256_mul_ps(av, bhi));
    av = _mm256_set1_ps(a1[pa]);
    x1 = _mm256_add_ps(x1, _mm256_mul_ps(av, blo));
    y1 = _mm256_add_ps(y1, _mm256_mul_ps(av, bhi));
    av = _mm256_set1_ps(a2[pa]);
    x2 = _mm256_add_ps(x2, _mm256_mul_ps(av, blo));
    y2 = _mm256_add_ps(y2, _mm256_mul_ps(av, bhi));
    av = _mm256_set1_ps(a3[pa]);
    x3 = _mm256_add_ps(x3, _mm256_mul_ps(av, blo));
    y3 = _mm256_add_ps(y3, _mm256_mul_ps(av, bhi));
  }
  _mm256_storeu_ps(c0, x0);
  _mm256_storeu_ps(c0 + 8, y0);
  _mm256_storeu_ps(c1, x1);
  _mm256_storeu_ps(c1 + 8, y1);
  _mm256_storeu_ps(c2, x2);
  _mm256_storeu_ps(c2 + 8, y2);
  _mm256_storeu_ps(c3, x3);
  _mm256_storeu_ps(c3 + 8, y3);
}

__attribute__((target("avx2"))) void TileSkipAvx2(
    const float* a, int64_t a_i_stride, int64_t a_p_stride,
    const float* bpanel, int64_t b_p_stride, float* c, int64_t n, int64_t k,
    int64_t i0, int64_t j0, bool accumulate) {
  const float* a0 = a + (i0 + 0) * a_i_stride;
  const float* a1 = a + (i0 + 1) * a_i_stride;
  const float* a2 = a + (i0 + 2) * a_i_stride;
  const float* a3 = a + (i0 + 3) * a_i_stride;
  float* c0 = c + (i0 + 0) * n + j0;
  float* c1 = c + (i0 + 1) * n + j0;
  float* c2 = c + (i0 + 2) * n + j0;
  float* c3 = c + (i0 + 3) * n + j0;
  __m256 x0, y0, x1, y1, x2, y2, x3, y3;
  if (accumulate) {
    x0 = _mm256_loadu_ps(c0);
    y0 = _mm256_loadu_ps(c0 + 8);
    x1 = _mm256_loadu_ps(c1);
    y1 = _mm256_loadu_ps(c1 + 8);
    x2 = _mm256_loadu_ps(c2);
    y2 = _mm256_loadu_ps(c2 + 8);
    x3 = _mm256_loadu_ps(c3);
    y3 = _mm256_loadu_ps(c3 + 8);
  } else {
    x0 = y0 = x1 = y1 = x2 = y2 = x3 = y3 = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = bpanel + p * b_p_stride;
    const __m256 blo = _mm256_loadu_ps(bp);
    const __m256 bhi = _mm256_loadu_ps(bp + 8);
    const int64_t pa = p * a_p_stride;
    const float s0 = a0[pa];
    if (s0 != 0.0f) {
      const __m256 av = _mm256_set1_ps(s0);
      x0 = _mm256_add_ps(x0, _mm256_mul_ps(av, blo));
      y0 = _mm256_add_ps(y0, _mm256_mul_ps(av, bhi));
    }
    const float s1 = a1[pa];
    if (s1 != 0.0f) {
      const __m256 av = _mm256_set1_ps(s1);
      x1 = _mm256_add_ps(x1, _mm256_mul_ps(av, blo));
      y1 = _mm256_add_ps(y1, _mm256_mul_ps(av, bhi));
    }
    const float s2 = a2[pa];
    if (s2 != 0.0f) {
      const __m256 av = _mm256_set1_ps(s2);
      x2 = _mm256_add_ps(x2, _mm256_mul_ps(av, blo));
      y2 = _mm256_add_ps(y2, _mm256_mul_ps(av, bhi));
    }
    const float s3 = a3[pa];
    if (s3 != 0.0f) {
      const __m256 av = _mm256_set1_ps(s3);
      x3 = _mm256_add_ps(x3, _mm256_mul_ps(av, blo));
      y3 = _mm256_add_ps(y3, _mm256_mul_ps(av, bhi));
    }
  }
  _mm256_storeu_ps(c0, x0);
  _mm256_storeu_ps(c0 + 8, y0);
  _mm256_storeu_ps(c1, x1);
  _mm256_storeu_ps(c1 + 8, y1);
  _mm256_storeu_ps(c2, x2);
  _mm256_storeu_ps(c2 + 8, y2);
  _mm256_storeu_ps(c3, x3);
  _mm256_storeu_ps(c3 + 8, y3);
}

__attribute__((target("avx2"))) void NtTileAvx2(const float* a,
                                                const float* bpanel, float* c,
                                                int64_t n, int64_t k,
                                                int64_t i0, int64_t j0,
                                                bool accumulate) {
  const float* a0 = a + (i0 + 0) * k;
  const float* a1 = a + (i0 + 1) * k;
  const float* a2 = a + (i0 + 2) * k;
  const float* a3 = a + (i0 + 3) * k;
  __m256 x0, y0, x1, y1, x2, y2, x3, y3;
  x0 = y0 = x1 = y1 = x2 = y2 = x3 = y3 = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = bpanel + p * NR;
    const __m256 blo = _mm256_loadu_ps(bp);
    const __m256 bhi = _mm256_loadu_ps(bp + 8);
    __m256 av;
    av = _mm256_set1_ps(a0[p]);
    x0 = _mm256_add_ps(x0, _mm256_mul_ps(av, blo));
    y0 = _mm256_add_ps(y0, _mm256_mul_ps(av, bhi));
    av = _mm256_set1_ps(a1[p]);
    x1 = _mm256_add_ps(x1, _mm256_mul_ps(av, blo));
    y1 = _mm256_add_ps(y1, _mm256_mul_ps(av, bhi));
    av = _mm256_set1_ps(a2[p]);
    x2 = _mm256_add_ps(x2, _mm256_mul_ps(av, blo));
    y2 = _mm256_add_ps(y2, _mm256_mul_ps(av, bhi));
    av = _mm256_set1_ps(a3[p]);
    x3 = _mm256_add_ps(x3, _mm256_mul_ps(av, blo));
    y3 = _mm256_add_ps(y3, _mm256_mul_ps(av, bhi));
  }
  float* c0 = c + (i0 + 0) * n + j0;
  float* c1 = c + (i0 + 1) * n + j0;
  float* c2 = c + (i0 + 2) * n + j0;
  float* c3 = c + (i0 + 3) * n + j0;
  if (accumulate) {
    // C first, dot second — the reference's `c += dot` operand order.
    x0 = _mm256_add_ps(_mm256_loadu_ps(c0), x0);
    y0 = _mm256_add_ps(_mm256_loadu_ps(c0 + 8), y0);
    x1 = _mm256_add_ps(_mm256_loadu_ps(c1), x1);
    y1 = _mm256_add_ps(_mm256_loadu_ps(c1 + 8), y1);
    x2 = _mm256_add_ps(_mm256_loadu_ps(c2), x2);
    y2 = _mm256_add_ps(_mm256_loadu_ps(c2 + 8), y2);
    x3 = _mm256_add_ps(_mm256_loadu_ps(c3), x3);
    y3 = _mm256_add_ps(_mm256_loadu_ps(c3 + 8), y3);
  }
  _mm256_storeu_ps(c0, x0);
  _mm256_storeu_ps(c0 + 8, y0);
  _mm256_storeu_ps(c1, x1);
  _mm256_storeu_ps(c1 + 8, y1);
  _mm256_storeu_ps(c2, x2);
  _mm256_storeu_ps(c2 + 8, y2);
  _mm256_storeu_ps(c3, x3);
  _mm256_storeu_ps(c3 + 8, y3);
}

// ---- AVX-512 tiles: NR = one 16-lane register per row, 4 accumulators ----

__attribute__((target("avx512f"))) void TileDenseAvx512(
    const float* a, int64_t a_i_stride, int64_t a_p_stride,
    const float* bpanel, int64_t b_p_stride, float* c, int64_t n, int64_t k,
    int64_t i0, int64_t j0, bool accumulate) {
  const float* a0 = a + (i0 + 0) * a_i_stride;
  const float* a1 = a + (i0 + 1) * a_i_stride;
  const float* a2 = a + (i0 + 2) * a_i_stride;
  const float* a3 = a + (i0 + 3) * a_i_stride;
  float* c0 = c + (i0 + 0) * n + j0;
  float* c1 = c + (i0 + 1) * n + j0;
  float* c2 = c + (i0 + 2) * n + j0;
  float* c3 = c + (i0 + 3) * n + j0;
  __m512 r0, r1, r2, r3;
  if (accumulate) {
    r0 = _mm512_loadu_ps(c0);
    r1 = _mm512_loadu_ps(c1);
    r2 = _mm512_loadu_ps(c2);
    r3 = _mm512_loadu_ps(c3);
  } else {
    r0 = r1 = r2 = r3 = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const __m512 b = _mm512_loadu_ps(bpanel + p * b_p_stride);
    const int64_t pa = p * a_p_stride;
    r0 = _mm512_add_ps(r0, _mm512_mul_ps(_mm512_set1_ps(a0[pa]), b));
    r1 = _mm512_add_ps(r1, _mm512_mul_ps(_mm512_set1_ps(a1[pa]), b));
    r2 = _mm512_add_ps(r2, _mm512_mul_ps(_mm512_set1_ps(a2[pa]), b));
    r3 = _mm512_add_ps(r3, _mm512_mul_ps(_mm512_set1_ps(a3[pa]), b));
  }
  _mm512_storeu_ps(c0, r0);
  _mm512_storeu_ps(c1, r1);
  _mm512_storeu_ps(c2, r2);
  _mm512_storeu_ps(c3, r3);
}

__attribute__((target("avx512f"))) void TileSkipAvx512(
    const float* a, int64_t a_i_stride, int64_t a_p_stride,
    const float* bpanel, int64_t b_p_stride, float* c, int64_t n, int64_t k,
    int64_t i0, int64_t j0, bool accumulate) {
  const float* a0 = a + (i0 + 0) * a_i_stride;
  const float* a1 = a + (i0 + 1) * a_i_stride;
  const float* a2 = a + (i0 + 2) * a_i_stride;
  const float* a3 = a + (i0 + 3) * a_i_stride;
  float* c0 = c + (i0 + 0) * n + j0;
  float* c1 = c + (i0 + 1) * n + j0;
  float* c2 = c + (i0 + 2) * n + j0;
  float* c3 = c + (i0 + 3) * n + j0;
  __m512 r0, r1, r2, r3;
  if (accumulate) {
    r0 = _mm512_loadu_ps(c0);
    r1 = _mm512_loadu_ps(c1);
    r2 = _mm512_loadu_ps(c2);
    r3 = _mm512_loadu_ps(c3);
  } else {
    r0 = r1 = r2 = r3 = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const __m512 b = _mm512_loadu_ps(bpanel + p * b_p_stride);
    const int64_t pa = p * a_p_stride;
    const float s0 = a0[pa];
    if (s0 != 0.0f) r0 = _mm512_add_ps(r0, _mm512_mul_ps(_mm512_set1_ps(s0), b));
    const float s1 = a1[pa];
    if (s1 != 0.0f) r1 = _mm512_add_ps(r1, _mm512_mul_ps(_mm512_set1_ps(s1), b));
    const float s2 = a2[pa];
    if (s2 != 0.0f) r2 = _mm512_add_ps(r2, _mm512_mul_ps(_mm512_set1_ps(s2), b));
    const float s3 = a3[pa];
    if (s3 != 0.0f) r3 = _mm512_add_ps(r3, _mm512_mul_ps(_mm512_set1_ps(s3), b));
  }
  _mm512_storeu_ps(c0, r0);
  _mm512_storeu_ps(c1, r1);
  _mm512_storeu_ps(c2, r2);
  _mm512_storeu_ps(c3, r3);
}

__attribute__((target("avx512f"))) void NtTileAvx512(
    const float* a, const float* bpanel, float* c, int64_t n, int64_t k,
    int64_t i0, int64_t j0, bool accumulate) {
  const float* a0 = a + (i0 + 0) * k;
  const float* a1 = a + (i0 + 1) * k;
  const float* a2 = a + (i0 + 2) * k;
  const float* a3 = a + (i0 + 3) * k;
  __m512 r0, r1, r2, r3;
  r0 = r1 = r2 = r3 = _mm512_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m512 b = _mm512_loadu_ps(bpanel + p * NR);
    r0 = _mm512_add_ps(r0, _mm512_mul_ps(_mm512_set1_ps(a0[p]), b));
    r1 = _mm512_add_ps(r1, _mm512_mul_ps(_mm512_set1_ps(a1[p]), b));
    r2 = _mm512_add_ps(r2, _mm512_mul_ps(_mm512_set1_ps(a2[p]), b));
    r3 = _mm512_add_ps(r3, _mm512_mul_ps(_mm512_set1_ps(a3[p]), b));
  }
  float* c0 = c + (i0 + 0) * n + j0;
  float* c1 = c + (i0 + 1) * n + j0;
  float* c2 = c + (i0 + 2) * n + j0;
  float* c3 = c + (i0 + 3) * n + j0;
  if (accumulate) {
    // C first, dot second — the reference's `c += dot` operand order.
    r0 = _mm512_add_ps(_mm512_loadu_ps(c0), r0);
    r1 = _mm512_add_ps(_mm512_loadu_ps(c1), r1);
    r2 = _mm512_add_ps(_mm512_loadu_ps(c2), r2);
    r3 = _mm512_add_ps(_mm512_loadu_ps(c3), r3);
  }
  _mm512_storeu_ps(c0, r0);
  _mm512_storeu_ps(c1, r1);
  _mm512_storeu_ps(c2, r2);
  _mm512_storeu_ps(c3, r3);
}

// Vector zero scans: only the contiguous-row layout (NN path, a_p_stride ==
// 1) vectorizes; the strided TN layout falls back to the scalar scan. A
// prescan is a pure predicate — speeding it up cannot change any result.

__attribute__((target("avx2"))) bool TileHasZeroAvx2(
    const float* a, int64_t a_i_stride, int64_t a_p_stride, int64_t i0,
    int64_t k) {
  if (a_p_stride != 1) {
    return TileHasZeroScalar(a, a_i_stride, a_p_stride, i0, k);
  }
  const __m256 zero = _mm256_setzero_ps();
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    int64_t p = 0;
    for (; p + 8 <= k; p += 8) {
      const __m256 eq =
          _mm256_cmp_ps(_mm256_loadu_ps(ar + p), zero, _CMP_EQ_OQ);
      if (_mm256_movemask_ps(eq) != 0) return true;
    }
    for (; p < k; ++p) {
      if (ar[p] == 0.0f) return true;
    }
  }
  return false;
}

__attribute__((target("avx512f"))) bool TileHasZeroAvx512(
    const float* a, int64_t a_i_stride, int64_t a_p_stride, int64_t i0,
    int64_t k) {
  if (a_p_stride != 1) {
    return TileHasZeroScalar(a, a_i_stride, a_p_stride, i0, k);
  }
  const __m512 zero = _mm512_setzero_ps();
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    int64_t p = 0;
    for (; p + 16 <= k; p += 16) {
      if (_mm512_cmp_ps_mask(_mm512_loadu_ps(ar + p), zero, _CMP_EQ_OQ)) {
        return true;
      }
    }
    if (p < k) {
      // Masked tail load: lanes past k are never touched (no OOB read) and
      // zeroed lanes are excluded from the compare by the same mask.
      const __mmask16 tail = static_cast<__mmask16>((1u << (k - p)) - 1);
      if (_mm512_mask_cmp_ps_mask(tail, _mm512_maskz_loadu_ps(tail, ar + p),
                                  zero, _CMP_EQ_OQ)) {
        return true;
      }
    }
  }
  return false;
}

#endif  // DELREC_GEMM_X86

struct TileSet {
  TileFn dense;
  TileFn skip;
  NtTileFn nt;
  ZeroScanFn has_zero;
  const char* isa;
};

const TileSet& PickTiles() {
  static const TileSet tiles = [] {
#if DELREC_GEMM_X86
    if (__builtin_cpu_supports("avx512f")) {
      return TileSet{TileDenseAvx512, TileSkipAvx512, NtTileAvx512,
                     TileHasZeroAvx512, "avx512"};
    }
    if (__builtin_cpu_supports("avx2")) {
      return TileSet{TileDenseAvx2, TileSkipAvx2, NtTileAvx2, TileHasZeroAvx2,
                     "avx2"};
    }
    return TileSet{TileDenseScalar, TileSkipScalar, NtTileScalar,
                   TileHasZeroScalar, "sse2"};
#else
    return TileSet{TileDenseScalar, TileSkipScalar, NtTileScalar,
                   TileHasZeroScalar, "portable"};
#endif
  }();
  return tiles;
}

// -- Blocked NN / TN ----------------------------------------------------------
// Both contract C(i,j) = Σ_p A(i,p)·B(p,j) with B stored row-major (K,N);
// they differ only in how A is addressed: A(i,p) = a[i·a_i_stride +
// p·a_p_stride] (NN: strides (k,1); TN with A stored (K,M): strides (1,m)).

// Remainder tile (mr < MR, or nr < NR on an unpacked panel): same
// accumulation structure with runtime bounds; always uses the skip form
// (identical on zero-free data).
void MicroTileEdge(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                   const float* bpanel, int64_t b_p_stride, float* c,
                   int64_t n, int64_t k, int64_t i0, int mr, int64_t j0,
                   int nr, bool accumulate) {
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    float* cr = c + (i0 + r) * n + j0;
    float acc[NR];
    for (int jr = 0; jr < nr; ++jr) acc[jr] = accumulate ? cr[jr] : 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ar[p * a_p_stride];
      if (av == 0.0f) continue;
      const float* bp = bpanel + p * b_p_stride;
      for (int jr = 0; jr < nr; ++jr) acc[jr] += av * bp[jr];
    }
    for (int jr = 0; jr < nr; ++jr) cr[jr] = acc[jr];
  }
}

// A full row tile on a zero-padded edge panel (nr < NR): `tile` writes an
// MR×NR block at row stride NR into a local C tile seeded from the nr valid
// columns of C, and only those columns are copied back. Each valid lane runs
// the same chain it would in the scalar edge; the padded lanes see B = 0 and
// are discarded.
template <typename Tile>
void ViaLocalTile(float* c, int64_t n, int64_t i0, int64_t j0, int nr,
                  bool accumulate, const Tile& tile) {
  float local[MR * NR] = {};
  float* corner = c + i0 * n + j0;
  if (accumulate) {
    for (int r = 0; r < MR; ++r) {
      std::copy(corner + r * n, corner + r * n + nr, local + r * NR);
    }
  }
  tile(local);
  for (int r = 0; r < MR; ++r) {
    std::copy(local + r * NR, local + r * NR + nr, corner + r * n);
  }
}

struct AxBContext {
  const float* a;
  int64_t a_i_stride;
  int64_t a_p_stride;
  const float* b;       // Unpacked row-major (K,N) view.
  const float* packed;  // NR-wide panels, or nullptr when unpacked.
  float* c;
  int64_t n;
  int64_t k;
  int64_t num_panels;
  bool accumulate;
  TileFn dense;
  TileFn skip;
  ZeroScanFn has_zero;
};

void AxBRows(const AxBContext& ctx, int64_t row_begin, int64_t row_end) {
  // Full row tiles run the ISA tile on every full panel, and on the edge
  // panel too once packing has zero-padded it.
  const bool packed = ctx.packed != nullptr;
  for (int64_t i = row_begin; i < row_end; i += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, row_end - i));
    const bool dense =
        mr == MR && (packed || ctx.n >= NR) &&
        !ctx.has_zero(ctx.a, ctx.a_i_stride, ctx.a_p_stride, i, ctx.k);
    const TileFn tile = dense ? ctx.dense : ctx.skip;
    for (int64_t jb = 0; jb < ctx.num_panels; ++jb) {
      const int64_t j0 = jb * NR;
      const int nr = static_cast<int>(std::min<int64_t>(NR, ctx.n - j0));
      const float* bpanel = packed ? ctx.packed + jb * ctx.k * NR : ctx.b + j0;
      const int64_t b_p_stride = packed ? NR : ctx.n;
      if (mr == MR && nr == NR) {
        tile(ctx.a, ctx.a_i_stride, ctx.a_p_stride, bpanel, b_p_stride, ctx.c,
             ctx.n, ctx.k, i, j0, ctx.accumulate);
      } else if (mr == MR && packed) {
        ViaLocalTile(ctx.c, ctx.n, i, j0, nr, ctx.accumulate,
                     [&](float* local) {
                       tile(ctx.a + i * ctx.a_i_stride, ctx.a_i_stride,
                            ctx.a_p_stride, bpanel, NR, local, NR, ctx.k,
                            /*i0=*/0, /*j0=*/0, ctx.accumulate);
                     });
      } else {
        MicroTileEdge(ctx.a, ctx.a_i_stride, ctx.a_p_stride, bpanel,
                      b_p_stride, ctx.c, ctx.n, ctx.k, i, mr, j0, nr,
                      ctx.accumulate);
      }
    }
  }
}

void BlockedAxB(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                const float* b, float* c, int64_t m, int64_t n, int64_t k,
                bool accumulate) {
  if (m == 0 || n == 0) return;
  const int64_t num_panels = (n + NR - 1) / NR;
  const TileSet& tiles = PickTiles();
  // Pack B into contiguous NR-wide panels once per call when enough row
  // tiles will reuse it (the pack is one extra pass over B; with few rows
  // the in-place panel view is cheaper). Edge-panel lanes past n are zeroed
  // so full row tiles run the ISA tile there too (ViaLocalTile) — for
  // n < NR, e.g. attention's A·V with head_dim 8, that is every tile. The
  // pack buffer is pooled scratch shared read-only by all row chunks;
  // ParallelFor joins before the arena releases it.
  util::ScopedArena arena;
  AxBContext ctx{a,           a_i_stride, a_p_stride, b, nullptr,       c,
                 n,           k,          num_panels, accumulate,
                 tiles.dense, tiles.skip, tiles.has_zero};
  if (m >= kGemmPackMinRows) {
    float* pack = arena.Alloc(static_cast<size_t>(num_panels) * k * NR);
    for (int64_t jb = 0; jb < num_panels; ++jb) {
      const int nr = static_cast<int>(std::min<int64_t>(NR, n - jb * NR));
      float* panel = pack + jb * k * NR;
      const float* bsrc = b + jb * NR;
      if (nr < NR) std::fill(panel, panel + k * NR, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        for (int jr = 0; jr < nr; ++jr) {
          panel[p * NR + jr] = bsrc[p * n + jr];
        }
      }
    }
    ctx.packed = pack;
  }
  GemmRows(m, n, k, [&ctx](int64_t row_begin, int64_t row_end) {
    AxBRows(ctx, row_begin, row_end);
  });
}

// -- Blocked NT ---------------------------------------------------------------
// C(i,j) = Σ_p A(i,p)·B(j,p), both operands stored contiguous along k. With
// enough rows B is transpose-packed into NR-wide panels (panel[p·NR + jr] =
// B(j0+jr, p)), which turns the inner update into the same lane-parallel
// shape as NN — lanes are distinct output columns, each lane still a single
// ascending-p chain with the reference's dot-then-combine association.
// Small-m calls skip the pack and use MR×4 independent scalar dot chains.

// Row-remainder tile (mr < MR) of the packed path.
void NtPanelEdge(const float* a, const float* bpanel, float* c, int64_t n,
                 int64_t k, int64_t i0, int mr, int64_t j0, int nr,
                 bool accumulate) {
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + (i0 + r) * k;
    float* cr = c + (i0 + r) * n + j0;
    float acc[NR];
    for (int jr = 0; jr < nr; ++jr) acc[jr] = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ar[p];
      const float* bp = bpanel + p * NR;
      for (int jr = 0; jr < nr; ++jr) acc[jr] += av * bp[jr];
    }
    for (int jr = 0; jr < nr; ++jr) {
      cr[jr] = accumulate ? cr[jr] + acc[jr] : acc[jr];
    }
  }
}

struct NtContext {
  const float* a;
  const float* b;       // (N,K) rows, used by the unpacked path.
  const float* packed;  // Transpose-packed NR-wide panels, or nullptr.
  float* c;
  int64_t n;
  int64_t k;
  int64_t num_panels;
  bool accumulate;
  NtTileFn tile;
};

void NtPackedRows(const NtContext& ctx, int64_t row_begin, int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; i += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, row_end - i));
    for (int64_t jb = 0; jb < ctx.num_panels; ++jb) {
      const int64_t j0 = jb * NR;
      const int nr = static_cast<int>(std::min<int64_t>(NR, ctx.n - j0));
      const float* bpanel = ctx.packed + jb * ctx.k * NR;
      if (mr == MR && nr == NR) {
        ctx.tile(ctx.a, bpanel, ctx.c, ctx.n, ctx.k, i, j0, ctx.accumulate);
      } else if (mr == MR) {
        ViaLocalTile(ctx.c, ctx.n, i, j0, nr, ctx.accumulate,
                     [&](float* local) {
                       ctx.tile(ctx.a + i * ctx.k, bpanel, local, NR, ctx.k,
                                /*i0=*/0, /*j0=*/0, ctx.accumulate);
                     });
      } else {
        NtPanelEdge(ctx.a, bpanel, ctx.c, ctx.n, ctx.k, i, mr, j0, nr,
                    ctx.accumulate);
      }
    }
  }
}

// Unpacked small-m NT: MR×4 independent scalar dot chains.
void NtDotTile(const float* a, const float* b, float* c, int64_t n, int64_t k,
               int64_t i0, int64_t j0, bool accumulate) {
  const float* arow[MR];
  const float* brow[kNtScalarColTile];
  for (int r = 0; r < MR; ++r) arow[r] = a + (i0 + r) * k;
  for (int jj = 0; jj < kNtScalarColTile; ++jj) brow[jj] = b + (j0 + jj) * k;
  float acc[MR][kNtScalarColTile] = {};
  for (int64_t p = 0; p < k; ++p) {
    float av[MR], bv[kNtScalarColTile];
    for (int r = 0; r < MR; ++r) av[r] = arow[r][p];
    for (int jj = 0; jj < kNtScalarColTile; ++jj) bv[jj] = brow[jj][p];
    for (int r = 0; r < MR; ++r) {
      for (int jj = 0; jj < kNtScalarColTile; ++jj) {
        acc[r][jj] += av[r] * bv[jj];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* cr = c + (i0 + r) * n + j0;
    for (int jj = 0; jj < kNtScalarColTile; ++jj) {
      cr[jj] = accumulate ? cr[jj] + acc[r][jj] : acc[r][jj];
    }
  }
}

void NtDotEdge(const float* a, const float* b, float* c, int64_t n, int64_t k,
               int64_t i0, int mr, int64_t j0, int nr, bool accumulate) {
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + (i0 + r) * k;
    float* cr = c + (i0 + r) * n + j0;
    for (int jj = 0; jj < nr; ++jj) {
      const float* br = b + (j0 + jj) * k;
      float dot = 0.0f;
      for (int64_t p = 0; p < k; ++p) dot += ar[p] * br[p];
      cr[jj] = accumulate ? cr[jj] + dot : dot;
    }
  }
}

void NtDotRows(const NtContext& ctx, int64_t row_begin, int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; i += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, row_end - i));
    for (int64_t j0 = 0; j0 < ctx.n; j0 += kNtScalarColTile) {
      const int nr =
          static_cast<int>(std::min<int64_t>(kNtScalarColTile, ctx.n - j0));
      if (mr == MR && nr == kNtScalarColTile) {
        NtDotTile(ctx.a, ctx.b, ctx.c, ctx.n, ctx.k, i, j0, ctx.accumulate);
      } else {
        NtDotEdge(ctx.a, ctx.b, ctx.c, ctx.n, ctx.k, i, mr, j0, nr,
                  ctx.accumulate);
      }
    }
  }
}

}  // namespace

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  BlockedAxB(a, /*a_i_stride=*/k, /*a_p_stride=*/1, b, c, m, n, k,
             accumulate);
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  // A stored (K,M): A(i,p) = a[p·m + i].
  BlockedAxB(a, /*a_i_stride=*/1, /*a_p_stride=*/m, b, c, m, n, k,
             accumulate);
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  if (m == 0 || n == 0) return;
  const int64_t num_panels = (n + NR - 1) / NR;
  util::ScopedArena arena;
  NtContext ctx{a, b, nullptr, c, n, k, num_panels, accumulate,
                PickTiles().nt};
  if (m >= kGemmPackMinRows) {
    // Transpose-pack B so the microkernel reads NR output columns per load;
    // the pack costs one pass over B, amortized across m/MR row tiles. The
    // edge panel's lanes past n are zeroed, as in BlockedAxB.
    float* pack = arena.Alloc(static_cast<size_t>(num_panels) * k * NR);
    for (int64_t jb = 0; jb < num_panels; ++jb) {
      const int nr = static_cast<int>(std::min<int64_t>(NR, n - jb * NR));
      float* panel = pack + jb * k * NR;
      if (nr < NR) std::fill(panel, panel + k * NR, 0.0f);
      for (int jr = 0; jr < nr; ++jr) {
        const float* bcol = b + (jb * NR + jr) * k;
        for (int64_t p = 0; p < k; ++p) panel[p * NR + jr] = bcol[p];
      }
    }
    ctx.packed = pack;
    GemmRows(m, n, k, [&ctx](int64_t row_begin, int64_t row_end) {
      NtPackedRows(ctx, row_begin, row_end);
    });
  } else {
    GemmRows(m, n, k, [&ctx](int64_t row_begin, int64_t row_end) {
      NtDotRows(ctx, row_begin, row_end);
    });
  }
}

// -- Reference kernels --------------------------------------------------------
// The exact historical serial loop nests (pre-blocking), kept as the
// bit-identity oracle and the perf baseline.

void GemmNNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      if (a_val == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

void GemmNTRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float dot = 0.0f;
      for (int64_t p = 0; p < k; ++p) dot += a_row[p] * b_row[p];
      if (accumulate) {
        c_row[j] += dot;
      } else {
        c_row[j] = dot;
      }
    }
  }
}

void GemmTNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a[p * m + i];
      if (a_val == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

std::string GemmKernelConfig() {
#ifdef DELREC_NATIVE_BUILD
  const char* native = "on";
#else
  const char* native = "off";
#endif
  return "blocked " + std::to_string(kGemmRowTile) + "x" +
         std::to_string(kGemmColTile) + " microkernel, packed-B (m>=" +
         std::to_string(kGemmPackMinRows) + "), isa=" +
         PickTiles().isa + ", fp-contract=off, pool-backed pack buffers, "
         "march=native " + native;
}

std::string GemmKernelIsa() { return PickTiles().isa; }

}  // namespace delrec::nn
