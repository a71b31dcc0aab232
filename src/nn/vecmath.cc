#include "nn/vecmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.h"

// This translation unit is compiled with -ffp-contract=off (set in
// src/nn/CMakeLists.txt). Every SIMD body below is a lane-for-lane
// transcription of its scalar twin; a contracted FMA on either side would
// round once where the other rounds twice and split their results. The
// GELU's fused multiply-adds are explicit (_mm256_fmadd_ps and std::fma), so
// the flag leaves them alone.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DELREC_VECMATH_X86 1
#include <immintrin.h>
#else
#define DELREC_VECMATH_X86 0
#endif

namespace delrec::nn {
namespace {

// The softmax's lane count: column j of a row feeds lane j % kLanes. AVX-512
// holds the 16 lanes in one register, AVX2 in two 8-lane halves, and the
// scalar twin in an array. A row's last block is padded to 16 lanes with
// −inf, which never wins the max and whose exp is exactly 0.
constexpr int kLanes = 16;
constexpr float kInf = std::numeric_limits<float>::infinity();

// exp(x) for the softmax's x ≤ 0 (or NaN): 2^n · exp(r) with n =
// round(x·log2 e) and r = x − n·ln 2, where ln 2 is split into a short head
// (n·kLn2Hi is exact) and a tail (Cody and Waite), and exp(r) on
// |r| ≤ ln2/2 is Cephes' expf polynomial. Adding kRound = 1.5·2^23 rounds
// x·log2 e to an integer (nearest, ties to even) in the low mantissa bits, so
// n comes out of one add both as a float and as bits. Clamping x at −88 (NaN
// included) keeps n ≥ −127; n = −127 builds the bit pattern 0, so inputs
// below ≈ −87.7 flush to exactly 0 rather than to a subnormal.
constexpr float kExpLo = -88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kRound = 12582912.0f;
// bits(kRound + n) − kExpBias = n + 127, the biased exponent of 2^n.
constexpr int32_t kExpBias = std::bit_cast<int32_t>(kRound) - 127;
constexpr float kP0 = 1.9875691500e-4f;
constexpr float kP1 = 1.3981999507e-3f;
constexpr float kP2 = 8.3334519073e-3f;
constexpr float kP3 = 4.1665795894e-2f;
constexpr float kP4 = 1.6666665459e-1f;
constexpr float kP5 = 5.0000001201e-1f;

// GELU constants: 0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³))), tanh(t) ≈
// t·(135135 + 17325t² + 378t⁴ + t⁶) / (135135 + 62370t² + 3150t⁴ + 28t⁶)
// on t clamped to ±4.97, beyond which the approximant and tanh both read
// ±1 at fp32.
constexpr float kSqrt2OverPi = 0.7978845608f;
constexpr float kGeluCoeff = 0.044715f;
constexpr float kTanhClamp = 4.97f;

// The x86 max/min instructions, operand order included: MAXPS(a, b) returns
// b unless a > b, so NaNs and ±0 resolve the same way in every body.
inline float MaxLane(float a, float b) { return a > b ? a : b; }
inline float MinLane(float a, float b) { return a < b ? a : b; }

// Fixed pairwise tree over the 16 lanes: lane l combines with lane l + 8,
// then l + 4, l + 2 and l + 1, the lower lane always the first operand.
template <typename Op>
float ReduceLanes(float* lanes, Op op) {
  for (int width = kLanes / 2; width >= 1; width /= 2) {
    for (int l = 0; l < width; ++l) lanes[l] = op(lanes[l], lanes[l + width]);
  }
  return lanes[0];
}

// One body's two lane passes over a row: the tree-reduced lane max, and the
// exps of row·scale − shift written back, returning their tree-reduced lane
// sum. The last pass, the multiply by the reciprocal, is elementwise and
// shared by every body.
struct RowPasses {
  float (*max)(const float* row, int64_t cols);
  float (*exp_sum)(float* row, int64_t cols, float scale, float shift);
};

// Runs the passes kRowBlock rows at a time, each pass over the whole block. A
// row's exps wait on its max and its scaling on its sum, but rows are
// independent, so staging lets their dependency chains overlap instead of
// running back to back. Each row's arithmetic is the same either way.
void SoftmaxRowsStaged(const RowPasses& passes, float* x, int64_t rows,
                       int64_t cols, float scale) {
  constexpr int64_t kRowBlock = 8;
  float shift[kRowBlock];
  float inv[kRowBlock];
  for (int64_t i0 = 0; i0 < rows; i0 += kRowBlock) {
    const int64_t n = std::min(kRowBlock, rows - i0);
    float* block = x + i0 * cols;
    for (int64_t r = 0; r < n; ++r) {
      shift[r] = passes.max(block + r * cols, cols) * scale;
    }
    for (int64_t r = 0; r < n; ++r) {
      inv[r] = 1.0f / passes.exp_sum(block + r * cols, cols, scale, shift[r]);
    }
    for (int64_t r = 0; r < n; ++r) {
      float* row = block + r * cols;
      const float row_inv = inv[r];
      for (int64_t j = 0; j < cols; ++j) row[j] *= row_inv;
    }
  }
}

// ---- Scalar twins (the only bodies off x86-64) ----

inline float ExpScalar(float x) {
  x = MaxLane(x, kExpLo);
  const float shifted = x * kLog2e + kRound;
  const float n = shifted - kRound;
  const float r = (x - n * kLn2Hi) - n * kLn2Lo;
  const float z = r * r;
  float y = kP0;
  y = y * r + kP1;
  y = y * r + kP2;
  y = y * r + kP3;
  y = y * r + kP4;
  y = y * r + kP5;
  y = (y * z + r) + 1.0f;
  const uint32_t pow2n =
      static_cast<uint32_t>(std::bit_cast<int32_t>(shifted) - kExpBias) << 23;
  return y * std::bit_cast<float>(pow2n);
}

int64_t PaddedCols(int64_t cols) {
  return (cols + kLanes - 1) / kLanes * kLanes;
}

float RowMaxScalar(const float* row, int64_t cols) {
  float lanes[kLanes];
  std::fill(lanes, lanes + kLanes, -kInf);
  for (int64_t j = 0; j < PaddedCols(cols); ++j) {
    const float v = j < cols ? row[j] : -kInf;
    lanes[j % kLanes] = MaxLane(lanes[j % kLanes], v);
  }
  return ReduceLanes(lanes, MaxLane);
}

float RowExpSumScalar(float* row, int64_t cols, float scale, float shift) {
  float lanes[kLanes] = {};
  for (int64_t j = 0; j < PaddedCols(cols); ++j) {
    const float e = ExpScalar((j < cols ? row[j] : -kInf) * scale - shift);
    if (j < cols) row[j] = e;
    lanes[j % kLanes] += e;
  }
  return ReduceLanes(lanes, [](float a, float b) { return a + b; });
}

// Rounds exactly as GeluRowsAvx2's lanes do: the same fused multiply-adds,
// the same operand order, the same clamp semantics.
inline float GeluScalar(float v) {
  float t = kSqrt2OverPi * std::fma((v * v) * v, kGeluCoeff, v);
  t = MaxLane(-kTanhClamp, MinLane(kTanhClamp, t));
  const float t2 = t * t;
  const float p =
      t * std::fma(t2, std::fma(t2, 378.0f + t2, 17325.0f), 135135.0f);
  const float q = std::fma(
      t2, std::fma(t2, std::fma(t2, 28.0f, 3150.0f), 62370.0f), 135135.0f);
  return (0.5f * v) * (1.0f + p / q);
}

void GeluRowsScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = GeluScalar(x[i]);
}

#if DELREC_VECMATH_X86

// ---- ReduceLanes in registers, on the 16 lanes as two 8-lane halves ----
// _mm_max_ps(a, b) is MaxLane(a, b), and every step keeps the lower lane as
// the first operand.

__attribute__((target("avx2"))) inline float ReduceMaxAvx2(__m256 lo,
                                                         __m256 hi) {
  const __m256 v8 = _mm256_max_ps(lo, hi);
  const __m128 v4 = _mm_max_ps(_mm256_castps256_ps128(v8),
                               _mm256_extractf128_ps(v8, 1));
  const __m128 v2 = _mm_max_ps(v4, _mm_movehl_ps(v4, v4));
  return _mm_cvtss_f32(_mm_max_ps(v2, _mm_shuffle_ps(v2, v2, 1)));
}

__attribute__((target("avx2"))) inline float ReduceSumAvx2(__m256 lo,
                                                         __m256 hi) {
  const __m256 v8 = _mm256_add_ps(lo, hi);
  const __m128 v4 = _mm_add_ps(_mm256_castps256_ps128(v8),
                               _mm256_extractf128_ps(v8, 1));
  const __m128 v2 = _mm_add_ps(v4, _mm_movehl_ps(v4, v4));
  return _mm_cvtss_f32(_mm_add_ps(v2, _mm_shuffle_ps(v2, v2, 1)));
}

// ---- AVX-512: the 16 lanes in one register ----
// GCC 12's _mm512_max_ps, _mm512_slli_epi32 and unmasked extracts pass an
// undefined source vector that -Wmaybe-uninitialized flags. So max is a
// compare plus blend with MaxLane's semantics, the exponent shift is a
// multiply by 2^23, and halves come out of a masked extract with an explicit
// source. The tail block is a masked load with −inf past the row.

__attribute__((target("avx512f"))) inline __m512 MaxAvx512(__m512 a,
                                                          __m512 b) {
  return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, b, _CMP_GT_OQ), b, a);
}

__attribute__((target("avx512f"))) inline __m256 HalfAvx512(__m512 v,
                                                          bool upper) {
  const __m512d d = _mm512_castps_pd(v);
  const __m256d zero = _mm256_setzero_pd();
  return _mm256_castpd_ps(upper ? _mm512_mask_extractf64x4_pd(zero, 0xF, d, 1)
                                : _mm512_mask_extractf64x4_pd(zero, 0xF, d, 0));
}

__attribute__((target("avx512f"))) inline __mmask16 TailMaskAvx512(
    int64_t cols) {
  return static_cast<__mmask16>((1u << (cols % kLanes)) - 1);
}

__attribute__((target("avx512f"))) inline __m512 ExpAvx512(__m512 x) {
  x = MaxAvx512(x, _mm512_set1_ps(kExpLo));
  const __m512 shifted = _mm512_add_ps(
      _mm512_mul_ps(x, _mm512_set1_ps(kLog2e)), _mm512_set1_ps(kRound));
  const __m512 n = _mm512_sub_ps(shifted, _mm512_set1_ps(kRound));
  __m512 r = _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(kLn2Hi)));
  r = _mm512_sub_ps(r, _mm512_mul_ps(n, _mm512_set1_ps(kLn2Lo)));
  const __m512 z = _mm512_mul_ps(r, r);
  __m512 y = _mm512_set1_ps(kP0);
  y = _mm512_add_ps(_mm512_mul_ps(y, r), _mm512_set1_ps(kP1));
  y = _mm512_add_ps(_mm512_mul_ps(y, r), _mm512_set1_ps(kP2));
  y = _mm512_add_ps(_mm512_mul_ps(y, r), _mm512_set1_ps(kP3));
  y = _mm512_add_ps(_mm512_mul_ps(y, r), _mm512_set1_ps(kP4));
  y = _mm512_add_ps(_mm512_mul_ps(y, r), _mm512_set1_ps(kP5));
  y = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(y, z), r),
                    _mm512_set1_ps(1.0f));
  const __m512i pow2n = _mm512_mullo_epi32(
      _mm512_sub_epi32(_mm512_castps_si512(shifted),
                       _mm512_set1_epi32(kExpBias)),
      _mm512_set1_epi32(1 << 23));
  return _mm512_mul_ps(y, _mm512_castsi512_ps(pow2n));
}

// exp(v·scale − shift), the softmax's exp argument.
__attribute__((target("avx512f"))) inline __m512 ScaledExpAvx512(
    __m512 v, __m512 scale, __m512 shift) {
  return ExpAvx512(_mm512_sub_ps(_mm512_mul_ps(v, scale), shift));
}

__attribute__((target("avx512f"))) float RowMaxAvx512(const float* row,
                                                     int64_t cols) {
  const int64_t full = cols - cols % kLanes;
  const __m512 neg_inf = _mm512_set1_ps(-kInf);
  __m512 m = neg_inf;
  for (int64_t j = 0; j < full; j += kLanes) {
    m = MaxAvx512(m, _mm512_loadu_ps(row + j));
  }
  if (full < cols) {
    m = MaxAvx512(
        m, _mm512_mask_loadu_ps(neg_inf, TailMaskAvx512(cols), row + full));
  }
  return ReduceMaxAvx2(HalfAvx512(m, false), HalfAvx512(m, true));
}

__attribute__((target("avx512f"))) float RowExpSumAvx512(float* row,
                                                        int64_t cols,
                                                        float scale,
                                                        float shift) {
  const int64_t full = cols - cols % kLanes;
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 vshift = _mm512_set1_ps(shift);
  // Two blocks per step so two exp chains overlap; the lane sums still take
  // the blocks in ascending order.
  __m512 s = _mm512_setzero_ps();
  int64_t j = 0;
  for (; j + 2 * kLanes <= full; j += 2 * kLanes) {
    const __m512 e0 =
        ScaledExpAvx512(_mm512_loadu_ps(row + j), vscale, vshift);
    const __m512 e1 =
        ScaledExpAvx512(_mm512_loadu_ps(row + j + kLanes), vscale, vshift);
    _mm512_storeu_ps(row + j, e0);
    _mm512_storeu_ps(row + j + kLanes, e1);
    s = _mm512_add_ps(_mm512_add_ps(s, e0), e1);
  }
  if (j < full) {
    const __m512 e = ScaledExpAvx512(_mm512_loadu_ps(row + j), vscale, vshift);
    _mm512_storeu_ps(row + j, e);
    s = _mm512_add_ps(s, e);
  }
  if (full < cols) {
    const __mmask16 mask = TailMaskAvx512(cols);
    const __m512 e = ScaledExpAvx512(
        _mm512_mask_loadu_ps(_mm512_set1_ps(-kInf), mask, row + full), vscale,
        vshift);
    _mm512_mask_storeu_ps(row + full, mask, e);
    s = _mm512_add_ps(s, e);
  }
  return ReduceSumAvx2(HalfAvx512(s, false), HalfAvx512(s, true));
}

// ---- AVX2: the same 16 lanes as two 8-lane halves ----

__attribute__((target("avx2"))) inline __m256 ExpAvx2(__m256 x) {
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  const __m256 shifted = _mm256_add_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)), _mm256_set1_ps(kRound));
  const __m256 n = _mm256_sub_ps(shifted, _mm256_set1_ps(kRound));
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 y = _mm256_set1_ps(kP0);
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kP1));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kP2));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kP3));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kP4));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kP5));
  y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r),
                    _mm256_set1_ps(1.0f));
  const __m256i pow2n = _mm256_slli_epi32(
      _mm256_sub_epi32(_mm256_castps_si256(shifted),
                       _mm256_set1_epi32(kExpBias)),
      23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

__attribute__((target("avx2"))) inline __m256 ScaledExpAvx2(__m256 v,
                                                          __m256 scale,
                                                          __m256 shift) {
  return ExpAvx2(_mm256_sub_ps(_mm256_mul_ps(v, scale), shift));
}

// Where one half (lanes 0–7 or 8–15) of a row's tail block starts, and the
// mask of its lanes that lie inside the row. The masked loads and stores
// below touch only those lanes, and a half that starts past the row's end is
// not addressed at all.
int64_t TailHalfStart(int64_t cols, bool upper) {
  return cols - cols % kLanes + (upper ? 8 : 0);
}

__attribute__((target("avx2"))) inline __m256i TailMaskAvx2(int64_t cols,
                                                          bool upper) {
  const int inside = static_cast<int>(cols - TailHalfStart(cols, upper));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(inside),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// The row's values in that half, −inf past the end.
__attribute__((target("avx2"))) inline __m256 LoadTailAvx2(const float* row,
                                                         int64_t cols,
                                                         bool upper) {
  const int64_t start = TailHalfStart(cols, upper);
  if (start >= cols) return _mm256_set1_ps(-kInf);
  const __m256i mask = TailMaskAvx2(cols, upper);
  return _mm256_blendv_ps(_mm256_set1_ps(-kInf),
                          _mm256_maskload_ps(row + start, mask),
                          _mm256_castsi256_ps(mask));
}

__attribute__((target("avx2"))) inline void StoreTailAvx2(float* row,
                                                        int64_t cols,
                                                        bool upper, __m256 v) {
  const int64_t start = TailHalfStart(cols, upper);
  if (start < cols) {
    _mm256_maskstore_ps(row + start, TailMaskAvx2(cols, upper), v);
  }
}

__attribute__((target("avx2"))) float RowMaxAvx2(const float* row,
                                                int64_t cols) {
  const int64_t full = cols - cols % kLanes;
  __m256 lo = _mm256_set1_ps(-kInf);
  __m256 hi = lo;
  for (int64_t j = 0; j < full; j += kLanes) {
    lo = _mm256_max_ps(lo, _mm256_loadu_ps(row + j));
    hi = _mm256_max_ps(hi, _mm256_loadu_ps(row + j + 8));
  }
  if (full < cols) {
    lo = _mm256_max_ps(lo, LoadTailAvx2(row, cols, false));
    hi = _mm256_max_ps(hi, LoadTailAvx2(row, cols, true));
  }
  return ReduceMaxAvx2(lo, hi);
}

__attribute__((target("avx2"))) float RowExpSumAvx2(float* row, int64_t cols,
                                                   float scale, float shift) {
  const int64_t full = cols - cols % kLanes;
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vshift = _mm256_set1_ps(shift);
  __m256 slo = _mm256_setzero_ps();
  __m256 shi = slo;
  for (int64_t j = 0; j < full; j += kLanes) {
    const __m256 elo = ScaledExpAvx2(_mm256_loadu_ps(row + j), vscale, vshift);
    const __m256 ehi =
        ScaledExpAvx2(_mm256_loadu_ps(row + j + 8), vscale, vshift);
    _mm256_storeu_ps(row + j, elo);
    _mm256_storeu_ps(row + j + 8, ehi);
    slo = _mm256_add_ps(slo, elo);
    shi = _mm256_add_ps(shi, ehi);
  }
  if (full < cols) {
    const __m256 elo =
        ScaledExpAvx2(LoadTailAvx2(row, cols, false), vscale, vshift);
    const __m256 ehi =
        ScaledExpAvx2(LoadTailAvx2(row, cols, true), vscale, vshift);
    StoreTailAvx2(row, cols, false, elo);
    StoreTailAvx2(row, cols, true, ehi);
    slo = _mm256_add_ps(slo, elo);
    shi = _mm256_add_ps(shi, ehi);
  }
  return ReduceSumAvx2(slo, shi);
}

__attribute__((target("avx2,fma"))) void GeluRowsAvx2(float* x, int64_t n) {
  const __m256 ks = _mm256_set1_ps(kSqrt2OverPi);
  const __m256 kc = _mm256_set1_ps(kGeluCoeff);
  const __m256 clamp = _mm256_set1_ps(kTanhClamp);
  const __m256 c0 = _mm256_set1_ps(135135.0f);
  const __m256 c1 = _mm256_set1_ps(17325.0f);
  const __m256 c2 = _mm256_set1_ps(378.0f);
  const __m256 d1 = _mm256_set1_ps(62370.0f);
  const __m256 d2 = _mm256_set1_ps(3150.0f);
  const __m256 d3 = _mm256_set1_ps(28.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    __m256 t = _mm256_mul_ps(
        ks, _mm256_fmadd_ps(_mm256_mul_ps(_mm256_mul_ps(v, v), v), kc, v));
    t = _mm256_max_ps(_mm256_sub_ps(_mm256_setzero_ps(), clamp),
                      _mm256_min_ps(clamp, t));
    const __m256 t2 = _mm256_mul_ps(t, t);
    const __m256 p = _mm256_mul_ps(
        t, _mm256_fmadd_ps(
               t2, _mm256_fmadd_ps(t2, _mm256_add_ps(c2, t2), c1), c0));
    const __m256 q = _mm256_fmadd_ps(
        t2, _mm256_fmadd_ps(t2, _mm256_fmadd_ps(t2, d3, d2), d1), c0);
    _mm256_storeu_ps(
        x + i, _mm256_mul_ps(_mm256_mul_ps(half, v),
                             _mm256_add_ps(one, _mm256_div_ps(p, q))));
  }
  for (; i < n; ++i) x[i] = GeluScalar(x[i]);
}

bool HasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // DELREC_VECMATH_X86

struct Bodies {
  RowPasses softmax;
  void (*gelu)(float*, int64_t);
};

Bodies BodiesFor(VecMathBody body) {
#if DELREC_VECMATH_X86
  if (body == VecMathBody::kAvx512) {
    return {{RowMaxAvx512, RowExpSumAvx512}, GeluRowsAvx2};
  }
  if (body == VecMathBody::kAvx2) {
    return {{RowMaxAvx2, RowExpSumAvx2}, GeluRowsAvx2};
  }
#endif
  return {{RowMaxScalar, RowExpSumScalar}, GeluRowsScalar};
}

const Bodies& Dispatched() {
  static const Bodies bodies = BodiesFor(
      VecMathBodySupported(VecMathBody::kAvx512) ? VecMathBody::kAvx512
      : VecMathBodySupported(VecMathBody::kAvx2) ? VecMathBody::kAvx2
                                                 : VecMathBody::kScalar);
  return bodies;
}

}  // namespace

void ApproxSoftmaxRows(float* x, int64_t rows, int64_t cols, float scale) {
  SoftmaxRowsStaged(Dispatched().softmax, x, rows, cols, scale);
}

void ApproxGelu(float* x, int64_t n) { Dispatched().gelu(x, n); }

bool VecMathBodySupported(VecMathBody body) {
#if DELREC_VECMATH_X86
  if (body == VecMathBody::kAvx512) {
    return __builtin_cpu_supports("avx512f") && HasAvx2Fma();
  }
  if (body == VecMathBody::kAvx2) return HasAvx2Fma();
#endif
  return body == VecMathBody::kScalar;
}

void ApproxSoftmaxRowsWith(VecMathBody body, float* x, int64_t rows,
                           int64_t cols, float scale) {
  DELREC_CHECK(VecMathBodySupported(body));
  SoftmaxRowsStaged(BodiesFor(body).softmax, x, rows, cols, scale);
}

void ApproxGeluWith(VecMathBody body, float* x, int64_t n) {
  DELREC_CHECK(VecMathBodySupported(body));
  BodiesFor(body).gelu(x, n);
}

}  // namespace delrec::nn
