#include "nn/vecmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

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

// The softmax's lane count: column j of a row feeds lane j % kLanes. A
// vector body holds the 16 lanes as 16/W vectors of W lanes, the scalar twin
// in an array. A row's last block is padded to 16 lanes with −inf, which
// never wins the max and whose exp is exactly 0.
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

// ---- Vector bodies: one template per pass, W lanes per vector ----
// The 16 lanes are held as 16/W vectors of W lanes (vector v holds lanes
// [v·W, v·W + W)), and every lane performs its scalar twin's operations in
// the same order. The body is instantiated at 16 lanes under
// target("avx512f"), at 8 under target("avx2,fma"), and at 4 for every
// other host.
// Wide vectors cross no function boundary by value (outside a target
// context that changes the ABI): the lane ops below update their first
// operand in place.

// W lanes of T. The member alias is what makes W a real dependent vector
// size (GCC drops the attribute on an alias template).
template <typename T, int W>
struct VectorOf {
  using type [[gnu::vector_size(W * sizeof(T))]] = T;
};

// MaxLane and + as in-place lane ops, on floats or vectors alike. `b < a`
// is `a > b`, spelled so that GCC emits the max instruction instead of a
// compare and a blend.
constexpr auto kMaxInPlace = [](auto& a, const auto& b) { a = b < a ? a : b; };
constexpr auto kAddInPlace = [](auto& a, const auto& b) { a += b; };

// ReduceLanes' tree on one vector: halve it with __builtin_shufflevector,
// the lower half always the first operand, down to one lane.
template <int W, typename Op>
[[gnu::always_inline]] inline float HalveLanes(
    const typename VectorOf<float, W>::type& v, Op op) {
  if constexpr (W == 2) {
    float lo = v[0];
    op(lo, v[1]);
    return lo;
  } else {
    typename VectorOf<float, W / 2>::type lo, hi;
    [&]<int... I>(std::integer_sequence<int, I...>) {
      lo = __builtin_shufflevector(v, v, I...);
      hi = __builtin_shufflevector(v, v, (I + W / 2)...);
    }(std::make_integer_sequence<int, W / 2>{});
    op(lo, hi);
    return HalveLanes<W / 2>(lo, op);
  }
}

template <int W>
using Lanes = typename VectorOf<float, W>::type[kLanes / W];

// Every loop over a body's vectors is fully unrolled, so each index into a
// Lanes array is a constant and the array lives in registers; GCC keeps an
// array indexed at run time in memory.

// ReduceLanes on the 16 lanes as kLanes/W vectors: lane l and lane
// l + width sit in different vectors until width < W, then in one.
template <int W, typename Op>
[[gnu::always_inline]] inline float ReduceVectorLanes(Lanes<W>& v, Op op) {
#pragma GCC unroll 4
  for (int half = kLanes / W / 2; half >= 1; half /= 2) {
#pragma GCC unroll 4
    for (int i = 0; i < half; ++i) op(v[i], v[i + half]);
  }
  return HalveLanes<W>(v[0], op);
}

// x ← ExpScalar(x·scale − shift), lane for lane.
template <int W>
[[gnu::always_inline]] inline void ScaledExpInPlace(
    typename VectorOf<float, W>::type& x, float scale, float shift) {
  using V = typename VectorOf<float, W>::type;
  using U = typename VectorOf<uint32_t, W>::type;
  x = x * scale - shift;
  kMaxInPlace(x, V{} + kExpLo);
  const V shifted = x * kLog2e + kRound;
  const V n = shifted - kRound;
  const V r = (x - n * kLn2Hi) - n * kLn2Lo;
  const V z = r * r;
  V y = kP0 * r + kP1;
  y = y * r + kP2;
  y = y * r + kP3;
  y = y * r + kP4;
  y = y * r + kP5;
  y = (y * z + r) + 1.0f;
  const U pow2n = (__builtin_bit_cast(U, shifted) - uint32_t{kExpBias}) << 23;
  x = y * __builtin_bit_cast(V, pow2n);
}

// A row's last, partial block of n < 16 columns, padded to 16 lanes with
// −inf in a local array, so no load or store reaches past the end of the
// row. Both loops run the fixed 16 lanes (a loop over n would become a
// library call).
struct Tail {
  float lanes[kLanes];
  Tail(const float* block, int n) {
    for (int l = 0; l < kLanes; ++l) lanes[l] = l < n ? block[l] : -kInf;
  }
  void CopyTo(float* block, int n) const {
    for (int l = 0; l < kLanes; ++l) {
      if (l < n) block[l] = lanes[l];
    }
  }
};

template <int W>
[[gnu::always_inline]] inline void MaxBlock(const float* block, Lanes<W>& m) {
  using V = typename VectorOf<float, W>::type;
#pragma GCC unroll 4
  for (int v = 0; v < kLanes / W; ++v) {
    V x;
    std::memcpy(&x, block + v * W, sizeof x);
    kMaxInPlace(m[v], x);
  }
}

template <int W>
[[gnu::always_inline]] inline float RowMax(const float* row, int64_t cols) {
  using V = typename VectorOf<float, W>::type;
  Lanes<W> m;
#pragma GCC unroll 4
  for (V& v : m) v = V{} - kInf;
  const int64_t full = cols - cols % kLanes;
  for (int64_t j = 0; j < full; j += kLanes) MaxBlock<W>(row + j, m);
  if (full < cols) {
    MaxBlock<W>(Tail(row + full, static_cast<int>(cols - full)).lanes, m);
  }
  return ReduceVectorLanes<W>(m, kMaxInPlace);
}

// Replaces a block with its exps and adds them into the lane sums.
template <int W>
[[gnu::always_inline]] inline void ExpSumBlock(float* block, Lanes<W>& s,
                                               float scale, float shift) {
  using V = typename VectorOf<float, W>::type;
#pragma GCC unroll 4
  for (int v = 0; v < kLanes / W; ++v) {
    V e;
    std::memcpy(&e, block + v * W, sizeof e);
    ScaledExpInPlace<W>(e, scale, shift);
    s[v] += e;
    std::memcpy(block + v * W, &e, sizeof e);
  }
}

template <int W>
[[gnu::always_inline]] inline float RowExpSum(float* row, int64_t cols,
                                              float scale, float shift) {
  Lanes<W> s = {};
  const int64_t full = cols - cols % kLanes;
  for (int64_t j = 0; j < full; j += kLanes) {
    ExpSumBlock<W>(row + j, s, scale, shift);
  }
  if (full < cols) {
    const int n = static_cast<int>(cols - full);
    Tail tail(row + full, n);
    ExpSumBlock<W>(tail.lanes, s, scale, shift);
    tail.CopyTo(row + full, n);
  }
  return ReduceVectorLanes<W>(s, kAddInPlace);
}

#if DELREC_VECMATH_X86

// Compiles an always-inline body into a function of the named target, so
// its vectors get that target's registers; only pointers and scalars cross
// the call.
template <auto kBody, typename R, typename... Args>
[[gnu::target("avx512f")]] R InAvx512(Args... args) {
  return kBody(args...);
}
template <auto kBody, typename R, typename... Args>
[[gnu::target("avx2,fma")]] R InAvx2Fma(Args... args) {
  return kBody(args...);
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
    return {{InAvx512<RowMax<16>>, InAvx512<RowExpSum<16>>}, GeluRowsAvx2};
  }
  if (body == VecMathBody::kAvx2) {
    return {{InAvx2Fma<RowMax<8>>, InAvx2Fma<RowExpSum<8>>}, GeluRowsAvx2};
  }
#endif
  if (body == VecMathBody::kVec4) {
    return {{RowMax<4>, RowExpSum<4>}, GeluRowsScalar};
  }
  return {{RowMaxScalar, RowExpSumScalar}, GeluRowsScalar};
}

const Bodies& Dispatched() {
  static const Bodies bodies = BodiesFor(
      VecMathBodySupported(VecMathBody::kAvx512) ? VecMathBody::kAvx512
      : VecMathBodySupported(VecMathBody::kAvx2) ? VecMathBody::kAvx2
                                                 : VecMathBody::kVec4);
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
  return body == VecMathBody::kScalar || body == VecMathBody::kVec4;
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
