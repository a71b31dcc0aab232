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

// MaxLane and + as in-place lane ops, on floats or vectors alike. `b < a`
// is `a > b`, spelled so that GCC emits the max instruction instead of a
// compare and a blend.
constexpr auto kMaxInPlace = [](auto& a, const auto& b) { a = b < a ? a : b; };
constexpr auto kAddInPlace = [](auto& a, const auto& b) { a += b; };

// Fixed pairwise tree over the 16 lanes, into lane 0: lane l combines with
// lane l + 8, then l + 4, l + 2 and l + 1, the lower lane always the first
// operand. The lanes are floats in the scalar twin and vectors (one lane per
// row) in the attention head.
template <typename T, typename Op>
[[gnu::always_inline]] inline void FoldTree(T (&lanes)[kLanes], Op op) {
#pragma GCC unroll 4
  for (int width = kLanes / 2; width >= 1; width /= 2) {
#pragma GCC unroll 8
    for (int l = 0; l < width; ++l) op(lanes[l], lanes[l + width]);
  }
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
  FoldTree(lanes, kMaxInPlace);
  return lanes[0];
}

float RowExpSumScalar(float* row, int64_t cols, float scale, float shift) {
  float lanes[kLanes] = {};
  for (int64_t j = 0; j < PaddedCols(cols); ++j) {
    const float e = ExpScalar((j < cols ? row[j] : -kInf) * scale - shift);
    if (j < cols) row[j] = e;
    lanes[j % kLanes] += e;
  }
  FoldTree(lanes, kAddInPlace);
  return lanes[0];
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

// FoldTree on one vector: halve it with __builtin_shufflevector,
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

// FoldTree on the 16 lanes as kLanes/W vectors: lane l and lane
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

// x ← ExpScalar(x·scale − shift), lane for lane; `shift` is one float for
// every lane or a vector of one per lane.
template <int W, typename Shift>
[[gnu::always_inline]] inline void ScaledExpInPlace(
    typename VectorOf<float, W>::type& x, float scale, const Shift& shift) {
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

// ---- Attention: one head, a tile of W query rows in the vector lanes ----
// Lane l of every vector below belongs to query row i0 + l, and no step
// reads across lanes, so each row runs its own scalar sequence: GemmNTRef's
// dots, the softmax, GemmNNRef's sums. A tile's logits are stored as columns
// of W lanes, one per key, in scratch; the 16 partials that RowMax and
// RowExpSum keep per row become 16 vectors, column j feeding partial
// j mod 16, and FoldTree runs across them. A partial last tile computes its
// spare lanes from zero queries, but never calls std::exp for them nor
// stores them.

// Keys per logits block and value columns per ·V block: one accumulator
// vector each, held in registers across the inner loop.
constexpr int kKeyBlock = 8;
constexpr int kValueBlock = 8;

// Row j of a head's keys or values: the cached prefix rows, then the
// sequence's own.
inline const float* KvRow(const AttentionHead& h, const float* cached_rows,
                          const float* own_rows, int64_t j) {
  return j < h.cached ? cached_rows + j * h.stride
                      : own_rows + (j - h.cached) * h.stride;
}

// Logit columns [j0, j0 + kKeyBlock): each lane's 0 + q₀k₀ + q₁k₁ + … in
// ascending p, as GemmNTRef sums it, with kⱼₚ broadcast from the key row in
// place. Keys past the last one reread it into columns nothing reads as
// logits; `qt` holds the tile's queries, one vector per p.
template <int W>
[[gnu::always_inline]] inline void LogitBlock(const AttentionHead& h,
                                              const float* qt, int64_t j0,
                                              float* cols) {
  using V = typename VectorOf<float, W>::type;
  const int64_t last = h.cached + h.own - 1;
  const float* k[kKeyBlock];
#pragma GCC unroll 8
  for (int b = 0; b < kKeyBlock; ++b) {
    k[b] = KvRow(h, h.cached_keys, h.keys, std::min(j0 + b, last));
  }
  V s[kKeyBlock] = {};
  for (int64_t p = 0; p < h.head_dim; ++p) {
    V q;
    std::memcpy(&q, qt + p * W, sizeof q);
#pragma GCC unroll 8
    for (int b = 0; b < kKeyBlock; ++b) s[b] += q * k[b][p];
  }
#pragma GCC unroll 8
  for (int b = 0; b < kKeyBlock; ++b) {
    std::memcpy(cols + (j0 + b) * W, &s[b], sizeof s[b]);
  }
}

// ExpSumBlock on up to 16 columns, one per partial.
template <int W>
[[gnu::always_inline]] inline void ExpSumColumns(
    float* cols, int64_t n, float scale,
    const typename VectorOf<float, W>::type& shift,
    typename VectorOf<float, W>::type (&sums)[kLanes]) {
  using V = typename VectorOf<float, W>::type;
#pragma GCC unroll 16
  for (int b = 0; b < kLanes; ++b) {
    if (b < n) {
      V e;
      std::memcpy(&e, cols + b * W, sizeof e);
      ScaledExpInPlace<W>(e, scale, shift);
      sums[b] += e;
      std::memcpy(cols + b * W, &e, sizeof e);
    }
  }
}

// ApproxSoftmaxRows on the tile's logit columns: leaves their exps in place
// and 1 / (their sum) in `inv`. The −inf padding columns up to the next
// multiple of 16 fold into the max exactly as RowMax's tail does (which is
// not a no-op: it turns a NaN partial into −inf); their exps are +0 for any
// shift, so the sums skip them.
template <int W>
[[gnu::always_inline]] inline void ApproxSoftmaxColumns(
    float* cols, int64_t keys, float scale,
    typename VectorOf<float, W>::type& inv) {
  using V = typename VectorOf<float, W>::type;
  const int64_t padded = PaddedCols(keys);
  const V neg_inf = V{} - kInf;
  for (int64_t j = keys; j < padded; ++j) {
    std::memcpy(cols + j * W, &neg_inf, sizeof neg_inf);
  }
  V part[kLanes];
#pragma GCC unroll 16
  for (V& v : part) v = neg_inf;
  for (int64_t j0 = 0; j0 < padded; j0 += kLanes) {
#pragma GCC unroll 16
    for (int b = 0; b < kLanes; ++b) {
      V x;
      std::memcpy(&x, cols + (j0 + b) * W, sizeof x);
      kMaxInPlace(part[b], x);
    }
  }
  FoldTree(part, kMaxInPlace);
  const V shift = part[0] * scale;
#pragma GCC unroll 16
  for (V& v : part) v = V{};
  const int64_t full = keys - keys % kLanes;
  for (int64_t j0 = 0; j0 < full; j0 += kLanes) {
    ExpSumColumns<W>(cols + j0 * W, kLanes, scale, shift, part);
  }
  if (full < keys) {
    ExpSumColumns<W>(cols + full * W, keys - full, scale, shift, part);
  }
  FoldTree(part, kAddInPlace);
  inv = 1.0f / part[0];
}

// The fp32 path's scale then SoftmaxRows on the tile's logit columns: the
// max chain from column 0 with std::max's operand order, std::exp(x − max)
// on the `live` rows' lanes only, the sum in column order. Leaves the exps
// in place and 1 / (their sum) in `inv`.
template <int W>
[[gnu::always_inline]] inline void StdSoftmaxColumns(
    float* cols, int64_t keys, float scale, int live,
    typename VectorOf<float, W>::type& inv) {
  using V = typename VectorOf<float, W>::type;
  V mx = {};
  for (int64_t j = 0; j < keys; ++j) {
    V x;
    std::memcpy(&x, cols + j * W, sizeof x);
    x *= scale;
    std::memcpy(cols + j * W, &x, sizeof x);
    if (j == 0) mx = x;
    mx = mx < x ? x : mx;  // std::max(mx, x).
  }
  float max_lanes[W];
  std::memcpy(max_lanes, &mx, sizeof mx);
  V denom = {};
  for (int64_t j = 0; j < keys; ++j) {
    float* col = cols + j * W;
    for (int l = 0; l < live; ++l) col[l] = std::exp(col[l] - max_lanes[l]);
    V e;
    std::memcpy(&e, col, sizeof e);
    denom += e;
  }
  inv = 1.0f / denom;
}

// GemmNNRef on the weights a = e·inv: each output lane is 0 + a₀v₀ + a₁v₁
// + … over the keys in ascending order, skipping the lanes whose weight is
// 0, with vⱼ꜀ broadcast from the value row in place. Columns run
// kValueBlock at a time; a short last block rereads its last column into
// accumulators it never stores.
template <int W>
[[gnu::always_inline]] inline void WeightedValues(
    const AttentionHead& h, const float* cols,
    const typename VectorOf<float, W>::type& inv, int64_t i0, int live) {
  using V = typename VectorOf<float, W>::type;
  const int64_t keys = h.cached + h.own;
  for (int64_t c0 = 0; c0 < h.head_dim; c0 += kValueBlock) {
    const int64_t n = std::min<int64_t>(kValueBlock, h.head_dim - c0);
    int64_t col[kValueBlock];
#pragma GCC unroll 8
    for (int b = 0; b < kValueBlock; ++b) {
      col[b] = c0 + std::min<int64_t>(b, n - 1);
    }
    V acc[kValueBlock] = {};
    for (int64_t j = 0; j < keys; ++j) {
      const float* v = KvRow(h, h.cached_values, h.values, j);
      V a;
      std::memcpy(&a, cols + j * W, sizeof a);
      a *= inv;
      const auto weighted = a != V{};
#pragma GCC unroll 8
      for (int b = 0; b < kValueBlock; ++b) {
        acc[b] = weighted ? acc[b] + a * v[col[b]] : acc[b];
      }
    }
    float lanes[kValueBlock][W];
    std::memcpy(lanes, acc, sizeof lanes);
    for (int l = 0; l < live; ++l) {
      float* out = h.out + (i0 + l) * h.stride + c0;
      for (int64_t b = 0; b < n; ++b) out[b] = lanes[b][l];
    }
  }
}

template <int W>
[[gnu::always_inline]] inline void AttendHeadTiles(const AttentionHead& h,
                                                   float* scratch) {
  using V = typename VectorOf<float, W>::type;
  const int64_t keys = h.cached + h.own;
  float* qt = scratch;
  float* cols = scratch + h.head_dim * W;
  for (int64_t i0 = 0; i0 < h.rows; i0 += W) {
    const int live = static_cast<int>(std::min<int64_t>(W, h.rows - i0));
    for (int64_t p = 0; p < h.head_dim; ++p) {
      for (int l = 0; l < W; ++l) {
        qt[p * W + l] = l < live ? h.queries[(i0 + l) * h.stride + p] : 0.0f;
      }
    }
    for (int64_t j0 = 0; j0 < keys; j0 += kKeyBlock) {
      LogitBlock<W>(h, qt, j0, cols);
    }
    V inv;
    if (h.softmax == AttentionSoftmax::kApprox) {
      ApproxSoftmaxColumns<W>(cols, keys, h.scale, inv);
    } else {
      StdSoftmaxColumns<W>(cols, keys, h.scale, live, inv);
    }
    WeightedValues<W>(h, cols, inv, i0, live);
  }
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
  void (*attend)(const AttentionHead&, float*);
};

Bodies BodiesFor(VecMathBody body) {
#if DELREC_VECMATH_X86
  if (body == VecMathBody::kAvx512) {
    return {{InAvx512<RowMax<16>>, InAvx512<RowExpSum<16>>},
            GeluRowsAvx2,
            InAvx512<AttendHeadTiles<16>>};
  }
  if (body == VecMathBody::kAvx2) {
    return {{InAvx2Fma<RowMax<8>>, InAvx2Fma<RowExpSum<8>>},
            GeluRowsAvx2,
            InAvx2Fma<AttendHeadTiles<8>>};
  }
#endif
  if (body == VecMathBody::kVec4) {
    return {{RowMax<4>, RowExpSum<4>}, GeluRowsScalar, AttendHeadTiles<4>};
  }
  return {{RowMaxScalar, RowExpSumScalar}, GeluRowsScalar, AttendHeadTiles<4>};
}

void CheckHead(const AttentionHead& head) {
  DELREC_CHECK_GT(head.rows, 0);
  DELREC_CHECK_GE(head.cached, 0);
  DELREC_CHECK_GT(head.cached + head.own, 0);
  DELREC_CHECK_GT(head.head_dim, 0);
  DELREC_CHECK_GT(head.scale, 0.0f);
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

void AttendHead(const AttentionHead& head, float* scratch) {
  CheckHead(head);
  Dispatched().attend(head, scratch);
}

int64_t AttendHeadScratch(int64_t keys, int64_t head_dim) {
  // The widest body's tile: head_dim query vectors, then one logit column
  // per key, padded to a whole block of 16 columns.
  return (head_dim + PaddedCols(keys)) * kLanes;
}

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

void AttendHeadWith(VecMathBody body, const AttentionHead& head,
                    float* scratch) {
  DELREC_CHECK(VecMathBodySupported(body));
  CheckHead(head);
  BodiesFor(body).attend(head, scratch);
}

}  // namespace delrec::nn
