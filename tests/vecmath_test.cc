// The served teacher's kernels (nn/vecmath.h): every SIMD body this host can
// run must return the scalar twin's bits, over row lengths that cross the
// 16-lane block and its tail, underflowing entries, equal entries and
// single-entry rows. The approximations are also held to their stated error
// against the std::exp softmax and the std::tanh GELU the fp32 path uses,
// and the fused attention head to the bits of the GEMM and softmax sequence
// it replaces.
#include "nn/vecmath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace delrec::nn {
namespace {

constexpr VecMathBody kBodies[] = {VecMathBody::kScalar, VecMathBody::kVec4,
                                   VecMathBody::kAvx2, VecMathBody::kAvx512};
// Attention's 1/√head_dim at head_dim 8.
const float kScale = 1.0f / std::sqrt(8.0f);

const char* Name(VecMathBody body) {
  switch (body) {
    case VecMathBody::kScalar:
      return "scalar";
    case VecMathBody::kVec4:
      return "vec4";
    case VecMathBody::kAvx2:
      return "avx2";
    case VecMathBody::kAvx512:
      return "avx512";
  }
  return "?";
}

std::vector<int64_t> RowLengths() {
  std::vector<int64_t> lengths;
  for (int64_t c = 1; c <= 40; ++c) lengths.push_back(c);
  lengths.push_back(98);   // two_tier_swap's suffix context: 6 blocks + 2.
  lengths.push_back(130);  // 8 blocks + 2.
  return lengths;
}

// kRows rows of `cols` logits cycling through three kinds: random, one entry
// far above the rest (every other exp underflows to 0), and all equal. 11
// rows cross the kernel's 8-row staging block.
constexpr int64_t kRows = 11;

std::vector<float> LogitRows(int64_t cols, util::Rng& rng) {
  std::vector<float> x(static_cast<size_t>(kRows * cols));
  for (int64_t r = 0; r < kRows; ++r) {
    float* row = x.data() + r * cols;
    for (int64_t j = 0; j < cols; ++j) {
      if (r % 3 == 0) {
        row[j] = rng.UniformFloat(-12.0f, 12.0f);
      } else if (r % 3 == 1) {
        row[j] = rng.UniformFloat(-1.0f, 1.0f) - 100.0f / kScale;
      } else {
        row[j] = 0.75f;
      }
    }
    if (r % 3 == 1) row[rng.UniformUint64(cols)] = 3.0f;
  }
  return x;
}

// The fp32 path's softmax (nn::Softmax's arithmetic): scale, row max,
// std::exp, denominator summed in column order, times the reciprocal.
void StdExpSoftmax(float* x, int64_t rows, int64_t cols, float scale) {
  for (int64_t i = 0; i < rows; ++i) {
    float* row = x + i * cols;
    for (int64_t j = 0; j < cols; ++j) row[j] *= scale;
    const float mx = *std::max_element(row, row + cols);
    float denom = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const float inv = 1.0f / denom;
    for (int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

float StdTanhGelu(float v) {
  const float inner = 0.7978845608f * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + std::tanh(inner));
}

TEST(VecMathTest, SoftmaxBodiesMatchScalarTwinBitwise) {
  util::Rng rng(2024);
  for (const int64_t cols : RowLengths()) {
    const std::vector<float> x = LogitRows(cols, rng);
    std::vector<float> expected = x;
    ApproxSoftmaxRowsWith(VecMathBody::kScalar, expected.data(), kRows, cols,
                          kScale);
    for (const VecMathBody body : kBodies) {
      if (!VecMathBodySupported(body)) continue;
      std::vector<float> actual = x;
      ApproxSoftmaxRowsWith(body, actual.data(), kRows, cols, kScale);
      ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                            expected.size() * sizeof(float)),
                0)
          << Name(body) << " cols=" << cols;
    }
    // The dispatched body, on each row alone: a row's result does not depend
    // on the rows around it.
    for (int64_t r = 0; r < kRows; ++r) {
      std::vector<float> alone(x.begin() + r * cols,
                               x.begin() + (r + 1) * cols);
      ApproxSoftmaxRows(alone.data(), 1, cols, kScale);
      ASSERT_EQ(std::memcmp(alone.data(), expected.data() + r * cols,
                            alone.size() * sizeof(float)),
                0)
          << "row " << r << " cols=" << cols;
    }
  }
}

TEST(VecMathTest, SoftmaxEdgeRowsAreExact) {
  for (const int64_t cols : RowLengths()) {
    // Equal entries: every exp is exactly 1, so each output is 1/cols.
    std::vector<float> equal(static_cast<size_t>(cols), -4.5f);
    ApproxSoftmaxRows(equal.data(), 1, cols, kScale);
    for (const float v : equal) ASSERT_EQ(v, 1.0f / static_cast<float>(cols));
    // Entries 100 (after scaling) below the max underflow to exactly 0 and
    // leave the max with all the mass.
    std::vector<float> spike(static_cast<size_t>(cols), -100.0f / kScale);
    spike[cols / 2] = 1.0f;
    ApproxSoftmaxRows(spike.data(), 1, cols, kScale);
    for (int64_t j = 0; j < cols; ++j) {
      ASSERT_EQ(spike[j], j == cols / 2 ? 1.0f : 0.0f) << "cols=" << cols;
    }
  }
  float single = -7.0f;
  ApproxSoftmaxRows(&single, 1, 1, kScale);
  EXPECT_EQ(single, 1.0f);
}

TEST(VecMathTest, SoftmaxStaysWithinStatedErrorOfStdExp) {
  // Measured over 1.3M outputs of logits drawn at σ = 1, 5 and 40: at most
  // 6e-7 absolute and 9e-7 relative (13 ulp) from the std::exp softmax; the
  // bounds below leave headroom for libm differences.
  util::Rng rng(7);
  double max_abs = 0.0, max_rel = 0.0;
  for (const int64_t cols : RowLengths()) {
    for (const float spread : {1.0f, 5.0f, 40.0f}) {
      const int64_t rows = 16;
      std::vector<float> x(static_cast<size_t>(rows * cols));
      for (float& v : x) v = rng.UniformFloat(-spread, spread);
      std::vector<float> approx = x, exact = x;
      ApproxSoftmaxRows(approx.data(), rows, cols, kScale);
      StdExpSoftmax(exact.data(), rows, cols, kScale);
      for (size_t i = 0; i < x.size(); ++i) {
        const double diff = std::fabs(static_cast<double>(approx[i]) -
                                      static_cast<double>(exact[i]));
        max_abs = std::max(max_abs, diff);
        if (exact[i] >= 1e-30f) max_rel = std::max(max_rel, diff / exact[i]);
      }
    }
  }
  EXPECT_LE(max_abs, 2e-6);
  EXPECT_LE(max_rel, 4e-6);
}

// The sequence AttendHead replaces, on packed copies of the head:
// GemmNTRef, then ×scale and SoftmaxRows or the scalar ApproxSoftmaxRows,
// then GemmNNRef. The blocked GEMMs and the dispatched softmax return these
// bits too (gemm_kernel_test and the tests above).
std::vector<float> ReferenceHead(const AttentionHead& h) {
  const int64_t keys = h.cached + h.own;
  const int64_t hd = h.head_dim;
  std::vector<float> q(h.rows * hd), k(keys * hd), v(keys * hd);
  for (int64_t i = 0; i < h.rows; ++i) {
    std::copy_n(h.queries + i * h.stride, hd, q.begin() + i * hd);
  }
  for (int64_t j = 0; j < keys; ++j) {
    const bool cached = j < h.cached;
    const int64_t row = (cached ? j : j - h.cached) * h.stride;
    std::copy_n((cached ? h.cached_keys : h.keys) + row, hd,
                k.begin() + j * hd);
    std::copy_n((cached ? h.cached_values : h.values) + row, hd,
                v.begin() + j * hd);
  }
  std::vector<float> logits(h.rows * keys);
  GemmNTRef(q.data(), k.data(), logits.data(), h.rows, keys, hd,
            /*accumulate=*/false);
  if (h.softmax == AttentionSoftmax::kStd) {
    for (float& x : logits) x *= h.scale;
    SoftmaxRows(logits.data(), h.rows, keys, logits.data());
  } else {
    ApproxSoftmaxRowsWith(VecMathBody::kScalar, logits.data(), h.rows, keys,
                          h.scale);
  }
  std::vector<float> out(h.rows * hd);
  GemmNNRef(logits.data(), v.data(), out.data(), h.rows, hd, keys,
            /*accumulate=*/false);
  return out;
}

// Row-major rows of `stride` floats whose head slice starts at column 1.
std::vector<float> StridedRows(int64_t rows, int64_t stride, util::Rng& rng,
                               float spread) {
  std::vector<float> x(static_cast<size_t>(rows * stride));
  for (float& v : x) v = rng.UniformFloat(-spread, spread);
  return x;
}

// Query row i of a head cycles through five kinds: two random, one scaled
// so that all but a few of its probabilities underflow to exactly 0, one
// whose logits mix finite values, +inf, −inf and NaN (huge q₀ and q₁ times
// keys of either sign: a product past ±3.4e38 is ±inf, and +inf plus −inf
// is NaN), and one whose logits are all NaN.
void ShapeQueryRows(float* q, int64_t rows, int64_t stride, int64_t hd) {
  for (int64_t i = 0; i < rows; ++i) {
    float* row = q + i * stride;
    if (i % 5 == 2) {
      for (int64_t p = 0; p < hd; ++p) row[p] *= 60.0f;
    } else if (i % 5 == 3) {
      row[0] = row[1] = (i % 2 == 0 ? 1.0f : -1.0f) * 3e38f;
      std::fill(row + 2, row + hd, 0.0f);
    } else if (i % 5 == 4 && i % 3 == 0) {
      row[0] = std::numeric_limits<float>::quiet_NaN();
    }
  }
}

// The fused head against ReferenceHead, bitwise, on every body: query
// counts that cross each tile width, 0, 17 and 29 cached keys, the
// boundary's frozen-head (p queries over p keys) and suffix (t − p queries
// from row p over t keys) shapes, head_dim 6 and 8 at a stride wider than
// the head, both softmax kinds. Columns outside the head stay untouched.
TEST(VecMathTest, AttendHeadMatchesGemmSoftmaxSequenceBitwise) {
  constexpr float kSentinel = 1234.5f;
  util::Rng rng(31);
  std::vector<int64_t> query_counts = RowLengths();
  query_counts.insert(query_counts.end() - 1, 69);
  for (const int64_t hd : {int64_t{6}, int64_t{8}}) {
    const int64_t stride = 3 * hd + 2;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    for (const int64_t rows : query_counts) {
      for (const int64_t cached : {int64_t{0}, int64_t{17}, int64_t{29}}) {
        // lead = p: the suffix's queries start p rows into the span and
        // attend over all of its rows; lead 0 is the legacy, frozen-head and
        // cached shape.
        for (const int64_t lead : {int64_t{0}, int64_t{5}}) {
          const int64_t own = lead + rows;
          std::vector<float> q = StridedRows(own, stride, rng, 2.0f);
          std::vector<float> k = StridedRows(own, stride, rng, 2.0f);
          std::vector<float> v = StridedRows(own, stride, rng, 1.0f);
          // An infinite value reaches only the rows whose weight on its key
          // is not exactly 0: GemmNN skips zero weights (0·inf is NaN).
          v[(own / 2) * stride + 1 + hd / 2] =
              std::numeric_limits<float>::infinity();
          std::vector<float> ck = StridedRows(cached, stride, rng, 2.0f);
          std::vector<float> cv = StridedRows(cached, stride, rng, 1.0f);
          ShapeQueryRows(q.data() + lead * stride + 1, rows, stride, hd);
          AttentionHead head;
          head.queries = q.data() + lead * stride + 1;
          head.rows = rows;
          head.cached_keys = ck.data() + 1;
          head.cached_values = cv.data() + 1;
          head.cached = cached;
          head.keys = k.data() + 1;
          head.values = v.data() + 1;
          head.own = own;
          head.head_dim = hd;
          head.stride = stride;
          head.scale = scale;
          std::vector<float> scratch(
              static_cast<size_t>(AttendHeadScratch(cached + own, hd)));
          for (const AttentionSoftmax kind :
               {AttentionSoftmax::kStd, AttentionSoftmax::kApprox}) {
            head.softmax = kind;
            const std::vector<float> expected = ReferenceHead(head);
            for (const VecMathBody body : kBodies) {
              if (!VecMathBodySupported(body)) continue;
              std::vector<float> out(static_cast<size_t>(rows * stride),
                                     kSentinel);
              head.out = out.data() + 1;
              AttendHeadWith(body, head, scratch.data());
              const std::string where =
                  std::string(Name(body)) +
                  (kind == AttentionSoftmax::kStd ? " std" : " approx") +
                  " hd=" + std::to_string(hd) + " rows=" +
                  std::to_string(rows) + " cached=" + std::to_string(cached) +
                  " lead=" + std::to_string(lead);
              for (int64_t i = 0; i < rows; ++i) {
                const float* row = out.data() + i * stride;
                ASSERT_EQ(std::memcmp(row + 1, expected.data() + i * hd,
                                      hd * sizeof(float)),
                          0)
                    << where << " row " << i;
                ASSERT_EQ(row[0], kSentinel) << where;
                for (int64_t c = hd + 1; c < stride; ++c) {
                  ASSERT_EQ(row[c], kSentinel) << where;
                }
              }
            }
          }
        }
      }
    }
  }
}

std::vector<float> GeluInputs(int64_t n, util::Rng& rng) {
  std::vector<float> x(static_cast<size_t>(n));
  for (float& v : x) v = rng.UniformFloat(-10.0f, 10.0f);
  // Zeros of both signs and the tanh clamp's neighbourhood.
  const float specials[] = {0.0f, -0.0f, 3.0f, -3.0f, 3.3f, -3.3f};
  for (size_t i = 0; i < x.size() && i < std::size(specials); ++i) {
    x[i * 3 % x.size()] = specials[i];
  }
  return x;
}

TEST(VecMathTest, GeluBodiesMatchScalarTwinBitwise) {
  util::Rng rng(99);
  for (const int64_t n : RowLengths()) {
    const std::vector<float> x = GeluInputs(n, rng);
    std::vector<float> expected = x;
    ApproxGeluWith(VecMathBody::kScalar, expected.data(), n);
    for (const VecMathBody body : kBodies) {
      if (!VecMathBodySupported(body)) continue;
      std::vector<float> actual = x;
      ApproxGeluWith(body, actual.data(), n);
      ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                            expected.size() * sizeof(float)),
                0)
          << Name(body) << " n=" << n;
    }
  }
}

TEST(VecMathTest, GeluStaysWithinStatedErrorOfStdTanh) {
  // Measured max |error| 1.82e-4 (at v ≈ −3.79) over [−12, 12].
  std::vector<float> x;
  for (float v = -12.0f; v <= 12.0f; v += 1.0f / 256.0f) x.push_back(v);
  std::vector<float> approx = x;
  ApproxGelu(approx.data(), static_cast<int64_t>(approx.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(approx[i], StdTanhGelu(x[i]), 2e-4) << "v=" << x[i];
  }
}

}  // namespace
}  // namespace delrec::nn
