// The int8 serve path's row kernels (nn/vecmath.h): every SIMD body this host
// can run must return the scalar twin's bits, over row lengths that cross
// the 16-lane block and its tail, underflowing entries, equal entries and
// single-entry rows. The approximations are also held to their stated error
// against the std::exp softmax and the std::tanh GELU the fp32 path uses.
#include "nn/vecmath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

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

std::vector<float> SoftmaxRows(int64_t cols, util::Rng& rng) {
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
    const std::vector<float> x = SoftmaxRows(cols, rng);
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
