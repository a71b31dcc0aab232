// Bitwise equivalence of the blocked GEMM microkernels against the retained
// naive reference kernels (DESIGN.md §10). The shape grid crosses every tile
// boundary (MR=4, NR=16), the packing threshold (m >= 8), and vector-width
// edges; A carries ~10% exact zeros because GemmNNRef/GemmTNRef skip a == 0
// and the blocked kernels must reproduce that branch bit-for-bit. Runs at
// several thread counts — GemmRows partitions rows, so the blocked result
// must match the serial reference at every count (labeled `concurrency` for
// the TSan suite) — and on every tile width the host supports, not only the
// dispatched one.
#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "nn/gemm_int8.h"
#include "nn/quant.h"

#include "util/rng.h"
#include "util/threadpool.h"

namespace delrec::nn {
namespace {

using GemmFn = void (*)(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, bool);
using GemmWithFn = void (*)(GemmTileWidth, const float*, const float*, float*,
                            int64_t, int64_t, int64_t, bool);

struct Variant {
  const char* name;
  GemmFn blocked;
  GemmWithFn with;
  GemmFn reference;
};

const Variant kVariants[] = {
    {"NN", GemmNN, GemmNNWith, GemmNNRef},
    {"NT", GemmNT, GemmNTWith, GemmNTRef},
    {"TN", GemmTN, GemmTNWith, GemmTNRef},
};

constexpr GemmTileWidth kWidths[] = {GemmTileWidth::k4, GemmTileWidth::k8,
                                     GemmTileWidth::k16};

// Crosses the 4-row / 16-column microtile edges, the m >= 8 pack threshold,
// and the 8/16-lane vector widths, with margins of ±1 around each.
constexpr int64_t kGrid[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 64};
constexpr int kThreadCounts[] = {1, 2, 4, 7};

std::vector<float> RandomMatrix(int64_t elements, util::Rng& rng,
                                float zero_fraction) {
  std::vector<float> m(static_cast<size_t>(elements));
  for (float& v : m) {
    v = rng.UniformFloat(0.0f, 1.0f) < zero_fraction
            ? 0.0f
            : rng.UniformFloat(-2.0f, 2.0f);
  }
  return m;
}

void ExpectBitIdentical(const Variant& variant, const std::vector<float>& a,
                        const std::vector<float>& b, int64_t m, int64_t n,
                        int64_t k, const std::vector<float>& c_init) {
  for (const bool accumulate : {false, true}) {
    std::vector<float> expected = c_init;
    variant.reference(a.data(), b.data(), expected.data(), m, n, k,
                      accumulate);
    for (const int threads : kThreadCounts) {
      util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
      std::vector<float> actual = c_init;
      variant.blocked(a.data(), b.data(), actual.data(), m, n, k, accumulate);
      ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                            expected.size() * sizeof(float)),
                0)
          << variant.name << " m=" << m << " n=" << n << " k=" << k
          << " accumulate=" << accumulate << " threads=" << threads;
      for (const GemmTileWidth width : kWidths) {
        if (!GemmTileWidthSupported(width)) continue;
        actual = c_init;
        variant.with(width, a.data(), b.data(), actual.data(), m, n, k,
                     accumulate);
        ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                              expected.size() * sizeof(float)),
                  0)
            << variant.name << " m=" << m << " n=" << n << " k=" << k
            << " accumulate=" << accumulate << " threads=" << threads
            << " lanes=" << static_cast<int>(width);
      }
    }
  }
}

TEST(GemmKernelTest, BlockedMatchesReferenceBitwiseOverShapeGrid) {
  util::Rng rng(123);
  for (const int64_t m : kGrid) {
    for (const int64_t n : kGrid) {
      for (const int64_t k : kGrid) {
        // A is (m,k) for NN/NT and (k,m) for TN — same element count either
        // way; likewise B is (k,n) or (n,k).
        const std::vector<float> a = RandomMatrix(m * k, rng, 0.1f);
        const std::vector<float> b = RandomMatrix(k * n, rng, 0.0f);
        const std::vector<float> c_init = RandomMatrix(m * n, rng, 0.0f);
        for (const Variant& variant : kVariants) {
          ExpectBitIdentical(variant, a, b, m, n, k, c_init);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(GemmKernelTest, ServeAttentionShapesMatchBitwise) {
  // The per-head attention GEMMs of a served teacher at head_dim 8: Q·Kᵀ
  // (NT) and A·V (NN) for the 69×98 suffix pass and the 29×29 and 11×28
  // prefix passes. Every A·V output column lies in a panel narrower than 16,
  // so those run the zero-padded edge tiles; attention probabilities can hold
  // exact zeros (underflowed exps), hence the zero-bearing A as well.
  struct Case {
    const char* variant;
    int64_t m, n, k;
  };
  const Case kCases[] = {{"NN", 69, 8, 98}, {"NT", 69, 98, 8},
                         {"NT", 29, 29, 8}, {"NN", 29, 8, 29},
                         {"NT", 11, 28, 8}, {"NN", 11, 8, 28}};
  util::Rng rng(808);
  for (const Case& shape : kCases) {
    const Variant& variant = *std::find_if(
        std::begin(kVariants), std::end(kVariants), [&](const Variant& v) {
          return std::string(v.name) == shape.variant;
        });
    for (const float zero_fraction : {0.0f, 0.1f}) {
      const std::vector<float> a =
          RandomMatrix(shape.m * shape.k, rng, zero_fraction);
      const std::vector<float> b = RandomMatrix(shape.k * shape.n, rng, 0.0f);
      const std::vector<float> c_init =
          RandomMatrix(shape.m * shape.n, rng, 0.0f);
      ExpectBitIdentical(variant, a, b, shape.m, shape.n, shape.k, c_init);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(GemmKernelTest, ZeroHeavyAndAllZeroAMatchBitwise) {
  util::Rng rng(321);
  for (const float zero_fraction : {0.5f, 1.0f}) {
    for (const int64_t m : {int64_t{7}, int64_t{33}}) {
      const int64_t n = 17, k = 9;
      std::vector<float> a = RandomMatrix(m * k, rng, zero_fraction);
      // Mix in negative zeros: the reference's `a == 0.0f` skip treats -0.0f
      // as zero, and the skip changes signed-zero accumulation (-0 + +0 is
      // +0), so the blocked kernels must take the identical branch.
      for (size_t i = 0; i < a.size(); i += 3) {
        if (a[i] == 0.0f) a[i] = -0.0f;
      }
      const std::vector<float> b = RandomMatrix(k * n, rng, 0.0f);
      const std::vector<float> c_init = RandomMatrix(m * n, rng, 0.0f);
      for (const Variant& variant : kVariants) {
        ExpectBitIdentical(variant, a, b, m, n, k, c_init);
      }
    }
  }
}

TEST(GemmKernelTest, ZeroSkipAvoidsNanFromInfinityInB) {
  // The skip branch is observable: 0 · inf would be NaN, and the NN/TN
  // references never multiply when a == 0. Zeros in A paired with infs in B
  // must therefore stay finite — and bit-identical to the reference.
  util::Rng rng(55);
  const int64_t m = 9, n = 19, k = 11;
  std::vector<float> a = RandomMatrix(m * k, rng, 0.4f);
  std::vector<float> b = RandomMatrix(k * n, rng, 0.0f);
  for (size_t i = 0; i < b.size(); i += 5) {
    b[i] = std::numeric_limits<float>::infinity();
  }
  const std::vector<float> c_init(m * n, 0.0f);
  for (const Variant& variant : kVariants) {
    if (std::string(variant.name) == "NT") continue;  // NT has no skip.
    ExpectBitIdentical(variant, a, b, m, n, k, c_init);
    // And the result really is NaN-free whenever every inf in B lines up
    // against at least one zero multiplier path — spot-check a case where
    // all of A's contributions to an inf column are zero.
  }
  std::vector<float> a_zero(m * k, 0.0f);
  std::vector<float> c(m * n, 0.0f);
  GemmNN(a_zero.data(), b.data(), c.data(), m, n, k, /*accumulate=*/false);
  for (const float v : c) {
    ASSERT_TRUE(std::isfinite(v)) << "zero-skip failed to bypass inf";
  }
}

TEST(GemmKernelTest, KernelConfigMentionsTileGeometry) {
  const std::string config = GemmKernelConfig();
  EXPECT_NE(config.find("4x16"), std::string::npos) << config;
  EXPECT_NE(config.find("isa="), std::string::npos) << config;
  EXPECT_TRUE(GemmTileWidthSupported(GemmTileWidth::k4));
}

// ---- int8 kernels (nn/gemm_int8.h, nn/quant.h) ------------------------------
// The int8 contract is stronger than the fp32 one: the dispatched SIMD tile
// must be bit-identical to Int8GemmRef for EVERY shape (integer dots are
// exact), and both must match an independent scalar reimplementation of the
// documented semantics built here from the test-visible accessors.

// Signed activation code recovered from the biased storage byte emitted by
// QuantizeActivationRows.
int32_t DecodeActivation(int8_t byte) {
  return static_cast<int32_t>(static_cast<uint8_t>(byte)) - 128;
}

// Independent oracle: integer dots from At()/decoded activation codes, then
// the documented de-scale order (cast, multiply by sa·sb, optional bias,
// optional accumulate). Must match Int8GemmRef and Int8Gemm bit-for-bit.
std::vector<float> Int8Oracle(const std::vector<int8_t>& aq,
                              const std::vector<float>& a_scales,
                              const QuantTensor& b, const float* bias,
                              const std::vector<float>& c_init, int64_t m,
                              bool accumulate) {
  std::vector<float> c = c_init;
  const int64_t kp = b.packed_depth();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < b.channels(); ++j) {
      int64_t acc = 0;
      for (int64_t k = 0; k < b.depth(); ++k) {
        acc += DecodeActivation(aq[i * kp + k]) *
               static_cast<int64_t>(b.At(j, k));
      }
      float v = static_cast<float>(static_cast<int32_t>(acc)) *
                (a_scales[i] * b.scale(j));
      if (bias != nullptr) v = v + bias[j];
      float& out = c[i * b.channels() + j];
      out = accumulate ? out + v : v;
    }
  }
  return c;
}

void ExpectInt8BitIdentical(const std::vector<float>& a,
                            const std::vector<float>& w, int64_t m, int64_t n,
                            int64_t k, const std::vector<float>& c_init,
                            const std::vector<float>* bias) {
  const QuantTensor q = QuantTensor::FromColumns(w.data(), k, n);
  ASSERT_EQ(q.channels(), n);
  ASSERT_EQ(q.depth(), k);
  ASSERT_EQ(q.packed_depth() % kInt8KQuad, 0);
  std::vector<int8_t> aq(static_cast<size_t>(m * q.packed_depth()));
  std::vector<float> a_scales(static_cast<size_t>(m));
  QuantizeActivationRows(a.data(), m, k, aq.data(), a_scales.data());
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  for (const bool accumulate : {false, true}) {
    const std::vector<float> expected =
        Int8Oracle(aq, a_scales, q, bias_ptr, c_init, m, accumulate);
    std::vector<float> ref = c_init;
    Int8GemmRef(aq.data(), a_scales.data(), q, bias_ptr, ref.data(), m,
                accumulate);
    ASSERT_EQ(std::memcmp(expected.data(), ref.data(),
                          expected.size() * sizeof(float)),
              0)
        << "ref vs oracle m=" << m << " n=" << n << " k=" << k
        << " accumulate=" << accumulate;
    for (const int threads : kThreadCounts) {
      util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
      std::vector<float> actual = c_init;
      Int8Gemm(aq.data(), a_scales.data(), q, bias_ptr, actual.data(), m,
               accumulate);
      ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                            expected.size() * sizeof(float)),
                0)
          << Int8GemmKernelConfig() << " m=" << m << " n=" << n << " k=" << k
          << " accumulate=" << accumulate << " threads=" << threads;
    }
  }
}

TEST(Int8KernelTest, DispatchedTileMatchesReferenceBitwiseOverShapeGrid) {
  // Crosses the MR=4 / NR=16 tile edges and the k-quad padding (k % 4 ≠ 0),
  // with ~10% exact-zero activations so all-zero rows (scale 0) appear.
  util::Rng rng(1234);
  for (const int64_t m : {1, 3, 4, 5, 16, 33}) {
    for (const int64_t n : {1, 15, 16, 17, 48}) {
      for (const int64_t k : {1, 2, 3, 4, 5, 32, 67}) {
        const std::vector<float> a = RandomMatrix(m * k, rng, 0.1f);
        const std::vector<float> w = RandomMatrix(k * n, rng, 0.05f);
        const std::vector<float> c_init = RandomMatrix(m * n, rng, 0.0f);
        const std::vector<float> bias = RandomMatrix(n, rng, 0.0f);
        ExpectInt8BitIdentical(a, w, m, n, k, c_init, nullptr);
        ExpectInt8BitIdentical(a, w, m, n, k, c_init, &bias);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(Int8KernelTest, ZeroDepthYieldsBiasOrZero) {
  // K=0: every integer dot is empty, so C is exactly the bias (or 0.0f),
  // regardless of the garbage in the (empty) packed operands.
  const int64_t m = 5, n = 19;
  const std::vector<float> w;  // (0, n) weight.
  const QuantTensor q = QuantTensor::FromColumns(w.data(), 0, n);
  EXPECT_EQ(q.packed_depth(), 0);
  std::vector<int8_t> aq;  // Zero-length rows.
  std::vector<float> a_scales(m, 0.0f);
  std::vector<float> bias(n);
  for (int64_t j = 0; j < n; ++j) bias[j] = static_cast<float>(j) * 0.25f;
  std::vector<float> c(m * n, -1.0f);
  Int8Gemm(aq.data(), a_scales.data(), q, bias.data(), c.data(), m,
           /*accumulate=*/false);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) EXPECT_EQ(c[i * n + j], bias[j]);
  }
  Int8Gemm(aq.data(), a_scales.data(), q, nullptr, c.data(), m,
           /*accumulate=*/false);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(Int8KernelTest, ExtremeCodesDoNotOverflow) {
  // Adversarial magnitudes: every code saturates to ±127 with alternating
  // signs, the worst case for the biased u8×s8 accumulation the vpdpbusd
  // tile performs. The int32 dot must still be exact (matches the int64
  // oracle below the kInt8MaxDepth bound).
  const int64_t m = 4, n = 16, k = 4096;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> w(static_cast<size_t>(k * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      a[i * k + kk] = ((i + kk) % 2 == 0) ? 1000.0f : -1000.0f;
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) {
      w[kk * n + j] = ((j + kk) % 3 == 0) ? -8.0f : 8.0f;
    }
  }
  const std::vector<float> c_init(static_cast<size_t>(m * n), 0.0f);
  ExpectInt8BitIdentical(a, w, m, n, k, c_init, nullptr);
}

TEST(Int8KernelTest, StoreModeOverwritesDirtyReusedBuffer) {
  // Serve paths carve C out of recycled arena/pool buffers; accumulate=false
  // must fully overwrite whatever the previous request left there, giving
  // bitwise-equal results for a clean and a dirty destination.
  util::Rng rng(77);
  const int64_t m = 9, n = 33, k = 21;
  const std::vector<float> a = RandomMatrix(m * k, rng, 0.0f);
  const std::vector<float> w = RandomMatrix(k * n, rng, 0.0f);
  const QuantTensor q = QuantTensor::FromColumns(w.data(), k, n);
  std::vector<int8_t> aq(static_cast<size_t>(m * q.packed_depth()));
  std::vector<float> a_scales(static_cast<size_t>(m));
  QuantizeActivationRows(a.data(), m, k, aq.data(), a_scales.data());
  std::vector<float> clean(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> dirty =
      RandomMatrix(m * n, rng, 0.0f);  // Stale garbage.
  dirty[0] = std::numeric_limits<float>::infinity();
  Int8Gemm(aq.data(), a_scales.data(), q, nullptr, clean.data(), m, false);
  Int8Gemm(aq.data(), a_scales.data(), q, nullptr, dirty.data(), m, false);
  EXPECT_EQ(std::memcmp(clean.data(), dirty.data(), clean.size() * 4), 0);
}

TEST(Int8KernelTest, ActivationEncodingMatchesDocumentedScalarForm) {
  // The SIMD quantizer must emit exactly clamp(lrintf(v/scale), ±127) + 128
  // at stride packed_depth, biased-zero padding included — recomputed here
  // with plain std::lrintf as the oracle for the vectorized path.
  util::Rng rng(88);
  for (const int64_t depth : {1, 2, 3, 7, 8, 15, 16, 31, 67}) {
    const int64_t rows = 5;
    std::vector<float> x = RandomMatrix(rows * depth, rng, 0.1f);
    for (int64_t j = 0; j < depth; ++j) x[2 * depth + j] = 0.0f;  // Zero row.
    const int64_t kp = (depth + kInt8KQuad - 1) & ~int64_t{kInt8KQuad - 1};
    std::vector<int8_t> out(static_cast<size_t>(rows * kp), 42);
    std::vector<float> scales(static_cast<size_t>(rows));
    QuantizeActivationRows(x.data(), rows, depth, out.data(), scales.data());
    for (int64_t i = 0; i < rows; ++i) {
      float maxabs = 0.0f;
      for (int64_t k = 0; k < depth; ++k) {
        maxabs = std::max(maxabs, std::fabs(x[i * depth + k]));
      }
      const float scale = maxabs / 127.0f;
      ASSERT_EQ(scales[i], scale) << "row " << i << " depth " << depth;
      for (int64_t k = 0; k < depth; ++k) {
        long code = 0;
        if (scale != 0.0f) {
          code = std::clamp<long>(
              std::lrintf(x[i * depth + k] * (1.0f / scale)), -127, 127);
        }
        ASSERT_EQ(DecodeActivation(out[i * kp + k]), code)
            << "row " << i << " k " << k << " depth " << depth;
      }
      for (int64_t k = depth; k < kp; ++k) {
        ASSERT_EQ(DecodeActivation(out[i * kp + k]), 0) << "padding byte";
      }
    }
  }
}

TEST(Int8KernelTest, QuantTensorPackingAndCorrections) {
  // FromColumns vs FromRows agree on transposed data; per-channel scales,
  // codes, corrections and DequantRow all follow the documented forms.
  util::Rng rng(99);
  const int64_t in = 13, out = 21;
  const std::vector<float> w = RandomMatrix(in * out, rng, 0.1f);
  std::vector<float> wt(static_cast<size_t>(out * in));
  for (int64_t k = 0; k < in; ++k) {
    for (int64_t j = 0; j < out; ++j) wt[j * in + k] = w[k * out + j];
  }
  const QuantTensor cols = QuantTensor::FromColumns(w.data(), in, out);
  const QuantTensor rows = QuantTensor::FromRows(wt.data(), out, in);
  ASSERT_EQ(cols.channels(), rows.channels());
  ASSERT_EQ(cols.depth(), rows.depth());
  for (int64_t j = 0; j < out; ++j) {
    EXPECT_EQ(cols.scale(j), rows.scale(j));
    EXPECT_EQ(cols.corrections()[j], rows.corrections()[j]);
    int64_t code_sum = 0;
    float maxabs = 0.0f;
    for (int64_t k = 0; k < in; ++k) {
      EXPECT_EQ(cols.At(j, k), rows.At(j, k));
      code_sum += cols.At(j, k);
      maxabs = std::max(maxabs, std::fabs(w[k * out + j]));
      // Quantization error bound: |w - scale·code| ≤ scale/2 for codes in
      // the unclamped range (always, for symmetric maxabs scaling).
      EXPECT_LE(std::fabs(w[k * out + j] -
                          cols.scale(j) * static_cast<float>(cols.At(j, k))),
                cols.scale(j) * 0.5f + 1e-7f);
    }
    EXPECT_EQ(cols.scale(j), maxabs / 127.0f);
    EXPECT_EQ(cols.corrections()[j], 128 * code_sum);
    std::vector<float> dequant(static_cast<size_t>(in));
    cols.DequantRow(j, dequant.data());
    for (int64_t k = 0; k < in; ++k) {
      EXPECT_EQ(dequant[k],
                cols.scale(j) * static_cast<float>(cols.At(j, k)));
    }
  }
  EXPECT_GT(cols.MemoryBytes(), 0u);
  EXPECT_LT(cols.MemoryBytes(), w.size() * sizeof(float));
}

TEST(Int8KernelTest, KernelConfigMentionsTileGeometryAndIsa) {
  const std::string config = Int8GemmKernelConfig();
  EXPECT_NE(config.find("4x16"), std::string::npos) << config;
  EXPECT_NE(config.find("isa="), std::string::npos) << config;
  const std::string isa = Int8KernelIsa();
  EXPECT_TRUE(isa == "avxvnni" || isa == "avx512" || isa == "avx2" ||
              isa == "scalar")
      << isa;
}

}  // namespace
}  // namespace delrec::nn
