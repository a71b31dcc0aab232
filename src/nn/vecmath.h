#ifndef DELREC_NN_VECMATH_H_
#define DELREC_NN_VECMATH_H_

#include <cstdint>

namespace delrec::nn {

/// Vectorized row kernels for the int8 serve path (DESIGN.md §13): the
/// attention softmax and the GELU, both approximations of the fp32 ops.
///
/// Each kernel has vector bodies and a scalar twin that performs the same
/// IEEE operations in the same order lane for lane, so every body returns
/// the same bits. The softmax has one body written in GCC vector extensions
/// and templated on the vector width, instantiated at 16 lanes for AVX-512F,
/// 8 for AVX2+FMA and 4 for every other host; the GELU has an AVX2+FMA body.
/// The choice is made once per process via __builtin_cpu_supports. The fp32
/// serve path and training never call these: they keep std::exp/std::tanh so
/// that they stay bit-identical to each other.

/// In-place row-wise softmax of scale·x over `rows` rows of `cols` floats:
/// x ← exp(scale·x − max_j scale·x) / Σ exp(…). `scale` must be positive.
///
/// exp is a Cephes-style range reduction plus degree-5 polynomial (at most
/// 1 ulp from the correctly rounded exp on [−87, 0]; inputs below ≈ −87.7
/// flush to 0). The denominator is summed in 16 fixed lanes (column j feeds
/// lane j mod 16, in ascending j) reduced by a fixed pairwise tree, then
/// inverted once. Outputs stay within 6e-7 absolute and 9e-7 relative of the
/// std::exp softmax (measured; tests/vecmath_test.cc gates 2e-6 and 4e-6).
/// Each row's result depends only on that row's values, never on its
/// position, the ISA or the thread count.
void ApproxSoftmaxRows(float* x, int64_t rows, int64_t cols, float scale);

/// In-place tanh-form GELU over n floats, with tanh replaced by a Padé(7,6)
/// rational clamped at ±4.97 (max |error| 1.82e-4 against the std::tanh
/// form).
void ApproxGelu(float* x, int64_t n);

/// Test hooks: run one named body. `VecMathBodySupported` says whether this
/// host can run it (kScalar and kVec4 always can). kVec4 is the 4-lane
/// softmax with the scalar GELU; kAvx512 runs the AVX2 GELU, which has no
/// 512-bit body.
enum class VecMathBody { kScalar, kVec4, kAvx2, kAvx512 };
bool VecMathBodySupported(VecMathBody body);
void ApproxSoftmaxRowsWith(VecMathBody body, float* x, int64_t rows,
                           int64_t cols, float scale);
void ApproxGeluWith(VecMathBody body, float* x, int64_t n);

}  // namespace delrec::nn

#endif  // DELREC_NN_VECMATH_H_
