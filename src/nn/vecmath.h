#ifndef DELREC_NN_VECMATH_H_
#define DELREC_NN_VECMATH_H_

#include <cstdint>

namespace delrec::nn {

/// Vectorized kernels for the served teacher (DESIGN.md §13, §18): the int8
/// path's attention softmax and GELU, both approximations of the fp32 ops,
/// and one fused attention head (QKᵀ, softmax, ·V) that both serve paths
/// run, each with its own softmax arithmetic.
///
/// Each kernel has vector bodies that perform their reference's IEEE
/// operations in the same order lane for lane, so every body returns the
/// same bits. The softmax and the attention head each have one body written
/// in GCC vector extensions and templated on the vector width, instantiated
/// at 16 lanes for AVX-512F, 8 for AVX2+FMA and 4 for every other host; the
/// GELU has an AVX2+FMA body. The choice is made once per process via
/// __builtin_cpu_supports. The fp32 serve path and training never call the
/// approximations: they keep std::exp/std::tanh so that they stay
/// bit-identical to each other.

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

/// How AttendHead turns a row of logits into weights. kStd is the fp32
/// path's: the logits times the scale, then nn::SoftmaxRows (a std::max
/// chain from column 0, std::exp, the sum in column order). kApprox is
/// ApproxSoftmaxRows'.
enum class AttentionSoftmax { kStd, kApprox };

/// One attention head over one sequence, read and written in place: every
/// row below is head_dim floats at row stride `stride` (a head's column
/// slice of the stacked projections). Key or value j < cached is row j of
/// the cached_ arrays (a shared prefix's rows), j ≥ cached row j − cached of
/// `keys`/`values`.
struct AttentionHead {
  const float* queries = nullptr;  // `rows` rows.
  int64_t rows = 0;
  const float* cached_keys = nullptr;
  const float* cached_values = nullptr;
  int64_t cached = 0;
  const float* keys = nullptr;  // `own` rows.
  const float* values = nullptr;
  int64_t own = 0;
  int64_t head_dim = 0;
  int64_t stride = 0;
  float scale = 1.0f;
  AttentionSoftmax softmax = AttentionSoftmax::kStd;
  float* out = nullptr;  // `rows` rows.
};

/// out = softmax(scale·Q·Kᵀ)·V for one head with the bits of nn::GemmNT,
/// then the softmax `head.softmax` names, then nn::GemmNN, on packed copies
/// of the head: each logit is 0 + q₀k₀ + q₁k₁ + … in ascending p, and each
/// output 0 + a₀v₀ + a₁v₁ + … over the keys in ascending order, skipping
/// weights that are 0. Query rows run a tile at a time, one row per vector
/// lane, so no row is ever reduced across lanes and every lane performs its
/// row's scalar sequence. `scratch` holds AttendHeadScratch(cached + own,
/// head_dim) floats; rows, cached + own and head_dim must be positive.
void AttendHead(const AttentionHead& head, float* scratch);
int64_t AttendHeadScratch(int64_t keys, int64_t head_dim);

/// Test hooks: run one named body. `VecMathBodySupported` says whether this
/// host can run it (kScalar and kVec4 always can). kVec4 is the 4-lane
/// softmax with the scalar GELU; kAvx512 runs the AVX2 GELU, which has no
/// 512-bit body. The attention head has no scalar body: kScalar runs the
/// 4-lane one.
enum class VecMathBody { kScalar, kVec4, kAvx2, kAvx512 };
bool VecMathBodySupported(VecMathBody body);
void ApproxSoftmaxRowsWith(VecMathBody body, float* x, int64_t rows,
                           int64_t cols, float scale);
void ApproxGeluWith(VecMathBody body, float* x, int64_t n);
void AttendHeadWith(VecMathBody body, const AttentionHead& head,
                    float* scratch);

}  // namespace delrec::nn

#endif  // DELREC_NN_VECMATH_H_
