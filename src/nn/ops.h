#ifndef DELREC_NN_OPS_H_
#define DELREC_NN_OPS_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace delrec::nn {

// Differentiable tensor operations. All ops build tape nodes only when some
// input requires gradients; otherwise they return plain leaves (fast
// inference path). Shapes are validated with DELREC_CHECK.
//
// The GEMM kernels behind MatMul (forward and backward) are row-partitioned
// across util::ParallelConfig{num_threads} (util/threadpool.h; default 1 =
// serial reference, env override DELREC_NUM_THREADS via the benches).
// Outputs are bit-identical for every thread count — see DESIGN.md §9 for
// the determinism contract.

// -- Elementwise --------------------------------------------------------------

/// c = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a ⊙ b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a + s.
Tensor AddScalar(const Tensor& a, float s);
/// c = s · a.
Tensor MulScalar(const Tensor& a, float s);
/// Sum of any number of same-shape tensors.
Tensor AddN(const std::vector<Tensor>& tensors);

/// Elementwise cosine (KDA's Fourier temporal module).
Tensor Cos(const Tensor& x);
/// y = x · s[0] where s is a single-element tensor (differentiable in both).
Tensor MulScalarTensor(const Tensor& x, const Tensor& s);

Tensor Relu(const Tensor& x);
/// tanh-approximation GELU.
Tensor Gelu(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);

/// Inverted dropout; identity when !training or p == 0.
Tensor Dropout(const Tensor& x, float p, util::Rng& rng, bool training);

// -- Linear algebra -----------------------------------------------------------

/// Matrix product with optional transposes: (M,K)·(K,N) → (M,N).
/// trans_a interprets a as stored transposed (K,M); likewise trans_b.
/// trans_a && trans_b is unsupported (never needed here).
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Adds a length-D bias row to every row of x (N,D).
Tensor AddBias(const Tensor& x, const Tensor& bias);

/// Gathers rows of `table` (V,D) at `indices` → (n,D). Backward scatter-adds.
Tensor Rows(const Tensor& table, const std::vector<int64_t>& indices);

/// Scales column j of x (N,D) by scales[j] (length-D vector). Used for the
/// diagonal Λ factor in the AdaLoRA parametrization.
Tensor ScaleCols(const Tensor& x, const Tensor& scales);

// -- Shape --------------------------------------------------------------------

/// Contiguous row slice [start, start+count) of x (N,D) → (count,D).
Tensor SliceRows(const Tensor& x, int64_t start, int64_t count);
/// Contiguous column slice of x (N,D) → (N,count).
Tensor SliceCols(const Tensor& x, int64_t start, int64_t count);
/// Vertical concatenation of (n_i, D) blocks.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Horizontal concatenation of (N, d_i) blocks.
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Reinterprets x with a new shape of equal element count (copying node).
Tensor Reshape(const Tensor& x, std::vector<int64_t> shape);
/// (M,N) → (N,M).
Tensor Transpose(const Tensor& x);

// -- Reductions & losses --------------------------------------------------------

/// Mean over all elements → scalar.
Tensor Mean(const Tensor& x);
/// Sum over all elements → scalar.
Tensor Sum(const Tensor& x);
/// Mean over rows: (N,D) → (1,D).
Tensor MeanRows(const Tensor& x);
/// Column-wise max over rows: (N,D) → (1,D); backward routes to the argmax.
Tensor MaxPoolRows(const Tensor& x);

/// Row-wise softmax over the last dimension of a 2-D tensor.
Tensor Softmax(const Tensor& x);
/// Row-wise log-softmax (numerically stable).
Tensor LogSoftmax(const Tensor& x);

/// Mean negative log-likelihood of `targets` under row-wise softmax of
/// `logits` (N,C). Fused, numerically stable. targets.size() == N; a target
/// of -1 masks that row out of the loss.
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& targets);

// -- Normalization ----------------------------------------------------------------

/// Row-wise layer normalization with affine parameters gamma/beta (D).
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float epsilon = 1e-5f);

// -- Raw fp32 kernels ---------------------------------------------------------
//
// The forward arithmetic of Softmax, LogSoftmax, CrossEntropyWithLogits,
// Gelu, AddBias and LayerNormOp over row-major buffers, with no tape. Those
// ops compute through these kernels and the batched inference forwards call
// them directly, so fp32 serving equals training by construction.

/// Row-wise softmax of x (rows, cols): stable via the row max, the
/// denominator summed in column order. `out` may alias `x`.
void SoftmaxRows(const float* x, int64_t rows, int64_t cols, float* out);
/// Tanh-approximation GELU of `count` values; `out` may alias `x`.
void GeluRows(const float* x, int64_t count, float* out);
/// Adds `bias` (cols) to every row of x (rows, cols), in place.
void AddBiasRows(float* x, int64_t rows, int64_t cols, const float* bias);
/// Row-wise layer norm of x (rows, cols) with affine gamma/beta (cols);
/// `out` may alias `x`. Non-null `normalized` (rows, cols) and `inv_std`
/// (rows) receive the pre-affine rows and 1/σ that the backward reads.
void LayerNormRows(const float* x, int64_t rows, int64_t cols,
                   const float* gamma, const float* beta, float epsilon,
                   float* out, float* normalized = nullptr,
                   float* inv_std = nullptr);

// -- Sequence convolutions (Caser) ----------------------------------------------

/// Horizontal convolution for Caser: slides a height-h window over the
/// (T,D) embedding matrix with F filters of shape (h·D) → (T-h+1, F).
Tensor HorizontalConv(const Tensor& embeddings, const Tensor& filters,
                      const Tensor& bias, int64_t height);

}  // namespace delrec::nn

#endif  // DELREC_NN_OPS_H_
