#ifndef DELREC_NN_LAYERS_H_
#define DELREC_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace delrec::nn {

/// Affine layer y = x·W + b with W stored (in, out).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, util::Rng& rng,
         bool use_bias = true);

  /// x: (N, in) → (N, out).
  Tensor Forward(const Tensor& x) const;

  /// Inference-only raw forward over row-major buffers: writes x·W + b into
  /// `out` (rows × out_features, must not alias x) through the same GEMM
  /// and AddBiasRows kernel Forward() runs, so it is bit-identical per row
  /// to Forward() for any row count (the GEMM contract in nn/gemm.h makes
  /// each output row depend only on its input row). Builds no autograd tape.
  void ForwardInference(const float* x, int64_t rows, float* out) const;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;
  Tensor bias_;  // Undefined when use_bias == false.
};

/// Lookup table (V, D) with scatter-add gradients.
class Embedding : public Module {
 public:
  Embedding(int64_t count, int64_t dim, util::Rng& rng, float stddev = 0.02f);

  /// indices → (n, D).
  Tensor Forward(const std::vector<int64_t>& indices) const;

  Tensor table() const { return table_; }
  int64_t count() const { return count_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t count_;
  int64_t dim_;
  Tensor table_;
};

/// Row-wise layer normalization with learned affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim);

  Tensor Forward(const Tensor& x) const;

  /// Inference-only raw row-wise forward: the LayerNormRows kernel that
  /// Forward()'s LayerNormOp runs, with the same epsilon, so bit-identical to
  /// Forward(); `out` may alias x.
  void ForwardInference(const float* x, int64_t rows, float* out) const;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Gated recurrent unit cell (GRU4Rec substrate). Gates follow Cho et al.:
///   z = σ(x·W_z + h·U_z + b_z), r = σ(x·W_r + h·U_r + b_r)
///   ĥ = tanh(x·W_h + (r⊙h)·U_h + b_h),  h' = (1-z)⊙h + z⊙ĥ
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng& rng);

  /// x: (N, input_dim), h: (N, hidden_dim) → new hidden (N, hidden_dim).
  Tensor Forward(const Tensor& x, const Tensor& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Tensor w_x_;  // (input_dim, 3·hidden) — z | r | h blocks.
  Tensor w_h_;  // (hidden_dim, 3·hidden)
  Tensor bias_;  // (3·hidden)
};

/// Multi-head self/cross attention over a single sequence (no batch dim).
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t model_dim, int64_t num_heads, util::Rng& rng);

  /// query: (Tq, D), key/value source: (Tk, D). `additive_mask` is an
  /// optional (Tq, Tk) tensor added to the attention logits (use -1e9 to
  /// block positions); pass an undefined Tensor for no mask.
  Tensor Forward(const Tensor& query, const Tensor& keys_values,
                 const Tensor& additive_mask, util::Rng& rng,
                 float dropout_p) const;

  int64_t num_heads() const { return num_heads_; }

 private:
  int64_t model_dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

/// Two-layer position-wise feed-forward block with GELU.
class FeedForward : public Module {
 public:
  FeedForward(int64_t model_dim, int64_t hidden_dim, util::Rng& rng);

  Tensor Forward(const Tensor& x, util::Rng& rng, float dropout_p,
                 bool training) const;

 private:
  Linear in_;
  Linear out_;
};

/// Pre-LN transformer encoder block: x + MHA(LN(x)); x + FF(LN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int64_t model_dim, int64_t num_heads,
                          int64_t ffn_dim, util::Rng& rng);

  /// x: (T, D); additive_mask optional (T, T).
  Tensor Forward(const Tensor& x, const Tensor& additive_mask,
                 util::Rng& rng, float dropout_p) const;

 private:
  LayerNorm ln_attention_;
  MultiHeadAttention attention_;
  LayerNorm ln_ffn_;
  FeedForward ffn_;
};

/// Builds a causal additive mask (T,T): 0 on/below diagonal, -1e9 above.
Tensor CausalMask(int64_t length);

}  // namespace delrec::nn

#endif  // DELREC_NN_LAYERS_H_
