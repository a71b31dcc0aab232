#include "nn/layers.h"

#include <cmath>

#include "nn/gemm.h"
#include "util/check.h"

namespace delrec::nn {
namespace {

// LayerNorm's epsilon, shared by its autograd and inference forwards.
constexpr float kLayerNormEpsilon = 1e-5f;

}  // namespace

Linear::Linear(int64_t in_features, int64_t out_features, util::Rng& rng,
               bool use_bias)
    : in_features_(in_features), out_features_(out_features) {
  // Xavier-uniform keeps activations stable across the small dims used here.
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = Tensor::RandUniform({in_features, out_features}, rng, bound,
                                /*requires_grad=*/true);
  RegisterParameter("weight", weight_);
  if (use_bias) {
    bias_ = Tensor::Zeros({out_features}, /*requires_grad=*/true);
    RegisterParameter("bias", bias_);
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  DELREC_CHECK_EQ(x.dim(1), in_features_);
  Tensor y = MatMul(x, weight_);
  if (bias_.defined()) y = AddBias(y, bias_);
  return y;
}

void Linear::ForwardInference(const float* x, int64_t rows,
                              float* out) const {
  GemmNN(x, weight_.data().data(), out, rows, out_features_, in_features_,
         /*accumulate=*/false);
  if (bias_.defined()) {
    AddBiasRows(out, rows, out_features_, bias_.data().data());
  }
}

Embedding::Embedding(int64_t count, int64_t dim, util::Rng& rng, float stddev)
    : count_(count), dim_(dim) {
  table_ = Tensor::Randn({count, dim}, rng, stddev, /*requires_grad=*/true);
  RegisterParameter("table", table_);
}

Tensor Embedding::Forward(const std::vector<int64_t>& indices) const {
  return Rows(table_, indices);
}

LayerNorm::LayerNorm(int64_t dim) {
  gamma_ = Tensor::Full({dim}, 1.0f, /*requires_grad=*/true);
  beta_ = Tensor::Zeros({dim}, /*requires_grad=*/true);
  RegisterParameter("gamma", gamma_);
  RegisterParameter("beta", beta_);
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return LayerNormOp(x, gamma_, beta_, kLayerNormEpsilon);
}

void LayerNorm::ForwardInference(const float* x, int64_t rows,
                                 float* out) const {
  LayerNormRows(x, rows, gamma_.size(), gamma_.data().data(),
                beta_.data().data(), kLayerNormEpsilon, out);
}

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng& rng)
    : hidden_dim_(hidden_dim) {
  const float bx = std::sqrt(6.0f / static_cast<float>(input_dim + hidden_dim));
  const float bh = std::sqrt(3.0f / static_cast<float>(hidden_dim));
  w_x_ = Tensor::RandUniform({input_dim, 3 * hidden_dim}, rng, bx,
                             /*requires_grad=*/true);
  w_h_ = Tensor::RandUniform({hidden_dim, 3 * hidden_dim}, rng, bh,
                             /*requires_grad=*/true);
  bias_ = Tensor::Zeros({3 * hidden_dim}, /*requires_grad=*/true);
  RegisterParameter("w_x", w_x_);
  RegisterParameter("w_h", w_h_);
  RegisterParameter("bias", bias_);
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) const {
  DELREC_CHECK_EQ(h.dim(1), hidden_dim_);
  // Gates from the input path (z|r|h blocks share one matmul).
  Tensor gx = AddBias(MatMul(x, w_x_), bias_);  // (N, 3H)
  Tensor gh = MatMul(h, w_h_);                  // (N, 3H)
  Tensor z = Sigmoid(Add(SliceCols(gx, 0, hidden_dim_),
                         SliceCols(gh, 0, hidden_dim_)));
  Tensor r = Sigmoid(Add(SliceCols(gx, hidden_dim_, hidden_dim_),
                         SliceCols(gh, hidden_dim_, hidden_dim_)));
  // Candidate uses the reset-gated hidden state: x·W_h + (r⊙h)·U_h. The U_h
  // block of gh was computed from un-gated h, so recompute it from r⊙h.
  Tensor rh = Mul(r, h);
  Tensor u_h = SliceCols(w_h_, 2 * hidden_dim_, hidden_dim_);
  Tensor candidate = Tanh(Add(SliceCols(gx, 2 * hidden_dim_, hidden_dim_),
                              MatMul(rh, u_h)));
  // h' = (1-z)⊙h + z⊙ĥ.
  Tensor one_minus_z = AddScalar(MulScalar(z, -1.0f), 1.0f);
  return Add(Mul(one_minus_z, h), Mul(z, candidate));
}

MultiHeadAttention::MultiHeadAttention(int64_t model_dim, int64_t num_heads,
                                       util::Rng& rng)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(model_dim / num_heads),
      wq_(model_dim, model_dim, rng),
      wk_(model_dim, model_dim, rng),
      wv_(model_dim, model_dim, rng),
      wo_(model_dim, model_dim, rng) {
  DELREC_CHECK_EQ(head_dim_ * num_heads, model_dim)
      << "model_dim must be divisible by num_heads";
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
}

Tensor MultiHeadAttention::Forward(const Tensor& query,
                                   const Tensor& keys_values,
                                   const Tensor& additive_mask,
                                   util::Rng& rng, float dropout_p) const {
  DELREC_CHECK_EQ(query.dim(1), model_dim_);
  DELREC_CHECK_EQ(keys_values.dim(1), model_dim_);
  Tensor q = wq_.Forward(query);        // (Tq, D)
  Tensor k = wk_.Forward(keys_values);  // (Tk, D)
  Tensor v = wv_.Forward(keys_values);  // (Tk, D)
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(num_heads_);
  for (int64_t h = 0; h < num_heads_; ++h) {
    Tensor qh = SliceCols(q, h * head_dim_, head_dim_);
    Tensor kh = SliceCols(k, h * head_dim_, head_dim_);
    Tensor vh = SliceCols(v, h * head_dim_, head_dim_);
    Tensor scores = MulScalar(MatMul(qh, kh, false, /*trans_b=*/true), scale);
    if (additive_mask.defined()) scores = Add(scores, additive_mask);
    Tensor attention = Softmax(scores);
    attention = Dropout(attention, dropout_p, rng, training());
    head_outputs.push_back(MatMul(attention, vh));  // (Tq, head_dim)
  }
  return wo_.Forward(ConcatCols(head_outputs));
}

FeedForward::FeedForward(int64_t model_dim, int64_t hidden_dim, util::Rng& rng)
    : in_(model_dim, hidden_dim, rng), out_(hidden_dim, model_dim, rng) {
  RegisterModule("in", &in_);
  RegisterModule("out", &out_);
}

Tensor FeedForward::Forward(const Tensor& x, util::Rng& rng, float dropout_p,
                            bool training) const {
  Tensor hidden = Gelu(in_.Forward(x));
  hidden = Dropout(hidden, dropout_p, rng, training);
  return out_.Forward(hidden);
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t model_dim,
                                                 int64_t num_heads,
                                                 int64_t ffn_dim,
                                                 util::Rng& rng)
    : ln_attention_(model_dim),
      attention_(model_dim, num_heads, rng),
      ln_ffn_(model_dim),
      ffn_(model_dim, ffn_dim, rng) {
  RegisterModule("ln_attention", &ln_attention_);
  RegisterModule("attention", &attention_);
  RegisterModule("ln_ffn", &ln_ffn_);
  RegisterModule("ffn", &ffn_);
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x,
                                        const Tensor& additive_mask,
                                        util::Rng& rng,
                                        float dropout_p) const {
  Tensor normed = ln_attention_.Forward(x);
  Tensor attended =
      attention_.Forward(normed, normed, additive_mask, rng, dropout_p);
  Tensor residual = Add(x, attended);
  Tensor ff = ffn_.Forward(ln_ffn_.Forward(residual), rng, dropout_p,
                           training());
  return Add(residual, ff);
}

Tensor CausalMask(int64_t length) {
  std::vector<float> mask(length * length, 0.0f);
  for (int64_t i = 0; i < length; ++i) {
    for (int64_t j = i + 1; j < length; ++j) mask[i * length + j] = -1e9f;
  }
  return Tensor::FromData({length, length}, std::move(mask));
}

}  // namespace delrec::nn
