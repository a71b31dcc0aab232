#include "llm/tiny_lm.h"

#include <algorithm>
#include <cmath>

#include "llm/vocab.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "nn/ops.h"
#include "nn/vecmath.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace delrec::llm {

TinyLmConfig TinyLmConfig::Base(int64_t vocab_size) {
  TinyLmConfig config;
  config.vocab_size = vocab_size;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 32;
  return config;
}

TinyLmConfig TinyLmConfig::Large(int64_t vocab_size) {
  TinyLmConfig config;
  config.vocab_size = vocab_size;
  config.model_dim = 24;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_dim = 48;
  return config;
}

TinyLmConfig TinyLmConfig::XL(int64_t vocab_size) {
  TinyLmConfig config;
  config.vocab_size = vocab_size;
  config.model_dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_dim = 64;
  return config;
}

PromptPiece PromptPiece::Tokens(std::vector<int64_t> tokens) {
  PromptPiece piece;
  piece.kind = Kind::kTokens;
  piece.tokens = std::move(tokens);
  return piece;
}

PromptPiece PromptPiece::Embeddings(nn::Tensor rows) {
  DELREC_CHECK(rows.defined());
  DELREC_CHECK_EQ(rows.ndim(), 2);
  PromptPiece piece;
  piece.kind = Kind::kEmbeddings;
  piece.embeddings = std::move(rows);
  return piece;
}

int64_t PromptPiece::length() const {
  return kind == Kind::kTokens ? static_cast<int64_t>(tokens.size())
                               : embeddings.dim(0);
}

TinyLmBlock::TinyLmBlock(const TinyLmConfig& config, util::Rng& rng)
    : num_heads_(config.num_heads),
      head_dim_(config.model_dim / config.num_heads),
      ln_attention_(config.model_dim),
      wq_(config.model_dim, config.model_dim, rng),
      wk_(config.model_dim, config.model_dim, rng),
      wv_(config.model_dim, config.model_dim, rng),
      wo_(config.model_dim, config.model_dim, rng),
      ln_ffn_(config.model_dim),
      ffn_in_(config.model_dim, config.ffn_dim, rng),
      ffn_out_(config.ffn_dim, config.model_dim, rng) {
  DELREC_CHECK_EQ(head_dim_ * num_heads_, config.model_dim);
  RegisterModule("ln_attention", &ln_attention_);
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
  RegisterModule("ln_ffn", &ln_ffn_);
  RegisterModule("ffn_in", &ffn_in_);
  RegisterModule("ffn_out", &ffn_out_);
}

nn::Tensor TinyLmBlock::Forward(const nn::Tensor& x, util::Rng& rng,
                                float dropout, int64_t prefix) const {
  const int64_t t = x.dim(0);
  DELREC_CHECK_GE(prefix, 0);
  DELREC_CHECK_LE(prefix, t);
  nn::Tensor normed = ln_attention_.Forward(x);
  nn::Tensor q = lora_wq_ ? lora_wq_->Forward(normed) : wq_.Forward(normed);
  nn::Tensor k = wk_.Forward(normed);
  nn::Tensor v = lora_wv_ ? lora_wv_->Forward(normed) : wv_.Forward(normed);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<nn::Tensor> heads;
  heads.reserve(num_heads_);
  for (int64_t h = 0; h < num_heads_; ++h) {
    nn::Tensor qh = nn::SliceCols(q, h * head_dim_, head_dim_);
    nn::Tensor kh = nn::SliceCols(k, h * head_dim_, head_dim_);
    nn::Tensor vh = nn::SliceCols(v, h * head_dim_, head_dim_);
    if (prefix == 0 || prefix == t) {
      // Full bidirectional (the historical path, op-for-op) — a prompt that
      // is all prefix attends within itself, which is the same computation.
      nn::Tensor attention = nn::Softmax(
          nn::MulScalar(nn::MatMul(qh, kh, false, true), scale));
      attention = nn::Dropout(attention, dropout, rng, training());
      heads.push_back(nn::MatMul(attention, vh));
      continue;
    }
    // Frozen-head boundary: prefix rows attend among themselves (their
    // hidden states never read the suffix — what makes serve-time K/V
    // caching exact), suffix rows attend over the whole sequence with the
    // prefix keys first, matching the cached path's summation order.
    nn::Tensor qp = nn::SliceRows(qh, 0, prefix);
    nn::Tensor kp = nn::SliceRows(kh, 0, prefix);
    nn::Tensor vp = nn::SliceRows(vh, 0, prefix);
    nn::Tensor attn_p = nn::Softmax(
        nn::MulScalar(nn::MatMul(qp, kp, false, true), scale));
    attn_p = nn::Dropout(attn_p, dropout, rng, training());
    nn::Tensor head_p = nn::MatMul(attn_p, vp);
    nn::Tensor qs = nn::SliceRows(qh, prefix, t - prefix);
    nn::Tensor attn_s = nn::Softmax(
        nn::MulScalar(nn::MatMul(qs, kh, false, true), scale));
    attn_s = nn::Dropout(attn_s, dropout, rng, training());
    nn::Tensor head_s = nn::MatMul(attn_s, vh);
    heads.push_back(nn::ConcatRows({head_p, head_s}));
  }
  nn::Tensor attended = wo_.Forward(nn::ConcatCols(heads));
  nn::Tensor residual = nn::Add(x, attended);
  nn::Tensor ff_in = ln_ffn_.Forward(residual);
  nn::Tensor hidden = nn::Gelu(lora_ffn_in_ ? lora_ffn_in_->Forward(ff_in)
                                            : ffn_in_.Forward(ff_in));
  hidden = nn::Dropout(hidden, dropout, rng, training());
  return nn::Add(residual, ffn_out_.Forward(hidden));
}

namespace {

// Carves an int8 activation buffer out of the fp32 arena: `floats` worth of
// rows × packed_depth bytes, rounded up to whole floats.
int8_t* AllocInt8(util::ScopedArena& arena, int64_t bytes) {
  return reinterpret_cast<int8_t*>(arena.Alloc((bytes + 3) / 4));
}

// Optional fp32 bias pointer for the int8 epilogue (Linear may be bias-free).
const float* BiasPtr(const nn::Linear& linear) {
  return linear.bias().defined() ? linear.bias().data().data() : nullptr;
}

}  // namespace

void TinyLmBlock::AttendSpans(const float* q, const float* k,
                              const float* vproj,
                              const std::vector<SequenceSpan>& spans,
                              float* attended, util::ScopedArena& arena,
                              const BlockPrefixKv* prefix_kv) const {
  const int64_t d = num_heads_ * head_dim_;
  // Attention is the one non-row-local stage: run it per sequence (the
  // batch's attention matrix is block-diagonal) with exactly the shapes and
  // op order of Forward(), head by head. Spans fan out across threads —
  // the intra-batch parallelism a one-at-a-time forward cannot have. Each
  // span's arithmetic is unchanged and writes only its own rows of
  // `attended`, so results stay bit-identical at every thread count;
  // scratch is carved out up front because the arena is not thread-safe.
  //
  // Each head is one nn::AttendHead call per shape, which reads the head's
  // columns of q/k/v in place and returns the bits of Forward()'s GemmNT,
  // softmax and GemmNN. Three shapes share this loop. Legacy (no boundary):
  // t queries over t keys. Boundary in-span (span.prefix > 0): p over p for
  // the frozen head, then the t − p suffix rows over all t — rows of the
  // legacy computation, so unchanged rows stay bit-identical. Cached
  // (prefix_kv): every span is a suffix; its t rows attend over the cached
  // prefix rows followed by the span's own, the same keys in the same order
  // as the boundary pass's suffix rows.
  //
  // An int8 block takes the approximate softmax (nn/vecmath.h), which folds
  // the scale in; the fp32 path scales as nn::MulScalar does and runs
  // nn::Softmax's arithmetic.
  nn::AttentionHead base;
  base.head_dim = head_dim_;
  base.stride = d;
  base.scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  base.softmax =
      quant_ ? nn::AttentionSoftmax::kApprox : nn::AttentionSoftmax::kStd;
  base.cached = prefix_kv != nullptr ? prefix_kv->length : 0;
  std::vector<float*> scratch(spans.size());
  for (size_t s = 0; s < spans.size(); ++s) {
    scratch[s] = arena.Alloc(
        nn::AttendHeadScratch(base.cached + spans[s].length, head_dim_));
  }
  util::ParallelFor(
      static_cast<int64_t>(spans.size()),
      [&](int64_t begin, int64_t end, int) {
        for (int64_t s = begin; s < end; ++s) {
          const SequenceSpan& span = spans[s];
          const int64_t p = base.cached > 0 ? int64_t{0} : span.prefix;
          for (int64_t h = 0; h < num_heads_; ++h) {
            const int64_t offset = span.begin * d + h * head_dim_;
            nn::AttentionHead head = base;
            if (prefix_kv != nullptr) {
              head.cached_keys = prefix_kv->keys + h * head_dim_;
              head.cached_values = prefix_kv->values + h * head_dim_;
            }
            head.queries = q + offset;
            head.keys = k + offset;
            head.values = vproj + offset;
            head.out = attended + offset;
            if (p > 0) {
              // Frozen head: rows [0, p) attend among themselves.
              head.rows = p;
              head.own = p;
              nn::AttendHead(head, scratch[s]);
            }
            // Suffix rows attend over the full context (prefix keys first —
            // the cached path reproduces this column order).
            head.queries += p * d;
            head.out += p * d;
            head.rows = span.length - p;
            head.own = span.length;
            if (head.rows > 0) nn::AttendHead(head, scratch[s]);
          }
        }
      });
}

void TinyLmBlock::Dense(DenseInput& in, int64_t total,
                        const nn::Linear& linear,
                        const nn::LoraLinear* adapter,
                        nn::QuantTensor QuantWeights::*weights, float* out,
                        util::ScopedArena& arena) const {
  if (!quant_) {
    linear.ForwardInference(in.rows, total, out);
    if (adapter != nullptr) {
      adapter->AddDeltaInference(in.rows, total, out, arena);
    }
    return;
  }
  // The adapter is already merged into the int8 weights.
  const nn::QuantTensor& w = (*quant_).*weights;
  if (in.codes == nullptr) {
    in.codes = AllocInt8(arena, total * w.packed_depth());
    in.scales = arena.Alloc(total);
    nn::QuantizeActivationRows(in.rows, total, w.depth(), in.codes,
                               in.scales);
  }
  nn::Int8Gemm(in.codes, in.scales, w, BiasPtr(linear), out, total,
               /*accumulate=*/false);
}

void TinyLmBlock::ForwardBatchInference(const float* x, int64_t total,
                                        const std::vector<SequenceSpan>& spans,
                                        float* out, util::ScopedArena& arena,
                                        const BlockPrefixKv* prefix_kv,
                                        float* capture_k,
                                        float* capture_v) const {
  // One stage order for the fp32 and int8 weights: only the dense
  // projections (Dense), the attention softmax and the GELU differ.
  // LayerNorm and attention stay fp32 on both — quantizing softmax inputs
  // would cost accuracy for no footprint win. The fp32 path runs the same
  // nn/ops.h kernels as Forward(); the int8 path's softmax and GELU are the
  // vectorized approximations of nn/vecmath.h: at serve widths libm exp and
  // tanh would otherwise rival the projections.
  const int64_t d = num_heads_ * head_dim_;
  const int64_t f = ffn_in_.out_features();
  float* normed = arena.Alloc(total * d);
  ln_attention_.ForwardInference(x, total, normed);
  DenseInput normed_in{normed};
  float* q = arena.Alloc(total * d);
  Dense(normed_in, total, wq_, lora_wq_.get(), &QuantWeights::wq, q, arena);
  float* k = arena.Alloc(total * d);
  Dense(normed_in, total, wk_, nullptr, &QuantWeights::wk, k, arena);
  float* vproj = arena.Alloc(total * d);
  Dense(normed_in, total, wv_, lora_wv_.get(), &QuantWeights::wv, vproj,
        arena);
  // Captured K/V are the projections attention reads — on the int8 path the
  // GEMM's fp32 outputs, exactly what a stacked forward would feed
  // attention, since activation quantization is per-row.
  if (capture_k != nullptr) std::copy(k, k + total * d, capture_k);
  if (capture_v != nullptr) std::copy(vproj, vproj + total * d, capture_v);

  float* attended = arena.Alloc(total * d);
  AttendSpans(q, k, vproj, spans, attended, arena, prefix_kv);

  DenseInput attended_in{attended};
  float* att_proj = arena.Alloc(total * d);
  Dense(attended_in, total, wo_, nullptr, &QuantWeights::wo, att_proj, arena);
  float* residual = arena.Alloc(total * d);
  const int64_t cells = total * d;
  for (int64_t i = 0; i < cells; ++i) residual[i] = x[i] + att_proj[i];
  float* ff_in = arena.Alloc(total * d);
  ln_ffn_.ForwardInference(residual, total, ff_in);
  DenseInput ff_in_rows{ff_in};
  float* hidden = arena.Alloc(total * f);
  Dense(ff_in_rows, total, ffn_in_, lora_ffn_in_.get(),
        &QuantWeights::ffn_in, hidden, arena);
  if (quant_) {
    nn::ApproxGelu(hidden, total * f);
  } else {
    nn::GeluRows(hidden, total * f, hidden);
  }
  DenseInput hidden_in{hidden};
  Dense(hidden_in, total, ffn_out_, nullptr, &QuantWeights::ffn_out, out,
        arena);
  for (int64_t i = 0; i < cells; ++i) out[i] = residual[i] + out[i];
}

void TinyLmBlock::QuantizeForInference() {
  if (quant_) return;
  const int64_t d = num_heads_ * head_dim_;
  const int64_t f = ffn_in_.out_features();
  auto from_linear = [](const nn::Linear& linear,
                        const nn::LoraLinear* adapter) {
    if (adapter != nullptr) {
      const std::vector<float> merged = adapter->MergedWeightRowMajor();
      return nn::QuantTensor::FromColumns(merged.data(),
                                          linear.in_features(),
                                          linear.out_features());
    }
    return nn::QuantTensor::FromColumns(linear.weight().data().data(),
                                        linear.in_features(),
                                        linear.out_features());
  };
  auto quant = std::make_unique<QuantWeights>();
  quant->wq = from_linear(wq_, lora_wq_.get());
  quant->wk = from_linear(wk_, nullptr);
  quant->wv = from_linear(wv_, lora_wv_.get());
  quant->wo = from_linear(wo_, nullptr);
  quant->ffn_in = from_linear(ffn_in_, lora_ffn_in_.get());
  quant->ffn_out = from_linear(ffn_out_, nullptr);
  DELREC_CHECK_EQ(quant->wq.channels(), d);
  DELREC_CHECK_EQ(quant->ffn_in.channels(), f);
  quant_ = std::move(quant);
}

size_t TinyLmBlock::InferenceWeightBytes() const {
  size_t bytes = 0;
  for (const auto& [name, tensor] : NamedParameters()) {
    bytes += tensor.data().size() * sizeof(float);
  }
  if (quant_) {
    // The six dense fp32 matrices are replaced by packed int8 + scales; the
    // adapters are merged away entirely. LN affines and biases stay fp32.
    for (const nn::Linear* linear :
         {&wq_, &wk_, &wv_, &wo_, &ffn_in_, &ffn_out_}) {
      bytes -= linear->weight().data().size() * sizeof(float);
    }
    bytes += quant_->wq.MemoryBytes() + quant_->wk.MemoryBytes() +
             quant_->wv.MemoryBytes() + quant_->wo.MemoryBytes() +
             quant_->ffn_in.MemoryBytes() + quant_->ffn_out.MemoryBytes();
  } else {
    for (const nn::LoraLinear* adapter : adapters()) {
      for (const auto& [name, tensor] : adapter->NamedParameters()) {
        bytes += tensor.data().size() * sizeof(float);
      }
    }
  }
  return bytes;
}

std::vector<nn::LoraLinear*> TinyLmBlock::EnableAdapters(int64_t rank,
                                                         float scale,
                                                         util::Rng& rng) {
  if (!lora_wq_) {
    lora_wq_ = std::make_unique<nn::LoraLinear>(&wq_, rank, scale, rng);
    lora_wv_ = std::make_unique<nn::LoraLinear>(&wv_, rank, scale, rng);
    lora_ffn_in_ =
        std::make_unique<nn::LoraLinear>(&ffn_in_, rank, scale, rng);
  }
  return adapters();
}

std::vector<nn::LoraLinear*> TinyLmBlock::adapters() const {
  std::vector<nn::LoraLinear*> out;
  if (lora_wq_) {
    out = {lora_wq_.get(), lora_wv_.get(), lora_ffn_in_.get()};
  }
  return out;
}

TinyLm::TinyLm(const TinyLmConfig& config, uint64_t seed)
    : config_(config),
      scratch_rng_(seed),
      token_embedding_(config.vocab_size, config.model_dim, scratch_rng_),
      final_norm_(config.model_dim) {
  DELREC_CHECK_GT(config.vocab_size, Vocab::kNumSpecials);
  RegisterModule("token_embedding", &token_embedding_);
  // Sinusoidal positions, scaled to the embedding init magnitude so they
  // inform but don't drown the token embeddings.
  std::vector<float> positions(config.max_positions * config.model_dim);
  for (int64_t p = 0; p < config.max_positions; ++p) {
    for (int64_t d = 0; d < config.model_dim; ++d) {
      const double rate =
          static_cast<double>(p) /
          std::pow(10000.0, 2.0 * (d / 2) / static_cast<double>(
                                                config.model_dim));
      positions[p * config.model_dim + d] =
          0.05f * static_cast<float>((d % 2 == 0) ? std::sin(rate)
                                                  : std::cos(rate));
    }
  }
  position_table_ = nn::Tensor::FromData(
      {config.max_positions, config.model_dim}, std::move(positions));
  for (int64_t b = 0; b < config.num_layers; ++b) {
    blocks_.push_back(std::make_unique<TinyLmBlock>(config_, scratch_rng_));
    RegisterModule("block" + std::to_string(b), blocks_.back().get());
  }
  RegisterModule("final_norm", &final_norm_);
  head_bias_ = nn::Tensor::Zeros({config.vocab_size}, /*requires_grad=*/true);
  RegisterParameter("head_bias", head_bias_);
}

nn::Tensor TinyLm::Encode(const std::vector<PromptPiece>& pieces,
                          float dropout, util::Rng& rng,
                          int64_t prefix_length) const {
  DELREC_CHECK(!pieces.empty());
  const nn::Tensor table = EffectiveTokenTable();
  std::vector<nn::Tensor> rows;
  rows.reserve(pieces.size());
  int64_t total_length = 0;
  for (const PromptPiece& piece : pieces) {
    if (piece.kind == PromptPiece::Kind::kTokens) {
      if (piece.tokens.empty()) continue;
      rows.push_back(nn::Rows(table, piece.tokens));
    } else {
      DELREC_CHECK_EQ(piece.embeddings.dim(1), config_.model_dim);
      rows.push_back(piece.embeddings);
    }
    total_length += piece.length();
  }
  DELREC_CHECK_GT(total_length, 0);
  DELREC_CHECK_LE(total_length, config_.max_positions)
      << "prompt longer than max_positions";
  DELREC_CHECK_GE(prefix_length, 0);
  DELREC_CHECK_LE(prefix_length, total_length);
  nn::Tensor x = rows.size() == 1 ? rows[0] : nn::ConcatRows(rows);
  x = nn::Add(x, nn::SliceRows(position_table_, 0, total_length));
  x = nn::Dropout(x, dropout, rng, training());
  for (const auto& block : blocks_) {
    x = block->Forward(x, rng, dropout, prefix_length);
  }
  return final_norm_.Forward(x);
}

nn::Tensor TinyLm::LogitsAt(const nn::Tensor& hidden, int64_t position) const {
  nn::Tensor at = nn::SliceRows(hidden, position, 1);
  return nn::AddBias(nn::MatMul(at, EffectiveTokenTable(), false, true),
                     head_bias_);
}

void TinyLm::GatherPromptRows(
    const std::vector<const std::vector<PromptPiece>*>& prompts,
    const std::vector<SequenceSpan>& spans, const float* table,
    int64_t position_offset, float* x) const {
  const int64_t d = config_.model_dim;
  const float* pos = position_table_.data().data() + position_offset * d;
  for (size_t s = 0; s < prompts.size(); ++s) {
    float* base = x + spans[s].begin * d;
    int64_t row = 0;
    for (const PromptPiece& piece : *prompts[s]) {
      if (piece.kind == PromptPiece::Kind::kTokens) {
        for (int64_t token : piece.tokens) {
          DELREC_CHECK_GE(token, 0);
          DELREC_CHECK_LT(token, config_.vocab_size);
          if (table != nullptr) {
            std::copy(table + token * d, table + (token + 1) * d,
                      base + row * d);
          } else {
            quant_table_.DequantRow(token, base + row * d);
          }
          ++row;
        }
      } else {
        DELREC_CHECK_EQ(piece.embeddings.dim(1), d);
        const std::vector<float>& rows = piece.embeddings.data();
        std::copy(rows.begin(), rows.end(), base + row * d);
        row += piece.embeddings.dim(0);
      }
    }
    // Positions restart at `position_offset` for every sequence, matching
    // Encode()'s Add(x, SliceRows(position_table_, 0, T)) — suffix-only
    // batches pass the prefix length so position rows line up with the
    // full-prompt encode.
    const int64_t cells = spans[s].length * d;
    for (int64_t i = 0; i < cells; ++i) base[i] = base[i] + pos[i];
  }
}

nn::Tensor TinyLm::EncodeRows(
    const std::vector<const std::vector<PromptPiece>*>& prompts,
    const std::vector<int64_t>* prefix_lengths,
    const nn::Tensor& effective_table, const PrefixState* cached,
    PrefixState* capture, std::vector<SequenceSpan>* spans) const {
  DELREC_CHECK(!prompts.empty());
  DELREC_CHECK(spans != nullptr);
  if (prefix_lengths != nullptr) {
    DELREC_CHECK_EQ(prefix_lengths->size(), prompts.size());
  }
  if (cached != nullptr) {
    DELREC_CHECK(cached->defined());
    DELREC_CHECK_EQ(cached->keys.size(), blocks_.size());
    DELREC_CHECK_EQ(cached->values.size(), blocks_.size());
  }
  nn::NoGradGuard no_grad;
  // With a quantized token table the fp32 effective table is never built:
  // token rows are dequantized straight into the activation buffer.
  nn::Tensor table;
  const float* tv = nullptr;
  if (!quant_table_.defined()) {
    table = effective_table.defined() ? effective_table
                                      : EffectiveTokenTable();
    DELREC_CHECK_EQ(table.dim(0), config_.vocab_size);
    DELREC_CHECK_EQ(table.dim(1), config_.model_dim);
    tv = table.data().data();
  }
  const int64_t d = config_.model_dim;
  const int64_t position_offset = cached != nullptr ? cached->length : 0;

  spans->clear();
  spans->reserve(prompts.size());
  int64_t total = 0;
  for (size_t i = 0; i < prompts.size(); ++i) {
    const std::vector<PromptPiece>* pieces = prompts[i];
    DELREC_CHECK(pieces != nullptr);
    DELREC_CHECK(!pieces->empty());
    int64_t length = 0;
    for (const PromptPiece& piece : *pieces) length += piece.length();
    DELREC_CHECK_GT(length, 0);
    DELREC_CHECK_LE(position_offset + length, config_.max_positions)
        << "prompt (after any cached prefix) longer than max_positions";
    const int64_t prefix =
        prefix_lengths != nullptr ? (*prefix_lengths)[i] : int64_t{0};
    DELREC_CHECK_GE(prefix, 0);
    DELREC_CHECK_LE(prefix, length);
    spans->push_back({total, length, prefix});
    total += length;
  }

  util::ScopedArena arena;
  float* x = arena.Alloc(total * d);
  GatherPromptRows(prompts, *spans, tv, position_offset, x);

  if (capture != nullptr) {
    capture->length = total;
    capture->keys.assign(blocks_.size(), std::vector<float>(total * d));
    capture->values.assign(blocks_.size(), std::vector<float>(total * d));
  }
  float* cur = x;
  float* next = arena.Alloc(total * d);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    BlockPrefixKv kv;
    if (cached != nullptr) {
      kv = {cached->keys[b].data(), cached->values[b].data(), cached->length};
    }
    blocks_[b]->ForwardBatchInference(
        cur, total, *spans, next, arena, cached != nullptr ? &kv : nullptr,
        capture != nullptr ? capture->keys[b].data() : nullptr,
        capture != nullptr ? capture->values[b].data() : nullptr);
    std::swap(cur, next);
  }
  // A captured prefix is read only through its K/V: the mask position a
  // request scores always lies in its suffix (PromptBuilder::Split).
  if (capture != nullptr) return nn::Tensor();
  std::vector<float> out = util::BufferPool::Global().Acquire(total * d);
  final_norm_.ForwardInference(cur, total, out.data());
  return nn::Tensor::FromData({total, d}, std::move(out));
}

nn::Tensor TinyLm::EncodeBatch(
    const std::vector<const std::vector<PromptPiece>*>& prompts,
    const nn::Tensor& effective_table, std::vector<SequenceSpan>* spans,
    const std::vector<int64_t>* prefix_lengths) const {
  return EncodeRows(prompts, prefix_lengths, effective_table,
                    /*cached=*/nullptr, /*capture=*/nullptr, spans);
}

size_t TinyLm::PrefixState::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& layer : keys) bytes += layer.size() * sizeof(float);
  for (const auto& layer : values) bytes += layer.size() * sizeof(float);
  return bytes;
}

TinyLm::PrefixState TinyLm::BuildPrefixState(
    const std::vector<PromptPiece>& prefix_pieces,
    const nn::Tensor& effective_table) const {
  // One span, entirely frozen head: the attention this runs for rows
  // [0, P) is exactly what a boundary-masked full forward computes for
  // them, so the captured K/V are the cached-path ground truth.
  int64_t length = 0;
  for (const PromptPiece& piece : prefix_pieces) length += piece.length();
  const std::vector<int64_t> prefix_lengths = {length};
  PrefixState state;
  std::vector<SequenceSpan> spans;
  EncodeRows({&prefix_pieces}, &prefix_lengths, effective_table,
             /*cached=*/nullptr, &state, &spans);
  return state;
}

nn::Tensor TinyLm::EncodeBatchWithPrefix(
    const PrefixState& prefix,
    const std::vector<const std::vector<PromptPiece>*>& suffixes,
    const nn::Tensor& effective_table,
    std::vector<SequenceSpan>* spans) const {
  return EncodeRows(suffixes, /*prefix_lengths=*/nullptr, effective_table,
                    &prefix, /*capture=*/nullptr, spans);
}

nn::Tensor TinyLm::LogitsAtRows(const nn::Tensor& hidden,
                                const std::vector<int64_t>& rows,
                                const nn::Tensor& effective_table) const {
  DELREC_CHECK(!rows.empty());
  nn::NoGradGuard no_grad;
  const int64_t d = config_.model_dim;
  const int64_t vocab = config_.vocab_size;
  const int64_t b = static_cast<int64_t>(rows.size());
  util::ScopedArena arena;
  float* gathered = arena.Alloc(b * d);
  const float* hv = hidden.data().data();
  for (int64_t i = 0; i < b; ++i) {
    DELREC_CHECK_GE(rows[i], 0);
    DELREC_CHECK_LT(rows[i], hidden.dim(0));
    std::copy(hv + rows[i] * d, hv + (rows[i] + 1) * d, gathered + i * d);
  }
  std::vector<float> out = util::BufferPool::Global().Acquire(b * vocab);
  if (quant_table_.defined()) {
    // Tied LM head over the quantized table: dynamic per-row activation
    // quantization, then the packed int8 kernels against all vocab channels.
    const int64_t dp = quant_table_.packed_depth();
    int8_t* gathered_q =
        reinterpret_cast<int8_t*>(arena.Alloc((b * dp + 3) / 4));
    float* gathered_s = arena.Alloc(b);
    nn::QuantizeActivationRows(gathered, b, d, gathered_q, gathered_s);
    nn::Int8Gemm(gathered_q, gathered_s, quant_table_, /*bias=*/nullptr,
                 out.data(), b, /*accumulate=*/false);
  } else {
    const nn::Tensor table =
        effective_table.defined() ? effective_table : EffectiveTokenTable();
    nn::GemmNT(gathered, table.data().data(), out.data(), b, vocab, d,
               /*accumulate=*/false);
  }
  nn::AddBiasRows(out.data(), b, vocab, head_bias_.data().data());
  return nn::Tensor::FromData({b, vocab}, std::move(out));
}

void TinyLm::QuantizeForInference() {
  for (auto& block : blocks_) block->QuantizeForInference();
  if (!quant_table_.defined()) {
    // Merge the embedding-LoRA delta first so the quantized table matches
    // the effective table the fp32 path gathers from.
    const nn::Tensor table = MaterializeTokenTable();
    quant_table_ = nn::QuantTensor::FromRows(
        table.data().data(), config_.vocab_size, config_.model_dim);
  }
}

size_t TinyLm::InferenceWeightBytes() const {
  auto tensor_bytes = [](const nn::Tensor& t) {
    return t.defined() ? t.data().size() * sizeof(float) : size_t{0};
  };
  size_t bytes = tensor_bytes(position_table_) + tensor_bytes(head_bias_);
  for (const auto& [name, tensor] : final_norm_.NamedParameters()) {
    bytes += tensor.data().size() * sizeof(float);
  }
  for (const auto& block : blocks_) bytes += block->InferenceWeightBytes();
  if (quant_table_.defined()) {
    bytes += quant_table_.MemoryBytes();
  } else {
    bytes += tensor_bytes(token_embedding_.table()) +
             tensor_bytes(embedding_lora_a_) + tensor_bytes(embedding_lora_b_);
  }
  return bytes;
}

nn::Tensor TinyLm::MaterializeTokenTable() const {
  nn::NoGradGuard no_grad;
  const nn::Tensor table = EffectiveTokenTable();
  std::vector<float> copy = table.data();
  return nn::Tensor::FromData(table.shape(), std::move(copy));
}

nn::Tensor TinyLm::EffectiveTokenTable() const {
  if (!embedding_lora_a_.defined()) return token_embedding_.table();
  return nn::Add(token_embedding_.table(),
                 nn::MulScalar(nn::MatMul(embedding_lora_a_,
                                          embedding_lora_b_),
                               embedding_lora_scale_));
}

nn::Tensor TinyLm::MlmLoss(const std::vector<int64_t>& tokens,
                           const std::vector<int64_t>& mask_positions,
                           util::Rng& rng) {
  DELREC_CHECK(!mask_positions.empty());
  std::vector<int64_t> corrupted = tokens;
  for (int64_t position : mask_positions) {
    DELREC_CHECK_GE(position, 0);
    DELREC_CHECK_LT(position, static_cast<int64_t>(tokens.size()));
    corrupted[position] = Vocab::kMask;
  }
  nn::Tensor hidden =
      Encode({PromptPiece::Tokens(corrupted)}, config_.dropout, rng);
  std::vector<nn::Tensor> losses;
  losses.reserve(mask_positions.size());
  for (int64_t position : mask_positions) {
    losses.push_back(nn::CrossEntropyWithLogits(LogitsAt(hidden, position),
                                                {tokens[position]}));
  }
  return nn::MulScalar(nn::AddN(losses),
                       1.0f / static_cast<float>(losses.size()));
}

std::vector<float> TinyLm::EmbedTokens(
    const std::vector<int64_t>& tokens) const {
  nn::NoGradGuard no_grad;
  DELREC_CHECK(!tokens.empty());
  nn::Tensor hidden =
      Encode({PromptPiece::Tokens(tokens)}, 0.0f, scratch_rng_);
  return nn::MeanRows(hidden).data();
}

std::vector<nn::LoraLinear*> TinyLm::EnableAdapters(int64_t rank,
                                                    float scale) {
  std::vector<nn::LoraLinear*> all;
  for (const auto& block : blocks_) {
    for (nn::LoraLinear* adapter :
         block->EnableAdapters(rank, scale, scratch_rng_)) {
      all.push_back(adapter);
    }
  }
  if (!embedding_lora_a_.defined()) {
    embedding_lora_a_ = nn::Tensor::Randn({config_.vocab_size, rank},
                                          scratch_rng_, 0.02f,
                                          /*requires_grad=*/true);
    embedding_lora_b_ = nn::Tensor::Zeros({rank, config_.model_dim},
                                          /*requires_grad=*/true);
    embedding_lora_scale_ = scale;
  }
  return all;
}

std::vector<nn::Tensor> TinyLm::EmbeddingAdapterParameters() const {
  if (!embedding_lora_a_.defined()) return {};
  return {embedding_lora_a_, embedding_lora_b_};
}

std::vector<nn::Tensor> TinyLm::BitFitParameters() const {
  std::vector<nn::Tensor> out;
  for (const auto& [name, tensor] : NamedParameters()) {
    const bool is_embedding_table = name.find("embedding") != std::string::npos;
    const bool is_affine = name.find("bias") != std::string::npos ||
                           name.find("gamma") != std::string::npos ||
                           name.find("beta") != std::string::npos;
    if (is_affine && !is_embedding_table) out.push_back(tensor);
  }
  return out;
}

std::vector<nn::LoraLinear*> TinyLm::adapters() const {
  std::vector<nn::LoraLinear*> all;
  for (const auto& block : blocks_) {
    for (nn::LoraLinear* adapter : block->adapters()) all.push_back(adapter);
  }
  return all;
}

}  // namespace delrec::llm
