#ifndef DELREC_LLM_TINY_LM_H_
#define DELREC_LLM_TINY_LM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/lora.h"
#include "nn/module.h"
#include "nn/quant.h"
#include "nn/tensor.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace delrec::llm {

/// TinyLM architecture knobs. Three presets play the roles of the paper's
/// LLM backbones (DESIGN.md §2): kBase ≈ Bert-Large's role (small,
/// lightly pretrained MLM), kLarge ≈ Flan-T5-Large, kXL ≈ Flan-T5-XL.
struct TinyLmConfig {
  int64_t vocab_size = 0;
  int64_t model_dim = 32;
  int64_t num_layers = 2;
  int64_t num_heads = 4;
  int64_t ffn_dim = 64;
  int64_t max_positions = 192;
  float dropout = 0.1f;

  static TinyLmConfig Base(int64_t vocab_size);
  static TinyLmConfig Large(int64_t vocab_size);
  static TinyLmConfig XL(int64_t vocab_size);
};

/// A segment of a prompt: either hard tokens (looked up in the embedding
/// table) or pre-built embedding rows spliced verbatim into the input — the
/// mechanism behind both soft prompts (trainable rows) and LLaRA-style
/// injected conventional-SR embeddings.
struct PromptPiece {
  enum class Kind { kTokens, kEmbeddings };

  static PromptPiece Tokens(std::vector<int64_t> tokens);
  static PromptPiece Embeddings(nn::Tensor rows);

  int64_t length() const;

  Kind kind = Kind::kTokens;
  std::vector<int64_t> tokens;
  nn::Tensor embeddings;  // (n, model_dim) when kind == kEmbeddings.
};

/// Contiguous row range of one sequence inside a row-concatenated batch:
/// rows [begin, begin + length) of the stacked (ΣT, D) activation matrix.
/// Ragged concatenation (no padding) keeps every GEMM row a real row, which
/// is what makes the batched path bit-identical to per-sequence forwards
/// (each GEMM output row depends only on its own input row — nn/gemm.h).
///
/// `prefix` declares a frozen prompt head (PrefixLM-style boundary): rows
/// [0, prefix) of the sequence attend only among themselves, while rows
/// [prefix, length) attend over the whole sequence. prefix == 0 is full
/// bidirectional attention (the historical behavior). The boundary is what
/// makes the head's hidden states — and therefore its per-layer K/V rows —
/// independent of the suffix, so a snapshot can precompute them once
/// (TinyLm::PrefixState) and serve only the suffix, bit-identically.
struct SequenceSpan {
  int64_t begin = 0;
  int64_t length = 0;
  int64_t prefix = 0;
};

/// One layer's cached attention K/V rows for a shared frozen prefix: when
/// passed to ForwardBatchInference, every span is treated as the suffix of
/// that prefix — its rows attend over `length` cached rows followed by their
/// own span, in exactly that key order, which is the summation order the
/// uncached boundary-masked forward uses too (hence bit-identical scores).
struct BlockPrefixKv {
  const float* keys = nullptr;    // (length, model_dim), row-major.
  const float* values = nullptr;  // (length, model_dim), row-major.
  int64_t length = 0;
};

/// One pre-LN encoder block with optional AdaLoRA adapters on W_q, W_v and
/// the FFN input projection (the standard LoRA attachment points).
class TinyLmBlock : public nn::Module {
 public:
  TinyLmBlock(const TinyLmConfig& config, util::Rng& rng);

  /// `prefix` applies the SequenceSpan frozen-head boundary on the autograd
  /// path: rows [0, prefix) attend among themselves, rows [prefix, T) over
  /// everything. prefix == 0 is the historical full-bidirectional forward
  /// (identical op sequence, identical RNG draw order).
  nn::Tensor Forward(const nn::Tensor& x, util::Rng& rng, float dropout,
                     int64_t prefix = 0) const;

  /// Inference-only batched forward: `x` holds `total` row-concatenated
  /// hidden rows covering `spans`; writes the block output to `out` (same
  /// shape, must not alias x). Dense projections run as single stacked
  /// GEMMs — fp32, or int8 once QuantizeForInference() has run; attention
  /// stays block-diagonal per span. On the fp32 weights every row is
  /// bit-identical to Forward() run on that span alone: the same GEMMs and
  /// the same nn/ops.h kernels (DESIGN.md §11).
  ///
  /// When `prefix_kv` is set, every span is the suffix of one shared frozen
  /// prefix whose K/V rows were captured earlier: suffix rows attend over
  /// cached-prefix-keys ++ fresh-span-keys (same summation order as the
  /// uncached boundary-masked path, so bit-identical). `capture_k` /
  /// `capture_v` (each total × model_dim) receive this block's K/V
  /// projections exactly as attention reads them — the snapshot-build hook
  /// that fills a TinyLm::PrefixState.
  void ForwardBatchInference(const float* x, int64_t total,
                             const std::vector<SequenceSpan>& spans,
                             float* out, util::ScopedArena& arena,
                             const BlockPrefixKv* prefix_kv = nullptr,
                             float* capture_k = nullptr,
                             float* capture_v = nullptr) const;

  /// Creates the adapters (rank, scale) if not present; returns them for
  /// optimizer registration. Adapter parameters are deliberately NOT part of
  /// this module's parameter tree: they form a separate parameter group.
  std::vector<nn::LoraLinear*> EnableAdapters(int64_t rank, float scale,
                                              util::Rng& rng);
  std::vector<nn::LoraLinear*> adapters() const;

  /// Builds the int8 serving weights (DESIGN.md §13): merges any adapters
  /// into their base matrices and quantizes all six dense projections
  /// per-output-channel. Idempotent; after this, ForwardBatchInference
  /// routes its dense GEMMs through nn::Int8Gemm and its attention softmax
  /// (inside nn::AttendHead) and GELU through the nn/vecmath.h
  /// approximations, while LayerNorm and attention stay fp32. Forward()
  /// keeps reading the fp32 parameters.
  void QuantizeForInference();

  /// Bytes of weights the batched inference path reads: fp32 LN affines and
  /// biases plus either the fp32 dense matrices (+ adapter factors) or their
  /// packed int8 replacements.
  size_t InferenceWeightBytes() const;

 private:
  /// Per-block int8 serving weights, adapters already merged.
  struct QuantWeights {
    nn::QuantTensor wq, wk, wv, wo, ffn_in, ffn_out;
  };

  /// Input rows of one or more dense projections. On the int8 path the
  /// first projection quantizes them per row and later projections of the
  /// same rows reuse the codes (wq, wk and wv all read the normed rows).
  struct DenseInput {
    const float* rows = nullptr;
    int8_t* codes = nullptr;
    float* scales = nullptr;
  };

  /// out = in·W + b for one of the six dense projections of `total` rows:
  /// the fp32 GEMM plus the adapter's LoRA delta, or, once quantized, an
  /// int8 GEMM against `linear`'s merged int8 copy (the QuantWeights member
  /// `weights` points to).
  void Dense(DenseInput& in, int64_t total, const nn::Linear& linear,
             const nn::LoraLinear* adapter,
             nn::QuantTensor QuantWeights::*weights, float* out,
             util::ScopedArena& arena) const;

  /// The block-diagonal per-span attention stage: consumes the stacked
  /// q/k/v projections, writes the concatenated head outputs to `attended`.
  /// One nn::AttendHead call per span, head and shape (DESIGN.md §18),
  /// reading the projections in place, with the bits of Forward()'s
  /// GemmNT, softmax and GemmNN on the fp32 weights (the int8 weights take
  /// the approximate softmax). Honors each span's frozen-prefix boundary,
  /// and with `prefix_kv` attends over the shared cached K/V rows ahead of
  /// every span's fresh rows.
  void AttendSpans(const float* q, const float* k, const float* vproj,
                   const std::vector<SequenceSpan>& spans, float* attended,
                   util::ScopedArena& arena,
                   const BlockPrefixKv* prefix_kv) const;

  int64_t num_heads_;
  int64_t head_dim_;
  nn::LayerNorm ln_attention_;
  nn::Linear wq_;
  nn::Linear wk_;
  nn::Linear wv_;
  nn::Linear wo_;
  nn::LayerNorm ln_ffn_;
  nn::Linear ffn_in_;
  nn::Linear ffn_out_;
  std::unique_ptr<nn::LoraLinear> lora_wq_;
  std::unique_ptr<nn::LoraLinear> lora_wv_;
  std::unique_ptr<nn::LoraLinear> lora_ffn_in_;
  std::unique_ptr<QuantWeights> quant_;
};

/// The miniature masked language model standing in for the paper's LLM.
/// Bidirectional transformer encoder over word tokens; the LM head is tied
/// to the token embedding table. Prompts are composed of PromptPieces so
/// soft prompts and injected embeddings ride the same path as hard tokens.
class TinyLm : public nn::Module {
 public:
  TinyLm(const TinyLmConfig& config, uint64_t seed);

  const TinyLmConfig& config() const { return config_; }

  /// Runs the encoder over a composed prompt. Returns hidden states (T, D).
  /// `prefix_length` > 0 freezes the prompt head (SequenceSpan::prefix
  /// semantics) on every block — the model-level contract that lets serving
  /// cache the head's K/V. 0 keeps full bidirectional attention.
  nn::Tensor Encode(const std::vector<PromptPiece>& pieces, float dropout,
                    util::Rng& rng, int64_t prefix_length = 0) const;

  /// LM-head logits at one position of an Encode() output: (1, vocab).
  nn::Tensor LogitsAt(const nn::Tensor& hidden, int64_t position) const;

  /// Batched inference encoder: stacks B prompts into one row-concatenated
  /// (ΣT, D) pass so the dense projections ride the blocked GEMMs once
  /// instead of B times. Row r of the result is bit-identical to the
  /// matching row of Encode(*prompts[i], 0.0f, rng) at every thread count
  /// and for every batch composition. `effective_table` is an optional
  /// precomputed MaterializeTokenTable() result (pass an undefined Tensor
  /// to recompute, as Encode does); `spans` receives each prompt's row
  /// range. No grad, no dropout, no RNG draws.
  /// `prefix_lengths`, when non-null, gives each prompt's frozen-head length
  /// (SequenceSpan::prefix); it must have one entry per prompt. This is the
  /// uncached reference for the prefix-cache contract, which tests and
  /// bench_serve compare against (snapshots serve only the cached path):
  /// EncodeBatchWithPrefix suffix rows are bit-identical to the matching
  /// rows of this path.
  nn::Tensor EncodeBatch(
      const std::vector<const std::vector<PromptPiece>*>& prompts,
      const nn::Tensor& effective_table, std::vector<SequenceSpan>* spans,
      const std::vector<int64_t>* prefix_lengths = nullptr) const;

  /// Precomputed shared-prefix state (DESIGN.md §15): per-layer attention
  /// K/V rows of a frozen prompt head, computed once per snapshot and
  /// reused by every request that shares the head.
  struct PrefixState {
    int64_t length = 0;
    std::vector<std::vector<float>> keys;    // Per layer, (length, D).
    std::vector<std::vector<float>> values;  // Per layer, (length, D).

    bool defined() const { return length > 0; }
    /// Bytes the cache holds resident (counted in snapshot footprints).
    size_t MemoryBytes() const;
  };

  /// Runs the encoder once over the shared prefix (as its own frozen span)
  /// and captures every block's K/V projections. The captured rows are
  /// bit-identical to what a full boundary-masked forward computes for the
  /// prefix rows, because prefix hidden states never read the suffix and
  /// each GEMM output row depends only on its own input row. Honors the
  /// int8 path when the model is quantized (per-row activation quantization
  /// makes prefix rows quantize identically alone or stacked).
  PrefixState BuildPrefixState(const std::vector<PromptPiece>& prefix_pieces,
                               const nn::Tensor& effective_table) const;

  /// Batched suffix-only encoder: each prompt holds only the per-request
  /// suffix pieces; positions continue at `prefix.length` and attention
  /// reads the cached prefix K/V. Row r is bit-identical to the matching
  /// suffix row of EncodeBatch(prefix ++ suffix, prefix_lengths) at every
  /// thread count and batch composition, fp32 and int8. Returns (Σs, D) —
  /// suffix rows only, so callers index mask positions relative to the
  /// suffix (absolute position − prefix.length).
  nn::Tensor EncodeBatchWithPrefix(
      const PrefixState& prefix,
      const std::vector<const std::vector<PromptPiece>*>& suffixes,
      const nn::Tensor& effective_table,
      std::vector<SequenceSpan>* spans) const;

  /// LM-head logits for many rows of an EncodeBatch()/Encode() output at
  /// once: output row i is bit-identical to LogitsAt(hidden, rows[i]).
  /// Returns (rows.size(), vocab).
  nn::Tensor LogitsAtRows(const nn::Tensor& hidden,
                          const std::vector<int64_t>& rows,
                          const nn::Tensor& effective_table) const;

  /// Detached materialization of the effective token table (base table plus
  /// the embedding-LoRA delta, the same values Encode gathers from): build
  /// once per frozen snapshot and share across requests instead of paying
  /// the V·r·D delta GEMM on every call.
  nn::Tensor MaterializeTokenTable() const;

  /// Convenience for pretraining: masked-LM loss on a token sentence with
  /// the tokens at `mask_positions` replaced by [MASK].
  nn::Tensor MlmLoss(const std::vector<int64_t>& tokens,
                     const std::vector<int64_t>& mask_positions,
                     util::Rng& rng);

  /// Mean-pooled final hidden state of a token sequence — the "LLM text
  /// embedding" used by LLMSEQSIM / LLM2BERT4Rec / KDA_LRD. No grad.
  std::vector<float> EmbedTokens(const std::vector<int64_t>& tokens) const;

  /// Enables AdaLoRA adapters on every block plus a low-rank delta on the
  /// (tied) token embedding table; returns the block adapters (for the
  /// stage-2 optimizer and the AdaLoraAllocator).
  std::vector<nn::LoraLinear*> EnableAdapters(int64_t rank, float scale);
  std::vector<nn::LoraLinear*> adapters() const;

  /// The embedding-delta factors (defined only after EnableAdapters): a
  /// rank-r update A·B added to the token table, reaching both the input
  /// embeddings and the tied LM head.
  std::vector<nn::Tensor> EmbeddingAdapterParameters() const;

  /// The raw token embedding table (the `modules_to_save=["embed_tokens"]`
  /// hook: PEFT setups routinely fine-tune the embedding table fully while
  /// the dense blocks get adapters).
  nn::Tensor token_table() const { return token_embedding_.table(); }

  /// The LM-head bias (BitFit-style extra PEFT parameter: cheap to tune
  /// alongside the adapters, captures token-prior shifts).
  nn::Tensor head_bias() const { return head_bias_; }

  /// BitFit parameter group: every bias and LayerNorm affine plus the LM
  /// head bias — the standard lightweight companions to LoRA adapters.
  /// (<2% of the model's parameters; the dense weight matrices stay frozen.)
  std::vector<nn::Tensor> BitFitParameters() const;

  /// Converts this (frozen) model to int8 serving form (DESIGN.md §13):
  /// every block's dense projections are merged+quantized, and the
  /// effective token table (base plus embedding-LoRA delta) is quantized
  /// per-row, covering both the input gather and the tied LM head.
  /// Idempotent. Only the batched inference paths (EncodeBatch /
  /// LogitsAtRows) change; training forwards keep reading the fp32
  /// parameters.
  void QuantizeForInference();
  bool quantized() const { return quant_table_.defined(); }
  /// Same as quantized(): int8 serving always includes the token table.
  bool embedding_table_quantized() const { return quant_table_.defined(); }

  /// The quantized token table (defined only after QuantizeForInference) —
  /// exposed for parity tests.
  const nn::QuantTensor& quant_table() const { return quant_table_; }

  /// Bytes of weights one EncodeBatch+LogitsAtRows pass reads: blocks,
  /// final norm, position table, head bias and the token table in whichever
  /// form (fp32 or packed int8) the serve path actually touches.
  size_t InferenceWeightBytes() const;

  int64_t model_dim() const { return config_.model_dim; }
  int64_t vocab_size() const { return config_.vocab_size; }

 private:
  TinyLmConfig config_;
  mutable util::Rng scratch_rng_;
  nn::Embedding token_embedding_;
  // Fixed sinusoidal positions (T5-style non-learned scheme): prompts are
  // much longer than pretraining sentences, so learned positions would stay
  // random beyond the pretraining length and the frozen base could never
  // repair them during prompt tuning.
  nn::Tensor position_table_;
  std::vector<std::unique_ptr<TinyLmBlock>> blocks_;
  nn::LayerNorm final_norm_;
  nn::Tensor head_bias_;
  // Embedding LoRA factors (undefined until EnableAdapters).
  nn::Tensor embedding_lora_a_;  // (vocab, rank)
  nn::Tensor embedding_lora_b_;  // (rank, model_dim)
  float embedding_lora_scale_ = 0.0f;
  // Int8 serving state (set by QuantizeForInference).
  nn::QuantTensor quant_table_;  // (vocab, model_dim), LoRA delta merged.

  /// Token table with the low-rank delta applied (or the raw table).
  nn::Tensor EffectiveTokenTable() const;

  /// The one batched inference encoder behind EncodeBatch, BuildPrefixState
  /// and EncodeBatchWithPrefix: resolves the token table (nothing to
  /// resolve once it is quantized), lays the prompts out as row-concatenated
  /// spans into `spans` after checking their lengths, gathers embeddings
  /// plus positions, and runs every block. With `cached`, every prompt is a
  /// suffix of that prefix: positions start at cached->length and attention
  /// reads its K/V ahead of each span. With `capture`, each block's K/V rows
  /// are written into it and no final norm runs (the result is undefined);
  /// otherwise returns the final-norm hidden rows (ΣT, D).
  nn::Tensor EncodeRows(
      const std::vector<const std::vector<PromptPiece>*>& prompts,
      const std::vector<int64_t>* prefix_lengths,
      const nn::Tensor& effective_table, const PrefixState* cached,
      PrefixState* capture, std::vector<SequenceSpan>* spans) const;

  /// Gathers prompt embeddings plus position rows (positions starting at
  /// `position_offset`) into the stacked activation buffer `x`. `table` is
  /// the fp32 effective table, or nullptr to dequantize from quant_table_.
  void GatherPromptRows(
      const std::vector<const std::vector<PromptPiece>*>& prompts,
      const std::vector<SequenceSpan>& spans, const float* table,
      int64_t position_offset, float* x) const;
};

}  // namespace delrec::llm

#endif  // DELREC_LLM_TINY_LM_H_
