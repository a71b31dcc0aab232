// Bit-identity checks for the parallel execution layer (DESIGN.md §9): for
// every parallel op, for the eval protocol, for batch inference, and for a
// full resumable DELRec training run, results must be exactly identical —
// same float bit patterns, same checkpoint bytes — across thread counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/delrec.h"
#include "core/workbench.h"
#include "data/columnar.h"
#include "data/dataset.h"
#include "data/event_stream.h"
#include "data/split.h"
#include "eval/protocol.h"
#include "llm/prompt.h"
#include "llm/tiny_lm.h"
#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"
#include "srmodels/factory.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace delrec {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 7};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::KuaiRecConfig();
    config.num_users = 50;
    config.num_items = 60;
    core::Workbench::Options options;
    options.pretrain_epochs = 1;
    workbench_ = new core::Workbench(config, options);
    sr_model_ = srmodels::MakeBackbone(srmodels::Backbone::kSasRec,
                                       workbench_->num_items(), 10, 5)
                    .release();
    srmodels::TrainConfig train =
        srmodels::BackboneTrainConfig(srmodels::Backbone::kSasRec);
    train.epochs = 2;
    const util::Status trained =
        sr_model_->Train(workbench_->splits().train, train);
    DELREC_CHECK(trained.ok()) << trained.ToString();
  }
  static void TearDownTestSuite() {
    delete sr_model_;
    delete workbench_;
    sr_model_ = nullptr;
    workbench_ = nullptr;
  }

  static core::Workbench* workbench_;
  static srmodels::SequentialRecommender* sr_model_;
};

core::Workbench* ParallelDeterminismTest::workbench_ = nullptr;
srmodels::SequentialRecommender* ParallelDeterminismTest::sr_model_ = nullptr;

// Forward output plus input gradients of one MatMul variant, computed under
// the given thread count with the dispatch floor dropped so even small
// shapes take the partitioned path.
std::vector<std::vector<float>> MatMulForwardBackward(int threads,
                                                      bool trans_a,
                                                      bool trans_b) {
  util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
  util::Rng rng(99);
  const std::vector<int64_t> a_shape =
      trans_a ? std::vector<int64_t>{40, 30} : std::vector<int64_t>{30, 40};
  const std::vector<int64_t> b_shape =
      trans_b ? std::vector<int64_t>{20, 40} : std::vector<int64_t>{40, 20};
  nn::Tensor a = nn::Tensor::Randn(a_shape, rng, 1.0f, true);
  nn::Tensor b = nn::Tensor::Randn(b_shape, rng, 1.0f, true);
  nn::Tensor loss = nn::Sum(nn::Mul(nn::MatMul(a, b, trans_a, trans_b),
                                    nn::MatMul(a, b, trans_a, trans_b)));
  loss.Backward();
  return {loss.data(), a.grad(), b.grad()};
}

TEST_F(ParallelDeterminismTest, MatMulVariantsBitIdenticalAcrossThreads) {
  struct Variant {
    bool trans_a;
    bool trans_b;
  };
  for (const Variant& v : {Variant{false, false}, Variant{false, true},
                           Variant{true, false}}) {
    const auto reference = MatMulForwardBackward(1, v.trans_a, v.trans_b);
    for (int threads : kThreadCounts) {
      EXPECT_EQ(MatMulForwardBackward(threads, v.trans_a, v.trans_b),
                reference)
          << "trans_a=" << v.trans_a << " trans_b=" << v.trans_b
          << " threads=" << threads;
    }
  }
}

// The blocked microkernels (DESIGN.md §10) sit under the same row
// partitioning; at every thread count they must reproduce the retained
// serial reference kernels exactly — the §9 contract extends through the
// blocking layer. (The exhaustive shape grid lives in gemm_kernel_test;
// this anchors the contract inside the determinism suite.)
TEST_F(ParallelDeterminismTest, BlockedGemmMatchesSerialReferenceKernels) {
  using GemmFn = void (*)(const float*, const float*, float*, int64_t,
                          int64_t, int64_t, bool);
  struct Variant {
    const char* name;
    GemmFn blocked;
    GemmFn reference;
  };
  const Variant kVariants[] = {{"NN", nn::GemmNN, nn::GemmNNRef},
                               {"NT", nn::GemmNT, nn::GemmNTRef},
                               {"TN", nn::GemmTN, nn::GemmTNRef}};
  const int64_t m = 37, n = 29, k = 23;
  util::Rng rng(17);
  std::vector<float> a(m * k), b(k * n);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = i % 11 == 0 ? 0.0f : rng.UniformFloat(-1.5f, 1.5f);
  }
  for (float& v : b) v = rng.UniformFloat(-1.5f, 1.5f);
  for (const Variant& variant : kVariants) {
    std::vector<float> expected(m * n, 0.5f);
    variant.reference(a.data(), b.data(), expected.data(), m, n, k,
                      /*accumulate=*/true);
    for (int threads : kThreadCounts) {
      util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
      std::vector<float> actual(m * n, 0.5f);
      variant.blocked(a.data(), b.data(), actual.data(), m, n, k,
                      /*accumulate=*/true);
      EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                            expected.size() * sizeof(float)),
                0)
          << variant.name << " threads=" << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, EvalProtocolBitIdenticalAcrossThreads) {
  // Pure, concurrency-safe scorer with deliberately coarse scores so rank
  // tie-breaking is exercised under every thread count.
  auto scorer = [](const data::Example& example,
                   const std::vector<int64_t>& candidates) {
    std::vector<float> scores(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const uint64_t h = static_cast<uint64_t>(candidates[i]) * 2654435761ULL +
                         example.history.size();
      scores[i] = static_cast<float>((h >> 13) % 5);
    }
    return scores;
  };
  auto run = [&](int threads) {
    eval::EvalConfig config;
    config.max_examples = 60;
    config.num_threads = threads;
    return eval::EvaluateCandidates(workbench_->splits().test,
                                    workbench_->num_items(), scorer, config);
  };
  const auto reference = run(1);
  for (int threads : kThreadCounts) {
    const auto acc = run(threads);
    EXPECT_EQ(acc.hit_at_1_samples(), reference.hit_at_1_samples())
        << "threads=" << threads;
    EXPECT_EQ(acc.ndcg_at_10_samples(), reference.ndcg_at_10_samples())
        << "threads=" << threads;
  }
}

TEST_F(ParallelDeterminismTest, EvalWithRealModelBitIdenticalAcrossThreads) {
  auto scorer = [&](const data::Example& example,
                    const std::vector<int64_t>& candidates) {
    return sr_model_->ScoreCandidates(example.history, candidates);
  };
  auto run = [&](int threads) {
    util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
    eval::EvalConfig config;
    config.max_examples = 40;
    return eval::EvaluateCandidates(workbench_->splits().test,
                                    workbench_->num_items(), scorer, config)
        .hit_at_1_samples();
  };
  const auto reference = run(1);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(run(threads), reference) << "threads=" << threads;
  }
}

TEST_F(ParallelDeterminismTest, BatchInferenceMatchesSerialLoop) {
  const auto& test = workbench_->splits().test;
  util::Rng rng(31);
  std::vector<std::vector<int64_t>> histories, candidates;
  for (size_t i = 0; i < std::min<size_t>(24, test.size()); ++i) {
    histories.push_back(test[i].history);
    candidates.push_back(data::SampleCandidates(workbench_->num_items(),
                                                test[i].target, 15, rng));
  }
  std::vector<std::vector<float>> reference;
  for (size_t i = 0; i < histories.size(); ++i) {
    reference.push_back(sr_model_->ScoreCandidates(histories[i],
                                                   candidates[i]));
  }
  for (int threads : kThreadCounts) {
    util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
    EXPECT_EQ(sr_model_->ScoreCandidatesBatch(histories, candidates),
              reference)
        << "threads=" << threads;
  }
}

// The frozen serving path extends the §9 contract (DESIGN.md §11): an
// EngineSnapshot's batched scoring must reproduce its per-sequence scoring
// bit-for-bit at every thread count and for every micro-batch size. The
// snapshot is frozen from an untrained DELRec — determinism does not depend
// on what the weights are, only on how they are applied.
TEST_F(ParallelDeterminismTest, SnapshotBatchScoringBitIdenticalAcrossThreads) {
  core::DelRecConfig config;
  config.soft_prompt_count = 4;
  auto llm = workbench_->MakePretrainedLlm(core::LlmSize::kBase);
  core::DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
                     llm.get(), sr_model_, config);
  serve::EngineSnapshot::Sources sources;
  sources.catalog = &workbench_->dataset().catalog;
  sources.vocab = &workbench_->vocab();
  sources.sr_model = sr_model_;
  auto snapshot = serve::EngineSnapshot::FromModel(model, *llm, sources);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  const auto& test = workbench_->splits().test;
  util::Rng rng(53);
  std::vector<serve::ScoreRequest> requests;
  for (size_t i = 0; i < std::min<size_t>(12, test.size()); ++i) {
    serve::ScoreRequest request;
    request.history = test[i].history;
    request.candidates = data::SampleCandidates(workbench_->num_items(),
                                                test[i].target, 15, rng);
    requests.push_back(std::move(request));
  }

  std::vector<std::vector<float>> reference;
  {
    util::ScopedParallelism parallel(1, /*min_work_per_dispatch=*/1);
    for (const serve::ScoreRequest& request : requests) {
      reference.push_back(snapshot.value()->Score(request));
      // The autograd per-sequence forward the live model scores with: the
      // batched inference encoder must reproduce it bit for bit.
      data::Example example;
      example.history = request.history;
      example.target = request.candidates[0];
      EXPECT_EQ(reference.back(),
                model.ScoreCandidates(example, request.candidates));
    }
  }
  for (int threads : kThreadCounts) {
    util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
    for (size_t batch_size : {size_t{1}, size_t{3}, requests.size()}) {
      std::vector<std::vector<float>> batched;
      for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
        const size_t end = std::min(begin + batch_size, requests.size());
        const std::vector<serve::ScoreRequest> chunk(requests.begin() + begin,
                                                     requests.begin() + end);
        for (std::vector<float>& scores : snapshot.value()->ScoreBatch(chunk)) {
          batched.push_back(std::move(scores));
        }
      }
      EXPECT_EQ(batched, reference)
          << "threads=" << threads << " batch_size=" << batch_size;
    }
  }
}

// The prefix-cache contract at the LLM layer (DESIGN.md §15): suffix rows
// from EncodeBatchWithPrefix (cached prefix K/V) must be bit-identical to
// the matching rows of a full boundary-masked EncodeBatch, at every thread
// count and batch composition — the cache changes where flops happen, never
// what any row sums. Pinned on the fp32 weights with a materialized table
// and on a quantized model, whose encodes read the int8 table (undefined
// fp32 table): snapshots serve only the cached path, so this is where int8
// cached ≡ uncached is checked.
TEST_F(ParallelDeterminismTest,
       CachedPrefixEncodeBitIdenticalAcrossThreads) {
  auto llm = workbench_->MakePretrainedLlm(core::LlmSize::kBase);
  auto int8 = workbench_->MakePretrainedLlm(core::LlmSize::kBase);
  int8->QuantizeForInference();
  util::Rng rng(61);
  const nn::Tensor soft =
      nn::Tensor::Randn({4, llm->config().model_dim}, rng, 0.02f);
  llm::PromptBuilder builder(&workbench_->dataset().catalog,
                             &workbench_->vocab());

  const auto& test = workbench_->splits().test;
  std::vector<llm::Prompt> prompts;
  for (size_t i = 0; i < std::min<size_t>(10, test.size()); ++i) {
    prompts.push_back(builder.BuildRecommendation(
        test[i].history,
        data::SampleCandidates(workbench_->num_items(), test[i].target, 8,
                               rng),
        soft, {}, nn::Tensor()));
  }
  std::vector<llm::SplitPrompt> splits;
  for (const llm::Prompt& prompt : prompts) {
    splits.push_back(llm::PromptBuilder::Split(prompt));
  }

  struct Input {
    const char* name;
    const llm::TinyLm* lm;
    nn::Tensor table;
  };
  const Input inputs[] = {{"fp32", llm.get(), llm->MaterializeTokenTable()},
                          {"int8", int8.get(), nn::Tensor()}};
  for (const Input& input : inputs) {
    const llm::TinyLm::PrefixState prefix = input.lm->BuildPrefixState(
        builder.RecommendationPrefix(soft), input.table);
    ASSERT_EQ(prefix.length, prompts[0].prefix_length);

    // The reference: full boundary-masked encode at one thread, suffix rows
    // extracted.
    std::vector<std::vector<float>> reference;
    {
      util::ScopedParallelism parallel(1, /*min_work_per_dispatch=*/1);
      for (const llm::Prompt& prompt : prompts) {
        std::vector<llm::SequenceSpan> spans;
        const std::vector<int64_t> prefix_lengths = {prompt.prefix_length};
        const nn::Tensor hidden = input.lm->EncodeBatch(
            {&prompt.pieces}, input.table, &spans, &prefix_lengths);
        const int64_t d = hidden.dim(1);
        const float* suffix_rows =
            hidden.data().data() + prompt.prefix_length * d;
        reference.emplace_back(
            suffix_rows,
            suffix_rows + (prompt.length() - prompt.prefix_length) * d);
      }
    }

    for (int threads : kThreadCounts) {
      util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
      for (size_t batch_size : {size_t{1}, size_t{3}, prompts.size()}) {
        for (size_t begin = 0; begin < prompts.size(); begin += batch_size) {
          const size_t end = std::min(begin + batch_size, prompts.size());
          std::vector<const std::vector<llm::PromptPiece>*> suffixes;
          for (size_t i = begin; i < end; ++i) {
            suffixes.push_back(&splits[i].suffix);
          }
          std::vector<llm::SequenceSpan> spans;
          const nn::Tensor cached = input.lm->EncodeBatchWithPrefix(
              prefix, suffixes, input.table, &spans);
          const int64_t d = cached.dim(1);
          for (size_t i = begin; i < end; ++i) {
            const llm::SequenceSpan& span = spans[i - begin];
            const float* rows = cached.data().data() + span.begin * d;
            const std::vector<float> got(rows, rows + span.length * d);
            EXPECT_EQ(got, reference[i])
                << input.name << " threads=" << threads
                << " batch_size=" << batch_size << " prompt=" << i;
          }
        }
      }
    }
  }
}

// One full resumable training run (stage-1 epoch + stage-2 epoch): soft
// prompts, every LLM weight, and the on-disk TrainState checkpoint must all
// be byte-identical whatever the thread count — the PR-1 resume guarantees
// are thread-count-invariant.
TEST_F(ParallelDeterminismTest, TrainResumableBitIdenticalAcrossThreads) {
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  core::DelRecConfig config;
  config.stage1_epochs = 1;
  config.stage2_epochs = 1;
  config.stage1_max_examples = 40;
  config.stage2_max_examples = 40;
  config.soft_prompt_count = 4;

  struct RunResult {
    std::vector<float> soft_prompts;
    std::vector<float> llm_state;
    std::string checkpoint_bytes;
  };
  auto run = [&](int threads) {
    util::ScopedParallelism parallel(threads);
    const std::string path = ::testing::TempDir() + "/par_det_" +
                             std::to_string(threads) + ".ckpt";
    std::remove(path.c_str());
    auto llm = workbench_->MakePretrainedLlm(core::LlmSize::kBase);
    core::DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
                       llm.get(), sr_model_, config);
    const util::Status trained =
        model.TrainResumable(workbench_->splits().train, path);
    DELREC_CHECK(trained.ok()) << trained.ToString();
    RunResult result{model.soft_prompts().data(), llm->StateDump(),
                     read_file(path)};
    std::remove(path.c_str());
    return result;
  };

  const RunResult reference = run(1);
  ASSERT_FALSE(reference.checkpoint_bytes.empty());
  for (int threads : {2, 4, 7}) {
    const RunResult result = run(threads);
    EXPECT_EQ(result.soft_prompts, reference.soft_prompts)
        << "threads=" << threads;
    EXPECT_EQ(result.llm_state, reference.llm_state) << "threads=" << threads;
    EXPECT_EQ(result.checkpoint_bytes, reference.checkpoint_bytes)
        << "threads=" << threads;
  }
}

// The out-of-core data plane (DESIGN.md §14) extends the §9 contract across
// STORAGE modes: examples sampled from an mmap-backed catalog stream, and a
// model reading titles through the mapped CatalogView, must drive training
// and eval to byte-identical results versus the all-in-RAM path — at every
// thread count. This is the gate that lets million-user catalogs train
// without materializing, with zero reproducibility cost.
TEST_F(ParallelDeterminismTest,
       StreamingSplitsTrainAndEvalBitIdenticalToInRam) {
  const std::string catalog_path =
      ::testing::TempDir() + "/par_det_stream.cat";
  std::remove(catalog_path.c_str());
  ASSERT_TRUE(
      data::WriteCatalogFile(workbench_->dataset(), catalog_path).ok());
  auto mapped = data::MappedCatalog::Open(catalog_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  // Uncapped stream sampling routes exactly like MakeSplits, so the streamed
  // splits must literally equal the workbench's in-RAM ones.
  data::StreamSampleOptions options;
  data::EventStream stream(mapped.value());
  auto streamed = data::SampleSplitsFromStream(stream, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed.value().train.size(),
            workbench_->splits().train.size());
  ASSERT_EQ(streamed.value().test.size(), workbench_->splits().test.size());
  for (size_t i = 0; i < streamed.value().train.size(); ++i) {
    ASSERT_EQ(streamed.value().train[i].history,
              workbench_->splits().train[i].history);
    ASSERT_EQ(streamed.value().train[i].target,
              workbench_->splits().train[i].target);
  }

  // Eval: the streamed test split reproduces in-RAM HR/NDCG samples bitwise
  // at every thread count.
  auto scorer = [&](const data::Example& example,
                    const std::vector<int64_t>& candidates) {
    return sr_model_->ScoreCandidates(example.history, candidates);
  };
  eval::EvalConfig eval_config;
  eval_config.max_examples = 30;
  const auto in_ram_eval = eval::EvaluateCandidates(
      workbench_->splits().test, workbench_->num_items(), scorer,
      eval_config);
  for (int threads : kThreadCounts) {
    util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
    eval::EvalConfig config = eval_config;
    config.num_threads = threads;
    const auto streamed_eval = eval::EvaluateCandidates(
        streamed.value().test, workbench_->num_items(), scorer, config);
    EXPECT_EQ(streamed_eval.hit_at_1_samples(),
              in_ram_eval.hit_at_1_samples())
        << "threads=" << threads;
    EXPECT_EQ(streamed_eval.ndcg_at_10_samples(),
              in_ram_eval.ndcg_at_10_samples())
        << "threads=" << threads;
  }

  // Training: a resumable run whose catalog is the MAPPED view and whose
  // examples came from the stream produces the same TrainState checkpoint
  // bytes as the in-RAM reference, whatever the thread count.
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  core::DelRecConfig config;
  config.stage1_epochs = 1;
  config.stage2_epochs = 1;
  config.stage1_max_examples = 20;
  config.stage2_max_examples = 20;
  config.soft_prompt_count = 4;
  auto run = [&](int threads, const data::CatalogView* catalog,
                 const std::vector<data::Example>& train) {
    util::ScopedParallelism parallel(threads);
    const std::string path = ::testing::TempDir() + "/par_det_stream_" +
                             std::to_string(threads) + ".ckpt";
    std::remove(path.c_str());
    auto llm = workbench_->MakePretrainedLlm(core::LlmSize::kBase);
    core::DelRec model(catalog, &workbench_->vocab(), llm.get(), sr_model_,
                       config);
    const util::Status trained = model.TrainResumable(train, path);
    DELREC_CHECK(trained.ok()) << trained.ToString();
    std::string checkpoint = read_file(path);
    std::remove(path.c_str());
    return checkpoint;
  };
  const std::string reference = run(1, &workbench_->dataset().catalog,
                                    workbench_->splits().train);
  ASSERT_FALSE(reference.empty());
  for (int threads : kThreadCounts) {
    EXPECT_EQ(run(threads, &mapped.value(), streamed.value().train),
              reference)
        << "streaming checkpoint diverged at threads=" << threads;
  }
  std::remove(catalog_path.c_str());
}

}  // namespace
}  // namespace delrec
