// End-to-end tests of the DELRec pipeline on a small synthetic dataset.
#include "core/delrec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/workbench.h"
#include "data/dataset.h"
#include "data/split.h"
#include "eval/protocol.h"
#include "srmodels/factory.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/timer.h"

namespace delrec::core {
namespace {

class DelRecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::KuaiRecConfig();
    config.num_users = 70;
    config.num_items = 80;
    Workbench::Options options;
    options.pretrain_epochs = 2;
    workbench_ = new Workbench(config, options);
    sr_model_ = srmodels::MakeBackbone(srmodels::Backbone::kSasRec,
                                       workbench_->num_items(), 10, 5)
                    .release();
    srmodels::TrainConfig train = srmodels::BackboneTrainConfig(
        srmodels::Backbone::kSasRec);
    train.epochs = 3;
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

  static DelRecConfig FastConfig() {
    DelRecConfig config;
    config.stage1_epochs = 1;
    config.stage2_epochs = 1;
    config.stage1_max_examples = 60;
    config.stage2_max_examples = 60;
    config.soft_prompt_count = 8;
    return config;
  }

  static double Hr10(const DelRec& model) {
    eval::EvalConfig config;
    config.max_examples = 80;
    auto acc = eval::EvaluateCandidates(
        workbench_->splits().test, workbench_->num_items(),
        [&](const data::Example& example,
            const std::vector<int64_t>& candidates) {
          return model.ScoreCandidates(example, candidates);
        },
        config);
    return acc.Result().hr_at_10;
  }

  // Training-sensitive composite: HR@1 + NDCG@10 (HR@10 saturates near
  // chance = 10/15 and is too noisy at this test scale).
  static double Quality(const DelRec& model) {
    eval::EvalConfig config;
    config.max_examples = 120;
    auto acc = eval::EvaluateCandidates(
        workbench_->splits().test, workbench_->num_items(),
        [&](const data::Example& example,
            const std::vector<int64_t>& candidates) {
          return model.ScoreCandidates(example, candidates);
        },
        config);
    return acc.Result().hr_at_1 + acc.Result().ndcg_at_10;
  }

  static Workbench* workbench_;
  static srmodels::SequentialRecommender* sr_model_;
};

Workbench* DelRecTest::workbench_ = nullptr;
srmodels::SequentialRecommender* DelRecTest::sr_model_ = nullptr;

TEST_F(DelRecTest, WorkbenchCachesPretrainedWeights) {
  auto a = workbench_->MakePretrainedLlm(LlmSize::kBase);
  auto b = workbench_->MakePretrainedLlm(LlmSize::kBase);
  EXPECT_EQ(a->StateDump(), b->StateDump());
}

TEST_F(DelRecTest, FullPipelineImprovesOverRawLlm) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kLarge);
  DelRecConfig config = FastConfig();
  config.stage1_epochs = 2;
  config.stage2_epochs = 2;
  config.stage1_max_examples = 120;
  config.stage2_max_examples = 150;
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, config);
  // Raw (untrained) scoring first.
  const double raw = Quality(model);
  util::WallTimer timer;
  ASSERT_TRUE(model.Train(workbench_->splits().train).ok());
  const double trained = Quality(model);
  EXPECT_GT(trained, raw + 0.02);
  EXPECT_GT(Hr10(model), 0.70);  // Chance is 10/15 = 0.667.
}

TEST_F(DelRecTest, Stage1UpdatesSoftPromptsOnly) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  const std::vector<float> llm_before = llm->StateDump();
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, FastConfig());
  const std::vector<float> soft_before = model.soft_prompts().data();
  ASSERT_TRUE(model.DistillPattern(workbench_->splits().train).ok());
  EXPECT_EQ(llm->StateDump(), llm_before);            // LLM frozen.
  EXPECT_NE(model.soft_prompts().data(), soft_before);  // Softs moved.
}

TEST_F(DelRecTest, Stage2KeepsSoftPromptsAndBaseWeightsFrozen) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, FastConfig());
  ASSERT_TRUE(model.DistillPattern(workbench_->splits().train).ok());
  const std::vector<float> soft_after_stage1 = model.soft_prompts().data();
  const std::vector<float> llm_base = llm->StateDump();
  // Snapshot the dense (non-BitFit) weights by name before fine-tuning.
  auto dense_weights = [&] {
    std::vector<std::pair<std::string, std::vector<float>>> out;
    for (const auto& [name, tensor] : llm->NamedParameters()) {
      // PEFT group: biases/LN (BitFit) and the token table
      // (modules_to_save). Everything else must stay frozen.
      const bool peft_tuned = name.find("bias") != std::string::npos ||
                              name.find("gamma") != std::string::npos ||
                              name.find("beta") != std::string::npos ||
                              name.find("token_embedding") !=
                                  std::string::npos;
      if (!peft_tuned) out.emplace_back(name, tensor.data());
    }
    return out;
  };
  const auto before = dense_weights();
  ASSERT_TRUE(model.FineTune(workbench_->splits().train).ok());
  EXPECT_EQ(model.soft_prompts().data(), soft_after_stage1);
  // Only adapters + BitFit biases/LN train; every dense weight is untouched.
  const auto after = dense_weights();
  ASSERT_EQ(before.size(), after.size());
  ASSERT_GT(before.size(), 0u);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].second, after[i].second) << before[i].first;
  }
  (void)llm_base;
  EXPECT_GT(model.AdapterParameterCount(), 0);
}

TEST_F(DelRecTest, UdpsmAblationUpdatesLlm) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  const std::vector<float> before = llm->StateDump();
  DelRecConfig config = FastConfig();
  config.update_llm_in_stage1 = true;
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, config);
  ASSERT_TRUE(model.DistillPattern(workbench_->splits().train).ok());
  EXPECT_NE(llm->StateDump(), before);
}

TEST_F(DelRecTest, UlsrAblationUpdatesSoftPromptsInStage2) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRecConfig config = FastConfig();
  config.update_soft_in_stage2 = true;
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, config);
  ASSERT_TRUE(model.DistillPattern(workbench_->splits().train).ok());
  const std::vector<float> soft_after_stage1 = model.soft_prompts().data();
  ASSERT_TRUE(model.FineTune(workbench_->splits().train).ok());
  EXPECT_NE(model.soft_prompts().data(), soft_after_stage1);
}

TEST_F(DelRecTest, AblationSwitchesChangePrompting) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  // w/o SP: training must not touch soft prompts at all.
  DelRecConfig no_sp = FastConfig();
  no_sp.use_soft_prompts = false;
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, no_sp);
  const std::vector<float> soft_before = model.soft_prompts().data();
  ASSERT_TRUE(model.Train(workbench_->splits().train).ok());
  EXPECT_EQ(model.soft_prompts().data(), soft_before);

  // w MCP likewise skips stage 1 but still scores.
  auto llm2 = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRecConfig mcp = FastConfig();
  mcp.manual_prompts = true;
  DelRec mcp_model(&workbench_->dataset().catalog, &workbench_->vocab(),
                   llm2.get(), sr_model_, mcp);
  ASSERT_TRUE(mcp_model.Train(workbench_->splits().train).ok());
  data::Example example;
  example.history = {1, 2, 3};
  example.target = 4;
  auto scores = mcp_model.ScoreCandidates(example, {4, 5, 6});
  EXPECT_EQ(scores.size(), 3u);
}

TEST_F(DelRecTest, LambdaTraceRecorded) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRecConfig config = FastConfig();
  config.stage1_epochs = 2;
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, config);
  ASSERT_TRUE(model.DistillPattern(workbench_->splits().train).ok());
  const auto& diag = model.stage1_diagnostics();
  ASSERT_EQ(diag.lambda_per_epoch.size(), 2u);
  for (float lambda : diag.lambda_per_epoch) {
    EXPECT_GT(lambda, 0.0f);
    EXPECT_LT(lambda, 1.0f);
  }
}

TEST_F(DelRecTest, DisabledTasksSkewLambda) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRecConfig config = FastConfig();
  config.disable_temporal_analysis = true;
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, config);
  ASSERT_TRUE(model.DistillPattern(workbench_->splits().train).ok());
  for (float lambda : model.stage1_diagnostics().lambda_per_epoch) {
    EXPECT_FLOAT_EQ(lambda, 0.0f);  // All weight on RPS.
  }
}

TEST_F(DelRecTest, RecommendReturnsItemsFromPool) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, FastConfig());
  std::vector<int64_t> pool = {3, 9, 14, 27, 33};
  auto top = model.Recommend({1, 2, 3}, pool, 3);
  ASSERT_EQ(top.size(), 3u);
  for (int64_t item : top) {
    EXPECT_NE(std::find(pool.begin(), pool.end(), item), pool.end());
  }
}

// The batch prompt builder behind EngineSnapshot::ScoreBatch: prompt i
// equals the per-request BuildScoringPrompt piece for piece — with the SR
// hints on (one batched SR call for all of them), off, next to the "w MCP"
// description, and with candidates spelled out — over histories shorter
// and longer than the window.
TEST_F(DelRecTest, BatchPromptBuilderMatchesPerRequestPrompts) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  const DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
                     llm.get(), sr_model_, FastConfig());
  const llm::PromptBuilder builder(&workbench_->dataset().catalog,
                                   &workbench_->vocab());
  const auto& test = workbench_->splits().test;
  util::Rng rng(13);
  std::vector<std::vector<int64_t>> histories;
  std::vector<std::vector<int64_t>> candidates;
  for (size_t i = 0; i < std::min<size_t>(9, test.size()); ++i) {
    std::vector<int64_t> history = test[i].history;
    history.resize(1 + (i * 5) % history.size());
    if (i == 4) {  // Longer than the window.
      history.insert(history.end(), test[0].history.begin(),
                     test[0].history.end());
    }
    histories.push_back(std::move(history));
    candidates.push_back(data::SampleCandidates(workbench_->num_items(),
                                                test[i].target, 6, rng));
  }

  for (int variant = 0; variant < 4; ++variant) {
    DelRecConfig config = FastConfig();
    config.sr_hints_in_stage2 = variant != 1;
    config.manual_prompts = variant == 2;
    config.candidates_in_prompt = variant == 3;
    const std::vector<llm::Prompt> batch = inference::BuildScoringPrompts(
        config, builder, *sr_model_, model.soft_prompts(), histories,
        candidates);
    ASSERT_EQ(batch.size(), histories.size());
    for (size_t i = 0; i < histories.size(); ++i) {
      const llm::Prompt one = inference::BuildScoringPrompt(
          config, builder, *sr_model_, model.soft_prompts(), histories[i],
          candidates[i]);
      const std::string where =
          "variant " + std::to_string(variant) + " row " + std::to_string(i);
      EXPECT_EQ(batch[i].mask_position, one.mask_position) << where;
      EXPECT_EQ(batch[i].prefix_length, one.prefix_length) << where;
      ASSERT_EQ(batch[i].pieces.size(), one.pieces.size()) << where;
      for (size_t p = 0; p < one.pieces.size(); ++p) {
        EXPECT_EQ(batch[i].pieces[p].kind, one.pieces[p].kind) << where;
        EXPECT_EQ(batch[i].pieces[p].tokens, one.pieces[p].tokens) << where;
        EXPECT_EQ(batch[i].pieces[p].embeddings.defined(),
                  one.pieces[p].embeddings.defined())
            << where;
        if (one.pieces[p].embeddings.defined()) {
          EXPECT_EQ(batch[i].pieces[p].embeddings.data(),
                    one.pieces[p].embeddings.data())
              << where;
        }
      }
      EXPECT_EQ(inference::ActiveHintTokensBatch(
                    config, builder, *sr_model_, {histories[i]})[0],
                inference::ActiveHintTokens(config, builder, *sr_model_,
                                            histories[i]))
          << where;
    }
  }
}

// Acceptance: kill training mid-stage-2 via failpoint, resume from the
// on-disk TrainState, and verify the resumed run's final soft prompts and
// adapter weights are bit-identical to an uninterrupted run.
TEST_F(DelRecTest, ResumeAfterStage2KillIsBitIdentical) {
  DelRecConfig config = FastConfig();
  config.stage1_epochs = 1;
  config.stage2_epochs = 2;
  const std::string path_a = ::testing::TempDir() + "/resume_a.ckpt";
  const std::string path_b = ::testing::TempDir() + "/resume_b.ckpt";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());

  // Reference: uninterrupted resumable run.
  auto llm_a = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model_a(&workbench_->dataset().catalog, &workbench_->vocab(),
                 llm_a.get(), sr_model_, config);
  ASSERT_TRUE(model_a.TrainResumable(workbench_->splits().train, path_a).ok());

  // Interrupted run: the kill fires right after stage 2's first epoch-end
  // checkpoint lands on disk.
  auto llm_b = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model_b(&workbench_->dataset().catalog, &workbench_->vocab(),
                 llm_b.get(), sr_model_, config);
  util::Failpoints::Instance().Arm("delrec.stage2.epoch_end",
                                   util::Failpoints::Mode::kFail, 1);
  const util::Status killed =
      model_b.TrainResumable(workbench_->splits().train, path_b);
  util::Failpoints::Instance().Reset();
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.code(), util::Status::Code::kUnavailable);

  // Second invocation resumes from the checkpoint and finishes epoch 2.
  ASSERT_TRUE(model_b.TrainResumable(workbench_->splits().train, path_b).ok());

  EXPECT_EQ(model_a.soft_prompts().data(), model_b.soft_prompts().data());
  EXPECT_EQ(llm_a->StateDump(), llm_b->StateDump());
  ASSERT_EQ(model_a.adapters().size(), model_b.adapters().size());
  ASSERT_GT(model_a.adapters().size(), 0u);
  for (size_t i = 0; i < model_a.adapters().size(); ++i) {
    EXPECT_EQ(model_a.adapters()[i]->StateDump(),
              model_b.adapters()[i]->StateDump())
        << "adapter " << i;
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(DelRecTest, ResumeAfterStage1KillIsBitIdentical) {
  DelRecConfig config = FastConfig();
  config.stage1_epochs = 2;
  config.stage2_epochs = 1;
  const std::string path_a = ::testing::TempDir() + "/resume1_a.ckpt";
  const std::string path_b = ::testing::TempDir() + "/resume1_b.ckpt";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());

  auto llm_a = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model_a(&workbench_->dataset().catalog, &workbench_->vocab(),
                 llm_a.get(), sr_model_, config);
  ASSERT_TRUE(model_a.TrainResumable(workbench_->splits().train, path_a).ok());

  auto llm_b = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model_b(&workbench_->dataset().catalog, &workbench_->vocab(),
                 llm_b.get(), sr_model_, config);
  util::Failpoints::Instance().Arm("delrec.stage1.epoch_end",
                                   util::Failpoints::Mode::kFail, 1);
  const util::Status killed =
      model_b.TrainResumable(workbench_->splits().train, path_b);
  util::Failpoints::Instance().Reset();
  ASSERT_FALSE(killed.ok());
  ASSERT_TRUE(model_b.TrainResumable(workbench_->splits().train, path_b).ok());

  EXPECT_EQ(model_a.soft_prompts().data(), model_b.soft_prompts().data());
  EXPECT_EQ(llm_a->StateDump(), llm_b->StateDump());
  // The λ diagnostics trace must also survive the interruption intact.
  EXPECT_EQ(model_a.stage1_diagnostics().lambda_per_epoch,
            model_b.stage1_diagnostics().lambda_per_epoch);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// Acceptance: injected NaN losses are counted and skipped; training still
// completes with a healthy model instead of aborting.
TEST_F(DelRecTest, NanLossInjectionIsSkippedAndCounted) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, FastConfig());
  util::Failpoints::Instance().Arm("delrec.stage1.loss",
                                   util::Failpoints::Mode::kCorrupt, 2);
  util::Failpoints::Instance().Arm("delrec.stage2.loss",
                                   util::Failpoints::Mode::kCorrupt, 1);
  const util::Status trained = model.Train(workbench_->splits().train);
  util::Failpoints::Instance().Reset();
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  EXPECT_EQ(model.train_stats().stage1_anomalies, 2);
  EXPECT_EQ(model.train_stats().stage2_anomalies, 1);
  // Soft prompts stayed finite despite the poisoned batches.
  for (float v : model.soft_prompts().data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(DelRecTest, PersistentNanLossAbortsWithStatusNotCheck) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRecConfig config = FastConfig();
  config.anomaly_guard.max_consecutive = 3;
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, config);
  util::Failpoints::Instance().Arm("delrec.stage1.loss",
                                   util::Failpoints::Mode::kCorrupt);
  const util::Status trained = model.Train(workbench_->splits().train);
  util::Failpoints::Instance().Reset();
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.code(), util::Status::Code::kInternal);
  EXPECT_EQ(model.train_stats().stage1_anomalies, 3);
}

TEST_F(DelRecTest, TrainResumableRefusesCorruptCheckpoint) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, FastConfig());
  const std::string path = ::testing::TempDir() + "/garbage.ckpt";
  {
    std::ofstream stream(path, std::ios::binary);
    stream << "DELRECB1 but then garbage follows here";
  }
  const util::Status resumed =
      model.TrainResumable(workbench_->splits().train, path);
  // Corrupt checkpoint ⇒ clean error, never a silent fresh retrain over it.
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.code(), util::Status::Code::kNotFound);
  std::remove(path.c_str());
}

TEST_F(DelRecTest, ParameterCounts) {
  auto llm = workbench_->MakePretrainedLlm(LlmSize::kBase);
  DelRecConfig config = FastConfig();
  DelRec model(&workbench_->dataset().catalog, &workbench_->vocab(),
               llm.get(), sr_model_, config);
  EXPECT_EQ(model.SoftPromptParameterCount(),
            config.soft_prompt_count * llm->model_dim());
  EXPECT_EQ(model.AdapterParameterCount(), 0);  // Before stage 2.
  ASSERT_TRUE(model.Train(workbench_->splits().train).ok());
  EXPECT_GT(model.AdapterParameterCount(), 0);
}

}  // namespace
}  // namespace delrec::core
