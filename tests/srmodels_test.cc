#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/protocol.h"
#include "nn/module.h"
#include "nn/tensor.h"
#include "srmodels/bert4rec.h"
#include "srmodels/caser.h"
#include "srmodels/factory.h"
#include "srmodels/gru4rec.h"
#include "srmodels/kda.h"
#include "srmodels/sasrec.h"
#include "srmodels/simple.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/threadpool.h"

#ifndef DELREC_TEST_DATA_DIR
#define DELREC_TEST_DATA_DIR "."
#endif

namespace delrec::srmodels {
namespace {

// Shared tiny dataset fixture (KuaiRec preset = densest, fastest to learn).
class SrModelsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(data::GenerateDataset(data::KuaiRecConfig()));
    splits_ = new data::Splits(data::MakeSplits(*dataset_, 10));
  }
  static void TearDownTestSuite() {
    delete splits_;
    delete dataset_;
    splits_ = nullptr;
    dataset_ = nullptr;
  }

  static double Hr10(const SequentialRecommender& model) {
    eval::EvalConfig config;
    config.max_examples = 120;
    auto acc = eval::EvaluateCandidates(
        splits_->test, dataset_->catalog.size(),
        [&](const data::Example& example,
            const std::vector<int64_t>& candidates) {
          return model.ScoreCandidates(example.history, candidates);
        },
        config);
    return acc.Result().hr_at_10;
  }

  static TrainConfig FastConfig() {
    TrainConfig config;
    config.epochs = 3;
    return config;
  }

  static data::Dataset* dataset_;
  static data::Splits* splits_;
};

data::Dataset* SrModelsTest::dataset_ = nullptr;
data::Splits* SrModelsTest::splits_ = nullptr;

TEST_F(SrModelsTest, PopRecBeatsChanceAndTracksCounts) {
  PopRec model(dataset_->catalog.size());
  ASSERT_TRUE(model.Train(splits_->train, FastConfig()).ok());
  // Chance HR@10 on 15 candidates is 10/15 ≈ 0.667; popularity adds a bit.
  EXPECT_GT(Hr10(model), 0.60);
  EXPECT_EQ(model.ParameterCount(), 0);
}

TEST_F(SrModelsTest, FmcLearnsSequelTransitions) {
  Fmc model(dataset_->catalog.size(), 16, 3);
  TrainConfig config = FastConfig();
  config.learning_rate = 5e-3f;
  ASSERT_TRUE(model.Train(splits_->train, config).ok());
  EXPECT_GT(Hr10(model), 0.75);
}

TEST_F(SrModelsTest, Gru4RecLearns) {
  Gru4Rec model(dataset_->catalog.size(), 32, 3);
  TrainConfig config = BackboneTrainConfig(Backbone::kGru4Rec);
  config.epochs = 3;
  ASSERT_TRUE(model.Train(splits_->train, config).ok());
  EXPECT_GT(Hr10(model), 0.78);
}

TEST_F(SrModelsTest, CaserLearns) {
  Caser model(dataset_->catalog.size(), 32, 10, 8, 2, 3);
  TrainConfig config = BackboneTrainConfig(Backbone::kCaser);
  config.epochs = 3;
  ASSERT_TRUE(model.Train(splits_->train, config).ok());
  EXPECT_GT(Hr10(model), 0.78);
}

TEST_F(SrModelsTest, SasRecLearns) {
  SasRec model(dataset_->catalog.size(), 32, 10, 2, 2, 3);
  TrainConfig config = BackboneTrainConfig(Backbone::kSasRec);
  config.epochs = 3;
  ASSERT_TRUE(model.Train(splits_->train, config).ok());
  EXPECT_GT(Hr10(model), 0.78);
}

TEST_F(SrModelsTest, Bert4RecLearns) {
  Bert4Rec model(dataset_->catalog.size(), 32, 10, 2, 2, 3);
  TrainConfig config = FastConfig();
  config.learning_rate = 2e-3f;
  ASSERT_TRUE(model.Train(splits_->train, config).ok());
  EXPECT_GT(Hr10(model), 0.75);
}

TEST_F(SrModelsTest, KdaLearns) {
  Kda model(dataset_->catalog.size(), 32, 12, 10, 4, 3);
  TrainConfig config = FastConfig();
  config.learning_rate = 2e-3f;
  ASSERT_TRUE(model.Train(splits_->train, config).ok());
  EXPECT_GT(Hr10(model), 0.78);
}

TEST_F(SrModelsTest, TrainedModelsBeatPopularity) {
  PopRec popularity(dataset_->catalog.size());
  ASSERT_TRUE(popularity.Train(splits_->train, FastConfig()).ok());
  SasRec sasrec(dataset_->catalog.size(), 32, 10, 2, 2, 3);
  TrainConfig config = BackboneTrainConfig(Backbone::kSasRec);
  config.epochs = 3;
  ASSERT_TRUE(sasrec.Train(splits_->train, config).ok());
  EXPECT_GT(Hr10(sasrec), Hr10(popularity));
}

TEST_F(SrModelsTest, NanLossBatchesAreSkippedNotFatal) {
  SasRec model(dataset_->catalog.size(), 32, 10, 2, 2, 3);
  TrainConfig config = BackboneTrainConfig(Backbone::kSasRec);
  config.epochs = 3;
  // Two poisoned batches: the guard must skip them (parameters restored)
  // and training must still converge to a useful model.
  util::Failpoints::Instance().Arm("trainer.loss",
                                   util::Failpoints::Mode::kCorrupt, 2);
  const util::Status trained = model.Train(splits_->train, config);
  util::Failpoints::Instance().Reset();
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  EXPECT_GT(Hr10(model), 0.78);
}

TEST_F(SrModelsTest, PersistentNanLossAbortsWithStatus) {
  Gru4Rec model(dataset_->catalog.size(), 32, 3);
  TrainConfig config = BackboneTrainConfig(Backbone::kGru4Rec);
  config.epochs = 1;
  config.anomaly_guard.max_consecutive = 2;
  util::Failpoints::Instance().Arm("trainer.loss",
                                   util::Failpoints::Mode::kCorrupt);
  const util::Status trained = model.Train(splits_->train, config);
  util::Failpoints::Instance().Reset();
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.code(), util::Status::Code::kInternal);
}

TEST_F(SrModelsTest, EncodeHistoryShapes) {
  Gru4Rec gru(dataset_->catalog.size(), 32, 3);
  EXPECT_EQ(gru.EncodeHistory({1, 2, 3}).size(), 32u);
  EXPECT_EQ(gru.ItemEmbedding(5).size(), 32u);
  EXPECT_EQ(gru.representation_dim(), 32);
  SasRec sas(dataset_->catalog.size(), 32, 10, 1, 2, 3);
  EXPECT_EQ(sas.EncodeHistory({1, 2}).size(), 32u);
}

TEST_F(SrModelsTest, TopKOrderedByScore) {
  PopRec model(dataset_->catalog.size());
  ASSERT_TRUE(model.Train(splits_->train, FastConfig()).ok());
  auto scores = model.ScoreAllItems({0});
  auto top = model.TopK({0}, 5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(scores[top[i - 1]], scores[top[i]]);
  }
}

TEST_F(SrModelsTest, ScoreCandidatesGathersFromAllItems) {
  Fmc model(dataset_->catalog.size(), 8, 3);
  ASSERT_TRUE(model.Train(splits_->train, FastConfig()).ok());
  auto all = model.ScoreAllItems({3, 4});
  auto some = model.ScoreCandidates({3, 4}, {7, 0, 9});
  EXPECT_FLOAT_EQ(some[0], all[7]);
  EXPECT_FLOAT_EQ(some[1], all[0]);
  EXPECT_FLOAT_EQ(some[2], all[9]);
}

TEST(FactoryTest, MakesAllBackbones) {
  for (Backbone backbone :
       {Backbone::kGru4Rec, Backbone::kCaser, Backbone::kSasRec}) {
    auto model = MakeBackbone(backbone, 50, 10, 1);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), BackboneName(backbone));
    EXPECT_GT(model->ParameterCount(), 0);
    EXPECT_EQ(model->ScoreAllItems({0, 1, 2}).size(), 50u);
  }
}

// The student checkpoint contract behind two-tier serving: every registered
// backbone saves/restores bit-identically through the factory blob path.
TEST_F(SrModelsTest, FactoryBlobRoundTripIsBitIdentical) {
  for (Backbone backbone :
       {Backbone::kGru4Rec, Backbone::kCaser, Backbone::kSasRec}) {
    StudentSpec spec;
    spec.backbone = backbone;
    spec.num_items = dataset_->catalog.size();
    spec.history_length = 10;
    spec.seed = 11;
    auto model = MakeBackbone(backbone, spec.num_items, spec.history_length,
                              spec.seed);
    TrainConfig config = BackboneTrainConfig(backbone);
    config.epochs = 1;  // Trained state, so the round trip is non-trivial.
    ASSERT_TRUE(model->Train(splits_->train, config).ok());

    const std::vector<float> blob = SerializeStudent(spec, *model);
    auto loaded = DeserializeStudent(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().spec.backbone, spec.backbone);
    EXPECT_EQ(loaded.value().spec.num_items, spec.num_items);
    EXPECT_EQ(loaded.value().spec.history_length, spec.history_length);
    EXPECT_EQ(loaded.value().spec.seed, spec.seed);

    const auto* original = dynamic_cast<const nn::Module*>(model.get());
    const auto* restored =
        dynamic_cast<const nn::Module*>(loaded.value().model.get());
    ASSERT_NE(original, nullptr);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->StateDump(), original->StateDump())
        << BackboneName(backbone) << " state drifted through the blob";
    EXPECT_EQ(loaded.value().model->ScoreAllItems({1, 2, 3}),
              model->ScoreAllItems({1, 2, 3}));
    EXPECT_EQ(loaded.value().model->ScoreCandidates({4, 5}, {0, 7, 3}),
              model->ScoreCandidates({4, 5}, {0, 7, 3}));

    // Serializing the restored model reproduces the blob byte-for-byte.
    EXPECT_EQ(SerializeStudent(loaded.value().spec, *loaded.value().model),
              blob);
  }
}

// GRU4Rec's ScoreCandidatesBatch gathers from its ScoreAllItemsBatch, a
// ragged lockstep (B, D) recurrence in which each step runs over the rows
// still active — the two-tier retriever's fast path. The interface contract
// (recommender.h) still demands every row bit-identical to the
// per-sequence path, at every thread count, including ragged batches that
// leave rows behind at different steps.
TEST_F(SrModelsTest, Gru4RecBatchedSweepIsBitIdenticalToPerRow) {
  Gru4Rec model(dataset_->catalog.size(), 16, /*seed=*/13);
  TrainConfig config = BackboneTrainConfig(Backbone::kGru4Rec);
  config.epochs = 1;
  ASSERT_TRUE(model.Train(splits_->train, config).ok());

  std::vector<std::vector<int64_t>> histories;
  std::vector<std::vector<int64_t>> candidates;
  for (size_t i = 0; i < std::min<size_t>(24, splits_->test.size()); ++i) {
    std::vector<int64_t> history = splits_->test[i].history;
    // Ragged lengths: truncate to 1..full so several groups form.
    history.resize(1 + i % history.size());
    histories.push_back(std::move(history));
    candidates.push_back({splits_->test[i].target, 0, 3,
                          static_cast<int64_t>(i) %
                              dataset_->catalog.size()});
  }
  std::vector<std::vector<float>> reference;
  for (size_t i = 0; i < histories.size(); ++i) {
    reference.push_back(model.ScoreCandidates(histories[i], candidates[i]));
  }
  for (int threads : {1, 4}) {
    util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
    EXPECT_EQ(model.ScoreCandidatesBatch(histories, candidates), reference)
        << "threads=" << threads;
  }
}

// Bitwise, so ±0 and NaN payloads count (EXPECT_EQ on floats would not).
void ExpectBitIdentical(const std::vector<float>& actual,
                        const std::vector<float>& expected,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(float)),
            0)
      << what;
}

// The tape-free forwards (DESIGN.md §17) against the autograd logits they
// replace at inference: every row of ScoreAllItemsBatch equals
// TrainingLogits(h, 0, rng) bit for bit, for any batch composition and
// thread count — histories of every length from 1 to past SASRec's window,
// repeated items, a permuted batch and batches of one.
TEST_F(SrModelsTest, ScoreAllItemsBatchIsBitIdenticalToTrainingLogits) {
  constexpr int64_t kMaxLength = 10;
  SasRec sasrec(dataset_->catalog.size(), 32, kMaxLength, /*num_blocks=*/2,
                /*num_heads=*/2, /*seed=*/17);
  Gru4Rec gru(dataset_->catalog.size(), 24, /*seed=*/19);
  for (SequentialRecommender* model :
       std::vector<SequentialRecommender*>{&sasrec, &gru}) {
    TrainConfig config = FastConfig();
    config.epochs = 1;
    ASSERT_TRUE(model->Train(splits_->train, config).ok());
  }

  std::vector<std::vector<int64_t>> histories;
  for (int64_t length = 1; length <= kMaxLength + 3; ++length) {
    const std::vector<int64_t>& source =
        splits_->test[length % splits_->test.size()].history;
    std::vector<int64_t> history;
    for (int64_t i = 0; i < length; ++i) {
      history.push_back(source[i % source.size()]);
    }
    histories.push_back(std::move(history));
  }
  histories.push_back(std::vector<int64_t>(7, 3));  // One item, repeated.
  histories.push_back({5, 9, 5, 9, 5});
  histories.push_back({0});

  for (const SequentialRecommender* model :
       std::vector<const SequentialRecommender*>{&sasrec, &gru}) {
    std::vector<std::vector<float>> reference;
    {
      nn::NoGradGuard no_grad;
      util::Rng rng(1);
      for (const auto& history : histories) {
        reference.push_back(model->TrainingLogits(history, 0.0f, rng).data());
      }
    }
    std::vector<size_t> permutation(histories.size());
    for (size_t i = 0; i < permutation.size(); ++i) {
      permutation[i] = (i * 7 + 3) % permutation.size();
    }
    std::vector<std::vector<int64_t>> permuted;
    for (size_t i : permutation) permuted.push_back(histories[i]);
    for (int threads : {1, 2, 4, 7}) {
      util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
      const std::string tag =
          model->name() + " threads=" + std::to_string(threads);
      const auto batch = model->ScoreAllItemsBatch(histories);
      ASSERT_EQ(batch.size(), histories.size());
      const auto shuffled = model->ScoreAllItemsBatch(permuted);
      for (size_t i = 0; i < histories.size(); ++i) {
        const std::string row = tag + " row=" + std::to_string(i);
        ExpectBitIdentical(batch[i], reference[i], row);
        ExpectBitIdentical(shuffled[i], reference[permutation[i]],
                           row + " permuted");
        ExpectBitIdentical(model->ScoreAllItemsBatch({histories[i]})[0],
                           reference[i], row + " alone");
        ExpectBitIdentical(model->ScoreAllItems(histories[i]), reference[i],
                           row + " ScoreAllItems");
      }
    }
  }
}

TEST(FactoryTest, DeserializeRejectsMalformedBlobs) {
  StudentSpec spec;
  spec.backbone = Backbone::kGru4Rec;
  spec.num_items = 20;
  spec.history_length = 6;
  spec.seed = 3;
  auto model = MakeBackbone(spec.backbone, spec.num_items,
                            spec.history_length, spec.seed);
  const std::vector<float> blob = SerializeStudent(spec, *model);

  EXPECT_EQ(DeserializeStudent({}).status().code(),
            util::Status::Code::kInvalidArgument);

  std::vector<float> wrong_version = blob;
  wrong_version[0] = 2.0f;
  EXPECT_EQ(DeserializeStudent(wrong_version).status().code(),
            util::Status::Code::kInvalidArgument);

  std::vector<float> wrong_backbone = blob;
  wrong_backbone[1] = 9.0f;
  EXPECT_EQ(DeserializeStudent(wrong_backbone).status().code(),
            util::Status::Code::kInvalidArgument);

  std::vector<float> truncated = blob;
  truncated.pop_back();  // State length no longer matches the architecture.
  EXPECT_EQ(DeserializeStudent(truncated).status().code(),
            util::Status::Code::kInvalidArgument);
}

// The committed golden freezes student blob format v1 (header layout, u64
// packing, state order). A freshly built tiny GRU4Rec is deterministic from
// its seed, so the serialized bytes must match the golden exactly. If the
// format legitimately changes: bump kStudentFormatVersion, keep the old
// reader working, commit a new golden, and update this test (see
// tests/golden/README.md). Regenerate with DELREC_REGEN_GOLDEN=1 after an
// intentional version bump.
TEST(FactoryTest, CommittedGoldenStudentBlobPinsFormat) {
  StudentSpec spec;
  spec.backbone = Backbone::kGru4Rec;
  spec.num_items = 6;
  spec.history_length = 4;
  spec.seed = 9;
  auto model = MakeBackbone(spec.backbone, spec.num_items,
                            spec.history_length, spec.seed);
  const std::vector<float> blob = SerializeStudent(spec, *model);
  const std::string golden_path =
      std::string(DELREC_TEST_DATA_DIR) + "/student_blob_v1.bin";

  if (std::getenv("DELREC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size() * sizeof(float)));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), blob.size() * sizeof(float))
      << "student blob size changed; format drift";
  EXPECT_EQ(std::memcmp(bytes.data(), blob.data(), bytes.size()), 0)
      << "student blob bytes changed; format drift";

  // And the golden still deserializes to a working model.
  std::vector<float> from_golden(bytes.size() / sizeof(float));
  std::memcpy(from_golden.data(), bytes.data(), bytes.size());
  auto loaded = DeserializeStudent(from_golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().model->ScoreAllItems({0, 1}),
            model->ScoreAllItems({0, 1}));
}

TEST(FactoryTest, KdaRelationInjection) {
  Kda model(20, 16, 8, 10, 4, 1);
  std::vector<std::vector<float>> latent(20, std::vector<float>(8, 0.1f));
  model.InjectLatentRelations(latent, 0.5f);
  EXPECT_EQ(model.ScoreAllItems({1, 2}).size(), 20u);
}

TEST(SequentialRecommenderTest, TopKFromScores) {
  auto top = TopKFromScores({0.1f, 0.9f, 0.5f, 0.9f}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1);  // Tie broken by index.
  EXPECT_EQ(top[1], 3);
  EXPECT_EQ(top[2], 2);
}

}  // namespace
}  // namespace delrec::srmodels
