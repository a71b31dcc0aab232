#include "serve/scorer.h"

#include <utility>

#include "util/check.h"

namespace delrec::serve {
namespace {

// LlmRecommender and DelRec score data::Examples; serving has no target, so
// requests are wrapped in an Example whose target is never read by scoring
// (the same shim DelRec::Recommend uses).
data::Example AsExample(const ScoreRequest& request) {
  data::Example example;
  example.history = request.history;
  example.target = request.candidates.empty() ? 0 : request.candidates[0];
  return example;
}

class SequentialScorer : public Scorer {
 public:
  explicit SequentialScorer(const srmodels::SequentialRecommender* model)
      : model_(model) {
    DELREC_CHECK(model != nullptr);
  }

  std::string name() const override { return model_->name(); }

  std::vector<float> Score(const ScoreRequest& request) const override {
    return model_->ScoreCandidates(request.history, request.candidates);
  }

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<ScoreRequest>& requests) const override {
    std::vector<std::vector<int64_t>> histories;
    std::vector<std::vector<int64_t>> candidates;
    histories.reserve(requests.size());
    candidates.reserve(requests.size());
    for (const ScoreRequest& request : requests) {
      histories.push_back(request.history);
      candidates.push_back(request.candidates);
    }
    return model_->ScoreCandidatesBatch(histories, candidates);
  }

  ScorerCapabilities Capabilities() const override {
    return {/*full_catalog=*/true, model_->item_count()};
  }

  std::vector<float> ScoreCatalog(
      const std::vector<int64_t>& history) const override {
    return model_->ScoreAllItems(history);
  }

  std::vector<std::vector<float>> ScoreCatalogBatch(
      const std::vector<std::vector<int64_t>>& histories) const override {
    return model_->ScoreAllItemsBatch(histories);
  }

 private:
  const srmodels::SequentialRecommender* model_;
};

/// SequentialScorer that owns its model: the deserialized-student backend.
class StudentScorer : public SequentialScorer {
 public:
  explicit StudentScorer(srmodels::LoadedStudent student)
      : SequentialScorer(student.model.get()),
        student_(std::move(student)) {}

  std::string name() const override {
    return "student(" + student_.model->name() + ")";
  }

 private:
  srmodels::LoadedStudent student_;
};

class BaselineScorer : public Scorer {
 public:
  explicit BaselineScorer(const baselines::LlmRecommender* model)
      : model_(model) {
    DELREC_CHECK(model != nullptr);
  }

  std::string name() const override { return model_->name(); }

  std::vector<float> Score(const ScoreRequest& request) const override {
    return model_->ScoreCandidates(AsExample(request), request.candidates);
  }

 private:
  const baselines::LlmRecommender* model_;
};

class DelRecScorer : public Scorer {
 public:
  explicit DelRecScorer(const core::DelRec* model) : model_(model) {
    DELREC_CHECK(model != nullptr);
  }

  std::string name() const override { return model_->name(); }

  std::vector<float> Score(const ScoreRequest& request) const override {
    return model_->ScoreCandidates(AsExample(request), request.candidates);
  }

 private:
  const core::DelRec* model_;
};

}  // namespace

std::vector<std::vector<float>> Scorer::ScoreBatch(
    const std::vector<ScoreRequest>& requests) const {
  std::vector<std::vector<float>> results;
  results.reserve(requests.size());
  for (const ScoreRequest& request : requests) {
    results.push_back(Score(request));
  }
  return results;
}

std::vector<float> Scorer::ScoreCatalog(
    const std::vector<int64_t>& history) const {
  DELREC_CHECK(false) << name()
                      << " does not declare full-catalog capability";
  return {};
}

std::vector<std::vector<float>> Scorer::ScoreCatalogBatch(
    const std::vector<std::vector<int64_t>>& histories) const {
  std::vector<std::vector<float>> results;
  results.reserve(histories.size());
  for (const std::vector<int64_t>& history : histories) {
    results.push_back(ScoreCatalog(history));
  }
  return results;
}

std::unique_ptr<Scorer> MakeSequentialScorer(
    const srmodels::SequentialRecommender* model) {
  return std::make_unique<SequentialScorer>(model);
}

std::unique_ptr<Scorer> MakeStudentScorer(srmodels::LoadedStudent student) {
  DELREC_CHECK(student.model != nullptr);
  return std::make_unique<StudentScorer>(std::move(student));
}

std::unique_ptr<Scorer> MakeBaselineScorer(
    const baselines::LlmRecommender* model) {
  return std::make_unique<BaselineScorer>(model);
}

std::unique_ptr<Scorer> MakeDelRecScorer(const core::DelRec* model) {
  return std::make_unique<DelRecScorer>(model);
}

}  // namespace delrec::serve
