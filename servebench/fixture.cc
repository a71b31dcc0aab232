#include "fixture.h"

#include <utility>

#include "util/serialize.h"

namespace delrec::servebench {
namespace {

constexpr char kHintBlob[] = "hint_backbone";

}  // namespace

data::GeneratorConfig DatasetConfig() { return data::MovieLens100KConfig(); }

core::Workbench::Options WorkbenchOptions() {
  core::Workbench::Options options;
  options.pretrain_epochs = 2;
  return options;
}

core::DelRecConfig DelRecConfigFor(Shape shape) {
  core::DelRecConfig config;
  config.stage1_max_examples = 80;
  config.stage1_epochs = 1;
  config.stage2_max_examples = 150;
  config.stage2_epochs = 2;
  if (shape == Shape::kShort) {
    config.history_length = 1;
    config.soft_prompt_count = 4;
    config.sr_hints_in_stage2 = false;
  }
  return config;
}

srmodels::StudentSpec HintBackboneSpec(int64_t num_items) {
  srmodels::StudentSpec spec;
  spec.backbone = srmodels::Backbone::kSasRec;
  spec.num_items = num_items;
  spec.history_length = 10;
  spec.seed = 5;
  return spec;
}

std::string CheckpointPath(const std::string& dir, Shape shape) {
  return dir + (shape == Shape::kPaper ? "/paper.ckpt" : "/short.ckpt");
}

std::string HintBackbonePath(const std::string& dir) {
  return dir + "/sasrec.blob";
}

std::string StampPath(const std::string& dir) { return dir + "/complete"; }

util::Status SaveHintBackbone(const srmodels::StudentSpec& spec,
                              const srmodels::SequentialRecommender& model,
                              const std::string& path) {
  util::BlobFile file;
  file.Put(kHintBlob, srmodels::SerializeStudent(spec, model));
  return file.WriteTo(path);
}

util::StatusOr<srmodels::LoadedStudent> LoadHintBackbone(
    const std::string& path) {
  util::BlobFile file;
  DELREC_ASSIGN_OR_RETURN(file, util::BlobFile::ReadFrom(path));
  std::vector<float> blob;
  DELREC_ASSIGN_OR_RETURN(blob, file.Get(kHintBlob));
  return srmodels::DeserializeStudent(blob);
}

}  // namespace delrec::servebench
