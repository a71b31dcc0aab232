// Trains the serving fixture once and persists it with the repo's own
// artifact formats, so the measured process only loads:
//   sasrec.blob  SASRec hint backbone (srmodels::SerializeStudent)
//   paper.ckpt   DELRec, paper prompt shape, with a GRU4Rec student
//                distilled from it embedded as DelRecBlobs::student_blob
//   short.ckpt   DELRec, serve-smoke prompt shape
//   complete     stamp, written last
// Training is deterministic (fixed seeds, thread-count invariant), so every
// checkout builds byte-identical fixtures.
//
// Usage: servebench_fixture <dir>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/delrec.h"
#include "core/workbench.h"
#include "data/event_stream.h"
#include "distill/export.h"
#include "distill/trainer.h"
#include "fixture.h"
#include "serve/snapshot.h"
#include "srmodels/factory.h"
#include "util/check.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace delrec::servebench {
namespace {

void CheckOk(const util::Status& status) {
  DELREC_CHECK(status.ok()) << status.ToString();
}

core::DelRecBlobs TrainDelRec(core::Workbench& workbench,
                              srmodels::SequentialRecommender* backbone,
                              Shape shape) {
  std::unique_ptr<llm::TinyLm> llm =
      workbench.MakePretrainedLlm(core::LlmSize::kXL);
  core::DelRec model(&workbench.dataset().catalog, &workbench.vocab(),
                     llm.get(), backbone, DelRecConfigFor(shape));
  const util::Status trained = model.Train(workbench.splits().train);
  DELREC_CHECK(trained.ok()) << trained.ToString();
  return core::ExtractDelRecBlobs(model, *llm);
}

/// Distills a GRU4Rec student from the paper-shape teacher through the
/// production export + trainer path and returns its blob.
std::vector<float> DistillStudentBlob(
    core::Workbench& workbench, const core::DelRecBlobs& teacher_blobs,
    const serve::EngineSnapshot::Sources& sources) {
  auto teacher = serve::EngineSnapshot::FromBlobs(
      teacher_blobs, workbench.LlmConfigFor(core::LlmSize::kXL),
      DelRecConfigFor(Shape::kPaper), sources);
  DELREC_CHECK(teacher.ok()) << teacher.status().ToString();

  distill::TeacherExportOptions export_options;
  export_options.top_k = 4;
  export_options.candidate_pool = 20;
  export_options.history_length = 10;
  export_options.batch_size = 16;
  data::EventStream stream(workbench.dataset());
  auto exported = distill::ExportTeacherLists(
      *teacher.value(), stream, workbench.num_items(), export_options);
  DELREC_CHECK(exported.ok()) << exported.status().ToString();

  srmodels::StudentSpec spec;
  spec.backbone = srmodels::Backbone::kGru4Rec;
  spec.num_items = workbench.num_items();
  spec.history_length = export_options.history_length;
  spec.seed = 23;
  auto student = srmodels::MakeBackbone(spec.backbone, spec.num_items,
                                        spec.history_length, spec.seed);
  distill::DistillTrainConfig train_config;
  train_config.base = srmodels::BackboneTrainConfig(spec.backbone);
  train_config.base.epochs = 3;
  train_config.base.history_length = spec.history_length;
  auto distilled =
      distill::DistillStudent(*student, exported.value(), train_config);
  DELREC_CHECK(distilled.ok()) << distilled.status().ToString();
  return srmodels::SerializeStudent(spec, *student);
}

int Main(const std::string& dir) {
  util::SetParallelism(1);
  std::filesystem::create_directories(dir);
  util::WallTimer timer;
  core::Workbench workbench(DatasetConfig(), WorkbenchOptions());

  const srmodels::StudentSpec hint_spec =
      HintBackboneSpec(workbench.num_items());
  auto backbone = srmodels::MakeBackbone(hint_spec.backbone, hint_spec.num_items,
                                         hint_spec.history_length,
                                         hint_spec.seed);
  srmodels::TrainConfig backbone_config =
      srmodels::BackboneTrainConfig(hint_spec.backbone);
  backbone_config.epochs = 3;
  const util::Status trained =
      backbone->Train(workbench.splits().train, backbone_config);
  DELREC_CHECK(trained.ok()) << trained.ToString();
  CheckOk(
      SaveHintBackbone(hint_spec, *backbone, HintBackbonePath(dir)));

  serve::EngineSnapshot::Sources sources;
  sources.catalog = &workbench.dataset().catalog;
  sources.vocab = &workbench.vocab();
  sources.sr_model = backbone.get();

  core::DelRecBlobs paper = TrainDelRec(workbench, backbone.get(),
                                        Shape::kPaper);
  paper.student_blob = DistillStudentBlob(workbench, paper, sources);
  CheckOk(
      core::SaveDelRecBlobs(paper, CheckpointPath(dir, Shape::kPaper)));
  CheckOk(core::SaveDelRecBlobs(
      TrainDelRec(workbench, backbone.get(), Shape::kShort),
      CheckpointPath(dir, Shape::kShort)));

  std::ofstream(StampPath(dir)) << "servebench fixture\n";
  std::printf("[fixture] trained in %.1f s -> %s\n", timer.ElapsedSeconds(),
              dir.c_str());
  return 0;
}

}  // namespace
}  // namespace delrec::servebench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <fixture-dir>\n", argv[0]);
    return 2;
  }
  return delrec::servebench::Main(argv[1]);
}
