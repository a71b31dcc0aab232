#ifndef DELREC_SERVEBENCH_FIXTURE_H_
#define DELREC_SERVEBENCH_FIXTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/delrec.h"
#include "core/workbench.h"
#include "data/dataset.h"
#include "srmodels/factory.h"
#include "util/status.h"

namespace delrec::servebench {

/// The two trained DELRec systems the workloads serve. kPaper is the
/// paper's scoring prompt (10-item window, 16 soft prompts, SASRec top-5
/// hint titles) and carries the distilled GRU4Rec student; kShort is the
/// repo's serve-smoke prompt (1-item window, 4 soft prompts, no hints).
enum class Shape { kPaper, kShort };

/// Dataset and workbench settings shared by the fixture trainer and the
/// measured process, which regenerates the same catalog, splits and vocab
/// from them without training anything.
data::GeneratorConfig DatasetConfig();
core::Workbench::Options WorkbenchOptions();

/// Full DELRec configuration (architecture and training budget) of a shape.
core::DelRecConfig DelRecConfigFor(Shape shape);

/// Architecture of the SASRec backbone that supplies the prompt hints.
srmodels::StudentSpec HintBackboneSpec(int64_t num_items);

/// Fixture files inside `dir`. The stamp is written last, so its presence
/// means every other file is complete.
std::string CheckpointPath(const std::string& dir, Shape shape);
std::string HintBackbonePath(const std::string& dir);
std::string StampPath(const std::string& dir);

/// Persists / restores the hint backbone (srmodels::SerializeStudent
/// format inside a checksummed util::BlobFile).
util::Status SaveHintBackbone(const srmodels::StudentSpec& spec,
                              const srmodels::SequentialRecommender& model,
                              const std::string& path);
util::StatusOr<srmodels::LoadedStudent> LoadHintBackbone(
    const std::string& path);

}  // namespace delrec::servebench

#endif  // DELREC_SERVEBENCH_FIXTURE_H_
