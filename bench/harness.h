#ifndef DELREC_BENCH_HARNESS_H_
#define DELREC_BENCH_HARNESS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/common.h"
#include "core/delrec.h"
#include "core/workbench.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "srmodels/factory.h"
#include "util/json.h"
#include "util/status.h"
#include "util/timer.h"

namespace delrec::bench {

// -- Machine-readable bench records (BENCH_*.json) ---------------------------

/// How a metric's value should be interpreted when comparing runs: for
/// kThroughput and kRatio higher is better, for kTime and kCount lower is
/// better.
enum class MetricKind { kThroughput, kTime, kCount, kRatio };

/// One recorded measurement. `stable` marks metrics that are deterministic
/// for a fixed workload and thread count (allocation counts, hit ratios);
/// the baseline comparison hard-gates those, while noisy wall-clock metrics
/// gate only under DELREC_BENCH_STRICT=1 so shared-machine CI stays green.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  MetricKind kind = MetricKind::kCount;
  bool stable = false;
};

/// Collects metrics for one bench binary and emits/compares BENCH_*.json.
///
/// Every bench main() calls BeginBench(name) first — which prints the
/// effective GEMM kernel/thread configuration and resets pool counters —
/// and returns FinishBench(), which appends pool statistics, writes the
/// JSON record to $DELREC_BENCH_JSON (default BENCH_<name>.json; set the
/// variable to an empty string to skip writing), compares against
/// $DELREC_BENCH_BASELINE when set, and yields the process exit code
/// (non-zero on a >15% regression of a gated metric).
class BenchRecorder {
 public:
  static BenchRecorder& Global();

  void Begin(const std::string& bench_name);
  /// True once Begin() ran; harness instrumentation is inert otherwise, so
  /// linking the harness into tests records nothing.
  bool active() const;

  /// Records a metric, overwriting any prior value of the same name.
  void Record(const std::string& name, double value, const std::string& unit,
              MetricKind kind, bool stable = false);
  /// Adds `value` into the named metric, creating it at zero. Used for
  /// phase times accumulated across several calls (e.g. eval_s).
  void Accumulate(const std::string& name, double value,
                  const std::string& unit, MetricKind kind,
                  bool stable = false);

  /// Serializes the run: {schema_version, bench, config{threads, fast,
  /// kernel, native}, metrics[{name, value, unit, kind, stable}]}.
  /// Non-finite values are emitted as null.
  util::Json ToJson() const;

  int Finish();

  /// Structural check of a BENCH_*.json document (used on our own output
  /// and on baselines before comparing).
  static util::Status ValidateSchema(const util::Json& doc);
  /// Fails when a gated metric regresses more than `tolerance` (fractional)
  /// in its bad direction, or when a stable baseline metric is missing from
  /// `current`. Gated = stable metrics always, every metric when `strict`.
  static util::Status Compare(const util::Json& baseline,
                              const util::Json& current, double tolerance,
                              bool strict);

  /// Output path Finish() writes to for a given bench name (after applying
  /// the DELREC_BENCH_JSON override). Empty means "do not write".
  static std::string OutputPath(const std::string& bench_name);

 private:
  mutable std::mutex mutex_;
  std::string bench_name_;
  std::vector<BenchMetric> metrics_;
  util::WallTimer run_timer_;
};

/// Convenience wrappers used by every bench main().
void BeginBench(const std::string& name);
int FinishBench();

/// True when the fp32 GEMM dispatches a SIMD tile (nn::GemmKernelIsa() is
/// "avx512" or "avx2"). Wall-clock speedup floors bind at full strength only
/// there; the "sse2" and "portable" scalar tiles reorganize the same
/// arithmetic without wider registers and gate a relaxed floor.
bool GemmHasSimdTiles();

/// Records the process peak RSS (VmHWM from /proc/self/status) as
/// "<name>_bytes" in the bench record and returns it. Peak RSS includes
/// binary, heap, and resident mapped pages — exactly what an out-of-core
/// budget has to hold.
int64_t RecordPeakRss(const std::string& name = "peak_rss");

/// The out-of-core gate: records peak_rss_bytes, rss_budget_bytes and the
/// stable rss_within_budget flag, and returns an error when the peak
/// exceeds `budget_bytes`. bench_datalane fails its run on this status.
util::Status AssertPeakRssUnder(int64_t budget_bytes,
                                const std::string& what);

/// RAII wall-clock phase timer: destructor accumulates "<name>_s" into the
/// global recorder (no-op when no bench is active).
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(std::string name);
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;
  ~ScopedPhaseTimer();

 private:
  std::string name_;
  util::WallTimer timer_;
};

/// Global bench scaling. DELREC_FAST=1 in the environment cuts training and
/// evaluation budgets ~4× for quick smoke runs; default reproduces the
/// paper-shaped tables. DELREC_NUM_THREADS=N fans candidate scoring, batch
/// inference and the GEMM kernels across N threads — tables are
/// bit-identical to the serial run (DESIGN.md §9), only faster.
struct HarnessOptions {
  bool fast = false;
  int num_threads = 1;
  int64_t eval_examples = 250;
  int pretrain_epochs = 3;
  // DELRec budgets.
  int64_t stage1_examples = 200;
  int stage1_epochs = 2;
  int64_t stage2_examples = 1200;
  int stage2_epochs = 8;
  // Baseline fine-tuning budgets.
  int64_t baseline_examples = 600;
  int baseline_epochs = 4;
  // Conventional SR model budget.
  int sr_epochs = 6;
};

/// Reads DELREC_FAST from the environment and scales budgets.
HarnessOptions OptionsFromEnv();

/// One dataset's full experimental context: generated data, splits, cached
/// pretrained LLM weights and lazily trained conventional backbones. Every
/// method evaluated on this harness sees identical candidate sets.
class DatasetHarness {
 public:
  DatasetHarness(const data::GeneratorConfig& config,
                 const HarnessOptions& options);

  core::Workbench& workbench() { return *workbench_; }
  const data::GeneratorConfig& config() const { return config_; }
  const HarnessOptions& options() const { return options_; }
  int64_t num_items() const { return workbench_->num_items(); }

  /// Trained conventional backbone (trained once, cached).
  srmodels::SequentialRecommender* Backbone(srmodels::Backbone backbone);

  /// Fresh pretrained LLM copy.
  std::unique_ptr<llm::TinyLm> Llm(core::LlmSize size);

  /// Candidate-set evaluation on the test split (fixed seed: all methods
  /// rank the same sets).
  eval::MetricsAccumulator Evaluate(const eval::CandidateScorer& scorer) const;
  eval::MetricsAccumulator EvaluateRecommender(
      const srmodels::SequentialRecommender& model) const;
  eval::MetricsAccumulator EvaluateLlmBaseline(
      const baselines::LlmRecommender& model) const;
  eval::MetricsAccumulator EvaluateDelRec(const core::DelRec& model) const;

  /// Paper-matched default configs, scaled by the harness options. α is 4
  /// for MovieLens-100K/Beauty and 6 for Steam/Home & Kitchen (§V-A3).
  core::DelRecConfig DelRecDefaults() const;
  baselines::LlmRecConfig BaselineDefaults() const;
  srmodels::TrainConfig SrTrainConfig(srmodels::Backbone backbone) const;

  /// Trains a DELRec instance end-to-end on a fresh LLM and returns it
  /// (with the LLM it owns via the returned pair).
  struct TrainedDelRec {
    std::unique_ptr<llm::TinyLm> llm;
    std::unique_ptr<core::DelRec> model;
  };
  TrainedDelRec TrainDelRec(srmodels::Backbone backbone,
                            const core::DelRecConfig& config);

 private:
  data::GeneratorConfig config_;
  HarnessOptions options_;
  std::unique_ptr<core::Workbench> workbench_;
  std::map<srmodels::Backbone,
           std::unique_ptr<srmodels::SequentialRecommender>>
      backbones_;
};

/// "0.3701*" style cell: metric plus significance stars from a paired t-test
/// of per-example HR@1 between `method` and `reference`.
std::vector<std::string> SignificanceSuffixes(
    const eval::MetricsAccumulator& method,
    const eval::MetricsAccumulator& reference);

}  // namespace delrec::bench

#endif  // DELREC_BENCH_HARNESS_H_
