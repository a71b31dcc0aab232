#include "bench/harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "eval/stats.h"
#include "nn/gemm.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace delrec::bench {

namespace {

constexpr double kRegressionTolerance = 0.15;

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kThroughput: return "throughput";
    case MetricKind::kTime: return "time";
    case MetricKind::kCount: return "count";
    case MetricKind::kRatio: return "ratio";
  }
  return "count";
}

bool ParseKind(const std::string& name, MetricKind* kind) {
  for (MetricKind k : {MetricKind::kThroughput, MetricKind::kTime,
                       MetricKind::kCount, MetricKind::kRatio}) {
    if (name == KindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

bool HigherIsBetter(MetricKind kind) {
  return kind == MetricKind::kThroughput || kind == MetricKind::kRatio;
}

bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::string(value) != "" &&
         std::string(value) != "0";
}

/// Pulls one metric entry apart; assumes the document passed ValidateSchema.
struct MetricView {
  std::string name;
  bool has_value = false;  // False when the value serialized as null.
  double value = 0.0;
  MetricKind kind = MetricKind::kCount;
  bool stable = false;
};

MetricView ViewMetric(const util::Json& entry) {
  MetricView view;
  view.name = entry.Find("name")->str();
  const util::Json* value = entry.Find("value");
  if (value->is_number()) {
    view.has_value = true;
    view.value = value->number();
  }
  ParseKind(entry.Find("kind")->str(), &view.kind);
  view.stable = entry.Find("stable")->bool_value();
  return view;
}

}  // namespace

BenchRecorder& BenchRecorder::Global() {
  static BenchRecorder* recorder = new BenchRecorder();
  return *recorder;
}

void BenchRecorder::Begin(const std::string& bench_name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bench_name_ = bench_name;
    metrics_.clear();
    run_timer_.Restart();
  }
  // Pool counters from here on cover exactly this bench run.
  util::BufferPool::Global().ResetStatCounters();
  std::printf("[bench %s] kernel: %s | threads=%d%s\n", bench_name.c_str(),
              nn::GemmKernelConfig().c_str(), util::ParallelThreads(),
              EnvFlagSet("DELREC_FAST") ? " | fast" : "");
}

bool BenchRecorder::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !bench_name_.empty();
}

void BenchRecorder::Record(const std::string& name, double value,
                           const std::string& unit, MetricKind kind,
                           bool stable) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bench_name_.empty()) return;
  for (BenchMetric& metric : metrics_) {
    if (metric.name == name) {
      metric = BenchMetric{name, value, unit, kind, stable};
      return;
    }
  }
  metrics_.push_back(BenchMetric{name, value, unit, kind, stable});
}

void BenchRecorder::Accumulate(const std::string& name, double value,
                               const std::string& unit, MetricKind kind,
                               bool stable) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bench_name_.empty()) return;
  for (BenchMetric& metric : metrics_) {
    if (metric.name == name) {
      metric.value += value;
      return;
    }
  }
  metrics_.push_back(BenchMetric{name, value, unit, kind, stable});
}

util::Json BenchRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::Json doc = util::Json::Object();
  doc.Set("schema_version", util::Json::Number(1));
  doc.Set("bench", util::Json::Str(bench_name_));
  util::Json config = util::Json::Object();
  config.Set("threads", util::Json::Number(util::ParallelThreads()));
  config.Set("fast", util::Json::Bool(EnvFlagSet("DELREC_FAST")));
  config.Set("kernel", util::Json::Str(nn::GemmKernelConfig()));
  // The dispatched ISA tier alone ("avx512" / "avx2" / ...): Compare() uses
  // it to gate perf baselines only against like-for-like hardware.
  config.Set("isa", util::Json::Str(nn::GemmKernelIsa()));
#ifdef DELREC_NATIVE_BUILD
  config.Set("native", util::Json::Bool(true));
#else
  config.Set("native", util::Json::Bool(false));
#endif
  doc.Set("config", std::move(config));
  util::Json metrics = util::Json::Array();
  for (const BenchMetric& metric : metrics_) {
    util::Json entry = util::Json::Object();
    entry.Set("name", util::Json::Str(metric.name));
    entry.Set("value", std::isfinite(metric.value)
                           ? util::Json::Number(metric.value)
                           : util::Json::Null());
    entry.Set("unit", util::Json::Str(metric.unit));
    entry.Set("kind", util::Json::Str(KindName(metric.kind)));
    entry.Set("stable", util::Json::Bool(metric.stable));
    metrics.Append(std::move(entry));
  }
  doc.Set("metrics", std::move(metrics));
  return doc;
}

std::string BenchRecorder::OutputPath(const std::string& bench_name) {
  const char* override_path = std::getenv("DELREC_BENCH_JSON");
  if (override_path != nullptr) return override_path;
  return "BENCH_" + bench_name + ".json";
}

int BenchRecorder::Finish() {
  std::string bench_name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bench_name = bench_name_;
  }
  DELREC_CHECK(!bench_name.empty()) << "FinishBench() without BeginBench()";
  Record("total_s", run_timer_.ElapsedSeconds(), "s", MetricKind::kTime);
  // Pool counters are timing-dependent in general (benches with adaptive
  // repetition counts); they are recorded as unstable context here, and
  // benches that measure a fixed workload record their own stable counts.
  const util::BufferPool::Stats stats = util::BufferPool::Global().GetStats();
  Record("pool_hits", static_cast<double>(stats.pool_hits), "acquires",
         MetricKind::kCount);
  Record("pool_fresh_allocations", static_cast<double>(stats.fresh_allocations),
         "allocs", MetricKind::kCount);
  Record("pool_cached_bytes", static_cast<double>(stats.cached_bytes), "bytes",
         MetricKind::kCount);

  const util::Json doc = ToJson();
  const util::Status valid = ValidateSchema(doc);
  DELREC_CHECK(valid.ok()) << "bench emitted invalid JSON: "
                           << valid.ToString();

  const std::string path = OutputPath(bench_name);
  if (!path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      DELREC_LOG(Error) << "cannot write bench JSON to " << path;
      return 1;
    }
    out << doc.Dump();
    out.close();
    if (!out) {
      DELREC_LOG(Error) << "failed writing bench JSON to " << path;
      return 1;
    }
    std::printf("[bench %s] wrote %s\n", bench_name.c_str(), path.c_str());
  }

  const char* baseline_path = std::getenv("DELREC_BENCH_BASELINE");
  if (baseline_path != nullptr && *baseline_path != '\0') {
    std::ifstream in(baseline_path);
    if (!in) {
      DELREC_LOG(Error) << "cannot read bench baseline " << baseline_path;
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    util::Json baseline;
    const util::Status parsed = util::Json::Parse(text.str(), &baseline);
    if (!parsed.ok()) {
      DELREC_LOG(Error) << "bad baseline " << baseline_path << ": "
                        << parsed.ToString();
      return 1;
    }
    const util::Status compared = Compare(
        baseline, doc, kRegressionTolerance, EnvFlagSet("DELREC_BENCH_STRICT"));
    if (!compared.ok()) {
      DELREC_LOG(Error) << "perf regression vs " << baseline_path << ":\n"
                        << compared.message();
      return 1;
    }
    std::printf("[bench %s] no regression vs %s\n", bench_name.c_str(),
                baseline_path);
  }
  return 0;
}

util::Status BenchRecorder::ValidateSchema(const util::Json& doc) {
  auto invalid = [](const std::string& what) {
    return util::Status::InvalidArgument("bench JSON schema: " + what);
  };
  if (!doc.is_object()) return invalid("document is not an object");
  const util::Json* version = doc.Find("schema_version");
  if (version == nullptr || !version->is_number() || version->number() != 1) {
    return invalid("schema_version must be the number 1");
  }
  const util::Json* bench = doc.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->str().empty()) {
    return invalid("bench must be a non-empty string");
  }
  const util::Json* config = doc.Find("config");
  if (config == nullptr || !config->is_object()) {
    return invalid("config must be an object");
  }
  for (const char* key : {"threads", "fast", "kernel", "native", "isa"}) {
    if (config->Find(key) == nullptr) {
      return invalid(std::string("config.") + key + " is missing");
    }
  }
  if (!config->Find("threads")->is_number() ||
      !config->Find("kernel")->is_string() ||
      !config->Find("isa")->is_string()) {
    return invalid(
        "config.threads must be a number, config.kernel/isa strings");
  }
  const util::Json* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return invalid("metrics must be an array");
  }
  for (size_t i = 0; i < metrics->size(); ++i) {
    const util::Json& entry = metrics->at(i);
    const std::string where = "metrics[" + std::to_string(i) + "]";
    if (!entry.is_object()) return invalid(where + " is not an object");
    const util::Json* name = entry.Find("name");
    if (name == nullptr || !name->is_string() || name->str().empty()) {
      return invalid(where + ".name must be a non-empty string");
    }
    const util::Json* value = entry.Find("value");
    if (value == nullptr || (!value->is_number() && !value->is_null())) {
      return invalid(where + ".value must be a number or null");
    }
    const util::Json* unit = entry.Find("unit");
    if (unit == nullptr || !unit->is_string()) {
      return invalid(where + ".unit must be a string");
    }
    const util::Json* kind = entry.Find("kind");
    MetricKind parsed_kind;
    if (kind == nullptr || !kind->is_string() ||
        !ParseKind(kind->str(), &parsed_kind)) {
      return invalid(where +
                     ".kind must be throughput, time, count, or ratio");
    }
    const util::Json* stable = entry.Find("stable");
    if (stable == nullptr || stable->type() != util::Json::Type::kBool) {
      return invalid(where + ".stable must be a bool");
    }
  }
  return util::Status::Ok();
}

util::Status BenchRecorder::Compare(const util::Json& baseline,
                                    const util::Json& current,
                                    double tolerance, bool strict) {
  DELREC_RETURN_IF_ERROR(ValidateSchema(baseline));
  DELREC_RETURN_IF_ERROR(ValidateSchema(current));
  // Perf numbers only transfer between like-for-like runs: a baseline taken
  // on an AVX-512 box says nothing about a scalar-dispatch container, and
  // thread count scales every throughput metric. On a mismatch, skip gating
  // entirely (loudly) rather than emit false regressions.
  const util::Json* base_config = baseline.Find("config");
  const util::Json* cur_config = current.Find("config");
  const std::string base_isa = base_config->Find("isa")->str();
  const std::string cur_isa = cur_config->Find("isa")->str();
  const double base_threads = base_config->Find("threads")->number();
  const double cur_threads = cur_config->Find("threads")->number();
  if (base_isa != cur_isa || base_threads != cur_threads) {
    DELREC_LOG(Warning) << "baseline comparison skipped: baseline isa="
                        << base_isa << " threads=" << base_threads
                        << " vs current isa=" << cur_isa
                        << " threads=" << cur_threads
                        << " (not like-for-like hardware)";
    return util::Status::Ok();
  }
  const util::Json* base_metrics = baseline.Find("metrics");
  const util::Json* cur_metrics = current.Find("metrics");
  std::vector<std::string> failures;
  int gated = 0;
  for (size_t i = 0; i < base_metrics->size(); ++i) {
    const MetricView base = ViewMetric(base_metrics->at(i));
    if (!(base.stable || strict)) continue;
    const util::Json* cur_entry = nullptr;
    for (size_t j = 0; j < cur_metrics->size(); ++j) {
      if (cur_metrics->at(j).Find("name")->str() == base.name) {
        cur_entry = &cur_metrics->at(j);
        break;
      }
    }
    if (cur_entry == nullptr) {
      // A vanished stable metric means the workload silently changed; a
      // vanished timing metric under strict mode just means the bench
      // evolved, which the baseline refresh workflow handles.
      if (base.stable) {
        failures.push_back(base.name + ": stable metric missing from run");
      }
      continue;
    }
    const MetricView cur = ViewMetric(*cur_entry);
    if (!base.has_value || !cur.has_value) continue;
    ++gated;
    const bool regressed =
        HigherIsBetter(base.kind)
            ? cur.value < base.value * (1.0 - tolerance)
            : cur.value > base.value * (1.0 + tolerance);
    if (regressed) {
      std::ostringstream line;
      line << base.name << ": " << cur.value << " vs baseline " << base.value
           << " (" << (HigherIsBetter(base.kind) ? "min " : "max ")
           << (HigherIsBetter(base.kind) ? base.value * (1.0 - tolerance)
                                         : base.value * (1.0 + tolerance))
           << ")";
      failures.push_back(line.str());
    }
  }
  if (!failures.empty()) {
    std::string message = std::to_string(failures.size()) +
                          " metric(s) regressed beyond " +
                          std::to_string(static_cast<int>(tolerance * 100)) +
                          "%:";
    for (const std::string& failure : failures) message += "\n  " + failure;
    return util::Status::Internal(message);
  }
  DELREC_LOG(Info) << "baseline comparison passed (" << gated
                   << " gated metric(s), strict=" << (strict ? 1 : 0) << ")";
  return util::Status::Ok();
}

void BeginBench(const std::string& name) { BenchRecorder::Global().Begin(name); }

int FinishBench() { return BenchRecorder::Global().Finish(); }

bool GemmHasSimdTiles() {
  const std::string isa = nn::GemmKernelIsa();
  return isa == "avx512" || isa == "avx2";
}

int64_t RecordPeakRss(const std::string& name) {
  const int64_t peak = util::PeakRssBytes();
  BenchRecorder::Global().Record(name + "_bytes",
                                 static_cast<double>(peak), "bytes",
                                 MetricKind::kCount);
  return peak;
}

util::Status AssertPeakRssUnder(int64_t budget_bytes,
                                const std::string& what) {
  const int64_t peak = RecordPeakRss("peak_rss");
  BenchRecorder::Global().Record("rss_budget_bytes",
                                 static_cast<double>(budget_bytes), "bytes",
                                 MetricKind::kCount);
  BenchRecorder::Global().Record(
      "rss_within_budget", peak <= budget_bytes ? 1.0 : 0.0, "bool",
      MetricKind::kRatio, /*stable=*/true);
  if (peak > budget_bytes) {
    return util::Status::Internal(
        what + ": peak RSS " + std::to_string(peak) + " bytes exceeds the " +
        std::to_string(budget_bytes) + "-byte budget");
  }
  return util::Status::Ok();
}

ScopedPhaseTimer::ScopedPhaseTimer(std::string name)
    : name_(std::move(name)) {}

ScopedPhaseTimer::~ScopedPhaseTimer() {
  BenchRecorder::Global().Accumulate(name_ + "_s", timer_.ElapsedSeconds(),
                                     "s", MetricKind::kTime);
}

HarnessOptions OptionsFromEnv() {
  HarnessOptions options;
  // Candidate sampling stays on one serial util::Rng stream however many
  // threads score, so every bench table is bit-identical to its serial run.
  options.num_threads = util::InitParallelismFromEnv();
  const char* fast = std::getenv("DELREC_FAST");
  if (fast != nullptr && std::string(fast) != "0") {
    options.fast = true;
    options.eval_examples = 100;
    options.pretrain_epochs = 2;
    options.stage1_examples = 80;
    options.stage1_epochs = 1;
    options.stage2_examples = 150;
    options.stage2_epochs = 2;
    options.baseline_examples = 120;
    options.baseline_epochs = 1;
    options.sr_epochs = 3;
  }
  return options;
}

DatasetHarness::DatasetHarness(const data::GeneratorConfig& config,
                               const HarnessOptions& options)
    : config_(config), options_(options) {
  core::Workbench::Options workbench_options;
  workbench_options.pretrain_epochs = options.pretrain_epochs;
  workbench_ = std::make_unique<core::Workbench>(config, workbench_options);
}

srmodels::SequentialRecommender* DatasetHarness::Backbone(
    srmodels::Backbone backbone) {
  auto it = backbones_.find(backbone);
  if (it != backbones_.end()) return it->second.get();
  auto model = srmodels::MakeBackbone(backbone, num_items(),
                                      /*history_length=*/10, /*seed=*/5);
  util::WallTimer timer;
  const util::Status trained =
      model->Train(workbench_->splits().train, SrTrainConfig(backbone));
  DELREC_CHECK(trained.ok()) << trained.ToString();
  BenchRecorder::Global().Accumulate("backbone_train_s",
                                     timer.ElapsedSeconds(), "s",
                                     MetricKind::kTime);
  return backbones_.emplace(backbone, std::move(model))
      .first->second.get();
}

std::unique_ptr<llm::TinyLm> DatasetHarness::Llm(core::LlmSize size) {
  return workbench_->MakePretrainedLlm(size);
}

eval::MetricsAccumulator DatasetHarness::Evaluate(
    const eval::CandidateScorer& scorer) const {
  eval::EvalConfig config;
  config.max_examples = options_.eval_examples;
  config.num_threads = options_.num_threads;
  util::WallTimer timer;
  eval::MetricsAccumulator accumulator = eval::EvaluateCandidates(
      workbench_->splits().test, num_items(), scorer, config);
  BenchRecorder& recorder = BenchRecorder::Global();
  recorder.Accumulate("eval_s", timer.ElapsedSeconds(), "s",
                      MetricKind::kTime);
  recorder.Accumulate("eval_examples",
                      static_cast<double>(accumulator.hit_at_1_samples().size()),
                      "examples", MetricKind::kCount);
  return accumulator;
}

eval::MetricsAccumulator DatasetHarness::EvaluateRecommender(
    const srmodels::SequentialRecommender& model) const {
  return Evaluate([&](const data::Example& example,
                      const std::vector<int64_t>& candidates) {
    return model.ScoreCandidates(example.history, candidates);
  });
}

eval::MetricsAccumulator DatasetHarness::EvaluateLlmBaseline(
    const baselines::LlmRecommender& model) const {
  return Evaluate([&](const data::Example& example,
                      const std::vector<int64_t>& candidates) {
    return model.ScoreCandidates(example, candidates);
  });
}

eval::MetricsAccumulator DatasetHarness::EvaluateDelRec(
    const core::DelRec& model) const {
  return Evaluate([&](const data::Example& example,
                      const std::vector<int64_t>& candidates) {
    return model.ScoreCandidates(example, candidates);
  });
}

core::DelRecConfig DatasetHarness::DelRecDefaults() const {
  core::DelRecConfig config;
  // α = 4 for MovieLens-100K and Beauty, 6 for Steam and Home & Kitchen
  // (paper §V-A3); other datasets default to 4.
  config.icl_alpha =
      (config_.name == "Steam" || config_.name == "Home & Kitchen") ? 6 : 4;
  config.stage1_max_examples = options_.stage1_examples;
  config.stage1_epochs = options_.stage1_epochs;
  config.stage2_max_examples = options_.stage2_examples;
  config.stage2_epochs = options_.stage2_epochs;
  return config;
}

baselines::LlmRecConfig DatasetHarness::BaselineDefaults() const {
  baselines::LlmRecConfig config;
  config.max_examples = options_.baseline_examples;
  config.epochs = options_.baseline_epochs;
  return config;
}

srmodels::TrainConfig DatasetHarness::SrTrainConfig(
    srmodels::Backbone backbone) const {
  srmodels::TrainConfig config = srmodels::BackboneTrainConfig(backbone);
  config.epochs = options_.sr_epochs;
  return config;
}

DatasetHarness::TrainedDelRec DatasetHarness::TrainDelRec(
    srmodels::Backbone backbone, const core::DelRecConfig& config) {
  TrainedDelRec result;
  result.llm = Llm(core::LlmSize::kXL);
  result.model = std::make_unique<core::DelRec>(
      &workbench_->dataset().catalog, &workbench_->vocab(), result.llm.get(),
      Backbone(backbone), config);
  // Train() is exactly DistillPattern() followed by FineTune(); calling the
  // stages directly lets the recorder attribute wall-clock per stage.
  util::WallTimer timer;
  const util::Status distilled =
      result.model->DistillPattern(workbench_->splits().train);
  DELREC_CHECK(distilled.ok()) << distilled.ToString();
  BenchRecorder::Global().Accumulate("stage1_distill_s",
                                     timer.ElapsedSeconds(), "s",
                                     MetricKind::kTime);
  timer.Restart();
  const util::Status tuned = result.model->FineTune(workbench_->splits().train);
  DELREC_CHECK(tuned.ok()) << tuned.ToString();
  BenchRecorder::Global().Accumulate("stage2_finetune_s",
                                     timer.ElapsedSeconds(), "s",
                                     MetricKind::kTime);
  return result;
}

std::vector<std::string> SignificanceSuffixes(
    const eval::MetricsAccumulator& method,
    const eval::MetricsAccumulator& reference) {
  // Paired t-test over per-example HR@1 and NDCG@10 samples; the paper
  // attaches stars per column, we derive HR columns from the HR@1 pairing
  // and NDCG columns from the NDCG@10 pairing.
  const auto hr = eval::PairedTTest(method.hit_at_1_samples(),
                                    reference.hit_at_1_samples());
  const auto ndcg = eval::PairedTTest(method.ndcg_at_10_samples(),
                                      reference.ndcg_at_10_samples());
  // Stars mark significant *improvements* only (positive mean difference).
  const std::string hr_stars =
      hr.t_statistic > 0 ? eval::SignificanceStars(hr.p_value) : "";
  const std::string ndcg_stars =
      ndcg.t_statistic > 0 ? eval::SignificanceStars(ndcg.p_value) : "";
  // Column order: HR@1, HR@5, NDCG@5, HR@10, NDCG@10.
  return {hr_stars, hr_stars, ndcg_stars, hr_stars, ndcg_stars};
}

}  // namespace delrec::bench
