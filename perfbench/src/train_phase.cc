#include "train_phase.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "ckpt/checkpoint.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/config.h"
#include "data/store/checkin_store.h"
#include "data/store/mmap_corpus.h"
#include "data/store/store_writer.h"
#include "data/synthetic_generator.h"
#include "pipeline/engine.h"
#include "pipeline/standard_stages.h"
#include "traced_stages.h"

namespace perfbench {
namespace {

/// Users at the end of the paper corpus held out for HR@10.
constexpr int32_t kHoldoutUsers = 600;
/// Users generated for the small city; half are held out.
constexpr int32_t kSmallCityUsers = 6000;

TrainInputs BuildPaperPlpd(uint64_t seed, const std::string& dir) {
  auto writer = plp::data::store::CheckInStoreWriter::Create(dir);
  PLP_CHECK_OK(writer.status());
  plp::Rng rng(seed);
  PLP_CHECK_OK(plp::data::GenerateSyntheticCheckInsToStore(
      plp::data::PaperSyntheticConfig(), rng, **writer));
  PLP_CHECK_OK((*writer)->Finish());
  auto store = plp::data::store::CheckInStore::Open(dir);
  PLP_CHECK_OK(store.status());
  const int32_t n = (*store)->num_users();
  PLP_CHECK_GT(n, 2 * kHoldoutUsers);

  TrainInputs inputs;
  inputs.corpus = std::make_shared<plp::data::store::MmapCorpus>(
      *store, 0, n - kHoldoutUsers);
  for (int32_t u = n - kHoldoutUsers; u < n; ++u) {
    const auto user = (*store)->User(u);
    plp::eval::AppendLeaveOneOutExamples(user.locations, user.timestamps,
                                         inputs.holdout);
  }
  return inputs;
}

TrainInputs BuildSmallCity(uint64_t seed) {
  // The repository's down-scaled city (data::MakeFixtureDataset "small":
  // 600 POIs, ~25 check-ins per user) with more users, so that half of
  // them can be held out and HR@10 rests on ~20k leave-one-out examples.
  plp::data::SyntheticConfig config = plp::data::SmallSyntheticConfig();
  config.num_users = kSmallCityUsers;
  config.num_locations = 600;
  config.log_checkins_mean = 3.2;
  config.log_checkins_stddev = 0.6;
  plp::Rng rng(seed);
  auto dataset = plp::data::GenerateSyntheticCheckIns(config, rng);
  PLP_CHECK_OK(dataset.status());
  const plp::data::CheckInDataset filtered = dataset->Filter(10, 2);
  auto split = filtered.SplitHoldout(filtered.num_users() / 2, rng);
  PLP_CHECK_OK(split.status());
  auto corpus = plp::data::BuildCorpus(split->first);
  PLP_CHECK_OK(corpus.status());
  TrainInputs inputs;
  inputs.corpus =
      std::make_shared<plp::data::TrainingCorpus>(std::move(corpus).value());
  inputs.holdout = plp::eval::BuildLeaveOneOutExamples(split->second);
  return inputs;
}

uint64_t ModelCrc64(const plp::sgns::SgnsModel& model) {
  uint64_t state = plp::Crc64Init();
  for (const plp::sgns::Tensor t :
       {plp::sgns::Tensor::kWIn, plp::sgns::Tensor::kWOut,
        plp::sgns::Tensor::kBias}) {
    const auto data = model.TensorData(t);
    state = plp::Crc64Update(
        state, std::string_view(reinterpret_cast<const char*>(data.data()),
                                data.size_bytes()));
  }
  return plp::Crc64Finish(state);
}

plp::core::PlpConfig MakeConfig(const TrainSpec& spec) {
  plp::core::PlpConfig config;  // paper defaults: q, σ, C, λ, d, negatives
  config.num_threads = kTrainThreads;
  config.max_steps = spec.steps;
  // Runs are bounded by steps, never by the budget.
  config.epsilon_budget = 1e9;
  if (spec.corpus == CorpusKind::kSmallCity) {
    // The server-Adam rate the repository's benches use on the small city
    // (inside the paper's tested range [0.02, 0.07]).
    config.adam.learning_rate = 0.03;
  }
  PLP_CHECK_OK(config.Validate());
  return config;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Per-step main-thread timeline of one traced run.
struct StepTimes {
  int64_t begin_ns = -1;  ///< TrackRound start
  int64_t end_ns = -1;    ///< step callback
  int64_t group_end_ns = -1;
  int64_t reduce_start_ns = -1;
  int64_t main_stage_ns = 0;  ///< track + sample + group + reduce + noise + apply
};

MetricMap DeriveLayerMetrics(const std::vector<Span>& spans,
                             int32_t threads, double train_wall_s) {
  struct Total {
    int64_t ns = 0;
    int64_t calls = 0;
    int64_t count = 0;
  };
  std::map<std::string_view, Total> totals;
  std::map<int64_t, StepTimes> steps;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    const int64_t duration = span.end_ns - span.start_ns;
    Total& total = totals[name];
    total.ns += duration;
    total.calls += 1;
    total.count += span.count;
    if (span.step <= 0) continue;
    StepTimes& step = steps[span.step];
    if (name == "privacy.track_round") {
      step.begin_ns = span.start_ns;
    } else if (name == "step.end") {
      step.end_ns = span.end_ns;
      continue;
    } else if (name == "core.group") {
      step.group_end_ns = span.end_ns;
    } else if (name == "pipeline.reduce") {
      step.reduce_start_ns = span.start_ns;
    }
    if (name == "privacy.track_round" || name == "core.sample" ||
        name == "core.group" || name == "pipeline.reduce" ||
        name == "pipeline.noise" || name == "optim.apply") {
      step.main_stage_ns += duration;
    }
  }

  int64_t step_wall_ns = 0;
  int64_t fanout_ns = 0;
  int64_t other_ns = 0;
  for (const auto& [id, step] : steps) {
    PLP_CHECK(step.begin_ns >= 0 && step.end_ns >= step.begin_ns &&
              step.reduce_start_ns >= step.group_end_ns);
    const int64_t wall = step.end_ns - step.begin_ns;
    const int64_t fanout = step.reduce_start_ns - step.group_end_ns;
    step_wall_ns += wall;
    fanout_ns += fanout;
    other_ns += wall - step.main_stage_ns - fanout;
  }
  const double num_steps = static_cast<double>(std::max<size_t>(steps.size(), 1));
  auto secs = [&](const char* name) { return Seconds(totals[name].ns); };
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const Total& local = totals["sgns.local_update"];
  const Total& clip = totals["sgns.clip"];
  const Total& noise = totals["pipeline.noise"];
  const Total& apply = totals["optim.apply"];
  const double fanout_s = Seconds(fanout_ns);

  MetricMap m;
  m["sgns.local_update_s"] = {secs("sgns.local_update"), "s"};
  m["sgns.local_update_ms_per_bucket"] = {
      per(1e3 * Seconds(local.ns), static_cast<double>(local.calls)), "ms"};
  m["pipeline.fanout_wall_s"] = {fanout_s, "s"};
  m["pipeline.fanout_busy_frac"] = {
      per(Seconds(local.ns + clip.ns), fanout_s * threads), "frac"};
  m["pipeline.reduce_s"] = {secs("pipeline.reduce"), "s"};
  m["pipeline.noise_s"] = {Seconds(noise.ns), "s"};
  m["pipeline.noise_ns_per_coord"] = {
      per(static_cast<double>(noise.ns), static_cast<double>(noise.count)),
      "ns"};
  m["optim.apply_s"] = {Seconds(apply.ns), "s"};
  m["optim.apply_ns_per_param"] = {
      per(static_cast<double>(apply.ns), static_cast<double>(apply.count)),
      "ns"};
  m["pipeline.engine_other_s"] = {Seconds(other_ns), "s"};
  m["pipeline.step_wall_s"] = {Seconds(step_wall_ns), "s"};
  m["pipeline.step_coverage_frac"] = {per(Seconds(step_wall_ns), train_wall_s),
                                      "frac"};
  m["data.read_s"] = {secs("data.read"), "s"};
  m["data.tokens_read"] = {static_cast<double>(totals["data.read"].count),
                           "count"};
  m["core.sample_s"] = {secs("core.sample"), "s"};
  m["core.group_s"] = {secs("core.group"), "s"};
  m["core.users_per_step"] = {
      static_cast<double>(totals["core.sample"].count) / num_steps, "count"};
  m["core.buckets_per_step"] = {
      static_cast<double>(totals["core.group"].count) / num_steps, "count"};
  m["pipeline.delta_entries_per_step"] = {
      static_cast<double>(totals["pipeline.reduce"].count) / num_steps,
      "count"};
  const Total& track = totals["privacy.track_round"];
  m["privacy.track_round_us"] = {
      per(1e-3 * static_cast<double>(track.ns),
          static_cast<double>(track.calls)),
      "us"};
  m["sgns.clip_s"] = {Seconds(clip.ns), "s"};
  m["sgns.clip_engaged_frac"] = {
      per(static_cast<double>(clip.count), static_cast<double>(clip.calls)),
      "frac"};
  return m;
}

}  // namespace

TrainInputs BuildTrainInputs(const TrainSpec& spec, uint64_t seed,
                             const std::string& dir) {
  TrainInputs inputs = spec.corpus == CorpusKind::kPaperPlpd
                           ? BuildPaperPlpd(seed, dir)
                           : BuildSmallCity(seed);
  PLP_CHECK(!inputs.holdout.empty());
  return inputs;
}

TrainOutcome RunTraining(const TrainSpec& spec, const TrainInputs& inputs,
                         uint64_t seed, bool traced,
                         std::chrono::milliseconds noise_delay) {
  const plp::core::PlpConfig config = MakeConfig(spec);
  plp::pipeline::StageSet stages = plp::pipeline::MakePrivateStages(config);
  if (noise_delay.count() > 0) {
    stages = DelayNoiseStage(std::move(stages), noise_delay);
  }

  std::unique_ptr<TrainTrace> trace;
  std::unique_ptr<TracedCorpus> traced_corpus;
  const plp::data::CorpusView* corpus = inputs.corpus.get();
  if (traced) {
    trace = std::make_unique<TrainTrace>();
    stages = TraceStages(std::move(stages), *trace);
    traced_corpus = std::make_unique<TracedCorpus>(*inputs.corpus, *trace);
    corpus = traced_corpus.get();
  }
  std::vector<int64_t> step_end_ns;
  step_end_ns.reserve(static_cast<size_t>(spec.steps));
  const plp::core::StepCallback on_step =
      [&](const plp::core::StepMetrics&, const plp::sgns::SgnsModel&) {
        step_end_ns.push_back(NowNs());
        if (trace != nullptr) trace->Record("step.end", step_end_ns.back(), 0);
        return true;
      };

  plp::pipeline::TrainingEngine engine(
      plp::pipeline::MakePrivateEngineConfig(config), std::move(stages));
  plp::Rng rng(seed);
  const int64_t start = NowNs();
  auto result = engine.Train(*corpus, rng, on_step, plp::ckpt::CheckpointOptions{});
  const int64_t end = NowNs();
  PLP_CHECK_OK(result.status());
  PLP_CHECK_EQ(result->steps_executed, spec.steps);

  TrainOutcome outcome;
  outcome.wall_s = Seconds(end - start);
  std::vector<double> step_s;
  int64_t previous = start;
  for (const int64_t step_end : step_end_ns) {
    step_s.push_back(Seconds(step_end - previous));
    previous = step_end;
  }
  outcome.fast_step_s = Quantile(std::move(step_s), 0.25);
  outcome.steps = result->steps_executed;
  outcome.epsilon = result->epsilon_spent;
  outcome.model_crc64 = ModelCrc64(result->model);
  auto hit_rate =
      plp::eval::EvaluateHitRate(result->model, inputs.holdout, {10});
  PLP_CHECK_OK(hit_rate.status());
  outcome.hr10 = hit_rate->at(10);
  if (trace != nullptr) {
    outcome.layers =
        DeriveLayerMetrics(trace->tracer.Collect(), kTrainThreads, outcome.wall_s);
  }
  return outcome;
}

}  // namespace perfbench
