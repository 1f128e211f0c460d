// plp_perfbench — the measurement engine behind perfbench/run.py.
//
//   plp_perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//   plp_perfbench --selftest --seed N --dir DIR
//
// Every workload runs the system's whole loop — train → publish → serve —
// and differs in the input each stage gets and in where the run spends
// its time (see perfbench/NOTES.md). Set-up is repeated kSetupReps times
// and its median reported. With --trace 1 the training run is repeated
// with every pipeline stage wrapped in a span-recording decorator, and
// the serve and publish layers are timed by direct calls; the per-layer
// metrics come from there, the end-to-end ones from the untraced run.
//
// The last stdout line is one JSON object: host and run facts, the
// correctness verdict, attempted/failed counts, and every metric with its
// unit. Scratch files go under --dir, which the caller owns and removes.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/resource_usage.h"
#include "host_facts.h"
#include "publish_phase.h"
#include "serve/model_snapshot.h"
#include "serve_phase.h"
#include "trace.h"
#include "train_phase.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 3;
// The capacity ladder's latency limit is on p90, and generous: on the
// shared 4-core VM this benchmark was tuned on, a spinning thread loses
// 1.4-2.4% of its time to preemption gaps of up to 10 ms, so any p99
// measures the host, and bursts of host noise lasting tens of seconds lift
// p90 to 1-4 ms at any rate. Past the tier's knee p90 jumps to 10-50 ms.
constexpr double kP90LimitUs = 5000.0;
// Open-loop statistics are medians over windows of this length.
constexpr double kWindowSeconds = 0.25;
constexpr int32_t kRecallSamples = 200;
constexpr int32_t kReplayRequests = 2000;
constexpr int kPublishReplayReps = 3;

struct Workload {
  const char* name;
  TrainSpec train;
};

constexpr Workload kWorkloads[] = {
    {"train_paper", {CorpusKind::kPaperPlpd, 20}},
    // The small city's steps take ~45 ms; 150 of them span ~7 s, as the
    // paper city's 20 do, so a burst of host noise covers a smaller share.
    {"serve_read_only", {CorpusKind::kSmallCity, 150}},
};

constexpr int kIdlePublishCycles = 5;
constexpr double kReferenceQps = 6000.0;
// Shares of --seconds for the reference-rate segment, and for each ladder
// rung and the synchronous-request segment.
constexpr double kReferenceShare = 0.15;
constexpr double kRungShare = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool selftest = false;
  std::string dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--selftest") {
      PLP_CHECK(i + 1 < argc);
      value = argv[++i];
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--selftest") {
      args.selftest = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      std::exit(2);
    }
  }
  if (args.dir.empty() || args.seconds <= 0.0) {
    std::fprintf(stderr, "--dir and a positive --seconds are required\n");
    std::exit(2);
  }
  return args;
}

/// Everything a run builds before it measures. Built kSetupReps times.
struct Setup {
  TrainInputs train;
  TierSpec tier;
  std::array<plp::sgns::SgnsModel, 2> models;
  std::array<std::shared_ptr<const plp::serve::ModelSnapshot>, 2> references;
  std::unique_ptr<plp::serve::ShardedServingEngine> engine;
  std::unique_ptr<PublishLoop> publish;
};

std::unique_ptr<Setup> BuildSetup(const Workload& workload, uint64_t seed,
                                  const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto setup = std::make_unique<Setup>();
  setup->train =
      BuildTrainInputs(workload.train, seed, (dir / "corpus").string());
  for (size_t i = 0; i < 2; ++i) {
    setup->models[i] = MakeClusteredModel(setup->tier, seed * 2 + i);
    auto reference = plp::serve::ModelSnapshot::FromModel(setup->models[i], 0);
    PLP_CHECK_OK(reference.status());
    setup->references[i] = std::move(reference).value();
  }
  setup->engine = MakeEngine(setup->tier);
  setup->publish = std::make_unique<PublishLoop>(
      (dir / "publish").string(),
      std::array<const plp::sgns::SgnsModel*, 2>{&setup->models[0],
                                                  &setup->models[1]},
      setup->engine.get());
  // The first supervised cycle brings the fleet up on a validated model.
  setup->publish->RunCycle(/*epsilon=*/0.0, /*steps=*/0);
  PLP_CHECK_EQ(setup->publish->failed(), 0);
  WarmSessions(*setup->engine, setup->tier, seed + 17);
  return setup;
}

/// Makes the peak-RSS reading cover only what follows by resetting the
/// kernel's high-water mark (VmHWM).
void StartPeakRssWindow() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak RSS since StartPeakRssWindow (VmHWM), or over the whole process
/// where /proc does not provide it.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return static_cast<double>(plp::PeakRssBytes()) / (1024.0 * 1024.0);
}

void AddMetric(MetricMap& metrics, const std::string& name, double value,
               const std::string& unit) {
  metrics[name] = {value, unit};
}

std::string MetricsJson(const MetricMap& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out << ", ";
    first = false;
    out << JsonString(name) << ": {\"value\": "
        << (std::isfinite(metric.value) ? metric.value : -1.0)
        << ", \"unit\": " << JsonString(metric.unit) << "}";
  }
  out << "}";
  return out.str();
}

int RunWorkload(const Workload& workload, const Args& args) {
  const fs::path dir = args.dir;
  MetricMap metrics;
  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;

  // ---- set-up, repeated; the last instance is measured ----------------
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    if (rep + 1 == kSetupReps) StartPeakRssWindow();
    const int64_t start = NowNs();
    setup = BuildSetup(workload, args.seed, dir / ("setup" + std::to_string(rep)));
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  AddMetric(metrics, "setup_s", Median(setup_s), "s");
  const TierSpec& tier = setup->tier;

  // ---- train -----------------------------------------------------------
  const TrainOutcome trained =
      RunTraining(workload.train, setup->train, args.seed, /*traced=*/false);
  attempted += trained.steps;
  AddMetric(metrics, "train_steps_per_s", 1.0 / trained.fast_step_s, "1/s");
  AddMetric(metrics, "hr10", trained.hr10, "frac");
  AddMetric(metrics, "epsilon", trained.epsilon, "eps");
  if (!(trained.hr10 > 0.0) || !(trained.epsilon > 0.0) ||
      !std::isfinite(trained.epsilon)) {
    problems.push_back("training produced no HR@10 or no finite epsilon");
  }
  if (args.trace) {
    const TrainOutcome traced =
        RunTraining(workload.train, setup->train, args.seed, /*traced=*/true);
    if (traced.model_crc64 != trained.model_crc64 ||
        traced.epsilon != trained.epsilon || traced.hr10 != trained.hr10) {
      problems.push_back("traced training diverged from the untraced run");
    }
    for (const auto& [name, metric] : traced.layers) metrics[name] = metric;
    AddMetric(metrics, "trace_overhead_frac",
              traced.fast_step_s / trained.fast_step_s - 1.0, "frac");
  }

  // ---- publish, then serve ---------------------------------------------
  PublishLoop& publish = *setup->publish;
  const size_t setup_cycles = publish.cycle_ms().size();
  for (int c = 0; c < kIdlePublishCycles; ++c) {
    publish.RunCycle(trained.epsilon, trained.steps);
  }
  const SyncResult sync = RunSyncRequests(
      *setup->engine, tier, kRungShare * args.seconds, args.seed + 404);
  const OpenLoopResult reference = RunOpenLoop(
      *setup->engine, tier, kReferenceQps, kReferenceShare * args.seconds,
      kWindowSeconds, kP90LimitUs, args.seed + 101);
  const LadderResult ladder = RunLadder(
      *setup->engine, tier, 2.0 * kReferenceQps, /*factor=*/1.25,
      kRungShare * args.seconds, kWindowSeconds, kP90LimitUs,
      args.seed + 202);

  const std::vector<double> cycles(publish.cycle_ms().begin() + setup_cycles,
                                   publish.cycle_ms().end());
  AddMetric(metrics, "publish_cycle_ms", Quantile(cycles, 0.25), "ms");
  attempted += publish.attempted();
  failed += publish.failed();
  if (cycles.empty()) problems.push_back("no publish cycle ran");
  if (std::string why = publish.CheckInvariants(); !why.empty()) {
    problems.push_back(why);
  }

  AddMetric(metrics, "serve_request_us", sync.p50_us, "us");
  attempted += sync.sent;
  failed += sync.failed;
  AddMetric(metrics, "serve_p50_us", reference.p50_us, "us");
  AddMetric(metrics, "serve_p90_us", reference.p90_us, "us");
  AddMetric(metrics, "serve_p99_us", reference.p99_us, "us");
  AddMetric(metrics, "serve_ok_frac",
            static_cast<double>(reference.ok) /
                static_cast<double>(std::max<int64_t>(reference.sent, 1)),
            "frac");
  AddMetric(metrics, "serve_capacity_qps", ladder.capacity_qps, "1/s");
  attempted += reference.sent;
  failed += reference.shed + reference.errors;
  if (ladder.capacity_qps <= 0.0) {
    problems.push_back("no ladder rung met the latency limit");
  }

  // Served answers against the exact f32 reference of the served model.
  const int serving = publish.serving_model();
  PLP_CHECK(serving >= 0);
  int64_t sample_failed = 0;
  const double recall =
      ServedRecall(*setup->engine, *setup->references[serving], tier,
                   args.seed + 303, kRecallSamples, sample_failed);
  attempted += kRecallSamples;
  failed += sample_failed;
  if (recall < 0.99) {
    problems.push_back("served recall@10 " + std::to_string(recall) +
                       " below 0.99");
  }

  if (args.trace) {
    AddMetric(metrics, "serve.sent", static_cast<double>(reference.sent), "count");
    AddMetric(metrics, "serve.ok", static_cast<double>(reference.ok), "count");
    AddMetric(metrics, "serve.shed", static_cast<double>(reference.shed), "count");
    AddMetric(metrics, "serve.errors", static_cast<double>(reference.errors),
              "count");
    AddMetric(metrics, "serve.backlog_grew", reference.backlog_grew() ? 1 : 0,
              "count");
    AddMetric(metrics, "loadgen.late_us_p50", reference.late_p50_us, "us");
    AddMetric(metrics, "loadgen.late_us_p99", reference.late_p99_us, "us");
    AddMetric(metrics, "serve.served_recall10", recall, "frac");
    const auto served = setup->engine->shard(0).registry().Current();
    PLP_CHECK(served != nullptr);
    ReplayRequestPath(*served, *setup->references[serving], tier,
                      args.seed + 17, kReplayRequests, metrics);
    ReplayPublishPath((dir / "replay").string(), setup->models[serving],
                      *setup->engine, kPublishReplayReps, metrics);
  }
  AddMetric(metrics, "peak_rss_mib", PeakRssMib(), "MiB");

  for (const std::string& problem : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"train_threads\": %d, \"shards\": %d, \"workers_per_shard\": 1, %s, "
      "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      JsonString(workload.name).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kTrainThreads, tier.shards,
      HostFactsJson(args.dir).c_str(), problems.empty() ? "true" : "false",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      MetricsJson(metrics).c_str());
  return 0;
}

/// A fixed delay injected into the noise stage must show up in
/// pipeline.noise_s and in training throughput, and in no other layer row:
/// no other row may move by a tenth of the injected time.
int RunSelfTest(const Args& args) {
  const TrainSpec spec{CorpusKind::kSmallCity, 10};
  const auto delay = std::chrono::milliseconds(200);
  const TrainInputs inputs = BuildTrainInputs(
      spec, args.seed, (fs::path(args.dir) / "corpus").string());
  RunTraining(spec, inputs, args.seed, false);  // warm-up, untimed
  const TrainOutcome base = RunTraining(spec, inputs, args.seed, true);
  const TrainOutcome slow = RunTraining(spec, inputs, args.seed, true, delay);
  const double injected = static_cast<double>(spec.steps) *
                          std::chrono::duration<double>(delay).count();

  bool ok = true;
  auto row = [&](const std::string& name, double before, double after,
                 bool pass) {
    ok = ok && pass;
    std::printf("%-32s %10.4f -> %10.4f  %s\n", name.c_str(), before, after,
                pass ? "ok" : "FAIL");
  };
  std::printf("self-test: %.3f s injected into the noise stage\n", injected);
  const double steps_before = 1.0 / base.fast_step_s;
  const double steps_after = 1.0 / slow.fast_step_s;
  row("train_steps_per_s", steps_before, steps_after,
      steps_after < 0.8 * steps_before);
  for (const char* name :
       {"pipeline.noise_s", "sgns.local_update_s", "pipeline.fanout_wall_s",
        "pipeline.reduce_s", "optim.apply_s", "pipeline.engine_other_s",
        "data.read_s", "core.sample_s", "core.group_s", "sgns.clip_s"}) {
    const double before = base.layers.at(name).value;
    const double after = slow.layers.at(name).value;
    const bool pass = std::string(name) == "pipeline.noise_s"
                          ? after - before >= 0.8 * injected
                          : std::abs(after - before) < 0.1 * injected;
    row(name, before, after, pass);
  }
  const double steps = static_cast<double>(spec.steps);
  const double track_before =
      base.layers.at("privacy.track_round_us").value * 1e-6 * steps;
  const double track_after =
      slow.layers.at("privacy.track_round_us").value * 1e-6 * steps;
  row("privacy.track_round (s)", track_before, track_after,
      std::abs(track_after - track_before) < 0.1 * injected);
  const bool same_bits = base.model_crc64 == slow.model_crc64 &&
                         base.epsilon == slow.epsilon;
  std::printf("same model bits and epsilon: %s\n", same_bits ? "yes" : "NO");
  ok = ok && same_bits;
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.selftest) return RunSelfTest(args);
  for (const Workload& workload : kWorkloads) {
    if (args.workload == workload.name) return RunWorkload(workload, args);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
