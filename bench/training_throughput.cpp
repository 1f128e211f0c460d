// training_throughput — load generator for the parallel training-step
// engine (PlpTrainer + the deterministic dense-phase ops).
//
//   training_throughput [--users=2000] [--locations=2000] [--dim=50]
//                       [--steps=20] [--threads=8] [--q=0.06] [--lambda=4]
//                       [--seed=42] [--reps=5] [--json=BENCH_training.json]
//                       [--min_steps_per_sec=0] [--skip_baseline=false]
//
// Runs Algorithm 1 at the paper's default hyper-parameters over a
// synthetic corpus, --reps times each: single-threaded (the pre-parallel
// baseline path) and with --threads workers, the two interleaved so slow
// drift on a shared host hits both alike. Reports the median and min/max
// over the repetitions of steps/sec for both, the parallel speedup, and
// the per-phase wall-clock breakdown of the multi-threaded run
// (accounting, sampling/grouping, local SGD, reduction, noise, server
// apply) — so a regression in one stage can't hide inside the aggregate.
// The determinism contract means every run produces the same model bits;
// this bench only measures time.
//
// Results print as a table and are written as JSON (--json), with the
// host facts (core count, CPU, build type, compiler), so CI can archive
// BENCH_training.json next to BENCH_serving.json. A positive
// --min_steps_per_sec turns the bench into a smoke gate: exit 1 when the
// multi-threaded median is slower than the floor.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/config.h"
#include "core/plp_trainer.h"
#include "data/fixtures.h"

namespace {

struct RunResult {
  double steps_per_sec = 0.0;
  plp::core::TrainPhaseSeconds phases;
};

RunResult RunTrainer(const plp::data::TrainingCorpus& corpus,
                     plp::core::PlpConfig config, int32_t threads,
                     int64_t steps, uint64_t seed) {
  config.num_threads = threads;
  config.max_steps = steps;
  plp::core::PlpTrainer trainer(config);
  plp::Rng rng(seed);
  auto result = trainer.Train(corpus, rng);
  PLP_CHECK_OK(result.status());
  PLP_CHECK_EQ(result->steps_executed, steps);
  RunResult run;
  run.steps_per_sec =
      static_cast<double>(result->steps_executed) / result->wall_seconds;
  run.phases = result->phase_seconds;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = plp::FlagParser::Parse(argc, argv);
  PLP_CHECK_OK(flags_or.status());
  const plp::FlagParser& flags = flags_or.value();

  const int32_t users = static_cast<int32_t>(flags.GetInt("users", 2000));
  const int32_t locations =
      static_cast<int32_t>(flags.GetInt("locations", 2000));
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 50));
  const int64_t steps = flags.GetInt("steps", 20);
  const int32_t threads = static_cast<int32_t>(flags.GetInt("threads", 8));
  const double q = flags.GetDouble("q", 0.06);
  const int32_t lambda = static_cast<int32_t>(flags.GetInt("lambda", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path =
      flags.GetString("json", "BENCH_training.json");
  const double min_steps_per_sec = flags.GetDouble("min_steps_per_sec", 0.0);
  const bool skip_baseline = flags.GetBool("skip_baseline", false);
  const int64_t reps = flags.GetInt("reps", 5);

  std::printf("training_throughput: users=%d L=%d dim=%d steps=%lld "
              "threads=%d q=%.3f lambda=%d reps=%lld\n",
              users, locations, dim, static_cast<long long>(steps), threads,
              q, lambda, static_cast<long long>(reps));

  plp::data::FixtureCorpusOptions corpus_options;
  corpus_options.num_users = users;
  corpus_options.num_locations = locations;
  corpus_options.min_tokens_per_user = 10;
  corpus_options.max_tokens_per_user = 30;
  corpus_options.neighborhood = 8;  // learnable co-visitation structure
  const plp::data::TrainingCorpus corpus =
      plp::data::MakeFixtureCorpus(seed, corpus_options);

  // Paper defaults (Section 5 / config.h) with an effectively unlimited
  // budget so the run is bounded by --steps, not ε.
  plp::core::PlpConfig config;
  config.sgns.embedding_dim = dim;
  config.sampling_probability = q;
  config.grouping_factor = lambda;
  config.epsilon_budget = 1e9;

  PLP_CHECK_GE(reps, 1);
  std::vector<RunResult> singles;
  std::vector<RunResult> multis;
  for (int64_t rep = 0; rep < reps; ++rep) {
    if (!skip_baseline) {
      singles.push_back(RunTrainer(corpus, config, /*threads=*/1, steps, seed));
    }
    multis.push_back(RunTrainer(corpus, config, threads, steps, seed));
  }

  // Median and range over the repetitions of one per-run figure.
  using Field = std::function<double(const RunResult&)>;
  auto spread = [](const std::vector<RunResult>& runs, const Field& field) {
    std::vector<double> values;
    for (const RunResult& run : runs) values.push_back(field(run));
    return plp::bench::Summarize(std::move(values));
  };
  const Field steps_per_sec = [](const RunResult& r) {
    return r.steps_per_sec;
  };
  const plp::bench::Spread multi_sps = spread(multis, steps_per_sec);
  plp::bench::Spread single_sps;
  plp::bench::Spread speedup;
  if (!skip_baseline) {
    single_sps = spread(singles, steps_per_sec);
    std::vector<double> ratios;
    for (size_t i = 0; i < multis.size(); ++i) {
      ratios.push_back(multis[i].steps_per_sec / singles[i].steps_per_sec);
    }
    speedup = plp::bench::Summarize(std::move(ratios));
    std::printf("1 thread  : %6.2f steps/s  (min %.2f, max %.2f)\n",
                single_sps.median, single_sps.min, single_sps.max);
  }
  std::printf("%d threads : %6.2f steps/s  (min %.2f, max %.2f)\n", threads,
              multi_sps.median, multi_sps.min, multi_sps.max);
  if (!skip_baseline) {
    std::printf("speedup   : %.2fx  (min %.2fx, max %.2fx)\n", speedup.median,
                speedup.min, speedup.max);
  }

  using Phases = plp::core::TrainPhaseSeconds;
  const std::vector<std::pair<std::string, double Phases::*>> phases = {
      {"accounting", &Phases::accounting},
      {"sampling_grouping", &Phases::sampling_grouping},
      {"local_sgd", &Phases::local_sgd},
      {"reduction", &Phases::reduction},
      {"noise", &Phases::noise},
      {"server_apply", &Phases::server_apply},
  };
  std::vector<plp::bench::Spread> phase_spreads;
  double accounted = 0.0;
  for (const auto& [name, member] : phases) {
    phase_spreads.push_back(spread(
        multis, [member](const RunResult& r) { return r.phases.*member; }));
    accounted += phase_spreads.back().median;
  }
  plp::TablePrinter table(
      {"phase", "median_s", "min_s", "max_s", "share_pct"});
  for (size_t i = 0; i < phases.size(); ++i) {
    const plp::bench::Spread& ph = phase_spreads[i];
    table.NewRow();
    table.AddCell(phases[i].first);
    table.AddCell(ph.median, 4);
    table.AddCell(ph.min, 4);
    table.AddCell(ph.max, 4);
    table.AddCell(accounted > 0.0 ? 100.0 * ph.median / accounted : 0.0, 1);
  }
  table.PrintAligned(std::cout);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"training_throughput\",\n"
       << "  \"host\": {" << plp::bench::HostFactsJson() << "},\n"
       << "  \"users\": " << users << ",\n"
       << "  \"locations\": " << locations << ",\n"
       << "  \"dim\": " << dim << ",\n"
       << "  \"steps\": " << steps << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"q\": " << q << ",\n"
       << "  \"lambda\": " << lambda << ",\n"
       << "  \"reps\": " << reps << ",\n";
  if (!skip_baseline) {
    json << "  \"steps_per_sec_single\": "
         << plp::bench::SpreadJson(single_sps) << ",\n"
         << "  \"speedup\": " << plp::bench::SpreadJson(speedup) << ",\n";
  }
  json << "  \"steps_per_sec\": " << plp::bench::SpreadJson(multi_sps)
       << ",\n"
       << "  \"phase_seconds\": {\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    json << "    \"" << phases[i].first
         << "\": " << plp::bench::SpreadJson(phase_spreads[i])
         << (i + 1 < phases.size() ? ",\n" : "\n");
  }
  json << "  }\n"
       << "}\n";
  if (!json) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (min_steps_per_sec > 0.0 && multi_sps.median < min_steps_per_sec) {
    std::fprintf(stderr,
                 "FAIL: %.2f steps/s below the floor of %.2f steps/s\n",
                 multi_sps.median, min_steps_per_sec);
    return 1;
  }
  return 0;
}
