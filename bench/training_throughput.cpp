// training_throughput — load generator for the parallel training-step
// engine (PlpTrainer + the deterministic dense-phase ops).
//
//   training_throughput [--users=2000] [--locations=2000] [--dim=50]
//                       [--steps=20] [--threads=8] [--q=0.06] [--lambda=4]
//                       [--seed=42] [--json=BENCH_training.json]
//                       [--min_steps_per_sec=0] [--skip_baseline=false]
//
// Runs Algorithm 1 at the paper's default hyper-parameters over a
// synthetic corpus, twice: single-threaded (the pre-parallel baseline
// path) and with --threads workers. Reports steps/sec for both, the
// parallel speedup, and the per-phase wall-clock breakdown of the
// multi-threaded run (accounting, sampling/grouping, local SGD,
// reduction, noise, server apply) — so a regression in one stage can't
// hide inside the aggregate. The determinism contract means both runs
// produce the same model bits; this bench only measures time.
//
// Results print as a table and are written as JSON (--json) so CI can
// archive BENCH_training.json next to BENCH_serving.json. A positive
// --min_steps_per_sec turns the bench into a smoke gate: exit 1 when the
// multi-threaded run is slower than the floor.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

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
  double wall_seconds = 0.0;
  plp::core::TrainPhaseSeconds phases;
  int64_t steps = 0;
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
  run.steps = result->steps_executed;
  run.wall_seconds = result->wall_seconds;
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

  std::printf("training_throughput: users=%d L=%d dim=%d steps=%lld "
              "threads=%d q=%.3f lambda=%d\n",
              users, locations, dim, static_cast<long long>(steps), threads,
              q, lambda);

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

  RunResult single;
  if (!skip_baseline) {
    single = RunTrainer(corpus, config, /*threads=*/1, steps, seed);
    std::printf("1 thread  : %6.2f steps/s  (%.2fs total)\n",
                single.steps_per_sec, single.wall_seconds);
  }
  const RunResult multi = RunTrainer(corpus, config, threads, steps, seed);
  std::printf("%d threads : %6.2f steps/s  (%.2fs total)\n", threads,
              multi.steps_per_sec, multi.wall_seconds);
  const double speedup =
      skip_baseline ? 0.0 : multi.steps_per_sec / single.steps_per_sec;
  if (!skip_baseline) std::printf("speedup   : %.2fx\n", speedup);

  const plp::core::TrainPhaseSeconds& ph = multi.phases;
  const double accounted = ph.accounting + ph.sampling_grouping +
                           ph.local_sgd + ph.reduction + ph.noise +
                           ph.server_apply;
  plp::TablePrinter table({"phase", "seconds", "share_pct"});
  auto add = [&](const std::string& name, double seconds) {
    table.NewRow();
    table.AddCell(name);
    table.AddCell(seconds, 4);
    table.AddCell(accounted > 0.0 ? 100.0 * seconds / accounted : 0.0, 1);
  };
  add("accounting", ph.accounting);
  add("sampling_grouping", ph.sampling_grouping);
  add("local_sgd", ph.local_sgd);
  add("reduction", ph.reduction);
  add("noise", ph.noise);
  add("server_apply", ph.server_apply);
  table.PrintAligned(std::cout);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"training_throughput\",\n"
       << "  \"users\": " << users << ",\n"
       << "  \"locations\": " << locations << ",\n"
       << "  \"dim\": " << dim << ",\n"
       << "  \"steps\": " << steps << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"q\": " << q << ",\n"
       << "  \"lambda\": " << lambda << ",\n"
       << "  \"steps_per_sec_single\": " << single.steps_per_sec << ",\n"
       << "  \"steps_per_sec\": " << multi.steps_per_sec << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"phase_seconds\": {\n"
       << "    \"accounting\": " << ph.accounting << ",\n"
       << "    \"sampling_grouping\": " << ph.sampling_grouping << ",\n"
       << "    \"local_sgd\": " << ph.local_sgd << ",\n"
       << "    \"reduction\": " << ph.reduction << ",\n"
       << "    \"noise\": " << ph.noise << ",\n"
       << "    \"server_apply\": " << ph.server_apply << "\n"
       << "  }\n"
       << "}\n";
  if (!json) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (min_steps_per_sec > 0.0 && multi.steps_per_sec < min_steps_per_sec) {
    std::fprintf(stderr,
                 "FAIL: %.2f steps/s below the floor of %.2f steps/s\n",
                 multi.steps_per_sec, min_steps_per_sec);
    return 1;
  }
  return 0;
}
