#ifndef PLP_BENCH_BENCH_COMMON_H_
#define PLP_BENCH_BENCH_COMMON_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/nonprivate_trainer.h"
#include "core/plp_trainer.h"
#include "data/corpus.h"
#include "data/dataset.h"
#include "eval/hit_rate.h"

namespace plp::bench {

/// Shared options of every figure bench.
///
/// --scale=small (default) runs a down-scaled synthetic city (~2.3k users,
/// 600 POIs) whose sweeps finish in minutes on one core; --scale=paper
/// clones the paper's dataset dimensions (4602 users, 5069 POIs, ~740k
/// check-ins) and hours-long budgets; --scale=large streams a synthetic
/// corpus to an on-disk PLPD store (--users/--locations, default 100k ×
/// 20k) and trains through the mmap-backed view, so the working set never
/// includes the whole corpus. --corpus_dir pins where the large corpus
/// lives (a pre-generated directory is reused; default is a
/// seed-stamped directory under the system temp dir). --full widens the
/// parameter grids to the paper's complete figure grids; --seed controls
/// all randomness; --max_steps caps every training run (steps when
/// private, epochs when not) so CI can smoke each bench in seconds
/// without a forked code path.
struct BenchOptions {
  std::string scale = "small";
  bool full = false;
  uint64_t seed = 42;
  int64_t max_steps = 0;  ///< 0 = the bench's own budget/epoch bounds

  /// Accountant / sampling-scheme overrides applied by DefaultPlpConfig
  /// (empty = keep the config defaults). Lets CI smoke any bench under
  /// --accountant=mog / --sampling_scheme=fixed_batch without a forked
  /// code path; invalid names or pairings abort with the same message
  /// PlpConfig::Validate would produce.
  std::string accountant;
  std::string sampling_scheme;

  // --scale=large knobs.
  std::string corpus_dir;       ///< empty = seed-stamped temp directory
  int32_t users = 100000;       ///< generated users at large scale
  int32_t locations = 20000;    ///< configured POIs at large scale
};

/// Parses the shared flags; aborts on an unknown scale.
BenchOptions ParseBenchOptions(int argc, char** argv);

/// The evaluation workload every figure uses: a training corpus plus
/// user-disjoint validation and test users (100 each, as in Section 5.1),
/// with leave-one-out examples prepared.
///
/// `corpus` is the polymorphic handle every bench trains through: the
/// in-RAM TrainingCorpus at small/paper scale, a zero-copy
/// store::MmapCorpus over the on-disk PLPD directory at large scale (the
/// last 200 store users are held out for evaluation there).
struct Workload {
  data::CheckInDataset train;  ///< empty at --scale=large
  std::shared_ptr<const data::CorpusView> corpus;
  std::vector<eval::EvalExample> validation;
  std::vector<eval::EvalExample> test;
};

/// Builds the workload for the chosen scale (deterministic per seed).
Workload BuildWorkload(const BenchOptions& options);

/// The PLP configuration used as the sweep baseline. Matches the paper's
/// defaults (q=0.06, σ=2.5, C=0.5, λ=4, δ=2e-4, dim=50, win=2, neg=16,
/// b=32); at small scale the server Adam learning rate is 0.03 — inside
/// the paper's tested range [0.02, 0.07] — which compensates for the
/// smaller expected bucket count of the down-scaled city. Applies
/// `options.max_steps` when set.
core::PlpConfig DefaultPlpConfig(const BenchOptions& options);

/// What a bench varies: a pipeline stage configuration, named by the
/// trainer facade that owns it plus that facade's config. Benches describe
/// WHAT to train; the single train→eval loop lives in RunAndEvaluate, so a
/// sweep cell differs from its neighbors only in config fields — never in
/// loop code.
struct StageConfig {
  static StageConfig Private(core::PlpConfig config);
  static StageConfig NonPrivate(core::NonPrivateConfig config);

  bool is_private = true;
  core::PlpConfig plp;                ///< used when is_private
  core::NonPrivateConfig nonprivate;  ///< used when !is_private

  /// > 0: record an EvalPoint every N steps (private) / epochs
  /// (non-private), plus one at the final index.
  int64_t eval_every = 0;
  /// false: skip hit-rate evaluation entirely (timing-only runs).
  bool evaluate = true;
};

/// One periodic evaluation snapshot (eval_every > 0).
struct EvalPoint {
  int64_t index = 0;       ///< step (private) or epoch (non-private)
  double mean_loss = 0.0;  ///< that round's mean local loss
  std::array<double, 3> validation_hr{};  ///< HR@{5,10,20}, validation users
  std::array<double, 3> test_hr{};        ///< HR@{5,10,20}, test users
};

/// Result of one train→eval run. Deterministic per (config, seed).
struct RunOutcome {
  double hit_rate_at_10 = 0.0;            ///< = validation_hr[1]
  std::array<double, 3> validation_hr{};  ///< final HR@{5,10,20}
  int64_t steps = 0;  ///< steps executed (private) / epochs (non-private)
  double epsilon_spent = 0.0;  ///< 0 for non-private runs
  double wall_seconds = 0.0;   ///< training time (evaluation excluded)
  sgns::SgnsModel model;       ///< for bench-specific extra evaluation
  std::vector<EvalPoint> trajectory;  ///< empty unless eval_every > 0
};

/// THE shared train→eval loop: trains `config` through the pipeline engine
/// (via its trainer facade) and evaluates the result on the workload's
/// validation users.
RunOutcome RunAndEvaluate(const StageConfig& config, const Workload& workload,
                          uint64_t seed);

/// Shorthand for RunAndEvaluate(StageConfig::Private(config), ...).
RunOutcome RunPrivate(const core::PlpConfig& config,
                      const Workload& workload, uint64_t seed);

/// HR@10 of an untrained (random-embedding) model — the floor every DP
/// curve should be compared against.
double RandomFloorHr10(const Workload& workload, int32_t embedding_dim,
                       uint64_t seed);

/// HR@k of a trained model on a prepared example set.
double EvalHr(const sgns::SgnsModel& model,
              const std::vector<eval::EvalExample>& examples, int32_t k);

/// Prints the standard bench banner (figure id, scale, workload shape).
void PrintBanner(const std::string& figure, const BenchOptions& options,
                 const Workload& workload);

/// The median and range of one metric over a bench's repetitions.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Summarizes `samples` (at least one); an even count takes the mean of
/// the two middle values as its median.
Spread Summarize(std::vector<double> samples);

/// `{"median": m, "min": lo, "max": hi}` for a JSON report.
std::string SpreadJson(const Spread& spread);

/// The host a bench figure was measured on, as the members of a JSON
/// object: `"nproc": …, "cpu_model": …, "build_type": …, "compiler": …`.
/// A committed number without its host cannot be compared with another.
std::string HostFactsJson();

}  // namespace plp::bench

#endif  // PLP_BENCH_BENCH_COMMON_H_
