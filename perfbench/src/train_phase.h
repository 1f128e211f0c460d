#ifndef PERFBENCH_TRAIN_PHASE_H_
#define PERFBENCH_TRAIN_PHASE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "eval/hit_rate.h"
#include "sgns/model.h"
#include "trace.h"

namespace perfbench {

/// Which training corpus a workload builds at set-up.
enum class CorpusKind {
  /// The paper-sized synthetic city (4,602 users x 5,069 POIs), streamed
  /// into a PLPD store and trained through the mmap CorpusView.
  kPaperPlpd,
  /// The down-scaled synthetic city (~2.2k users x 600 POIs) held in RAM
  /// as a TrainingCorpus; bypasses the PLPD data plane.
  kSmallCity,
};

struct TrainSpec {
  CorpusKind corpus = CorpusKind::kPaperPlpd;
  int64_t steps = 20;
};

/// Engine threads of every training run. The host has 4 cores; at 4
/// threads, training_throughput read 23.2-38.2 steps/s on identical runs.
inline constexpr int32_t kTrainThreads = 2;

/// Training corpus plus leave-one-out examples of held-out users.
struct TrainInputs {
  std::shared_ptr<const plp::data::CorpusView> corpus;
  std::vector<plp::eval::EvalExample> holdout;
};

/// Builds the inputs from `seed`. PLPD corpora are written under `dir`.
TrainInputs BuildTrainInputs(const TrainSpec& spec, uint64_t seed,
                             const std::string& dir);

/// What one run of Algorithm 1 produced, timed from outside the engine.
struct TrainOutcome {
  double wall_s = 0.0;  ///< wall time of the TrainingEngine::Train call
  /// First quartile over steps of the time between consecutive step
  /// callbacks (the first step starts at the Train call). Host noise only
  /// ever adds time, and on a shared VM it can cover most of a short run;
  /// the fast quartile moves with the program, not with the noise.
  double fast_step_s = 0.0;
  int64_t steps = 0;
  double epsilon = 0.0;
  double hr10 = 0.0;
  uint64_t model_crc64 = 0;  ///< CRC-64 over the trained tensors' bytes
  MetricMap layers;          ///< per-layer metrics; empty when untraced
};

/// Runs Algorithm 1 at the paper's defaults (rdp accountant) for
/// `spec.steps` steps with kTrainThreads threads through
/// pipeline::TrainingEngine. With `traced`, the
/// seven stages and the corpus view are wrapped in span-recording
/// decorators and `layers` is filled. A positive `noise_delay` slows the
/// noise stage (benchmark self-test only).
TrainOutcome RunTraining(const TrainSpec& spec, const TrainInputs& inputs,
                         uint64_t seed, bool traced,
                         std::chrono::milliseconds noise_delay =
                             std::chrono::milliseconds(0));

}  // namespace perfbench

#endif  // PERFBENCH_TRAIN_PHASE_H_
