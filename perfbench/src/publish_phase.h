#ifndef PERFBENCH_PUBLISH_PHASE_H_
#define PERFBENCH_PUBLISH_PHASE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "publish/supervisor.h"
#include "serve/sharded_engine.h"
#include "sgns/model.h"
#include "trace.h"

namespace perfbench {

/// The supervised publish loop: two pre-built models alternate through
/// PublishSupervisor::RunCycle (stage → validate with the recall gate →
/// ledger → promote → CURRENT → shard swap → health probe), with the
/// publish tree under `dir`.
class PublishLoop {
 public:
  /// `models` and `engine` are borrowed and must outlive the loop.
  PublishLoop(const std::string& dir,
              std::array<const plp::sgns::SgnsModel*, 2> models,
              plp::serve::ShardedServingEngine* engine);
  PublishLoop(const PublishLoop&) = delete;
  PublishLoop& operator=(const PublishLoop&) = delete;

  /// Runs one cycle whose "training round" spent `epsilon` over `steps`.
  /// Returns the cycle's wall time in ms, excluding the training callback
  /// (which only copies a pre-built model).
  double RunCycle(double epsilon, int64_t steps);

  const std::vector<double>& cycle_ms() const { return cycle_ms_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// Index into `models` of the version the fleet serves now.
  int serving_model() const { return serving_model_; }

  /// The publish-path correctness gate: the ledger's cumulative ε never
  /// decreases, CURRENT names the last successfully published version,
  /// and that version's artifact verifies. Empty when all hold.
  std::string CheckInvariants() const;

 private:
  std::array<const plp::sgns::SgnsModel*, 2> models_;
  std::optional<plp::publish::PublishSupervisor> supervisor_;
  std::vector<double> cycle_ms_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int serving_model_ = -1;
};

/// Times direct calls into each publish layer, `reps` times each, and
/// fills the publish.* and serve.swap_us per-layer metrics (medians):
/// ModelSnapshot::FromModel, MeasureRecallAtK, PublishLedger::Append,
/// SnapshotPublisher::Publish (its own tree under `dir`) and
/// ShardedServingEngine::PublishSnapshot into the live `engine`.
void ReplayPublishPath(const std::string& dir,
                       const plp::sgns::SgnsModel& model,
                       plp::serve::ShardedServingEngine& engine, int reps,
                       MetricMap& out);

}  // namespace perfbench

#endif  // PERFBENCH_PUBLISH_PHASE_H_
