#ifndef PERFBENCH_SERVE_PHASE_H_
#define PERFBENCH_SERVE_PHASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/model_snapshot.h"
#include "serve/sharded_engine.h"
#include "sgns/model.h"
#include "trace.h"

namespace perfbench {

/// Shape of the serving tier and of its traffic.
struct TierSpec {
  int32_t locations = 20000;
  int32_t dim = 64;
  int32_t groups = 50;     ///< cluster directions of the fixture vocabulary
  double spread = 0.08;    ///< per-dim scatter around a cluster direction
  int64_t users = 5000;    ///< session population (all warmed at set-up)
  int32_t k = 10;
  int32_t shards = 2;      ///< one worker thread each
  int64_t timeout_us = 50000;
};

/// The snapshot options every workload serves and publishes with.
plp::serve::SnapshotOptions ServedSnapshotOptions();

/// A model whose unit-norm embedding rows scatter around `spec.groups`
/// random directions: the neighbourhood structure trained embeddings have
/// and the regime the IVF-pruned scan is specified for.
plp::sgns::SgnsModel MakeClusteredModel(const TierSpec& spec, uint64_t seed);

/// The sharded engine of `spec` (fp16 + IVF snapshots). Nothing is
/// published yet.
std::unique_ptr<plp::serve::ShardedServingEngine> MakeEngine(
    const TierSpec& spec);

/// Seeded request stream: user ids uniform over the session population,
/// check-ins uniform over the vocabulary.
class RequestStream {
 public:
  RequestStream(const TierSpec& spec, uint64_t seed);
  plp::serve::Request Next();

 private:
  TierSpec spec_;
  plp::Rng rng_;
};

/// One synchronous request per user, so every session exists.
void WarmSessions(plp::serve::ShardedServingEngine& engine,
                  const TierSpec& spec, uint64_t seed);

/// One open-loop segment: arrivals on a fixed schedule regardless of how
/// fast the tier drains them; latency counts from the scheduled arrival.
/// The segment is cut into windows by scheduled arrival time; p50 and p90
/// are medians over the windows' own percentiles, so a burst of host noise
/// shorter than half the segment does not move them. p99 is over the whole
/// segment and is reported for diagnosis only.
struct OpenLoopResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< OK answers / (first arrival → last answer)
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t shed = 0;    ///< overloaded or deadline expired
  int64_t errors = 0;  ///< any other non-OK status
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double late_p50_us = 0.0;  ///< how late the generator submitted
  double late_p99_us = 0.0;
  int32_t windows = 0;
  /// Windows whose p90 met the limit given to RunOpenLoop with nothing
  /// shed or failed.
  int32_t windows_within_limit = 0;
  /// The tier fell behind: fewer than 99% of offered requests answered OK
  /// per second.
  bool backlog_grew() const { return achieved_qps < 0.99 * offered_qps; }
};

OpenLoopResult RunOpenLoop(plp::serve::ShardedServingEngine& engine,
                           const TierSpec& spec, double rate_qps,
                           double seconds, double window_seconds,
                           double p90_limit_us, uint64_t seed);

/// The capacity ladder: rungs from `first_qps` growing by `factor` until
/// one fails (or, if the first fails, shrinking until one passes), then two
/// bisection rungs between the highest pass and the lowest failure. A rung
/// passes when at least half its windows have p90 <= `p90_limit_us` with
/// nothing shed or failed, and the backlog did not grow over the rung. A
/// failing rung is run once more and fails only if the retry fails too:
/// on a shared VM, bursts of host noise lasting about a second raise p90
/// tenfold even far below capacity.
struct LadderResult {
  double capacity_qps = 0.0;  ///< highest passing rate (0 if none passed)
  std::vector<OpenLoopResult> rungs;
};
LadderResult RunLadder(plp::serve::ShardedServingEngine& engine,
                       const TierSpec& spec, double first_qps, double factor,
                       double rung_seconds, double window_seconds,
                       double p90_limit_us, uint64_t seed);

/// Back-to-back synchronous requests from one caller thread for `seconds`:
/// ShardedServingEngine::Recommend runs the whole request path (routing,
/// session append, profile, IVF scan, top-k) on the caller, with no queue.
struct SyncResult {
  double p50_us = 0.0;
  int64_t sent = 0;
  int64_t failed = 0;  ///< non-OK answers
};
SyncResult RunSyncRequests(plp::serve::ShardedServingEngine& engine,
                           const TierSpec& spec, double seconds,
                           uint64_t seed);

/// Single-threaded replay of the workload's request stream through the
/// public layer calls a request makes: SessionStore::Append →
/// ModelSnapshot::Profile → ApproxTopKScores, plus IvfIndex::CandidateRows
/// for the candidate count and an exact f32 TopKScores as the reference.
/// Fills the serve.* per-layer metrics.
void ReplayRequestPath(const plp::serve::ModelSnapshot& served,
                       const plp::serve::ModelSnapshot& reference_f32,
                       const TierSpec& spec, uint64_t seed, int32_t requests,
                       MetricMap& out);

/// Correctness gate for served answers: `samples` explicit-history
/// requests through the live engine, each compared with the exact f32
/// top-k of the same history. `failed` counts requests that got no
/// answer of k ids; the return value is the mean recall@k.
double ServedRecall(plp::serve::ShardedServingEngine& engine,
                    const plp::serve::ModelSnapshot& reference_f32,
                    const TierSpec& spec, uint64_t seed, int32_t samples,
                    int64_t& failed);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_PHASE_H_
