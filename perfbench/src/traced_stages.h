#ifndef PERFBENCH_TRACED_STAGES_H_
#define PERFBENCH_TRACED_STAGES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "data/corpus.h"
#include "pipeline/stages.h"
#include "trace.h"

namespace perfbench {

/// State the stage decorators of one traced training run share. The step
/// id is published by the Accountant decorator (TrackRound opens every
/// step) and the bucket array by the Grouper decorator; workers read both
/// after the engine's pool hand-off, so relaxed atomics suffice.
struct TrainTrace {
  Tracer tracer;
  std::atomic<int64_t> step{0};
  std::atomic<const plp::core::Bucket*> buckets{nullptr};
  std::atomic<size_t> num_buckets{0};

  /// Index of `bucket` in the current step's Group() result, or -1 when
  /// the engine handed over a bucket that does not live there.
  int32_t BucketIndex(const plp::core::Bucket& bucket) const;
  void Record(const char* name, int64_t start_ns, int64_t count,
              int32_t bucket = -1);
};

/// Wraps each of the seven stage pointers in a forwarding decorator that
/// records one span per call into `trace`. Forwarding is exact: the
/// decorators pass every argument through untouched and draw no
/// randomness, so the traced run keeps the engine's RNG stream and its
/// bitwise determinism contract.
plp::pipeline::StageSet TraceStages(plp::pipeline::StageSet stages,
                                    TrainTrace& trace);

/// CorpusView decorator timing AppendUserSentences ("data.read", counting
/// the tokens handed out); every other call forwards untimed.
class TracedCorpus : public plp::data::CorpusView {
 public:
  TracedCorpus(const plp::data::CorpusView& inner, TrainTrace& trace)
      : inner_(inner), trace_(trace) {}

  int32_t NumUsers() const override { return inner_.NumUsers(); }
  int32_t NumLocations() const override { return inner_.NumLocations(); }
  int64_t NumTokens() const override { return inner_.NumTokens(); }
  void AppendUserSentences(
      int32_t user,
      std::vector<std::span<const int32_t>>& out) const override;
  int64_t UserTokenCount(int32_t user) const override {
    return inner_.UserTokenCount(user);
  }
  std::span<const int64_t> TokenFrequencies() const override {
    return inner_.TokenFrequencies();
  }

 private:
  const plp::data::CorpusView& inner_;
  TrainTrace& trace_;
};

/// Self-test fault: wraps the aggregator so every NoiseAndAverage call
/// sleeps `delay` before forwarding. Used only by the benchmark self-test
/// to show that a one-layer regression appears in that layer's row.
plp::pipeline::StageSet DelayNoiseStage(plp::pipeline::StageSet stages,
                                        std::chrono::milliseconds delay);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_STAGES_H_
