#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); every span and phase timer in the
/// benchmark reads this one clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer, recorded from outside the layer.
struct Span {
  const char* name = "";  ///< static layer name, e.g. "pipeline.noise"
  int64_t step = 0;       ///< 1-based training step; 0 outside training
  int32_t bucket = -1;    ///< bucket index of per-bucket calls, else -1
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t count = 0;  ///< work the call did (tokens, entries, users, ...)
};

/// In-memory span sink. Each recording thread appends to its own buffer
/// (registered under the mutex on the thread's first span), so worker
/// threads on the hot path take no lock. Collect() may only run once every
/// recording thread has stopped (the training pool is joined when
/// TrainingEngine::Train returns).
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(const Span& span);
  std::vector<Span> Collect() const;

 private:
  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // guarded by mu_
};

/// A named value with its unit, as the result line reports it.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Median of `values` (copied); 0 for an empty input.
double Median(std::vector<double> values);

/// Value at quantile `q` in [0, 1] of `values`, interpolating linearly
/// between the two nearest ranks; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
