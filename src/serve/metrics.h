#ifndef PLP_SERVE_METRICS_H_
#define PLP_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>

namespace plp::serve {

/// Fixed-bucket latency histogram with lock-free recording.
///
/// Buckets are powers of two in microseconds: bucket i counts samples in
/// [2^i, 2^(i+1)) µs (bucket 0 also takes 0 µs), topping out at ~34 s.
/// Record is a single relaxed fetch_add on the bucket counter, so the hot
/// path never takes a lock; quantiles are answered from the bucket counts
/// with upper-bound rounding (a p99 of "≤ 128 µs" style resolution, which
/// is what a serving dashboard needs).
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 36;

  void Record(uint64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Arithmetic mean in microseconds (0 when empty).
  double MeanMicros() const;

  /// Upper bound of the bucket holding the q-quantile sample, q in [0, 1].
  /// Returns 0 when empty.
  uint64_t QuantileUpperBoundMicros(double q) const;

  uint64_t BucketCount(int bucket) const {
    return buckets_[static_cast<size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

  /// Adds another histogram's buckets/count/sum into this one (relaxed
  /// reads of a live histogram — aggregation is a monitoring view, not a
  /// linearizable snapshot).
  void MergeFrom(const LatencyHistogram& other);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
};

/// Serving-side counters + request latency histogram. All mutation is a
/// relaxed atomic op; `PrintTable` renders a dashboard-style dump through
/// the repo's TablePrinter (aligned for humans, CSV-convertible).
class Metrics {
 public:
  // Counter taxonomy: every finished request increments exactly one of
  // {ok, invalid_argument, not_found, deadline_exceeded, no_model,
  // overloaded}.
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_invalid_argument{0};
  std::atomic<uint64_t> requests_not_found{0};       ///< unknown session
  std::atomic<uint64_t> requests_deadline_exceeded{0};
  std::atomic<uint64_t> requests_no_model{0};  ///< nothing published yet
  std::atomic<uint64_t> requests_overloaded{0};  ///< shed: queue was full
  std::atomic<uint64_t> batches{0};       ///< micro-batches executed
  std::atomic<uint64_t> batched_requests{0};  ///< requests inside batches
  std::atomic<uint64_t> model_swaps{0};
  /// Successful recommendations broken out by the snapshot format that
  /// scored them (f32 / fp16) — sums to requests_ok. Makes an fp16
  /// rollout observable: a dashboard can watch traffic move between
  /// formats across hot swaps.
  std::atomic<uint64_t> requests_f32{0};
  std::atomic<uint64_t> requests_fp16{0};
  /// steady_clock microsecond stamp of the latest Publish (0 = never).
  /// swap_age_seconds in the STATS table derives from it, so snapshot
  /// freshness is observable without scraping logs.
  std::atomic<int64_t> last_swap_steady_micros{0};
  /// Wire-level garbage that never became a Request (unknown command,
  /// unparseable fields, oversized line). Counted by the protocol frontend
  /// (plp_serve), not the engine, and not part of TotalRequests.
  std::atomic<uint64_t> protocol_errors{0};

  LatencyHistogram latency;

  uint64_t TotalRequests() const;

  /// Seconds since the latest Publish, or -1 when nothing was ever
  /// published. `now_micros` is a steady_clock microsecond reading so
  /// callers (and tests) control the clock.
  double SwapAgeSeconds(int64_t now_micros) const;

  /// Records a Publish: bumps model_swaps and stamps the swap time.
  void RecordSwap(int64_t now_micros);

  /// Accumulates another Metrics into this one (counters and histogram
  /// buckets added; the freshest swap stamp wins). The sharded engine
  /// aggregates per-shard metrics into one STATS view with this.
  void MergeFrom(const Metrics& other);

  /// Aligned table of every counter plus p50/p95/p99/mean latency.
  void PrintTable(std::ostream& os) const;
};

}  // namespace plp::serve

#endif  // PLP_SERVE_METRICS_H_
