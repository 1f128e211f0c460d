#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace perfbench {
namespace {

std::atomic<uint64_t> next_tracer_id{1};

/// The calling thread's buffer in the tracer it last recorded into. Ids
/// are never reused, so a stale entry can never alias a new tracer.
struct ThreadBuffer {
  uint64_t tracer_id = 0;
  std::vector<Span>* spans = nullptr;
};
thread_local ThreadBuffer thread_buffer;

}  // namespace

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

void Tracer::Record(const Span& span) {
  if (thread_buffer.tracer_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(4096);
    thread_buffer = {id_, buffers_.back().get()};
  }
  thread_buffer.spans->push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace perfbench
