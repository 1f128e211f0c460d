#include "serve/serving_engine.h"

#include <algorithm>
#include <latch>
#include <utility>

#include "common/fault_injection.h"

namespace plp::serve {
namespace {

using Clock = std::chrono::steady_clock;

int64_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

Clock::time_point ResolveArrival(const Request& request,
                                 Clock::time_point now) {
  return request.arrival == Clock::time_point{} ? now : request.arrival;
}

int64_t SteadyMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServingEngine::ServingEngine(const ServingConfig& config)
    : config_(config),
      sessions_(config.sessions),
      pool_(static_cast<size_t>(std::max(config.num_threads, 1))) {
  config_.num_threads = std::max(config.num_threads, 1);
  config_.max_batch = std::max(config.max_batch, 1);
}

Status ServingEngine::PublishModel(const sgns::SgnsModel& model,
                                   uint64_t version) {
  PLP_ASSIGN_OR_RETURN(
      auto snapshot,
      ModelSnapshot::FromModel(model, version, config_.snapshot));
  return PublishSnapshot(std::move(snapshot));
}

Status ServingEngine::PublishFile(const std::string& path,
                                  uint64_t version) {
  PLP_ASSIGN_OR_RETURN(auto snapshot,
                       ModelSnapshot::FromFile(path, version,
                                               config_.snapshot));
  return PublishSnapshot(std::move(snapshot));
}

Status ServingEngine::PublishSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  // Verify-then-swap: a snapshot that fails its integrity gate is
  // rejected here, before readers can ever observe it — the installed
  // snapshot keeps serving and the swap-age clock keeps ticking against
  // the OLD swap (the staleness is real and must be visible).
  PLP_ASSIGN_OR_RETURN(uint64_t generation,
                       registry_.PublishVerified(std::move(snapshot)));
  (void)generation;
  metrics_.RecordSwap(SteadyMicrosNow());
  return Status::Ok();
}

Response ServingEngine::Execute(
    const Request& request,
    const std::shared_ptr<const ModelSnapshot>& snapshot,
    Clock::time_point now) {
  Response response;
  if (FaultInjection::Armed()) {
    // "serve.execute": tests inject queue residency (kDelay) here to drive
    // the queued-expired path deterministically. The clock is re-read so
    // the injected delay counts against the request's deadline, exactly as
    // real queue time would.
    if (Status s = FaultInjection::Hit("serve.execute"); !s.ok()) {
      response.status = std::move(s);
      return response;
    }
    now = Clock::now();
  }
  if (snapshot == nullptr) {
    response.status = FailedPreconditionError("no model published");
    return response;
  }
  response.model_version = snapshot->version();
  const Clock::time_point arrival = ResolveArrival(request, now);
  if (request.timeout_micros > 0 &&
      MicrosBetween(arrival, now) > request.timeout_micros) {
    response.status = DeadlineExceededError("request deadline elapsed");
    return response;
  }
  if (request.k <= 0) {
    response.status = InvalidArgumentError("k must be positive");
    return response;
  }
  // No silent clamp: asking for more candidates than the vocabulary holds
  // is a caller bug (or a stale client after a swap to a smaller model),
  // and clamping would hide it from the caller's pagination logic.
  if (request.k > snapshot->num_locations()) {
    response.status = InvalidArgumentError(
        "k=" + std::to_string(request.k) + " exceeds the vocabulary (" +
        std::to_string(snapshot->num_locations()) + " locations)");
    return response;
  }

  // Resolve ζ: explicit history > append-and-read > stored session.
  std::vector<int32_t> history;
  if (!request.history.empty()) {
    history = request.history;
  } else if (request.new_checkin >= 0) {
    // Validate before appending so a bad id never poisons the session.
    const int32_t checkin[] = {request.new_checkin};
    if (Status s = snapshot->ValidateHistory(checkin); !s.ok()) {
      response.status = std::move(s);
      return response;
    }
    history = sessions_.Append(request.user_id, request.new_checkin);
  } else {
    auto stored = sessions_.Get(request.user_id);
    if (!stored.has_value()) {
      response.status = NotFoundError(
          "no session for user " + std::to_string(request.user_id));
      return response;
    }
    history = std::move(*stored);
  }
  // Sessions can legitimately hold ids a newly swapped (smaller) model
  // doesn't know; that fails the one request, not the process.
  if (Status s = snapshot->ValidateHistory(history); !s.ok()) {
    response.status = std::move(s);
    return response;
  }
  for (int32_t l : request.exclude) {
    if (l < 0 || l >= snapshot->num_locations()) {
      response.status = InvalidArgumentError(
          "exclude id " + std::to_string(l) + " outside the vocabulary");
      return response;
    }
  }

  const std::vector<float> profile = snapshot->Profile(history);
  // Approximate (IVF-pruned) scan only when the snapshot was built with
  // an index; the exact scan stays the default and the reference.
  if (snapshot->ivf() != nullptr) {
    response.topk = ApproxTopKScores(*snapshot, profile, request.k,
                                     config_.nprobe, request.exclude);
  } else {
    response.topk =
        TopKScores(*snapshot, profile, request.k, request.exclude);
  }
  switch (snapshot->format()) {
    case SnapshotFormat::kFloat32:
      metrics_.requests_f32.fetch_add(1, std::memory_order_relaxed);
      break;
    case SnapshotFormat::kFloat16:
      metrics_.requests_fp16.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  response.status = Status::Ok();
  return response;
}

Response ServingEngine::Finish(Response response,
                               Clock::time_point start) {
  response.latency_micros =
      std::max<int64_t>(0, MicrosBetween(start, Clock::now()));
  metrics_.latency.Record(static_cast<uint64_t>(response.latency_micros));
  switch (response.status.code()) {
    case StatusCode::kOk:
      metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kNotFound:
      metrics_.requests_not_found.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kDeadlineExceeded:
      metrics_.requests_deadline_exceeded.fetch_add(
          1, std::memory_order_relaxed);
      break;
    case StatusCode::kFailedPrecondition:
      metrics_.requests_no_model.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kResourceExhausted:
      metrics_.requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      metrics_.requests_invalid_argument.fetch_add(
          1, std::memory_order_relaxed);
      break;
  }
  return response;
}

Response ServingEngine::Recommend(const Request& request) {
  const Clock::time_point now = Clock::now();
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_.Current();
  return Finish(Execute(request, snapshot, now),
                ResolveArrival(request, now));
}

std::vector<Response> ServingEngine::RecommendBatch(
    std::vector<Request> requests) {
  const size_t n = requests.size();
  std::vector<Response> responses(n);
  if (n == 0) return responses;
  const size_t batch = static_cast<size_t>(config_.max_batch);
  const size_t num_batches = (n + batch - 1) / batch;
  std::latch done(static_cast<ptrdiff_t>(num_batches));

  for (size_t begin = 0; begin < n; begin += batch) {
    const size_t end = std::min(n, begin + batch);
    pool_.Schedule([this, &requests, &responses, &done, begin, end] {
      // One snapshot load and one clock read cover the whole micro-batch.
      const Clock::time_point now = Clock::now();
      const std::shared_ptr<const ModelSnapshot> snapshot =
          registry_.Current();
      for (size_t i = begin; i < end; ++i) {
        responses[i] = Finish(Execute(requests[i], snapshot, now),
                              ResolveArrival(requests[i], now));
      }
      metrics_.batches.fetch_add(1, std::memory_order_relaxed);
      metrics_.batched_requests.fetch_add(end - begin,
                                          std::memory_order_relaxed);
      done.count_down();
    });
  }
  done.wait();
  return responses;
}

std::vector<std::future<Response>> ServingEngine::SubmitAsyncBatch(
    std::vector<Request> requests) {
  const Clock::time_point submitted = Clock::now();
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(requests.size());
  for (Request& request : requests) {
    if (request.arrival == Clock::time_point{}) request.arrival = submitted;
    auto promise = std::make_shared<std::promise<Response>>();
    futures.push_back(promise->get_future());
    if (config_.max_queue > 0) {
      const int64_t in_flight =
          async_in_flight_.fetch_add(1, std::memory_order_acq_rel);
      if (in_flight >= config_.max_queue) {
        async_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        Response shed;
        shed.status = ResourceExhaustedError(
            "overloaded: " + std::to_string(in_flight) +
            " requests already queued");
        promise->set_value(Finish(std::move(shed), request.arrival));
        continue;
      }
    }
    tasks.push_back([this, request = std::move(request),
                     promise = std::move(promise)]() mutable {
      const Clock::time_point now = Clock::now();
      const std::shared_ptr<const ModelSnapshot> snapshot =
          registry_.Current();
      promise->set_value(Finish(Execute(request, snapshot, now),
                                request.arrival));
      if (config_.max_queue > 0) {
        async_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  pool_.ScheduleAll(tasks);
  return futures;
}

std::future<Response> ServingEngine::SubmitAsync(Request request) {
  const Clock::time_point submitted = Clock::now();
  if (request.arrival == Clock::time_point{}) request.arrival = submitted;
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();

  // Admission control: shed instead of queueing without bound. The
  // rejection is immediate (never enters the pool) so an overloaded
  // engine answers OVERLOADED in microseconds rather than timing every
  // excess request out at its deadline.
  if (config_.max_queue > 0) {
    const int64_t in_flight =
        async_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (in_flight >= config_.max_queue) {
      async_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      Response shed;
      shed.status = ResourceExhaustedError(
          "overloaded: " + std::to_string(in_flight) +
          " requests already queued");
      promise->set_value(Finish(std::move(shed), request.arrival));
      return future;
    }
  }
  pool_.Schedule([this, request = std::move(request), promise]() mutable {
    const Clock::time_point now = Clock::now();
    const std::shared_ptr<const ModelSnapshot> snapshot = registry_.Current();
    promise->set_value(Finish(Execute(request, snapshot, now),
                              request.arrival));
    if (config_.max_queue > 0) {
      async_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  });
  return future;
}

}  // namespace plp::serve
