#include "serve_phase.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "serve/session_store.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-3;
}

/// Fraction of `reference` ids present in `answer`.
double Recall(const std::vector<plp::serve::ScoredLocation>& answer,
              const std::vector<plp::serve::ScoredLocation>& reference) {
  if (reference.empty()) return 1.0;
  int32_t hits = 0;
  for (const auto& want : reference) {
    for (const auto& got : answer) {
      if (got.location == want.location) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(reference.size());
}

}  // namespace

plp::serve::SnapshotOptions ServedSnapshotOptions() {
  plp::serve::SnapshotOptions options;
  options.format = plp::serve::SnapshotFormat::kFloat16;
  options.build_ivf = true;
  return options;
}

plp::sgns::SgnsModel MakeClusteredModel(const TierSpec& spec, uint64_t seed) {
  plp::Rng rng(seed);
  plp::sgns::SgnsConfig config;
  config.embedding_dim = spec.dim;
  auto model = plp::sgns::SgnsModel::Create(spec.locations, config, rng);
  PLP_CHECK_OK(model.status());
  std::vector<std::vector<double>> centers(
      static_cast<size_t>(spec.groups),
      std::vector<double>(static_cast<size_t>(spec.dim)));
  for (auto& center : centers) {
    double sq = 0.0;
    for (double& v : center) {
      v = rng.Gaussian();
      sq += v * v;
    }
    for (double& v : center) v /= std::sqrt(sq);
  }
  for (int32_t r = 0; r < spec.locations; ++r) {
    const auto& center = centers[static_cast<size_t>(r % spec.groups)];
    auto row = model->MutableInRow(r);
    double sq = 0.0;
    for (size_t d = 0; d < row.size(); ++d) {
      row[d] = center[d] + spec.spread * rng.Gaussian();
      sq += row[d] * row[d];
    }
    for (double& v : row) v /= std::sqrt(sq);
  }
  return std::move(model).value();
}

std::unique_ptr<plp::serve::ShardedServingEngine> MakeEngine(
    const TierSpec& spec) {
  plp::serve::ShardedConfig config;
  config.num_shards = spec.shards;
  config.shard.num_threads = 1;
  config.shard.sessions.capacity = static_cast<size_t>(spec.users) + 16;
  config.shard.snapshot = ServedSnapshotOptions();
  return std::make_unique<plp::serve::ShardedServingEngine>(config);
}

RequestStream::RequestStream(const TierSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed) {}

plp::serve::Request RequestStream::Next() {
  plp::serve::Request request;
  request.user_id = static_cast<int64_t>(
      rng_.UniformInt(static_cast<uint64_t>(spec_.users)));
  request.new_checkin = static_cast<int32_t>(
      rng_.UniformInt(static_cast<uint64_t>(spec_.locations)));
  request.k = spec_.k;
  return request;
}

void WarmSessions(plp::serve::ShardedServingEngine& engine,
                  const TierSpec& spec, uint64_t seed) {
  plp::Rng rng(seed);
  for (int64_t u = 0; u < spec.users; ++u) {
    plp::serve::Request request;
    request.user_id = u;
    request.new_checkin = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(spec.locations)));
    request.k = spec.k;
    PLP_CHECK(engine.Recommend(request).status.ok());
  }
}

OpenLoopResult RunOpenLoop(plp::serve::ShardedServingEngine& engine,
                           const TierSpec& spec, double rate_qps,
                           double seconds, double window_seconds,
                           double p90_limit_us, uint64_t seed) {
  OpenLoopResult result;
  result.offered_qps = rate_qps;
  const auto total = static_cast<int64_t>(std::llround(rate_qps * seconds));
  const auto period =
      std::chrono::nanoseconds(static_cast<int64_t>(1e9 / rate_qps));
  const auto per_window = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(rate_qps * window_seconds)));
  result.windows = static_cast<int32_t>((total + per_window - 1) / per_window);

  struct Window {
    std::vector<double> latencies;
    int64_t not_ok = 0;
  };
  std::vector<Window> windows(static_cast<size_t>(result.windows));
  std::vector<double> all_latencies;
  std::vector<double> lateness;
  all_latencies.reserve(static_cast<size_t>(total));
  lateness.reserve(static_cast<size_t>(total));
  RequestStream stream(spec, seed);
  struct Pending {
    std::future<plp::serve::Response> response;
    size_t window;
  };
  std::deque<Pending> pending;
  Clock::time_point last_done{};

  const Clock::time_point start = Clock::now();
  auto harvest = [&](bool block) {
    while (!pending.empty() &&
           (block || pending.front().response.wait_for(
                         std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      const plp::serve::Response response = pending.front().response.get();
      Window& window = windows[pending.front().window];
      pending.pop_front();
      if (response.status.ok()) {
        ++result.ok;
        const auto latency = static_cast<double>(response.latency_micros);
        window.latencies.push_back(latency);
        all_latencies.push_back(latency);
      } else {
        ++window.not_ok;
        if (response.status.code() == plp::StatusCode::kResourceExhausted ||
            response.status.code() == plp::StatusCode::kDeadlineExceeded) {
          ++result.shed;
        } else {
          ++result.errors;
        }
      }
      last_done = Clock::now();
    }
  };

  // Arrivals already due are submitted as one batch (one pool wake-up per
  // shard); each keeps its own scheduled arrival stamp, so a late
  // generator shows up as latency and as lateness, never as a lower rate.
  // The generator waits by yielding, not sleeping: on a VM a sleeping
  // thread's idle vCPU can take milliseconds to be woken, which would
  // measure the generator instead of the tier. It costs one of the 4
  // cores; the 2 shard workers take two more.
  constexpr size_t kMaxBatch = 64;
  std::vector<plp::serve::Request> batch;
  for (int64_t i = 0; i < total;) {
    while (Clock::now() < start + period * i) std::this_thread::yield();
    const Clock::time_point now = Clock::now();
    const int64_t first = i;
    batch.clear();
    do {
      plp::serve::Request request = stream.Next();
      request.arrival = start + period * i;
      request.timeout_micros = spec.timeout_us;
      lateness.push_back(
          std::chrono::duration<double, std::micro>(now - request.arrival)
              .count());
      batch.push_back(std::move(request));
      ++i;
    } while (i < total && batch.size() < kMaxBatch &&
             start + period * i <= now);
    result.sent += static_cast<int64_t>(batch.size());
    int64_t index = first;
    for (auto& future : engine.SubmitAsyncBatch(std::move(batch))) {
      pending.push_back(
          {std::move(future), static_cast<size_t>(index++ / per_window)});
    }
    batch = {};
    harvest(/*block=*/false);
  }
  harvest(/*block=*/true);

  const double elapsed =
      std::chrono::duration<double>(last_done - start).count();
  result.achieved_qps =
      elapsed > 0.0 ? static_cast<double>(result.ok) / elapsed : 0.0;
  std::vector<double> window_p50, window_p90;
  for (Window& window : windows) {
    const double p90 = Quantile(window.latencies, 0.90);
    window_p50.push_back(Quantile(std::move(window.latencies), 0.50));
    window_p90.push_back(p90);
    if (p90 <= p90_limit_us && window.not_ok == 0) {
      ++result.windows_within_limit;
    }
  }
  result.p50_us = Median(std::move(window_p50));
  result.p90_us = Median(std::move(window_p90));
  result.p99_us = Quantile(std::move(all_latencies), 0.99);
  result.late_p50_us = Quantile(lateness, 0.50);
  result.late_p99_us = Quantile(std::move(lateness), 0.99);
  return result;
}

LadderResult RunLadder(plp::serve::ShardedServingEngine& engine,
                       const TierSpec& spec, double first_qps, double factor,
                       double rung_seconds, double window_seconds,
                       double p90_limit_us, uint64_t seed) {
  LadderResult ladder;
  auto attempt = [&](double rate) {
    const OpenLoopResult rung = RunOpenLoop(
        engine, spec, rate, rung_seconds, window_seconds, p90_limit_us,
        seed + static_cast<uint64_t>(ladder.rungs.size()));
    ladder.rungs.push_back(rung);
    std::fprintf(stderr,
                 "ladder rung %6.0f qps: achieved %6.0f, p50 %6.0f us, p90 "
                 "%6.0f us, p99 %7.0f us, windows within limit %d/%d, shed "
                 "%lld, errors %lld, late p99 %6.0f us\n",
                 rate, rung.achieved_qps, rung.p50_us, rung.p90_us,
                 rung.p99_us, rung.windows_within_limit, rung.windows,
                 static_cast<long long>(rung.shed),
                 static_cast<long long>(rung.errors), rung.late_p99_us);
    return 2 * rung.windows_within_limit >= rung.windows &&
           !rung.backlog_grew();
  };
  auto passes = [&](double rate) { return attempt(rate) || attempt(rate); };
  constexpr double kMinQps = 250.0;
  constexpr double kMaxQps = 1e6;
  double pass = 0.0;
  double fail = first_qps;
  if (passes(first_qps)) {
    pass = first_qps;
    fail = first_qps * factor;
    while (fail <= kMaxQps && passes(fail)) {
      pass = fail;
      fail *= factor;
    }
  } else {
    for (double rate = first_qps / factor; rate >= kMinQps; rate /= factor) {
      if (passes(rate)) {
        pass = rate;
        break;
      }
      fail = rate;
    }
  }
  // Two bisection rungs (geometric midpoints) refine the coarse ladder.
  for (int i = 0; i < 2 && pass > 0.0; ++i) {
    const double mid = std::sqrt(pass * fail);
    if (passes(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  ladder.capacity_qps = pass;
  return ladder;
}

SyncResult RunSyncRequests(plp::serve::ShardedServingEngine& engine,
                           const TierSpec& spec, double seconds,
                           uint64_t seed) {
  SyncResult result;
  RequestStream stream(spec, seed);
  std::vector<double> latency_us;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const plp::serve::Request request = stream.Next();
    const int64_t start = NowNs();
    const plp::serve::Response response = engine.Recommend(request);
    latency_us.push_back(MicrosSince(start));
    ++result.sent;
    if (!response.status.ok()) ++result.failed;
  }
  result.p50_us = Median(std::move(latency_us));
  return result;
}

void ReplayRequestPath(const plp::serve::ModelSnapshot& served,
                       const plp::serve::ModelSnapshot& reference_f32,
                       const TierSpec& spec, uint64_t seed, int32_t requests,
                       MetricMap& out) {
  PLP_CHECK(served.ivf() != nullptr);
  plp::serve::SessionStore::Options options;
  options.capacity = static_cast<size_t>(spec.users) + 16;
  plp::serve::SessionStore sessions(options);
  plp::Rng warm(seed);
  for (int64_t u = 0; u < spec.users; ++u) {
    sessions.Append(u, static_cast<int32_t>(warm.UniformInt(
                           static_cast<uint64_t>(spec.locations))));
  }

  const int32_t nprobe = served.ivf()->default_nprobe();
  RequestStream stream(spec, seed + 1);
  std::vector<double> session_us, profile_us, scan_us, exact_us;
  double candidates = 0.0;
  double recall = 0.0;
  std::vector<int32_t> rows;
  for (int32_t i = 0; i < requests; ++i) {
    const plp::serve::Request request = stream.Next();
    int64_t t = NowNs();
    const std::vector<int32_t> history =
        sessions.Append(request.user_id, request.new_checkin);
    session_us.push_back(MicrosSince(t));

    t = NowNs();
    const std::vector<float> profile = served.Profile(history);
    profile_us.push_back(MicrosSince(t));

    t = NowNs();
    const auto answer =
        plp::serve::ApproxTopKScores(served, profile, spec.k, nprobe);
    scan_us.push_back(MicrosSince(t));

    served.ivf()->CandidateRows(profile, nprobe, rows);
    candidates += static_cast<double>(rows.size());

    const std::vector<float> exact_profile = reference_f32.Profile(history);
    t = NowNs();
    const auto exact =
        plp::serve::TopKScores(reference_f32, exact_profile, spec.k);
    exact_us.push_back(MicrosSince(t));
    recall += Recall(answer, exact);
  }
  const double n = static_cast<double>(std::max(requests, 1));
  out["serve.session_us"] = {Median(session_us), "us"};
  out["serve.profile_us"] = {Median(profile_us), "us"};
  out["serve.scan_select_us"] = {Median(scan_us), "us"};
  out["serve.candidates_per_query"] = {candidates / n, "count"};
  out["serve.recall10"] = {recall / n, "frac"};
  out["serve.exact_scan_us"] = {Median(exact_us), "us"};
}

double ServedRecall(plp::serve::ShardedServingEngine& engine,
                    const plp::serve::ModelSnapshot& reference_f32,
                    const TierSpec& spec, uint64_t seed, int32_t samples,
                    int64_t& failed) {
  constexpr int32_t kHistory = 5;
  plp::Rng rng(seed);
  double recall = 0.0;
  for (int32_t i = 0; i < samples; ++i) {
    plp::serve::Request request;
    request.user_id = i;
    request.k = spec.k;
    for (int32_t h = 0; h < kHistory; ++h) {
      request.history.push_back(static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(spec.locations))));
    }
    const plp::serve::Response response = engine.Recommend(request);
    if (!response.status.ok() ||
        response.topk.size() != static_cast<size_t>(spec.k)) {
      ++failed;
      continue;
    }
    const auto exact = plp::serve::TopKScores(
        reference_f32, reference_f32.Profile(request.history), spec.k);
    recall += Recall(response.topk, exact);
  }
  return samples > 0 ? recall / samples : 0.0;
}

}  // namespace perfbench
