#include "publish_phase.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "publish/publish_ledger.h"
#include "publish/snapshot_publisher.h"
#include "serve/model_snapshot.h"
#include "serve/recall_gate.h"
#include "serve_phase.h"

namespace perfbench {
namespace {

double MillisSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

plp::publish::PublisherConfig MakePublisherConfig(const std::string& dir) {
  plp::publish::PublisherConfig config;
  config.publish_dir = dir;
  config.snapshot = ServedSnapshotOptions();
  return config;
}

}  // namespace

PublishLoop::PublishLoop(const std::string& dir,
                         std::array<const plp::sgns::SgnsModel*, 2> models,
                         plp::serve::ShardedServingEngine* engine)
    : models_(models) {
  plp::publish::SupervisorConfig config;
  config.publisher = MakePublisherConfig(dir);
  auto supervisor = plp::publish::PublishSupervisor::Create(config, engine);
  PLP_CHECK_OK(supervisor.status());
  supervisor_.emplace(std::move(supervisor).value());
}

double PublishLoop::RunCycle(double epsilon, int64_t steps) {
  int64_t train_ns = 0;
  const plp::publish::TrainFn train = [&](uint64_t cycle)
      -> plp::Result<plp::publish::TrainedArtifact> {
    const int64_t start = NowNs();
    plp::publish::TrainedArtifact artifact;
    artifact.model = *models_[cycle % 2];
    artifact.epsilon_spent = epsilon;
    artifact.steps = steps;
    train_ns += NowNs() - start;
    return artifact;
  };
  const int64_t start = NowNs();
  auto report = supervisor_->RunCycle(train);
  const double ms = MillisSince(start) - static_cast<double>(train_ns) * 1e-6;
  PLP_CHECK_OK(report.status());
  ++attempted_;
  if (report->published) {
    serving_model_ = static_cast<int>(report->cycle % 2);
  } else {
    ++failed_;
    std::fprintf(stderr, "publish cycle %llu failed: %s\n",
                 static_cast<unsigned long long>(report->cycle),
                 report->failure.ToString().c_str());
  }
  cycle_ms_.push_back(ms);
  return ms;
}

std::string PublishLoop::CheckInvariants() const {
  const plp::publish::SnapshotPublisher& publisher = supervisor_->publisher();
  const auto& records = publisher.ledger().records();
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].epsilon_spent < records[i - 1].epsilon_spent) {
      return "ledger epsilon decreased at version " +
             std::to_string(records[i].version);
    }
  }
  auto current = publisher.CurrentVersion();
  if (!current.ok()) return "no CURRENT version: " + current.status().message();
  if (*current != supervisor_->last_good_version()) {
    return "CURRENT names v" + std::to_string(*current) +
           ", last successful publish was v" +
           std::to_string(supervisor_->last_good_version());
  }
  if (plp::Status verified = publisher.VerifyCurrent(); !verified.ok()) {
    return "CURRENT does not verify: " + verified.message();
  }
  return "";
}

void ReplayPublishPath(const std::string& dir,
                       const plp::sgns::SgnsModel& model,
                       plp::serve::ShardedServingEngine& engine, int reps,
                       MetricMap& out) {
  auto reference = plp::serve::ModelSnapshot::FromModel(model, 1);
  PLP_CHECK_OK(reference.status());
  auto ledger = plp::publish::PublishLedger::Open(dir + "/replay_ledger.plpl");
  PLP_CHECK_OK(ledger.status());
  auto publisher =
      plp::publish::SnapshotPublisher::Create(MakePublisherConfig(dir + "/tree"));
  PLP_CHECK_OK(publisher.status());

  std::vector<double> build_ms, recall_ms, ledger_ms, publish_ms, swap_us;
  for (int r = 0; r < reps; ++r) {
    const auto version = static_cast<uint64_t>(r + 1);
    int64_t t = NowNs();
    auto snapshot = plp::serve::ModelSnapshot::FromModel(
        model, version, ServedSnapshotOptions());
    build_ms.push_back(MillisSince(t));
    PLP_CHECK_OK(snapshot.status());

    t = NowNs();
    (void)plp::serve::MeasureRecallAtK(**snapshot, **reference,
                                       plp::serve::RecallProbe{});
    recall_ms.push_back(MillisSince(t));

    plp::publish::PublishRecord record;
    record.version = ledger->NextVersion();
    record.train_steps = r + 1;
    record.epsilon_spent = static_cast<double>(r + 1);
    record.snapshot_checksum = (*snapshot)->checksum();
    t = NowNs();
    PLP_CHECK_OK(ledger->Append(record));
    ledger_ms.push_back(MillisSince(t));

    t = NowNs();
    auto published =
        publisher->Publish(model, static_cast<double>(r + 1), r + 1);
    publish_ms.push_back(MillisSince(t));
    PLP_CHECK_OK(published.status());

    t = NowNs();
    PLP_CHECK_OK(engine.PublishSnapshot(*snapshot));
    swap_us.push_back(MillisSince(t) * 1e3);
  }
  out["publish.snapshot_build_ms"] = {Median(build_ms), "ms"};
  out["publish.recall_gate_ms"] = {Median(recall_ms), "ms"};
  out["publish.ledger_append_ms"] = {Median(ledger_ms), "ms"};
  out["publish.publish_ms"] = {Median(publish_ms), "ms"};
  out["serve.swap_us"] = {Median(swap_us), "us"};
}

}  // namespace perfbench
