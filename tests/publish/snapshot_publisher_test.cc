#include "publish/snapshot_publisher.h"

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>
#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "sgns/model.h"

namespace plp::publish {
namespace {

sgns::SgnsModel MakeModel(uint64_t seed, int32_t locations = 40,
                          int32_t dim = 8) {
  Rng rng(seed);
  sgns::SgnsConfig config;
  config.embedding_dim = dim;
  config.init_scale = 1.0;
  auto model = sgns::SgnsModel::Create(locations, config, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/publisher_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

PublisherConfig BaseConfig(const std::string& dir) {
  PublisherConfig config;
  config.publish_dir = dir;
  config.recall.num_queries = 32;  // cheap but meaningful on test models
  return config;
}

TEST(SnapshotPublisherTest, PublishesPromotesAndSwapsCurrent) {
  const std::string dir = FreshDir("happy");
  auto publisher = SnapshotPublisher::Create(BaseConfig(dir));
  ASSERT_TRUE(publisher.ok());
  EXPECT_FALSE(publisher->CurrentVersion().ok());  // nothing published yet

  auto result = publisher->Publish(MakeModel(3), 0.5, 10);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->version, 1u);
  EXPECT_FALSE(result->resumed);
  ASSERT_NE(result->snapshot, nullptr);
  EXPECT_TRUE(std::filesystem::exists(publisher->ModelPath(1)));
  EXPECT_FALSE(std::filesystem::exists(dir + "/staging"));

  auto current = publisher->CurrentVersion();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1u);
  EXPECT_TRUE(publisher->VerifyCurrent().ok());
  ASSERT_EQ(publisher->ledger().records().size(), 1u);
  EXPECT_EQ(publisher->ledger().last()->epsilon_spent, 0.5);
  EXPECT_EQ(publisher->ledger().last()->snapshot_checksum,
            result->snapshot->checksum());

  // Second publish becomes v2 and takes over CURRENT.
  auto second = publisher->Publish(MakeModel(4), 1.0, 20);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->version, 2u);
  EXPECT_EQ(*publisher->CurrentVersion(), 2u);
  EXPECT_TRUE(publisher->VerifyCurrent().ok());
  EXPECT_TRUE(std::filesystem::exists(publisher->ModelPath(1)));  // kept
}

TEST(SnapshotPublisherTest, EpsilonRegressionIsRejectedBeforePromote) {
  const std::string dir = FreshDir("eps_regress");
  auto publisher = SnapshotPublisher::Create(BaseConfig(dir));
  ASSERT_TRUE(publisher.ok());
  ASSERT_TRUE(publisher->Publish(MakeModel(5), 1.0, 10).ok());

  auto regressed = publisher->Publish(MakeModel(6), 0.25, 20);
  ASSERT_FALSE(regressed.ok());
  EXPECT_EQ(*publisher->CurrentVersion(), 1u);
  EXPECT_EQ(publisher->ledger().records().size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(publisher->VersionDir(2)));
}

TEST(SnapshotPublisherTest, ValidateFaultFailsBeforeAnyAccounting) {
  const std::string dir = FreshDir("validate_fault");
  auto publisher = SnapshotPublisher::Create(BaseConfig(dir));
  ASSERT_TRUE(publisher.ok());

  FaultInjection::Arm("publish.validate", FaultMode::kFail);
  auto result = publisher->Publish(MakeModel(7), 0.5, 10);
  FaultInjection::Disarm();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(publisher->ledger().records().empty());
  EXPECT_FALSE(publisher->CurrentVersion().ok());
  EXPECT_FALSE(std::filesystem::exists(publisher->VersionDir(1)));

  // The same input then publishes cleanly.
  auto retried = publisher->Publish(MakeModel(7), 0.5, 10);
  ASSERT_TRUE(retried.ok());
  EXPECT_FALSE(retried->resumed);
  EXPECT_EQ(retried->version, 1u);
}

// The ε-idempotency contract: a fault AFTER the ledger append must not
// re-append on retry — the retry resumes the same version.
TEST(SnapshotPublisherTest, RetryAfterPromoteFaultResumesWithoutDoubleSpend) {
  const std::string dir = FreshDir("promote_fault");
  auto publisher = SnapshotPublisher::Create(BaseConfig(dir));
  ASSERT_TRUE(publisher.ok());
  const sgns::SgnsModel model = MakeModel(9);

  FaultInjection::Arm("publish.promote", FaultMode::kFail);
  auto failed = publisher->Publish(model, 0.5, 10);
  FaultInjection::Disarm();
  ASSERT_FALSE(failed.ok());
  // ε is accounted, but v1 is neither promoted nor CURRENT.
  ASSERT_EQ(publisher->ledger().records().size(), 1u);
  EXPECT_FALSE(publisher->CurrentVersion().ok());
  EXPECT_FALSE(std::filesystem::exists(publisher->VersionDir(1)));

  auto retried = publisher->Publish(model, 0.5, 10);
  ASSERT_TRUE(retried.ok()) << retried.status().message();
  EXPECT_TRUE(retried->resumed);
  EXPECT_EQ(retried->version, 1u);
  EXPECT_EQ(publisher->ledger().records().size(), 1u);  // counted ONCE
  EXPECT_EQ(*publisher->CurrentVersion(), 1u);
  EXPECT_TRUE(publisher->VerifyCurrent().ok());
}

TEST(SnapshotPublisherTest, RetryAfterCurrentSwapFaultResumes) {
  const std::string dir = FreshDir("swap_fault");
  auto publisher = SnapshotPublisher::Create(BaseConfig(dir));
  ASSERT_TRUE(publisher.ok());
  const sgns::SgnsModel model = MakeModel(11);

  FaultInjection::Arm("publish.current_swap", FaultMode::kFail);
  auto failed = publisher->Publish(model, 0.5, 10);
  FaultInjection::Disarm();
  ASSERT_FALSE(failed.ok());
  // Promoted and accounted, but not yet nameable.
  EXPECT_TRUE(std::filesystem::exists(publisher->ModelPath(1)));
  EXPECT_FALSE(publisher->CurrentVersion().ok());

  auto retried = publisher->Publish(model, 0.5, 10);
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->resumed);
  EXPECT_EQ(publisher->ledger().records().size(), 1u);
  EXPECT_EQ(*publisher->CurrentVersion(), 1u);
}

TEST(SnapshotPublisherTest, ImpossibleRecallGateFailsClosed) {
  const std::string dir = FreshDir("recall_gate");
  PublisherConfig config = BaseConfig(dir);
  config.snapshot.format = serve::SnapshotFormat::kFloat16;
  config.snapshot.build_ivf = true;
  config.min_recall = 1.01;  // unattainable by construction
  auto publisher = SnapshotPublisher::Create(config);
  ASSERT_TRUE(publisher.ok());

  auto result = publisher->Publish(MakeModel(13, 200, 16), 0.5, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(publisher->ledger().records().empty());
  EXPECT_FALSE(publisher->CurrentVersion().ok());
}

TEST(SnapshotPublisherTest, QuantizedIndexedCandidatePassesRealGate) {
  const std::string dir = FreshDir("recall_pass");
  PublisherConfig config = BaseConfig(dir);
  config.snapshot.format = serve::SnapshotFormat::kFloat16;
  config.snapshot.build_ivf = true;
  // Random-init embeddings have no cluster structure, so probe every list:
  // the gate then measures fp16 quantization loss, which is tiny.
  config.recall.nprobe = 1 << 20;
  config.min_recall = 0.95;
  auto publisher = SnapshotPublisher::Create(config);
  ASSERT_TRUE(publisher.ok());
  auto result = publisher->Publish(MakeModel(15, 200, 16), 0.5, 10);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->snapshot->format(), serve::SnapshotFormat::kFloat16);
  ASSERT_EQ(publisher->ledger().records().size(), 1u);
  EXPECT_EQ(publisher->ledger().last()->snapshot_checksum,
            result->snapshot->checksum());
  EXPECT_TRUE(publisher->VerifyCurrent().ok());
}

TEST(SnapshotPublisherTest, RollbackMovesCurrentOnlyToAccountedVersions) {
  const std::string dir = FreshDir("rollback");
  auto publisher = SnapshotPublisher::Create(BaseConfig(dir));
  ASSERT_TRUE(publisher.ok());
  ASSERT_TRUE(publisher->Publish(MakeModel(17), 0.5, 10).ok());
  ASSERT_TRUE(publisher->Publish(MakeModel(18), 1.0, 20).ok());
  ASSERT_EQ(*publisher->CurrentVersion(), 2u);

  ASSERT_TRUE(publisher->RollbackTo(1).ok());
  EXPECT_EQ(*publisher->CurrentVersion(), 1u);
  EXPECT_TRUE(publisher->VerifyCurrent().ok());
  // The ledger is untouched by rollback — ε stays spent.
  EXPECT_EQ(publisher->ledger().records().size(), 2u);
  // Unaccounted versions are not a rollback target.
  EXPECT_FALSE(publisher->RollbackTo(99).ok());
  EXPECT_EQ(*publisher->CurrentVersion(), 1u);
}

TEST(SnapshotPublisherTest, VerifyCurrentCatchesTamperedArtifact) {
  const std::string dir = FreshDir("tamper");
  auto publisher = SnapshotPublisher::Create(BaseConfig(dir));
  ASSERT_TRUE(publisher.ok());
  ASSERT_TRUE(publisher->Publish(MakeModel(19), 0.5, 10).ok());
  ASSERT_TRUE(publisher->VerifyCurrent().ok());

  auto bytes = ReadFileToString(publisher->ModelPath(1));
  ASSERT_TRUE(bytes.ok());
  std::string flipped = *bytes;
  flipped[flipped.size() - 3] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(publisher->ModelPath(1), flipped).ok());
  EXPECT_FALSE(publisher->VerifyCurrent().ok());
}

}  // namespace
}  // namespace plp::publish
