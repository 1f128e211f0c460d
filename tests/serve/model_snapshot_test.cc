#include "serve/model_snapshot.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "eval/recommender.h"
#include "sgns/model_io.h"

namespace plp::serve {
namespace {

sgns::SgnsModel MakeModel(uint64_t seed, int32_t locations = 40,
                          int32_t dim = 12) {
  Rng rng(seed);
  sgns::SgnsConfig config;
  config.embedding_dim = dim;
  config.init_scale = 1.0;
  auto model = sgns::SgnsModel::Create(locations, config, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(ModelSnapshotTest, BuildsUnitRowsFromModel) {
  const sgns::SgnsModel model = MakeModel(3);
  auto snapshot_or = ModelSnapshot::FromModel(model, 7);
  ASSERT_TRUE(snapshot_or.ok());
  const ModelSnapshot& snapshot = **snapshot_or;
  EXPECT_EQ(snapshot.num_locations(), 40);
  EXPECT_EQ(snapshot.dim(), 12);
  EXPECT_EQ(snapshot.version(), 7u);
  EXPECT_EQ(snapshot.memory_bytes(), 40u * 12u * sizeof(float));
  for (int32_t l = 0; l < snapshot.num_locations(); ++l) {
    float sq = 0.0f;
    for (float v : snapshot.Row(l)) sq += v * v;
    EXPECT_NEAR(sq, 1.0f, 1e-5f);
  }
}

// The acceptance bar of the serving engine: the float32 snapshot must
// reproduce eval::Recommender's TopK on identical inputs, modulo float32
// tie-breaks — so compare by per-rank score, not by id.
TEST(ModelSnapshotTest, TopKMatchesRecommender) {
  const sgns::SgnsModel model = MakeModel(11, 120, 16);
  const eval::Recommender recommender(model);
  auto snapshot_or = ModelSnapshot::FromModel(model, 1);
  ASSERT_TRUE(snapshot_or.ok());
  const ModelSnapshot& snapshot = **snapshot_or;

  const std::vector<int32_t> histories[] = {
      {0}, {5, 9, 14}, {17, 17, 3}, {100, 2, 55, 81, 7}};
  for (const auto& history : histories) {
    const int32_t k = 10;
    const std::vector<int32_t> expected = recommender.TopK(history, k);
    const std::vector<double> scores = recommender.Scores(history);
    const std::vector<float> profile = snapshot.Profile(history);
    const std::vector<ScoredLocation> got =
        TopKScores(snapshot, profile, k);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Same id, or a float32 near-tie: both ranked scores must agree.
      EXPECT_NEAR(got[i].score,
                  scores[static_cast<size_t>(expected[i])], 1e-4)
          << "rank " << i << ": got id " << got[i].location
          << ", recommender id " << expected[i];
      EXPECT_NEAR(got[i].score,
                  scores[static_cast<size_t>(got[i].location)], 1e-4);
    }
  }
}

TEST(ModelSnapshotTest, TopKRespectsExcludeAndK) {
  const sgns::SgnsModel model = MakeModel(5, 20, 8);
  auto snapshot_or = ModelSnapshot::FromModel(model, 1);
  ASSERT_TRUE(snapshot_or.ok());
  const ModelSnapshot& snapshot = **snapshot_or;
  const std::vector<int32_t> history = {4, 9};
  const std::vector<float> profile = snapshot.Profile(history);

  const auto all = TopKScores(snapshot, profile, 20);
  ASSERT_EQ(all.size(), 20u);
  // Scores are sorted best-first.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].score, all[i].score);
  }
  // Excluding the winner promotes the runner-up.
  const std::vector<int32_t> exclude = {all[0].location};
  const auto without = TopKScores(snapshot, profile, 3, exclude);
  ASSERT_EQ(without.size(), 3u);
  EXPECT_EQ(without[0].location, all[1].location);
  for (const ScoredLocation& s : without) {
    EXPECT_NE(s.location, all[0].location);
  }
  // k larger than L returns every location.
  EXPECT_EQ(TopKScores(snapshot, profile, 999).size(), 20u);
}

TEST(ModelSnapshotTest, ChecksumIsStableAndContentSensitive) {
  const sgns::SgnsModel model = MakeModel(13);
  auto a = ModelSnapshot::FromModel(model, 1);
  auto b = ModelSnapshot::FromModel(model, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same content → same checksum (version is not part of the content).
  EXPECT_EQ((*a)->checksum(), (*b)->checksum());
  auto c = ModelSnapshot::FromModel(MakeModel(14), 1);
  ASSERT_TRUE(c.ok());
  EXPECT_NE((*a)->checksum(), (*c)->checksum());
}

TEST(ModelSnapshotTest, VerifyPassesOnEveryFormat) {
  const sgns::SgnsModel model = MakeModel(41);
  for (SnapshotFormat format :
       {SnapshotFormat::kFloat32, SnapshotFormat::kFloat16}) {
    SnapshotOptions options;
    options.format = format;
    auto snapshot = ModelSnapshot::FromModel(model, 1, options);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_TRUE((*snapshot)->Verify().ok()) << FormatName(format);
    // Replicas carry the same bytes and the same stamp.
    EXPECT_TRUE((*snapshot)->Replicate()->Verify().ok()) << FormatName(format);
  }
}

TEST(ModelSnapshotTest, VerifyDetectsInMemoryCorruption) {
  auto snapshot_or = ModelSnapshot::FromModel(MakeModel(43), 1);
  ASSERT_TRUE(snapshot_or.ok());
  const ModelSnapshot& snapshot = **snapshot_or;
  ASSERT_TRUE(snapshot.Verify().ok());
  // Simulate a bit-flip between build and publish: the snapshot is
  // logically immutable, so reach through the read-only view.
  auto* payload = const_cast<float*>(snapshot.embeddings().data());
  const float original = payload[0];
  payload[0] = original + 1.0f;  // rows are unit-norm, so this is a change
  const Status status = snapshot.Verify();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // Restore the exact bytes and the gate opens again — the check reads
  // the payload, not a sticky flag.
  payload[0] = original;
  EXPECT_TRUE(snapshot.Verify().ok());
}

TEST(ModelSnapshotTest, FromFileAcceptsBothFormats) {
  const sgns::SgnsModel model = MakeModel(17);
  const std::string full = TempPath("snapshot_full.plpm");
  const std::string embeddings = TempPath("snapshot_embed.plpe");
  ASSERT_TRUE(sgns::SaveModel(model, full).ok());
  ASSERT_TRUE(sgns::SaveEmbeddings(model, embeddings).ok());

  auto from_full = ModelSnapshot::FromFile(full, 1);
  auto from_embeddings = ModelSnapshot::FromFile(embeddings, 1);
  ASSERT_TRUE(from_full.ok());
  ASSERT_TRUE(from_embeddings.ok());
  // Both paths produce the same serving matrix.
  EXPECT_EQ((*from_full)->checksum(), (*from_embeddings)->checksum());
  std::remove(full.c_str());
  std::remove(embeddings.c_str());
}

TEST(ModelSnapshotTest, FromFileRejectsMissingAndCorrupt) {
  EXPECT_EQ(ModelSnapshot::FromFile("/nonexistent/m.plpm", 1)
                .status()
                .code(),
            StatusCode::kNotFound);
  const std::string path = TempPath("snapshot_corrupt.plpm");
  std::ofstream(path, std::ios::binary) << "GARBAGE GARBAGE GARBAGE";
  auto result = ModelSnapshot::FromFile(path, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelSnapshotTest, ValidateHistoryFlagsBadIds) {
  auto snapshot_or = ModelSnapshot::FromModel(MakeModel(19, 10, 4), 1);
  ASSERT_TRUE(snapshot_or.ok());
  const ModelSnapshot& snapshot = **snapshot_or;
  const std::vector<int32_t> good = {0, 9, 5};
  EXPECT_TRUE(snapshot.ValidateHistory(good).ok());
  const std::vector<int32_t> too_big = {0, 10};
  EXPECT_FALSE(snapshot.ValidateHistory(too_big).ok());
  const std::vector<int32_t> negative = {-1};
  EXPECT_FALSE(snapshot.ValidateHistory(negative).ok());
  EXPECT_FALSE(snapshot.ValidateHistory({}).ok());
}

}  // namespace
}  // namespace plp::serve
