// DP sensitivity invariants of the Gaussian sum query (Algorithm 1 lines
// 7–9): on neighboring datasets — one user removed — the pre-noise sum of
// clipped bucket deltas moves by a bounded l2 distance.
//
// The bound depends on the bucket family:
//   * λ = 1 singleton buckets (the DP-SGD baseline): removing a user
//     removes exactly their bucket, so the sum moves by ≤ C.
//   * ω dedicated buckets per user (each holding one part of one user's
//     stream): removal deletes ω buckets, each clipped to C, so the sum
//     moves by ≤ ω·C — the paper's Section 4.2 sensitivity.
//   * shared buckets (λ > 1 users per bucket): the removed user's bucket
//     is replaced by its delta recomputed without them; both versions are
//     clipped to C, so the worst case is 2·C per touched bucket, i.e.
//     2·ω·C overall. This is the honest bound for the shared-bucket
//     pairing; the ω·C calibration matches the literature's convention
//     where the removed user's contribution is its own query row.
//
// All neighbor comparisons rely on BucketSeed's content keying: buckets
// not containing the removed user keep their exact RNG stream and hence
// their exact delta, so the only movement comes from the touched buckets.
//
// Every bucket delta comes from the production stages
// (pipeline::MakePrivateStages): the LocalUpdater's raw delta, then the
// DeltaClipper — the same pair TrainingEngine runs per bucket.
//
// The suite ends with negative tests proving the checker would catch a
// deliberately broken mechanism (clip bound raised, ω ignored).

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/bucket_update.h"
#include "core/config.h"
#include "core/grouping.h"
#include "data/corpus.h"
#include "pipeline/standard_stages.h"
#include "sgns/model.h"
#include "sgns/sparse_delta.h"
#include "support/fixtures.h"
#include "support/seeded_driver.h"

namespace plp::core {
namespace {

// Float slack on top of analytic bounds: sums of ~10² clipped deltas with
// entries of order 1e-1 accumulate rounding well below this.
constexpr double kTol = 1e-9;

PlpConfig SensitivityConfig() {
  PlpConfig config = test::InvariantTrainerConfig();
  // Saturate the clip: a huge local learning rate makes every bucket's
  // raw delta far larger than C, so the assertions below are exercised at
  // the clipping boundary rather than trivially inside it.
  config.local_learning_rate = 5.0;
  config.local_epochs = 2;
  return config;
}

sgns::SgnsModel MakeModel(int32_t num_locations, const PlpConfig& config,
                          uint64_t seed) {
  Rng rng(seed);
  auto model = sgns::SgnsModel::Create(num_locations, config.sgns, rng);
  PLP_CHECK(model.ok());
  return *std::move(model);
}

// The private stages for `config`, prepared on `corpus` the way
// TrainingEngine prepares them before its first step.
pipeline::StageSet PreparedStages(const PlpConfig& config,
                                  const data::CorpusView& corpus,
                                  const sgns::SgnsModel& model) {
  pipeline::StageSet stages = pipeline::MakePrivateStages(config);
  Rng prepare_rng(0);  // the bucket updater's Prepare draws nothing
  PLP_CHECK_OK(stages.updater->Prepare(corpus, model, prepare_rng));
  return stages;
}

// One bucket's clipped delta: the updater's raw delta, then line 21.
sgns::SparseDelta ClippedBucketDelta(const pipeline::StageSet& stages,
                                     const sgns::SgnsModel& theta,
                                     const Bucket& bucket,
                                     int32_t num_locations, Rng& bucket_rng) {
  sgns::SparseDelta delta(theta.dim());
  stages.updater->ComputeDelta(theta, bucket, num_locations, bucket_rng,
                               /*loss_out=*/nullptr, /*scratch=*/nullptr,
                               delta);
  stages.clipper->Clip(delta);
  return delta;
}

// The pre-noise Gaussian sum query: Σ over buckets of the clipped bucket
// delta, each bucket trained on its content-keyed RNG (exactly what
// TrainingEngine does per step).
sgns::DenseUpdate SumClippedDeltas(const pipeline::StageSet& stages,
                                   const sgns::SgnsModel& theta,
                                   const std::vector<Bucket>& buckets,
                                   int32_t num_locations,
                                   uint64_t step_seed) {
  sgns::DenseUpdate sum(theta);
  for (const Bucket& bucket : buckets) {
    if (bucket.sentences.empty()) continue;
    Rng bucket_rng(BucketSeed(step_seed, bucket));
    ClippedBucketDelta(stages, theta, bucket, num_locations, bucket_rng)
        .AccumulateInto(sum, 1.0);
  }
  return sum;
}

double Distance(const sgns::DenseUpdate& a, const sgns::DenseUpdate& b) {
  double sq = 0.0;
  for (int t = 0; t < sgns::kNumTensors; ++t) {
    const auto xa = a.TensorData(static_cast<sgns::Tensor>(t));
    const auto xb = b.TensorData(static_cast<sgns::Tensor>(t));
    EXPECT_EQ(xa.size(), xb.size());
    for (size_t i = 0; i < xa.size(); ++i) {
      const double d = xa[i] - xb[i];
      sq += d * d;
    }
  }
  return std::sqrt(sq);
}

// The neighboring dataset's bucket list: `removed` is taken out of every
// bucket (their sentences dropped, empty buckets deleted). Requires the
// users[j] ↔ sentences[j] alignment that holds for single-sentence-per-
// user corpora — which is what the fixture builders produce — in both the
// random λ-grouping and the ω-split paths.
std::vector<Bucket> RemoveUser(const std::vector<Bucket>& buckets,
                               int32_t removed) {
  std::vector<Bucket> out;
  for (const Bucket& bucket : buckets) {
    PLP_CHECK_EQ(bucket.users.size(), bucket.sentences.size());
    Bucket kept;
    for (size_t j = 0; j < bucket.users.size(); ++j) {
      if (bucket.users[j] == removed) continue;
      kept.users.push_back(bucket.users[j]);
      kept.sentences.push_back(bucket.sentences[j]);
    }
    if (!kept.sentences.empty()) out.push_back(std::move(kept));
  }
  return out;
}

// ω dedicated buckets per user: the user's single sentence cut into ω
// contiguous parts, each its own bucket. This is the atomic bucket family
// for which the ω·C movement bound is exact.
std::vector<Bucket> DedicatedSplitBuckets(const data::TrainingCorpus& corpus,
                                          const std::vector<int32_t>& users,
                                          int32_t omega) {
  std::vector<Bucket> buckets;
  for (int32_t u : users) {
    const std::vector<int32_t>& sentence = corpus.user_sentences[u][0];
    const size_t part_len =
        (sentence.size() + static_cast<size_t>(omega) - 1) /
        static_cast<size_t>(omega);
    for (int32_t p = 0; p < omega; ++p) {
      const size_t lo = static_cast<size_t>(p) * part_len;
      if (lo >= sentence.size()) break;
      const size_t hi = std::min(sentence.size(), lo + part_len);
      Bucket bucket;
      bucket.users.push_back(u);
      bucket.sentences.emplace_back(sentence.begin() + lo,
                                    sentence.begin() + hi);
      buckets.push_back(std::move(bucket));
    }
  }
  return buckets;
}

TEST(SensitivityTest, BucketDeltaNormNeverExceedsClip) {
  const PlpConfig config = SensitivityConfig();
  test::ForEachSeed(3, /*base=*/0xA11CE, [&](uint64_t seed) {
    const data::TrainingCorpus corpus = test::UniformCorpus(seed, 40, 25);
    const sgns::SgnsModel model = MakeModel(25, config, seed ^ 1);
    Rng rng(seed ^ 2);
    const std::vector<int32_t> sampled =
        PoissonSampleUsers(corpus.num_users(), 0.5, rng);
    const std::vector<Bucket> buckets =
        BuildBuckets(corpus, sampled, config, rng);
    ASSERT_FALSE(buckets.empty());
    const pipeline::StageSet stages = PreparedStages(config, corpus, model);
    double max_norm = 0.0;
    for (const Bucket& bucket : buckets) {
      Rng bucket_rng(BucketSeed(rng.NextU64(), bucket));
      const sgns::SparseDelta delta = ClippedBucketDelta(
          stages, model, bucket, corpus.num_locations, bucket_rng);
      const double norm = delta.TotalNorm();
      EXPECT_LE(norm, config.clip_norm + kTol);
      max_norm = std::max(max_norm, norm);
    }
    // Non-vacuous: the huge learning rate must actually saturate the clip.
    EXPECT_GT(max_norm, 0.9 * config.clip_norm);
  });
}

TEST(SensitivityTest, DpSgdNeighborMovesAtMostClip) {
  // λ = 1, single-gradient: exactly the DP-SGD baseline's query. The
  // neighbor is rebuilt from scratch through the full grouping pipeline —
  // content-keyed bucket seeds make every surviving singleton's delta
  // identical, so the sum moves only by the removed user's clipped delta.
  PlpConfig config = SensitivityConfig();
  config.grouping_factor = 1;
  config.local_update = LocalUpdateMode::kSingleGradient;
  test::ForEachSeed(3, /*base=*/0xD9551, [&](uint64_t seed) {
    const data::TrainingCorpus corpus = test::UniformCorpus(seed, 30, 25);
    const sgns::SgnsModel model = MakeModel(25, config, seed ^ 1);
    Rng sample_rng(seed ^ 2);
    const std::vector<int32_t> sampled =
        PoissonSampleUsers(corpus.num_users(), 0.4, sample_rng);
    if (sampled.size() < 2) return;
    const uint64_t step_seed = 0xFEEDFACEULL ^ seed;
    const pipeline::StageSet stages = PreparedStages(config, corpus, model);

    Rng group_rng(seed ^ 3);
    const std::vector<Bucket> buckets =
        BuildBuckets(corpus, sampled, config, group_rng);
    const sgns::DenseUpdate sum = SumClippedDeltas(
        stages, model, buckets, corpus.num_locations, step_seed);

    for (int32_t removed : sampled) {
      std::vector<int32_t> neighbor_sample;
      for (int32_t u : sampled) {
        if (u != removed) neighbor_sample.push_back(u);
      }
      Rng neighbor_group_rng(seed ^ 3);
      const std::vector<Bucket> neighbor_buckets = BuildBuckets(
          corpus, neighbor_sample, config, neighbor_group_rng);
      const sgns::DenseUpdate neighbor_sum =
          SumClippedDeltas(stages, model, neighbor_buckets,
                           corpus.num_locations, step_seed);
      EXPECT_LE(Distance(sum, neighbor_sum), config.clip_norm + kTol);
    }
  });
}

TEST(SensitivityTest, SplitUserMovesAtMostOmegaClip) {
  // ω = 2 dedicated buckets: each user's stream is cut into two buckets of
  // their own, so removal deletes both and the sum moves by ≤ ω·C. The
  // movement must also exceed C for some user — that is what makes ω·C
  // (not C) the right calibration when data is split.
  const PlpConfig config = SensitivityConfig();
  const int32_t omega = 2;
  test::ForEachSeed(3, /*base=*/0x5D117, [&](uint64_t seed) {
    const data::TrainingCorpus corpus =
        test::UniformCorpus(seed, 20, 25, /*min_tokens=*/16,
                            /*max_tokens=*/30);
    const sgns::SgnsModel model = MakeModel(25, config, seed ^ 1);
    std::vector<int32_t> users(corpus.user_sentences.size());
    for (size_t u = 0; u < users.size(); ++u) {
      users[u] = static_cast<int32_t>(u);
    }
    const std::vector<Bucket> buckets =
        DedicatedSplitBuckets(corpus, users, omega);
    ASSERT_EQ(buckets.size(), users.size() * static_cast<size_t>(omega));
    const uint64_t step_seed = 0xB0B0ULL ^ seed;
    const pipeline::StageSet stages = PreparedStages(config, corpus, model);
    const sgns::DenseUpdate sum = SumClippedDeltas(
        stages, model, buckets, corpus.num_locations, step_seed);

    double max_movement = 0.0;
    for (int32_t removed : users) {
      const std::vector<Bucket> neighbor_buckets =
          RemoveUser(buckets, removed);
      const sgns::DenseUpdate neighbor_sum =
          SumClippedDeltas(stages, model, neighbor_buckets,
                           corpus.num_locations, step_seed);
      const double movement = Distance(sum, neighbor_sum);
      EXPECT_LE(movement, omega * config.clip_norm + kTol);
      max_movement = std::max(max_movement, movement);
    }
    // ω matters: some user's removal moves the sum by more than C, so a
    // mechanism that ignored ω and added noise calibrated to C alone
    // would be under-noised. (This is the "ω ignored" detection half of
    // the negative-test requirement.)
    EXPECT_GT(max_movement, config.clip_norm);
  });
}

TEST(SensitivityTest, GroupedNeighborMovesAtMostTwiceOmegaClip) {
  // Shared buckets (λ = 3, the paper's grouped PLP): removing a user
  // changes the one bucket containing them — its delta is recomputed
  // without their sentences. Both the old and new delta are clipped to C,
  // so the movement is at most 2·C (= 2·ω·C with ω = 1). Content keying
  // pins every untouched bucket exactly.
  PlpConfig config = SensitivityConfig();
  config.grouping_factor = 3;
  test::ForEachSeed(3, /*base=*/0x9800D, [&](uint64_t seed) {
    const data::TrainingCorpus corpus = test::UniformCorpus(seed, 36, 25);
    const sgns::SgnsModel model = MakeModel(25, config, seed ^ 1);
    Rng rng(seed ^ 2);
    const std::vector<int32_t> sampled =
        PoissonSampleUsers(corpus.num_users(), 0.5, rng);
    if (sampled.empty()) return;
    const std::vector<Bucket> buckets =
        BuildBuckets(corpus, sampled, config, rng);
    const uint64_t step_seed = 0xC0FFEEULL ^ seed;
    const pipeline::StageSet stages = PreparedStages(config, corpus, model);
    const sgns::DenseUpdate sum = SumClippedDeltas(
        stages, model, buckets, corpus.num_locations, step_seed);

    for (int32_t removed : sampled) {
      const std::vector<Bucket> neighbor_buckets =
          RemoveUser(buckets, removed);
      const sgns::DenseUpdate neighbor_sum =
          SumClippedDeltas(stages, model, neighbor_buckets,
                           corpus.num_locations, step_seed);
      EXPECT_LE(Distance(sum, neighbor_sum),
                2.0 * config.clip_norm + kTol);
    }
  });
}

TEST(SensitivityTest, NegativeRaisedClipBoundIsDetected) {
  // Deliberately break the mechanism: raise the clip bound 4× while the
  // noise (hypothetically) stays calibrated to the original C. The
  // neighbor-movement checker above must detect this — i.e. some user's
  // removal must move the sum by more than the original C. If this test
  // ever fails, the sensitivity harness has lost its teeth.
  PlpConfig honest = SensitivityConfig();
  honest.grouping_factor = 1;
  PlpConfig broken = honest;
  broken.clip_norm = 4.0 * honest.clip_norm;

  const uint64_t seed = test::SeedAt(0xBADC0DE, 0);
  const data::TrainingCorpus corpus = test::UniformCorpus(seed, 24, 25);
  const sgns::SgnsModel model = MakeModel(25, honest, seed ^ 1);
  Rng rng(seed ^ 2);
  const std::vector<int32_t> sampled =
      PoissonSampleUsers(corpus.num_users(), 0.6, rng);
  ASSERT_GE(sampled.size(), 2u);
  const std::vector<Bucket> buckets =
      BuildBuckets(corpus, sampled, honest, rng);
  const uint64_t step_seed = 0xDEAD10CCULL ^ seed;

  auto max_movement = [&](const PlpConfig& config) {
    const pipeline::StageSet stages = PreparedStages(config, corpus, model);
    const sgns::DenseUpdate sum = SumClippedDeltas(
        stages, model, buckets, corpus.num_locations, step_seed);
    double worst = 0.0;
    for (int32_t removed : sampled) {
      const sgns::DenseUpdate neighbor_sum = SumClippedDeltas(
          stages, model, RemoveUser(buckets, removed),
          corpus.num_locations, step_seed);
      worst = std::max(worst, Distance(sum, neighbor_sum));
    }
    return worst;
  };

  // Honest mechanism: within C. Broken mechanism: the checker fires.
  EXPECT_LE(max_movement(honest), honest.clip_norm + kTol);
  EXPECT_GT(max_movement(broken), honest.clip_norm);
}

}  // namespace
}  // namespace plp::core
