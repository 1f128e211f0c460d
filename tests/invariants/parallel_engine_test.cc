// Bitwise thread-count determinism of the dense step engine
// (common/parallel_ops + sgns/sparse_delta):
//
//   * Counter-based block noise, Zero, Scale and Norm produce identical
//     bits whether run serially or on pools of 1, 2, or 8 threads — the
//     dense-phase counterpart of the BucketSeed guarantee for local
//     training.
//   * AccumulateDeltas (the Σ of bucket deltas) is bitwise equal to the
//     serial accumulate loop, and folding the list one delta at a time —
//     how the engine's commit window calls it — gives the same bits as one
//     call over the whole list, with overlapping and disjoint row sets,
//     non-unit scale, and null entries. The engine-level counterpart, with
//     buckets finishing out of order on 1–8 threads, is
//     tests/pipeline/commit_window_test.cc.
//
// Everything here compares the same code against itself across schedules,
// so the assertions are exact (EXPECT_EQ on doubles), not tolerances.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sgns/model.h"
#include "sgns/sparse_delta.h"
#include "support/fixtures.h"

namespace plp {
namespace {

const size_t kPoolSizes[] = {1, 2, 8};

sgns::SgnsModel SmallModel(int32_t num_locations, int32_t dim,
                           uint64_t seed) {
  sgns::SgnsConfig config;
  config.embedding_dim = dim;
  Rng rng(seed);
  auto model = sgns::SgnsModel::Create(num_locations, config, rng);
  EXPECT_TRUE(model.ok());
  return *std::move(model);
}

std::vector<double> Coordinates(const sgns::DenseUpdate& update) {
  std::vector<double> coords;
  for (int t = 0; t < sgns::kNumTensors; ++t) {
    const auto span = update.TensorData(static_cast<sgns::Tensor>(t));
    coords.insert(coords.end(), span.begin(), span.end());
  }
  return coords;
}

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " at coordinate " << i;
  }
}

TEST(ParallelNoiseTest, BlockNoiseBitwiseIdenticalAcrossPools) {
  // Several blocks plus a ragged tail, so work really is split.
  const size_t kSize = 3 * kParallelOpsBlockSize + 1234;
  const uint64_t kStreamSeed = 0xB10C0FF5EEDULL;

  std::vector<double> serial(kSize, 0.0);
  AddGaussianNoiseBlocks(serial, kStreamSeed, 1.5, /*pool=*/nullptr);

  for (size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    std::vector<double> pooled(kSize, 0.0);
    AddGaussianNoiseBlocks(pooled, kStreamSeed, 1.5, &pool);
    ExpectBitwiseEqual(serial, pooled, "block noise");
  }
}

TEST(ParallelNoiseTest, BlockNoiseDependsOnStreamSeedOnly) {
  // Same seed → same stream; different seed → a different stream. (Guards
  // against accidentally keying the stream on scheduling state.)
  const size_t kSize = kParallelOpsBlockSize + 17;
  std::vector<double> a(kSize, 0.0), b(kSize, 0.0), c(kSize, 0.0);
  ThreadPool pool(4);
  AddGaussianNoiseBlocks(a, /*stream_seed=*/42, 1.0, &pool);
  AddGaussianNoiseBlocks(b, /*stream_seed=*/42, 1.0, /*pool=*/nullptr);
  AddGaussianNoiseBlocks(c, /*stream_seed=*/43, 1.0, &pool);
  ExpectBitwiseEqual(a, b, "same-seed streams");
  size_t differing = 0;
  for (size_t i = 0; i < kSize; ++i) {
    if (a[i] != c[i]) ++differing;
  }
  EXPECT_GT(differing, kSize / 2);
}

TEST(ParallelNoiseTest, DenseUpdateOpsBitwiseIdenticalAcrossPools) {
  // The full dense-phase pipeline the trainer runs on a DenseUpdate:
  // Zero → seeded noise → Scale → Norm, serial vs pooled.
  const sgns::SgnsModel model = SmallModel(300, 32, /*seed=*/7);
  const uint64_t kNoiseSeed = 0xDE7E12317157ULL;

  sgns::DenseUpdate serial(model);
  serial.Zero();
  serial.AddGaussianNoise(kNoiseSeed, 2.5);
  serial.Scale(1.0 / 3.0);
  const double serial_norm = serial.Norm();
  const std::vector<double> serial_coords = Coordinates(serial);

  for (size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    sgns::DenseUpdate pooled(model);
    pooled.Zero(&pool);
    pooled.AddGaussianNoise(kNoiseSeed, 2.5, &pool);
    pooled.Scale(1.0 / 3.0, &pool);
    ASSERT_EQ(pooled.Norm(&pool), serial_norm) << threads << " threads";
    ExpectBitwiseEqual(serial_coords, Coordinates(pooled), "dense ops");
  }
}

TEST(ParallelNoiseTest, PerTensorSeededNoiseMatchesAllTensorStream) {
  // The per-tensor overload must seed the same lane the all-tensor
  // overload derives, so the two compose to identical bits.
  const sgns::SgnsModel model = SmallModel(80, 16, /*seed=*/9);
  const uint64_t kNoiseSeed = 0x9E3779B9ULL;

  sgns::DenseUpdate all(model);
  all.AddGaussianNoise(kNoiseSeed, 1.0);
  sgns::DenseUpdate per_tensor(model);
  ThreadPool pool(2);
  for (int ti = 0; ti < sgns::kNumTensors; ++ti) {
    per_tensor.AddGaussianNoiseToTensor(static_cast<sgns::Tensor>(ti),
                                        kNoiseSeed, 1.0, &pool);
  }
  ExpectBitwiseEqual(Coordinates(all), Coordinates(per_tensor),
                     "per-tensor composition");
}

// Builds a delta touching a pseudo-random subset of rows; different
// `salt`s give different (overlapping) row sets and values.
sgns::SparseDelta MakeDelta(int32_t num_locations, int32_t dim,
                            uint64_t salt) {
  sgns::SparseDelta delta(dim);
  Rng rng(salt);
  const int32_t touched = 1 + static_cast<int32_t>(
                                  rng.UniformInt(uint64_t{40}));
  for (int32_t i = 0; i < touched; ++i) {
    const int32_t row = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(num_locations)));
    std::span<double> in = delta.Row(sgns::Tensor::kWIn, row);
    for (double& v : in) v += rng.Uniform(-1.0, 1.0);
    std::span<double> out = delta.Row(sgns::Tensor::kWOut, row);
    for (double& v : out) v += rng.Uniform(-1.0, 1.0);
    delta.AddBias(row, rng.Uniform(-0.5, 0.5));
  }
  return delta;
}

TEST(ParallelReductionTest, AccumulateDeltasBitwiseEqualsSerialLoop) {
  const int32_t kLocations = 150;
  const int32_t kDim = 24;
  const sgns::SgnsModel model = SmallModel(kLocations, kDim, /*seed=*/21);
  const double kScale = 0.75;

  std::vector<sgns::SparseDelta> deltas;
  std::vector<const sgns::SparseDelta*> ptrs;
  for (uint64_t salt = 0; salt < 25; ++salt) {
    deltas.push_back(MakeDelta(kLocations, kDim, 0x5A17 + salt));
  }
  for (const auto& d : deltas) ptrs.push_back(&d);

  // Oracle: the serial accumulate loop in bucket order.
  sgns::DenseUpdate serial(model);
  for (const auto& d : deltas) d.AccumulateInto(serial, kScale);
  const std::vector<double> serial_coords = Coordinates(serial);

  sgns::DenseUpdate whole(model);
  sgns::AccumulateDeltas(ptrs, kScale, whole);
  ExpectBitwiseEqual(serial_coords, Coordinates(whole), "one call");

  // One delta per call, in order: the commit window's fold sequence.
  sgns::DenseUpdate folded(model);
  for (const sgns::SparseDelta* d : ptrs) {
    sgns::AccumulateDeltas({&d, 1}, kScale, folded);
  }
  ExpectBitwiseEqual(serial_coords, Coordinates(folded), "in-order folds");
}

TEST(ParallelReductionTest, AccumulateDeltasSkipsNullEntries) {
  const int32_t kLocations = 60;
  const int32_t kDim = 8;
  const sgns::SgnsModel model = SmallModel(kLocations, kDim, /*seed=*/33);

  const sgns::SparseDelta a = MakeDelta(kLocations, kDim, 1);
  const sgns::SparseDelta b = MakeDelta(kLocations, kDim, 2);
  const std::vector<const sgns::SparseDelta*> with_nulls = {nullptr, &a,
                                                            nullptr, &b};
  sgns::DenseUpdate expected(model);
  a.AccumulateInto(expected, 1.0);
  b.AccumulateInto(expected, 1.0);

  sgns::DenseUpdate actual(model);
  sgns::AccumulateDeltas(with_nulls, 1.0, actual);
  ExpectBitwiseEqual(Coordinates(expected), Coordinates(actual),
                     "null entries");

  // All-null input is a no-op.
  sgns::DenseUpdate untouched(model);
  const std::vector<const sgns::SparseDelta*> all_null = {nullptr, nullptr};
  sgns::AccumulateDeltas(all_null, 1.0, untouched);
  for (double v : Coordinates(untouched)) ASSERT_EQ(v, 0.0);
}

TEST(ParallelReductionTest, EmptyDeltaListLeavesSumUntouched) {
  const sgns::SgnsModel model = SmallModel(10, 4, /*seed=*/44);
  sgns::DenseUpdate sum(model);
  sum.AddGaussianNoise(/*noise_seed=*/5, 1.0);
  const std::vector<double> before = Coordinates(sum);
  sgns::AccumulateDeltas({}, 1.0, sum);
  ExpectBitwiseEqual(before, Coordinates(sum), "empty list");
}

}  // namespace
}  // namespace plp
