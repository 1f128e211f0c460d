#include "sgns/sparse_delta.h"

#include <cmath>

#include <gtest/gtest.h>
#include "common/math_util.h"
#include "common/rng.h"
#include "sgns/local_model.h"

namespace plp::sgns {
namespace {

SgnsModel MakeModel(int32_t locations, int32_t dim, uint64_t seed = 1) {
  Rng rng(seed);
  SgnsConfig config;
  config.embedding_dim = dim;
  auto model = SgnsModel::Create(locations, config, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(SparseDeltaTest, StartsEmpty) {
  SparseDelta delta(4);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.TotalNorm(), 0.0);
}

TEST(SparseDeltaTest, RowAccumulation) {
  SparseDelta delta(3);
  delta.Row(Tensor::kWIn, 2)[0] += 3.0;
  delta.Row(Tensor::kWIn, 2)[1] += 4.0;
  EXPECT_NEAR(delta.TensorNorm(Tensor::kWIn), 5.0, 1e-12);
  EXPECT_EQ(delta.NumTouchedEntries(), 1u);
}

TEST(SparseDeltaTest, BiasAccumulation) {
  SparseDelta delta(3);
  delta.AddBias(1, 2.0);
  delta.AddBias(1, 1.0);
  delta.AddBias(4, -4.0);
  EXPECT_NEAR(delta.TensorNorm(Tensor::kBias), 5.0, 1e-12);
}

TEST(SparseDeltaTest, TotalNormCombinesTensors) {
  SparseDelta delta(2);
  delta.Row(Tensor::kWIn, 0)[0] = 2.0;
  delta.Row(Tensor::kWOut, 0)[0] = 3.0;
  delta.AddBias(0, 6.0);
  EXPECT_NEAR(delta.TotalNorm(), 7.0, 1e-12);  // sqrt(4+9+36)
}

TEST(SparseDeltaTest, ScaleAndScaleTensor) {
  SparseDelta delta(2);
  delta.Row(Tensor::kWIn, 0)[0] = 2.0;
  delta.AddBias(0, 4.0);
  delta.ScaleTensor(Tensor::kBias, 0.5);
  EXPECT_NEAR(delta.TensorNorm(Tensor::kBias), 2.0, 1e-12);
  EXPECT_NEAR(delta.TensorNorm(Tensor::kWIn), 2.0, 1e-12);
  delta.Scale(2.0);
  EXPECT_NEAR(delta.TensorNorm(Tensor::kWIn), 4.0, 1e-12);
  EXPECT_NEAR(delta.TensorNorm(Tensor::kBias), 4.0, 1e-12);
}

TEST(SparseDeltaTest, ClipPerTensorNoopBelowThreshold) {
  SparseDelta delta(2);
  delta.Row(Tensor::kWIn, 0)[0] = 0.3;
  delta.ClipPerTensor(0.5);
  EXPECT_NEAR(delta.TensorNorm(Tensor::kWIn), 0.3, 1e-12);
}

TEST(SparseDeltaTest, ClipPerTensorScalesToBound) {
  SparseDelta delta(2);
  delta.Row(Tensor::kWIn, 0)[0] = 3.0;
  delta.Row(Tensor::kWIn, 0)[1] = 4.0;
  delta.Row(Tensor::kWOut, 1)[0] = 0.1;
  delta.ClipPerTensor(0.5);
  EXPECT_NEAR(delta.TensorNorm(Tensor::kWIn), 0.5, 1e-12);
  // Direction preserved: 3:4 ratio.
  double x = 0, y = 0;
  delta.ForEachRow(Tensor::kWIn, [&](int32_t, std::span<const double> row) {
    x = row[0];
    y = row[1];
  });
  EXPECT_NEAR(y / x, 4.0 / 3.0, 1e-12);
  // Small tensor untouched.
  EXPECT_NEAR(delta.TensorNorm(Tensor::kWOut), 0.1, 1e-12);
}

TEST(SparseDeltaTest, ClipPerTensorBoundsTotalByC) {
  // Per-layer clip to C/sqrt(3) guarantees total norm <= C (Section 4.1).
  const double c = 0.5;
  SparseDelta delta(4);
  Rng rng(3);
  for (int32_t r = 0; r < 10; ++r) {
    std::span<double> row = delta.Row(Tensor::kWIn, r);
    std::span<double> out = delta.Row(Tensor::kWOut, r);
    for (int d = 0; d < 4; ++d) {
      row[d] = rng.Gaussian();
      out[d] = rng.Gaussian();
    }
    delta.AddBias(r, rng.Gaussian());
  }
  delta.ClipPerTensor(c / std::sqrt(3.0));
  EXPECT_LE(delta.TotalNorm(), c + 1e-9);
}

TEST(SparseDeltaTest, ClipTotal) {
  SparseDelta delta(2);
  delta.Row(Tensor::kWIn, 0)[0] = 6.0;
  delta.AddBias(0, 8.0);
  delta.ClipTotal(5.0);
  EXPECT_NEAR(delta.TotalNorm(), 5.0, 1e-12);
  delta.ClipTotal(10.0);  // no-op below bound
  EXPECT_NEAR(delta.TotalNorm(), 5.0, 1e-12);
}

TEST(SparseDeltaTest, ApplyToMatchesAccumulateInto) {
  SgnsModel model_a = MakeModel(6, 3);
  SgnsModel model_b = model_a;

  SparseDelta delta(3);
  delta.Row(Tensor::kWIn, 1)[2] = 0.5;
  delta.Row(Tensor::kWOut, 4)[0] = -0.25;
  delta.AddBias(3, 1.5);

  // Path A: sparse apply.
  delta.ApplyTo(model_a, 2.0);
  // Path B: accumulate into dense update, then dense apply.
  DenseUpdate update(model_b);
  delta.AccumulateInto(update, 2.0);
  update.ApplyTo(model_b);

  for (int ti = 0; ti < kNumTensors; ++ti) {
    const auto t = static_cast<Tensor>(ti);
    const auto a = model_a.TensorData(t);
    const auto b = model_b.TensorData(t);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(SparseDeltaTest, ClearEmpties) {
  SparseDelta delta(2);
  delta.Row(Tensor::kWIn, 0)[0] = 1.0;
  delta.AddBias(0, 1.0);
  delta.Clear();
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.TotalNorm(), 0.0);
}

TEST(DenseUpdateTest, ZeroShape) {
  const SgnsModel model = MakeModel(5, 4);
  DenseUpdate update(model);
  EXPECT_EQ(update.TensorData(Tensor::kWIn).size(), 20u);
  EXPECT_EQ(update.TensorData(Tensor::kBias).size(), 5u);
  EXPECT_EQ(update.Norm(), 0.0);
}

TEST(DenseUpdateTest, NoiseStatistics) {
  const SgnsModel model = MakeModel(100, 50);
  DenseUpdate update(model);
  Rng rng(11);
  update.AddGaussianNoise(rng, 2.0);
  double sum = 0.0, sum_sq = 0.0;
  size_t n = 0;
  for (int ti = 0; ti < kNumTensors; ++ti) {
    for (double v : update.TensorData(static_cast<Tensor>(ti))) {
      sum += v;
      sum_sq += v * v;
      ++n;
    }
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 0.0, 0.05);
  EXPECT_NEAR(sum_sq / static_cast<double>(n), 4.0, 0.1);
}

TEST(DenseUpdateTest, PerTensorNoise) {
  const SgnsModel model = MakeModel(50, 10);
  DenseUpdate update(model);
  Rng rng(13);
  update.AddGaussianNoiseToTensor(Tensor::kBias, rng, 1.0);
  EXPECT_EQ(L2Norm(update.TensorData(Tensor::kWIn)), 0.0);
  EXPECT_GT(L2Norm(update.TensorData(Tensor::kBias)), 0.0);
}

TEST(DenseUpdateTest, ScaleAndZero) {
  const SgnsModel model = MakeModel(4, 2);
  DenseUpdate update(model);
  Rng rng(17);
  update.AddGaussianNoise(rng, 1.0);
  const double norm = update.Norm();
  update.Scale(0.5);
  EXPECT_NEAR(update.Norm(), norm * 0.5, 1e-9);
  update.Zero();
  EXPECT_EQ(update.Norm(), 0.0);
}

TEST(DiffModelsTest, MatchesLocalModelExtractDelta) {
  const SgnsModel base = MakeModel(8, 4, 21);

  // Mutate a dense copy and a sparse overlay identically.
  SgnsModel dense = base;
  LocalModel overlay(base);
  dense.MutableInRow(3)[1] += 0.7;
  overlay.MutableInRow(3)[1] += 0.7;
  dense.MutableOutRow(5)[0] -= 0.2;
  overlay.MutableOutRow(5)[0] -= 0.2;
  dense.mutable_bias(2) += 1.1;
  overlay.mutable_bias(2) += 1.1;

  const SparseDelta from_diff = DiffModels(dense, base);
  SparseDelta from_overlay(base.dim());
  overlay.ExtractDeltaInto(from_overlay);
  EXPECT_NEAR(from_diff.TotalNorm(), from_overlay.TotalNorm(), 1e-12);

  // Applying either to a fresh copy of the base gives the mutated model.
  SgnsModel rebuilt = base;
  from_diff.ApplyTo(rebuilt, 1.0);
  for (int ti = 0; ti < kNumTensors; ++ti) {
    const auto t = static_cast<Tensor>(ti);
    const auto a = rebuilt.TensorData(t);
    const auto b = dense.TensorData(t);
    for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(DiffModelsTest, IdenticalModelsGiveEmptyDelta) {
  const SgnsModel base = MakeModel(5, 3);
  EXPECT_TRUE(DiffModels(base, base).empty());
}

}  // namespace
}  // namespace plp::sgns
