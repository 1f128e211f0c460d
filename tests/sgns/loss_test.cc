#include "sgns/loss.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "sgns/local_model.h"

namespace plp::sgns {
namespace {

constexpr int32_t kLocations = 6;
constexpr int32_t kDim = 3;

SgnsConfig TestConfig(LossKind loss) {
  SgnsConfig config;
  config.embedding_dim = kDim;
  config.negatives = 3;
  config.loss = loss;
  return config;
}

SgnsModel MakeWarmModel(uint64_t seed) {
  // Give W' and B' nonzero values so gradients flow everywhere.
  Rng rng(seed);
  SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  auto model = SgnsModel::Create(kLocations, config, rng);
  EXPECT_TRUE(model.ok());
  for (int32_t l = 0; l < kLocations; ++l) {  // row-wise: padding stays 0.0
    for (double& v : model->MutableOutRow(l)) v = rng.Uniform(-0.3, 0.3);
  }
  for (double& v : model->MutableTensorData(Tensor::kBias)) {
    v = rng.Uniform(-0.1, 0.1);
  }
  return std::move(model).value();
}

/// Finite-difference probe. Uses ExactLossMath: the production FastLossMath
/// tables are piecewise-linear, so the FD slope of the *computed* loss
/// differs from the analytic gradient by O(table step) — far above the
/// 1e-4 tolerance below. The LUT-vs-exact error is bounded separately in
/// tests/common/math_util LUT accuracy tests.
double EvalLoss(const SgnsModel& model, std::span<const Pair> batch,
                const SgnsConfig& config, uint64_t rng_seed) {
  Rng rng(rng_seed);
  SparseDelta scratch(config.embedding_dim);
  return AccumulateBatchGradient<SgnsModel, ExactLossMath>(
             model, batch, config, kLocations, rng, scratch)
      .loss_sum;
}

class LossGradientTest : public testing::TestWithParam<LossKind> {};

TEST_P(LossGradientTest, MatchesFiniteDifferences) {
  const SgnsConfig config = TestConfig(GetParam());
  const SgnsModel model = MakeWarmModel(101);
  const std::vector<Pair> batch = {{0, 1}, {2, 3}, {4, 0}};
  constexpr uint64_t kSeed = 555;  // fixes the negative candidate draws

  Rng grad_rng(kSeed);
  SparseDelta gradient(kDim);
  const BatchStats stats = AccumulateBatchGradient<SgnsModel, ExactLossMath>(
      model, batch, config, kLocations, grad_rng, gradient);
  EXPECT_EQ(stats.num_pairs, 3);

  constexpr double kH = 1e-6;
  int checked = 0;
  auto check_entry = [&](Tensor tensor, int32_t row, int32_t d,
                         double analytic) {
    SgnsModel perturbed = model;
    // Perturb through the row accessors: with padded row storage a flat
    // row*dim+d index would land on the wrong (or padding) element.
    double& entry = tensor == Tensor::kBias
                        ? perturbed.MutableTensorData(Tensor::kBias)[
                              static_cast<size_t>(row)]
                        : (tensor == Tensor::kWIn
                               ? perturbed.MutableInRow(row)
                               : perturbed.MutableOutRow(row))[
                              static_cast<size_t>(d)];
    entry += kH;
    const double up = EvalLoss(perturbed, batch, config, kSeed);
    entry -= 2 * kH;
    const double down = EvalLoss(perturbed, batch, config, kSeed);
    const double numeric = (up - down) / (2 * kH);
    EXPECT_NEAR(analytic, numeric, 1e-4)
        << "tensor=" << static_cast<int>(tensor) << " row=" << row
        << " d=" << d;
    ++checked;
  };

  gradient.ForEachRow(Tensor::kWIn,
                      [&](int32_t row, std::span<const double> g) {
                        for (int32_t d = 0; d < kDim; ++d) {
                          check_entry(Tensor::kWIn, row, d, g[d]);
                        }
                      });
  gradient.ForEachRow(Tensor::kWOut,
                      [&](int32_t row, std::span<const double> g) {
                        for (int32_t d = 0; d < kDim; ++d) {
                          check_entry(Tensor::kWOut, row, d, g[d]);
                        }
                      });
  gradient.ForEachRow(Tensor::kBias,
                      [&](int32_t row, std::span<const double> g) {
                        check_entry(Tensor::kBias, row, 0, g[0]);
                      });
  EXPECT_GT(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(BothLosses, LossGradientTest,
                         testing::Values(LossKind::kSampledSoftmax,
                                         LossKind::kSgnsLogistic),
                         [](const testing::TestParamInfo<LossKind>& info) {
                           return info.param == LossKind::kSampledSoftmax
                                      ? "SampledSoftmax"
                                      : "SgnsLogistic";
                         });

TEST(LossTest, SampledSoftmaxLossAtColdStartIsLogCandidates) {
  // At init W' = 0 and B' = 0, so every logit is 0 and the softmax over
  // neg+1 candidates is uniform: loss = log(neg + 1) exactly.
  Rng rng(7);
  SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  auto model = SgnsModel::Create(kLocations, config, rng);
  ASSERT_TRUE(model.ok());
  const std::vector<Pair> batch = {{0, 1}};
  SparseDelta scratch(kDim);
  Rng loss_rng(9);
  const BatchStats stats = AccumulateBatchGradient(
      *model, batch, config, kLocations, loss_rng, scratch);
  EXPECT_NEAR(stats.loss_sum, std::log(4.0), 1e-12);
}

TEST(LossTest, LogisticLossAtColdStart) {
  // All logits 0: loss = (neg + 1) · log 2.
  Rng rng(7);
  SgnsConfig config = TestConfig(LossKind::kSgnsLogistic);
  auto model = SgnsModel::Create(kLocations, config, rng);
  ASSERT_TRUE(model.ok());
  const std::vector<Pair> batch = {{0, 1}};
  SparseDelta scratch(kDim);
  Rng loss_rng(9);
  const BatchStats stats = AccumulateBatchGradient(
      *model, batch, config, kLocations, loss_rng, scratch);
  EXPECT_NEAR(stats.loss_sum, 4.0 * std::log(2.0), 1e-12);
}

TEST(LossTest, GradientTouchesOnlyCandidateRows) {
  const SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  const SgnsModel model = MakeWarmModel(33);
  const std::vector<Pair> batch = {{2, 5}};
  Rng rng(11);
  SparseDelta gradient(kDim);
  AccumulateBatchGradient(model, batch, config, kLocations, rng, gradient);
  // Exactly one input row: the target.
  size_t in_rows = 0;
  gradient.ForEachRow(Tensor::kWIn,
                      [&](int32_t row, std::span<const double>) {
                        EXPECT_EQ(row, 2);
                        ++in_rows;
                      });
  EXPECT_EQ(in_rows, 1u);
  // At most neg+1 output rows, including the true context, never the
  // target's duplicated negatives... and the true context is present.
  std::set<int32_t> out_rows;
  gradient.ForEachRow(Tensor::kWOut,
                      [&](int32_t row, std::span<const double>) {
                        out_rows.insert(row);
                      });
  EXPECT_LE(out_rows.size(), 4u);
  EXPECT_TRUE(out_rows.count(5) == 1);
}

TEST(LossTest, NegativesExcludeTrueContext) {
  // With 2 locations, every negative draw must pick the non-context one.
  SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  config.negatives = 8;
  Rng rng(3);
  auto model = SgnsModel::Create(2, config, rng);
  ASSERT_TRUE(model.ok());
  for (int32_t l = 0; l < 2; ++l) {
    for (double& v : model->MutableOutRow(l)) v = 0.1;
  }
  const std::vector<Pair> batch = {{0, 1}};
  SparseDelta gradient(kDim);
  Rng loss_rng(5);
  AccumulateBatchGradient(*model, batch, config, /*num_locations=*/2,
                          loss_rng, gradient);
  std::set<int32_t> out_rows;
  gradient.ForEachRow(Tensor::kWOut,
                      [&](int32_t row, std::span<const double>) {
                        out_rows.insert(row);
                      });
  EXPECT_EQ(out_rows, (std::set<int32_t>{0, 1}));
}

TEST(LossTest, ApplySgdBatchReducesLossOnRepeatedBatch) {
  SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  SgnsModel model = MakeWarmModel(77);
  const std::vector<Pair> batch = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  Rng rng(13);
  double first_loss = 0.0, last_loss = 0.0;
  for (int iter = 0; iter < 60; ++iter) {
    const BatchStats stats =
        ApplySgdBatch(model, batch, config, kLocations, 0.2, rng);
    if (iter == 0) first_loss = stats.mean_loss();
    last_loss = stats.mean_loss();
  }
  EXPECT_LT(last_loss, first_loss * 0.8);
}

TEST(LossTest, ApplySgdBatchOnLocalModelMatchesDenseModel) {
  // The overlay path and the dense path must produce identical parameters
  // given the same RNG stream.
  const SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  const SgnsModel base = MakeWarmModel(55);
  const std::vector<Pair> batch = {{0, 1}, {4, 2}, {3, 5}};

  SgnsModel dense = base;
  Rng rng_a(21);
  const BatchStats stats_a =
      ApplySgdBatch(dense, batch, config, kLocations, 0.1, rng_a);

  LocalModel overlay(base);
  Rng rng_b(21);
  const BatchStats stats_b =
      ApplySgdBatch(overlay, batch, config, kLocations, 0.1, rng_b);

  EXPECT_DOUBLE_EQ(stats_a.loss_sum, stats_b.loss_sum);
  SparseDelta delta(base.dim());
  overlay.ExtractDeltaInto(delta);
  SgnsModel rebuilt = base;
  delta.ApplyTo(rebuilt, 1.0);
  for (int ti = 0; ti < kNumTensors; ++ti) {
    const auto t = static_cast<Tensor>(ti);
    const auto a = dense.TensorData(t);
    const auto b = rebuilt.TensorData(t);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-12);
    }
  }
}

TEST(LossTest, EmptyBatchIsNoop) {
  SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  SgnsModel model = MakeWarmModel(88);
  const SgnsModel before = model;
  Rng rng(1);
  const BatchStats stats =
      ApplySgdBatch(model, {}, config, kLocations, 0.1, rng);
  EXPECT_EQ(stats.num_pairs, 0);
  EXPECT_EQ(stats.mean_loss(), 0.0);
  for (size_t i = 0; i < model.TensorData(Tensor::kWIn).size(); ++i) {
    EXPECT_EQ(model.TensorData(Tensor::kWIn)[i],
              before.TensorData(Tensor::kWIn)[i]);
  }
}

}  // namespace
}  // namespace plp::sgns
