// Equivalence battery for the vectorized SGNS local-update path:
//
//   * FastLossMath (bounded LUTs) vs ExactLossMath (libm): identical
//     candidate draws, identical gradient sparsity pattern, and values
//     within a bound derived from the pinned LUT interpolation error.
//   * The vectorized path is model-polymorphic: SgnsModel and LocalModel
//     produce bitwise-identical losses and gradients on the same stream.
//   * Scratch reuse (TrainScratch / PairBuffers) changes allocation only —
//     results are bitwise identical with and without it.
//   * ExtractDelta and DiffModels, now on SubKernel, are bitwise equal to
//     the strict scalar subtraction they replaced.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sgns/local_model.h"
#include "sgns/loss.h"
#include "sgns/model.h"
#include "sgns/sparse_delta.h"
#include "sgns/train_scratch.h"

namespace plp::sgns {
namespace {

constexpr int32_t kLocations = 40;
constexpr int32_t kDim = 9;  // odd and > 8: exercises the padded tail

SgnsConfig TestConfig(LossKind loss) {
  SgnsConfig config;
  config.embedding_dim = kDim;
  config.negatives = 6;
  config.loss = loss;
  return config;
}

SgnsModel MakeWarmModel(uint64_t seed) {
  Rng rng(seed);
  SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  auto model = SgnsModel::Create(kLocations, config, rng);
  EXPECT_TRUE(model.ok());
  for (int32_t l = 0; l < kLocations; ++l) {
    for (double& v : model->MutableOutRow(l)) v = rng.Uniform(-0.4, 0.4);
    model->mutable_bias(l) = rng.Uniform(-0.1, 0.1);
  }
  return std::move(model).value();
}

std::vector<Pair> MakeBatch(Rng& rng, size_t n) {
  std::vector<Pair> batch;
  for (size_t i = 0; i < n; ++i) {
    const auto target =
        static_cast<int32_t>(rng.UniformInt(uint64_t{kLocations}));
    auto context = static_cast<int32_t>(rng.UniformInt(uint64_t{kLocations}));
    if (context == target) context = (context + 1) % kLocations;
    batch.push_back(Pair{target, context});
  }
  return batch;
}

/// Collects a SparseDelta into (tensor, row) → values for comparison.
struct FlatDelta {
  std::vector<std::vector<double>> rows[kNumTensors];
  std::vector<int32_t> keys[kNumTensors];
};

FlatDelta Flatten(SparseDelta& delta) {
  FlatDelta flat;
  for (int ti = 0; ti < kNumTensors; ++ti) {
    delta.ForEachRow(static_cast<Tensor>(ti),
                     [&](int32_t row, std::span<const double> vec) {
                       flat.keys[ti].push_back(row);
                       flat.rows[ti].emplace_back(vec.begin(), vec.end());
                     });
  }
  return flat;
}

class FastVsExactTest : public testing::TestWithParam<LossKind> {};

TEST_P(FastVsExactTest, GradientsAgreeWithinLutError) {
  const SgnsConfig config = TestConfig(GetParam());
  const SgnsModel model = MakeWarmModel(303);
  Rng batch_rng(17);
  const std::vector<Pair> batch = MakeBatch(batch_rng, 24);

  Rng rng_fast(99);
  SparseDelta grad_fast(kDim);
  const BatchStats fast = AccumulateBatchGradient<SgnsModel, FastLossMath>(
      model, batch, config, kLocations, rng_fast, grad_fast);

  Rng rng_exact(99);
  SparseDelta grad_exact(kDim);
  const BatchStats exact = AccumulateBatchGradient<SgnsModel, ExactLossMath>(
      model, batch, config, kLocations, rng_exact, grad_exact);

  // Identical RNG consumption → identical candidate draws, so the two
  // streams must stay aligned and the sparsity patterns must match.
  EXPECT_EQ(rng_fast.NextU64(), rng_exact.NextU64());
  EXPECT_EQ(fast.num_pairs, exact.num_pairs);

  // The per-candidate LUT error is < 2e-6 (exp) / 2e-7 (sigmoid); with
  // neg+1 = 7 candidates over 24 pairs the accumulated loss/gradient
  // divergence stays orders of magnitude under 1e-3, while any indexing or
  // fusion bug shows up at O(1).
  constexpr double kTol = 1e-3;
  EXPECT_NEAR(fast.loss_sum, exact.loss_sum, kTol);

  FlatDelta a = Flatten(grad_fast);
  FlatDelta b = Flatten(grad_exact);
  for (int ti = 0; ti < kNumTensors; ++ti) {
    ASSERT_EQ(a.keys[ti], b.keys[ti]) << "tensor " << ti;
    for (size_t r = 0; r < a.rows[ti].size(); ++r) {
      ASSERT_EQ(a.rows[ti][r].size(), b.rows[ti][r].size());
      for (size_t d = 0; d < a.rows[ti][r].size(); ++d) {
        EXPECT_NEAR(a.rows[ti][r][d], b.rows[ti][r][d], kTol)
            << "tensor " << ti << " row " << a.keys[ti][r] << " d " << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothLosses, FastVsExactTest,
                         testing::Values(LossKind::kSampledSoftmax,
                                         LossKind::kSgnsLogistic),
                         [](const testing::TestParamInfo<LossKind>& info) {
                           return info.param == LossKind::kSampledSoftmax
                                      ? "SampledSoftmax"
                                      : "SgnsLogistic";
                         });

TEST(VectorizedEquivalenceTest, DenseAndOverlayModelsBitwiseIdentical) {
  const SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  const SgnsModel base = MakeWarmModel(404);
  Rng batch_rng(18);
  const std::vector<Pair> batch = MakeBatch(batch_rng, 16);

  Rng rng_a(7);
  SparseDelta grad_dense(kDim);
  const BatchStats dense = AccumulateBatchGradient(
      base, batch, config, kLocations, rng_a, grad_dense);

  LocalModel overlay(base);
  // Touch some rows first so reads hit both the overlay and fall-through
  // paths; copy-on-write copies must leave values bitwise unchanged.
  for (int32_t l = 0; l < kLocations; l += 3) overlay.MutableOutRow(l);
  Rng rng_b(7);
  SparseDelta grad_overlay(kDim);
  const BatchStats through_overlay = AccumulateBatchGradient(
      overlay, batch, config, kLocations, rng_b, grad_overlay);

  EXPECT_EQ(dense.loss_sum, through_overlay.loss_sum);
  FlatDelta a = Flatten(grad_dense);
  FlatDelta b = Flatten(grad_overlay);
  for (int ti = 0; ti < kNumTensors; ++ti) {
    ASSERT_EQ(a.keys[ti], b.keys[ti]);
    EXPECT_EQ(a.rows[ti], b.rows[ti]) << "tensor " << ti;
  }
}

TEST(VectorizedEquivalenceTest, ScratchReuseIsBitwiseTransparent) {
  const SgnsConfig config = TestConfig(LossKind::kSampledSoftmax);
  SgnsModel fresh = MakeWarmModel(505);
  SgnsModel reused = fresh;
  Rng batch_rng(19);
  const std::vector<Pair> batch = MakeBatch(batch_rng, 12);

  Rng rng_a(31);
  Rng rng_b(31);
  TrainScratch scratch(kDim);
  for (int step = 0; step < 4; ++step) {
    const BatchStats without = ApplySgdBatch(fresh, batch, config, kLocations,
                                             0.1, rng_a);
    const BatchStats with = ApplySgdBatch(reused, batch, config, kLocations,
                                          0.1, rng_b, &scratch);
    EXPECT_EQ(without.loss_sum, with.loss_sum) << "step " << step;
  }
  for (int32_t l = 0; l < kLocations; ++l) {
    for (int32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(fresh.InRow(l)[d], reused.InRow(l)[d]);
      EXPECT_EQ(fresh.OutRow(l)[d], reused.OutRow(l)[d]);
    }
    EXPECT_EQ(fresh.bias(l), reused.bias(l));
  }
}

TEST(VectorizedEquivalenceTest, ExtractDeltaBitwiseEqualsScalarSubtraction) {
  const SgnsModel base = MakeWarmModel(606);
  LocalModel overlay(base);
  Rng rng(23);
  for (int32_t l = 0; l < kLocations; l += 2) {
    for (double& v : overlay.MutableInRow(l)) v += rng.Uniform(-0.2, 0.2);
    for (double& v : overlay.MutableOutRow(l)) v += rng.Uniform(-0.2, 0.2);
    overlay.mutable_bias(l) += rng.Uniform(-0.05, 0.05);
  }
  SparseDelta delta(base.dim());
  overlay.ExtractDeltaInto(delta);
  delta.ForEachRow(Tensor::kWIn, [&](int32_t l, std::span<const double> d) {
    for (int32_t i = 0; i < kDim; ++i) {
      EXPECT_EQ(d[i], overlay.InRow(l)[i] - base.InRow(l)[i])
          << "in row " << l << " d " << i;
    }
  });
  delta.ForEachRow(Tensor::kWOut, [&](int32_t l, std::span<const double> d) {
    for (int32_t i = 0; i < kDim; ++i) {
      EXPECT_EQ(d[i], overlay.OutRow(l)[i] - base.OutRow(l)[i])
          << "out row " << l << " d " << i;
    }
  });
  delta.ForEachRow(Tensor::kBias, [&](int32_t l, std::span<const double> d) {
    EXPECT_EQ(d[0], overlay.bias(l) - base.bias(l)) << "bias " << l;
  });
}

TEST(VectorizedEquivalenceTest, DiffModelsBitwiseEqualsScalarSubtraction) {
  const SgnsModel theta = MakeWarmModel(707);
  SgnsModel phi = theta;
  Rng rng(29);
  for (int32_t l = 1; l < kLocations; l += 4) {
    for (double& v : phi.MutableInRow(l)) v += rng.Uniform(-0.3, 0.3);
    for (double& v : phi.MutableOutRow(l)) v += rng.Uniform(-0.3, 0.3);
    phi.mutable_bias(l) += rng.Uniform(-0.1, 0.1);
  }
  SparseDelta delta = DiffModels(phi, theta);
  size_t expected_rows = 0;
  for (int32_t l = 1; l < kLocations; l += 4) ++expected_rows;
  size_t in_rows = 0;
  delta.ForEachRow(Tensor::kWIn, [&](int32_t l, std::span<const double> d) {
    ++in_rows;
    for (int32_t i = 0; i < kDim; ++i) {
      EXPECT_EQ(d[i], phi.InRow(l)[i] - theta.InRow(l)[i])
          << "in row " << l << " d " << i;
    }
  });
  EXPECT_EQ(in_rows, expected_rows) << "only perturbed rows may materialize";
  delta.ForEachRow(Tensor::kWOut, [&](int32_t l, std::span<const double> d) {
    for (int32_t i = 0; i < kDim; ++i) {
      EXPECT_EQ(d[i], phi.OutRow(l)[i] - theta.OutRow(l)[i])
          << "out row " << l << " d " << i;
    }
  });
  delta.ForEachRow(Tensor::kBias, [&](int32_t l, std::span<const double> d) {
    EXPECT_EQ(d[0], phi.bias(l) - theta.bias(l)) << "bias " << l;
  });
}

}  // namespace
}  // namespace plp::sgns
