#include "sgns/local_model.h"

#include <gtest/gtest.h>
#include "common/rng.h"

namespace plp::sgns {
namespace {

SgnsModel MakeModel(int32_t locations, int32_t dim) {
  Rng rng(9);
  SgnsConfig config;
  config.embedding_dim = dim;
  auto model = SgnsModel::Create(locations, config, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(LocalModelTest, ReadsFallThroughToBase) {
  const SgnsModel base = MakeModel(5, 3);
  const LocalModel local(base);
  for (int32_t l = 0; l < 5; ++l) {
    const auto a = local.InRow(l);
    const auto b = base.InRow(l);
    for (int d = 0; d < 3; ++d) EXPECT_EQ(a[d], b[d]);
    EXPECT_EQ(local.bias(l), base.bias(l));
  }
  EXPECT_EQ(local.NumTouchedRows(), 0u);
}

TEST(LocalModelTest, WriteCopiesBaseValuesFirst) {
  const SgnsModel base = MakeModel(5, 3);
  LocalModel local(base);
  const double original = base.InRow(2)[1];
  std::span<double> row = local.MutableInRow(2);
  EXPECT_EQ(row[1], original);  // copy-on-write starts from base values
  row[1] += 10.0;
  EXPECT_EQ(local.InRow(2)[1], original + 10.0);
}

TEST(LocalModelTest, BaseIsNeverMutated) {
  const SgnsModel base = MakeModel(5, 3);
  const double original = base.InRow(1)[0];
  LocalModel local(base);
  local.MutableInRow(1)[0] = 99.0;
  local.MutableOutRow(1)[0] = 99.0;
  local.mutable_bias(1) = 99.0;
  EXPECT_EQ(base.InRow(1)[0], original);
  EXPECT_EQ(base.OutRow(1)[0], base.OutRow(1)[0]);
  EXPECT_EQ(base.bias(1), 0.0);
}

TEST(LocalModelTest, BiasCopyOnWrite) {
  SgnsModel base = MakeModel(4, 2);
  base.mutable_bias(3) = -2.5;
  LocalModel local(base);
  EXPECT_EQ(local.bias(3), -2.5);
  local.mutable_bias(3) += 1.0;
  EXPECT_EQ(local.bias(3), -1.5);
  EXPECT_EQ(base.bias(3), -2.5);
}

TEST(LocalModelTest, ExtractDeltaIsExactDifference) {
  const SgnsModel base = MakeModel(6, 2);
  LocalModel local(base);
  local.MutableInRow(0)[0] += 0.5;
  local.MutableOutRow(3)[1] -= 0.25;
  local.mutable_bias(5) += 2.0;

  SparseDelta delta(base.dim());
  local.ExtractDeltaInto(delta);
  SgnsModel rebuilt = base;
  delta.ApplyTo(rebuilt, 1.0);

  EXPECT_DOUBLE_EQ(rebuilt.InRow(0)[0], local.InRow(0)[0]);
  EXPECT_DOUBLE_EQ(rebuilt.OutRow(3)[1], local.OutRow(3)[1]);
  EXPECT_DOUBLE_EQ(rebuilt.bias(5), local.bias(5));
  // Untouched entries unchanged.
  EXPECT_DOUBLE_EQ(rebuilt.InRow(1)[0], base.InRow(1)[0]);
}

TEST(LocalModelTest, UntouchedOverlayGivesEmptyDelta) {
  const SgnsModel base = MakeModel(6, 2);
  const LocalModel local(base);
  SparseDelta delta(base.dim());
  local.ExtractDeltaInto(delta);
  EXPECT_TRUE(delta.empty());
}

TEST(LocalModelTest, TouchedButUnchangedRowsGiveZeroNormDelta) {
  const SgnsModel base = MakeModel(6, 2);
  LocalModel local(base);
  local.MutableInRow(2);  // copy-on-write without modification
  SparseDelta delta(base.dim());
  local.ExtractDeltaInto(delta);
  EXPECT_EQ(delta.TotalNorm(), 0.0);
}

TEST(LocalModelTest, ManyRowsStressConsistency) {
  const SgnsModel base = MakeModel(200, 4);
  LocalModel local(base);
  Rng rng(13);
  std::vector<double> expected(200, 0.0);
  for (int i = 0; i < 5000; ++i) {
    const int32_t l = static_cast<int32_t>(rng.UniformInt(uint64_t{200}));
    const double d = rng.Uniform() - 0.5;
    local.MutableInRow(l)[0] += d;
    expected[l] += d;
  }
  for (int32_t l = 0; l < 200; ++l) {
    EXPECT_NEAR(local.InRow(l)[0], base.InRow(l)[0] + expected[l], 1e-9);
  }
}

}  // namespace
}  // namespace plp::sgns
