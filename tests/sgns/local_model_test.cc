#include "sgns/local_model.h"

#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "common/rng.h"

namespace plp::sgns {
namespace {

SgnsModel MakeModel(int32_t locations, int32_t dim, uint64_t seed = 9) {
  Rng rng(seed);
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

// Every (tensor, row, values) of `delta`, in iteration order.
std::vector<std::tuple<Tensor, int32_t, std::vector<double>>> DeltaRows(
    const SparseDelta& delta) {
  std::vector<std::tuple<Tensor, int32_t, std::vector<double>>> rows;
  for (const Tensor t : {Tensor::kWIn, Tensor::kWOut, Tensor::kBias}) {
    delta.ForEachRow(t, [&](int32_t row, std::span<const double> vec) {
      rows.emplace_back(t, row, std::vector<double>(vec.begin(), vec.end()));
    });
  }
  return rows;
}

// A fixed sequence of copy-on-write updates, touching rows in an order
// that is not sorted by id.
void TouchRows(LocalModel& local) {
  for (const int32_t l : {37, 4, 120, 4, 0, 63}) {
    local.MutableInRow(l)[1] += 0.125 * l;
    local.MutableOutRow((l * 7) % 150)[0] -= 0.5;
    local.mutable_bias(l) += 1.0;
  }
}

TEST(LocalModelTest, ResetOntoDifferentBaseMatchesFreshOverlay) {
  const SgnsModel first = MakeModel(150, 9, /*seed=*/1);
  const SgnsModel second = MakeModel(150, 9, /*seed=*/2);

  LocalModel reused(first);
  for (int32_t l = 149; l >= 0; l -= 3) reused.MutableInRow(l)[0] += 1.0;
  reused.mutable_bias(148) = 5.0;
  reused.Reset(second);
  TouchRows(reused);

  LocalModel fresh(second);
  TouchRows(fresh);

  SparseDelta reused_delta(second.dim());
  SparseDelta fresh_delta(second.dim());
  reused.ExtractDeltaInto(reused_delta);
  fresh.ExtractDeltaInto(fresh_delta);
  EXPECT_FALSE(fresh_delta.empty());
  EXPECT_EQ(DeltaRows(reused_delta), DeltaRows(fresh_delta));
}

}  // namespace
}  // namespace plp::sgns
