#include "sgns/row_map.h"

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/rng.h"

namespace plp::sgns {
namespace {

// Random inserts/accumulates over keys in [0, 500); with `reference`
// non-null, mirrors every update into it.
void RunRandomWorkload(
    RowMap& map, uint64_t seed,
    std::map<int32_t, std::vector<double>>* reference = nullptr) {
  const uint64_t dim = static_cast<uint64_t>(map.dim());
  Rng rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const int32_t key = static_cast<int32_t>(rng.UniformInt(uint64_t{500}));
    const size_t d = static_cast<size_t>(rng.UniformInt(dim));
    const double delta = rng.Uniform() - 0.5;
    map.FindOrInsertZero(key)[d] += delta;
    if (reference != nullptr) {
      auto& ref = reference->try_emplace(key, std::vector<double>(dim, 0.0))
                      .first->second;
      ref[d] += delta;
    }
  }
}

std::vector<std::pair<int32_t, std::vector<double>>> Rows(const RowMap& map) {
  std::vector<std::pair<int32_t, std::vector<double>>> rows;
  map.ForEach([&](int32_t key, std::span<const double> row) {
    rows.emplace_back(key, std::vector<double>(row.begin(), row.end()));
  });
  return rows;
}

TEST(RowMapTest, InsertAndFind) {
  RowMap map(3);
  EXPECT_TRUE(map.empty());
  bool inserted = false;
  std::span<double> row = map.FindOrInsertZero(5, &inserted);
  EXPECT_TRUE(inserted);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 0.0);
  row[1] = 2.5;
  EXPECT_EQ(map.size(), 1u);
  const std::span<const double> found = map.Find(5);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[1], 2.5);
}

TEST(RowMapTest, FindAbsentIsEmpty) {
  RowMap map(2);
  EXPECT_TRUE(map.Find(3).empty());
  map.FindOrInsertZero(3);
  EXPECT_TRUE(map.Find(4).empty());
  EXPECT_FALSE(map.Find(3).empty());
}

TEST(RowMapTest, SecondInsertIsNotNew) {
  RowMap map(2);
  bool inserted = false;
  map.FindOrInsertZero(7, &inserted)[0] = 1.0;
  EXPECT_TRUE(inserted);
  std::span<double> row = map.FindOrInsertZero(7, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(row[0], 1.0);  // value preserved
}

TEST(RowMapTest, GrowthPreservesContents) {
  RowMap map(4);
  for (int32_t k = 0; k < 1000; ++k) {
    map.FindOrInsertZero(k)[0] = static_cast<double>(k);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (int32_t k = 0; k < 1000; ++k) {
    const std::span<const double> row = map.Find(k);
    ASSERT_FALSE(row.empty());
    EXPECT_EQ(row[0], static_cast<double>(k));
  }
}

TEST(RowMapTest, IterationInInsertionOrder) {
  RowMap map(1);
  const std::vector<int32_t> keys = {9, 2, 7, 0};
  for (int32_t k : keys) map.FindOrInsertZero(k)[0] = k * 10.0;
  std::vector<int32_t> seen;
  map.ForEach([&](int32_t key, std::span<const double> row) {
    seen.push_back(key);
    EXPECT_EQ(row[0], key * 10.0);
  });
  EXPECT_EQ(seen, keys);
}

TEST(RowMapTest, ForEachMutable) {
  RowMap map(2);
  map.FindOrInsertZero(1)[0] = 1.0;
  map.FindOrInsertZero(2)[0] = 2.0;
  map.ForEachMutable([](int32_t, std::span<double> row) { row[0] *= 3.0; });
  EXPECT_EQ(map.Find(1)[0], 3.0);
  EXPECT_EQ(map.Find(2)[0], 6.0);
}

TEST(RowMapTest, ClearKeepsCapacityAndEmpties) {
  RowMap map(2);
  for (int32_t k = 0; k < 100; ++k) map.FindOrInsertZero(k);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.Find(5).empty());
  map.FindOrInsertZero(5)[1] = 7.0;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Find(5)[1], 7.0);
}

TEST(RowMapTest, FindMutable) {
  RowMap map(2);
  map.FindOrInsertZero(4);
  std::span<double> row = map.FindMutable(4);
  ASSERT_FALSE(row.empty());
  row[0] = 5.0;
  EXPECT_EQ(map.Find(4)[0], 5.0);
  EXPECT_TRUE(map.FindMutable(99).empty());
}

TEST(RowMapTest, MatchesReferenceMapUnderRandomWorkload) {
  // Property test: random inserts/accumulates agree with std::map.
  RowMap map(4);
  std::map<int32_t, std::vector<double>> reference;
  RunRandomWorkload(map, 99, &reference);
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, ref] : reference) {
    const std::span<const double> row = map.Find(key);
    ASSERT_FALSE(row.empty());
    for (int d = 0; d < 4; ++d) EXPECT_DOUBLE_EQ(row[d], ref[d]);
  }
}

TEST(RowMapTest, FarKeyIsFoundAndIterationFollowsInsertionOrder) {
  RowMap map(2);
  const std::vector<int32_t> keys = {3, 1000000, 7};
  for (int32_t k : keys) map.FindOrInsertZero(k)[0] = k + 0.5;
  for (int32_t k : keys) {
    const std::span<const double> row = map.Find(k);
    ASSERT_FALSE(row.empty()) << k;
    EXPECT_EQ(row[0], k + 0.5);
  }
  EXPECT_TRUE(map.Find(999999).empty());
  EXPECT_TRUE(map.Find(1000001).empty());
  std::vector<int32_t> seen;
  map.ForEach([&](int32_t key, std::span<const double>) {
    seen.push_back(key);
  });
  EXPECT_EQ(seen, keys);
}

TEST(RowMapTest, ClearForgetsKeysAndReinsertionIteratesNewOrderOnly) {
  RowMap map(3);
  for (int32_t k : {40, 2, 17, 900}) map.FindOrInsertZero(k)[1] = 1.0;
  map.Clear();
  for (int32_t k : {40, 2, 17, 900}) EXPECT_TRUE(map.Find(k).empty()) << k;
  const std::vector<int32_t> fresh_keys = {5, 900, 1};
  for (int32_t k : fresh_keys) {
    bool inserted = false;
    const std::span<double> row = map.FindOrInsertZero(k, &inserted);
    EXPECT_TRUE(inserted) << k;
    EXPECT_EQ(row[1], 0.0) << k;  // no stale value survives the Clear()
  }
  EXPECT_TRUE(map.Find(40).empty());
  std::vector<int32_t> seen;
  map.ForEach([&](int32_t key, std::span<const double>) {
    seen.push_back(key);
  });
  EXPECT_EQ(seen, fresh_keys);
}

TEST(RowMapTest, ReusedAfterClearMatchesFreshMapBitwise) {
  // LocalModel::Reset relies on this: a Clear()ed map, whose arena holds
  // stale rows and whose index already spans every key, must give the same
  // bits as a fresh one. dim = 12 is padded to a stride of 16, so Flat()
  // also checks that the padding tail is re-zeroed.
  RowMap reused(12);
  RunRandomWorkload(reused, 7);
  reused.Clear();
  RunRandomWorkload(reused, 99);
  RowMap fresh(12);
  RunRandomWorkload(fresh, 99);

  EXPECT_EQ(Rows(reused), Rows(fresh));
  const std::span<const double> a = reused.Flat();
  const std::span<const double> b = fresh.Flat();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
}

TEST(RowMapDeathTest, NegativeKeyDies) {
  RowMap map(2);
  map.FindOrInsertZero(1);
  EXPECT_DEATH(map.FindOrInsertZero(-1), "PLP_CHECK");
  EXPECT_DEATH(map.Find(-5), "PLP_CHECK");
}

TEST(RowMapTest, ScalarMode) {
  RowMap map(1);
  map.FindOrInsertZero(42)[0] = 1.5;
  EXPECT_EQ(map.dim(), 1);
  EXPECT_EQ(map.Find(42)[0], 1.5);
}

}  // namespace
}  // namespace plp::sgns
