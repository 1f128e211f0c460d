#include "data/synthetic_generator.h"

#include <ostream>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

namespace plp::data {
namespace {

SyntheticConfig TinyConfig() {
  SyntheticConfig c = SmallSyntheticConfig();
  c.num_users = 60;
  c.num_locations = 50;
  c.num_clusters = 4;
  c.log_checkins_mean = 3.0;
  c.log_checkins_stddev = 0.4;
  return c;
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  const SyntheticConfig config = TinyConfig();
  Rng rng_a(77), rng_b(77);
  auto a = GenerateSyntheticCheckIns(config, rng_a);
  auto b = GenerateSyntheticCheckIns(config, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_checkins(), b->num_checkins());
  for (int32_t u = 0; u < a->num_users(); ++u) {
    const auto& ca = a->UserCheckIns(u);
    const auto& cb = b->UserCheckIns(u);
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].location, cb[i].location);
      EXPECT_EQ(ca[i].timestamp, cb[i].timestamp);
    }
  }
}

TEST(GeneratorTest, ProducesRequestedUserCount) {
  Rng rng(1);
  auto ds = GenerateSyntheticCheckIns(TinyConfig(), rng);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_users(), 60);
  EXPECT_LE(ds->num_locations(), 50);
}

TEST(GeneratorTest, PerUserCountsWithinBounds) {
  SyntheticConfig config = TinyConfig();
  config.min_checkins_per_user = 12;
  config.max_checkins_per_user = 40;
  Rng rng(2);
  auto ds = GenerateSyntheticCheckIns(config, rng);
  ASSERT_TRUE(ds.ok());
  for (int64_t count : ds->UserRecordCounts()) {
    EXPECT_GE(count, 12);
    EXPECT_LE(count, 40);
  }
}

TEST(GeneratorTest, TimestampsAreIncreasingPerUser) {
  Rng rng(3);
  auto ds = GenerateSyntheticCheckIns(TinyConfig(), rng);
  ASSERT_TRUE(ds.ok());
  for (int32_t u = 0; u < ds->num_users(); ++u) {
    const auto& checkins = ds->UserCheckIns(u);
    for (size_t i = 1; i < checkins.size(); ++i) {
      EXPECT_GE(checkins[i].timestamp, checkins[i - 1].timestamp);
    }
  }
}

TEST(GeneratorTest, CoordinatesInsideBoundingBox) {
  Rng rng(4);
  const SyntheticConfig config = TinyConfig();
  auto ds = GenerateSyntheticCheckIns(config, rng);
  ASSERT_TRUE(ds.ok());
  for (int32_t u = 0; u < ds->num_users(); ++u) {
    for (const CheckIn& c : ds->UserCheckIns(u)) {
      EXPECT_GE(c.latitude, config.bbox.south);
      EXPECT_LE(c.latitude, config.bbox.north);
      EXPECT_GE(c.longitude, config.bbox.west);
      EXPECT_LE(c.longitude, config.bbox.east);
    }
  }
}

TEST(GeneratorTest, PopularityIsSkewed) {
  // Zipf popularity: the most visited POI should dominate the median one.
  SyntheticConfig config = TinyConfig();
  config.num_users = 200;
  Rng rng(5);
  auto ds = GenerateSyntheticCheckIns(config, rng);
  ASSERT_TRUE(ds.ok());
  std::vector<int64_t> visits(ds->num_locations(), 0);
  for (int32_t u = 0; u < ds->num_users(); ++u) {
    for (const CheckIn& c : ds->UserCheckIns(u)) ++visits[c.location];
  }
  std::sort(visits.begin(), visits.end());
  const int64_t top = visits.back();
  const int64_t median = visits[visits.size() / 2];
  EXPECT_GT(top, 4 * std::max<int64_t>(median, 1));
}

TEST(GeneratorTest, GroundTruthAlignsWithDenseLocationIds) {
  Rng rng(6);
  SyntheticGroundTruth gt;
  const SyntheticConfig config = TinyConfig();
  auto ds = GenerateSyntheticCheckIns(config, rng, &gt);
  ASSERT_TRUE(ds.ok());
  // Ground-truth arrays are compacted to the visited (dense) vocabulary.
  EXPECT_EQ(gt.location_cluster.size(),
            static_cast<size_t>(ds->num_locations()));
  EXPECT_EQ(gt.location_popularity.size(),
            static_cast<size_t>(ds->num_locations()));
  EXPECT_EQ(gt.user_home_cluster.size(),
            static_cast<size_t>(config.num_users));
  for (int32_t k : gt.location_cluster) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, config.num_clusters);
  }
  // Most clusters should own at least one visited POI.
  std::set<int32_t> clusters(gt.location_cluster.begin(),
                             gt.location_cluster.end());
  EXPECT_GE(clusters.size(), static_cast<size_t>(config.num_clusters) / 2);
}

TEST(GeneratorTest, HomeClusterDominatesVisits) {
  SyntheticConfig config = TinyConfig();
  config.home_cluster_affinity = 0.95;
  config.num_users = 100;
  Rng rng(7);
  SyntheticGroundTruth gt;
  auto ds = GenerateSyntheticCheckIns(config, rng, &gt);
  ASSERT_TRUE(ds.ok());
  int64_t home_visits = 0, total = 0;
  for (int32_t u = 0; u < ds->num_users(); ++u) {
    for (const CheckIn& c : ds->UserCheckIns(u)) {
      home_visits += gt.location_cluster[c.location] ==
                     gt.user_home_cluster[u];
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(home_visits) / total, 0.6);
}

TEST(GeneratorTest, UniqueWithinSessionHoldsAlmostAlways) {
  SyntheticConfig config = TinyConfig();
  config.unique_within_session = true;
  Rng rng(8);
  auto raw = GenerateSyntheticCheckIns(config, rng);
  ASSERT_TRUE(raw.ok());
  // The generator's sessions are short bursts; use a generous gap cut so
  // re-derived sessions align with generated ones.
  int64_t repeats = 0, total = 0;
  for (int32_t u = 0; u < raw->num_users(); ++u) {
    for (const auto& session : raw->Sessionize(u, 6 * 3600, 4 * 3600)) {
      std::unordered_set<int32_t> seen;
      for (int32_t l : session) {
        repeats += !seen.insert(l).second;
        ++total;
      }
    }
  }
  // Bounded retries may rarely admit a repeat, and re-derived sessions can
  // merge two generated sessions when the inter-session gap happens to be
  // short; both must stay tail events.
  EXPECT_LT(static_cast<double>(repeats) / total, 0.05);
}

TEST(GeneratorTest, RepeatsAllowedWhenDisabled) {
  SyntheticConfig config = TinyConfig();
  config.unique_within_session = false;
  config.return_probability = 0.95;
  Rng rng(9);
  auto raw = GenerateSyntheticCheckIns(config, rng);
  ASSERT_TRUE(raw.ok());
  int64_t repeats = 0;
  for (int32_t u = 0; u < raw->num_users(); ++u) {
    for (const auto& session : raw->Sessionize(u, 6 * 3600, 4 * 3600)) {
      std::unordered_set<int32_t> seen;
      for (int32_t l : session) repeats += !seen.insert(l).second;
    }
  }
  EXPECT_GT(repeats, 0);
}

struct BadConfigCase {
  const char* name;
  SyntheticConfig config;
};

// Without a printer gtest lists a case as its raw bytes, which start with
// the name pointer and so differ from run to run under ASLR; the
// discovered CTest names would too.
void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class GeneratorValidationTest
    : public testing::TestWithParam<BadConfigCase> {};

TEST_P(GeneratorValidationTest, Rejected) {
  Rng rng(1);
  EXPECT_FALSE(GenerateSyntheticCheckIns(GetParam().config, rng).ok());
}

std::vector<BadConfigCase> BadConfigs() {
  std::vector<BadConfigCase> cases;
  auto add = [&cases](const char* name, auto mutate) {
    BadConfigCase c{name, TinyConfig()};
    mutate(c.config);
    cases.push_back(c);
  };
  add("zero_users", [](SyntheticConfig& c) { c.num_users = 0; });
  add("zero_locations", [](SyntheticConfig& c) { c.num_locations = 0; });
  add("zero_clusters", [](SyntheticConfig& c) { c.num_clusters = 0; });
  add("clusters_exceed_locations",
      [](SyntheticConfig& c) { c.num_clusters = c.num_locations + 1; });
  add("negative_zipf", [](SyntheticConfig& c) { c.zipf_exponent = -1; });
  add("bad_return_prob",
      [](SyntheticConfig& c) { c.return_probability = 1.5; });
  add("bad_affinity",
      [](SyntheticConfig& c) { c.home_cluster_affinity = -0.1; });
  add("zero_min_checkins",
      [](SyntheticConfig& c) { c.min_checkins_per_user = 0; });
  add("max_below_min", [](SyntheticConfig& c) {
    c.min_checkins_per_user = 20;
    c.max_checkins_per_user = 10;
  });
  add("zero_session_min",
      [](SyntheticConfig& c) { c.session_length_min = 0; });
  add("session_max_below_min", [](SyntheticConfig& c) {
    c.session_length_min = 5;
    c.session_length_max = 2;
  });
  add("bad_session_gap",
      [](SyntheticConfig& c) { c.mean_hours_between_sessions = 0; });
  add("bad_checkin_gap",
      [](SyntheticConfig& c) { c.mean_minutes_between_checkins = 0; });
  add("degenerate_bbox", [](SyntheticConfig& c) {
    c.bbox.north = c.bbox.south;
  });
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, GeneratorValidationTest, testing::ValuesIn(BadConfigs()),
    [](const testing::TestParamInfo<BadConfigCase>& info) {
      return info.param.name;
    });

TEST(GeneratorTest, PaperConfigDimensions) {
  const SyntheticConfig c = PaperSyntheticConfig();
  EXPECT_EQ(c.num_users, 4602);
  EXPECT_EQ(c.num_locations, 5069);
}

}  // namespace
}  // namespace plp::data
