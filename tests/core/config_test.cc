#include "core/config.h"

#include <functional>
#include <ostream>

#include <gtest/gtest.h>

namespace plp::core {
namespace {

TEST(PlpConfigTest, DefaultsAreValidAndMatchPaper) {
  PlpConfig config;
  EXPECT_TRUE(config.Validate().ok());
  // Section 5.1 defaults.
  EXPECT_EQ(config.sgns.embedding_dim, 50);
  EXPECT_EQ(config.sgns.window, 2);
  EXPECT_EQ(config.sgns.negatives, 16);
  EXPECT_EQ(config.batch_size, 32);
  EXPECT_EQ(config.sampling_probability, 0.06);
  EXPECT_EQ(config.noise_scale, 2.5);
  EXPECT_EQ(config.clip_norm, 0.5);
  EXPECT_EQ(config.grouping_factor, 4);
  EXPECT_EQ(config.delta, 2e-4);
  EXPECT_EQ(config.split_factor, 1);
}

struct BadConfigCase {
  const char* name;
  std::function<void(PlpConfig&)> mutate;
};

// Without a printer gtest lists a case as its raw bytes, which hold a
// string pointer and std::function internals. Those differ from run to
// run under ASLR, so the discovered CTest names would too.
void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class PlpConfigValidationTest : public testing::TestWithParam<BadConfigCase> {
};

TEST_P(PlpConfigValidationTest, Rejected) {
  PlpConfig config;
  GetParam().mutate(config);
  EXPECT_FALSE(config.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, PlpConfigValidationTest,
    testing::ValuesIn(std::vector<BadConfigCase>{
        {"zero_dim", [](PlpConfig& c) { c.sgns.embedding_dim = 0; }},
        {"zero_window", [](PlpConfig& c) { c.sgns.window = 0; }},
        {"zero_negatives", [](PlpConfig& c) { c.sgns.negatives = 0; }},
        {"zero_q", [](PlpConfig& c) { c.sampling_probability = 0.0; }},
        {"q_above_one", [](PlpConfig& c) { c.sampling_probability = 1.5; }},
        {"zero_lambda", [](PlpConfig& c) { c.grouping_factor = 0; }},
        {"zero_omega", [](PlpConfig& c) { c.split_factor = 0; }},
        {"negative_sigma", [](PlpConfig& c) { c.noise_scale = -1.0; }},
        {"zero_clip", [](PlpConfig& c) { c.clip_norm = 0.0; }},
        {"zero_budget", [](PlpConfig& c) { c.epsilon_budget = 0.0; }},
        {"zero_delta", [](PlpConfig& c) { c.delta = 0.0; }},
        {"delta_one", [](PlpConfig& c) { c.delta = 1.0; }},
        {"zero_batch", [](PlpConfig& c) { c.batch_size = 0; }},
        {"zero_lr", [](PlpConfig& c) { c.local_learning_rate = 0.0; }},
        {"bad_optimizer", [](PlpConfig& c) { c.server_optimizer = "sgd?"; }},
        {"zero_max_steps", [](PlpConfig& c) { c.max_steps = 0; }},
    }),
    [](const testing::TestParamInfo<BadConfigCase>& info) {
      return info.param.name;
    });

TEST(PlpConfigTest, ParseSamplingSchemeRoundTrips) {
  auto poisson = ParseSamplingScheme("poisson");
  ASSERT_TRUE(poisson.ok());
  EXPECT_EQ(*poisson, SamplingScheme::kPoisson);
  EXPECT_STREQ(SamplingSchemeName(*poisson), "poisson");

  auto fixed = ParseSamplingScheme("fixed_batch");
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(*fixed, SamplingScheme::kFixedBatch);
  EXPECT_STREQ(SamplingSchemeName(*fixed), "fixed_batch");

  auto bad = ParseSamplingScheme("bernoulli");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("poisson, fixed_batch"),
            std::string::npos);
}

TEST(PlpConfigTest, AcceptsEverySupportedSchemeAccountantPair) {
  for (const char* accountant : {"rdp", "pld_fft", "mog"}) {
    PlpConfig config;
    config.accountant = accountant;
    EXPECT_TRUE(config.Validate().ok()) << accountant;
  }
  PlpConfig config;
  config.sampling_scheme = SamplingScheme::kFixedBatch;
  config.accountant = "mog";
  EXPECT_TRUE(config.Validate().ok());
}

/// Poisson-only accountants must reject fixed-batch sampling, with a
/// structured message naming the valid pairs.
TEST(PlpConfigTest, RejectsFixedBatchUnderPoissonOnlyAccountants) {
  for (const char* accountant : {"rdp", "pld_fft"}) {
    PlpConfig config;
    config.sampling_scheme = SamplingScheme::kFixedBatch;
    config.accountant = accountant;
    const Status status = config.Validate();
    ASSERT_FALSE(status.ok()) << accountant;
    EXPECT_NE(status.message().find("models Poisson sampling only"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find(
                  "poisson x {rdp, pld_fft, mog} and fixed_batch x {mog}"),
              std::string::npos)
        << status.message();
  }
}

/// Validation collects every violation into one message instead of
/// stopping at the first: a bad pairing and a bad σ surface together.
TEST(PlpConfigTest, CollectsPairingViolationWithOthers) {
  PlpConfig config;
  config.sampling_scheme = SamplingScheme::kFixedBatch;
  config.accountant = "rdp";
  config.noise_scale = -1.0;
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("models Poisson sampling only"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("noise_scale"), std::string::npos)
      << status.message();
}

/// MogAccountant::AddRounds rejects ω > 64; Validate() must catch the
/// same bound up front (naming it and the chosen accountant) so a
/// --accountant=mog run — or pld_fft, which runs the same accountant —
/// fails before corpus loading instead of at the first TrackRound.
TEST(PlpConfigTest, RejectsMogAboveMaxSplitFactor) {
  for (const std::string accountant : {"mog", "pld_fft"}) {
    PlpConfig config;
    config.accountant = accountant;
    config.split_factor = 65;
    const Status status = config.Validate();
    ASSERT_FALSE(status.ok()) << accountant;
    EXPECT_NE(status.message().find("accountant \"" + accountant +
                                    "\" supports split_factor <= 64"),
              std::string::npos)
        << status.message();
    // The bound itself is valid.
    config.split_factor = 64;
    EXPECT_TRUE(config.Validate().ok()) << accountant;
  }
  // The RDP ledger scales ω·C into the noise and has no such bound.
  PlpConfig config;
  config.accountant = "rdp";
  config.split_factor = 65;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(PlpConfigTest, SigmaZeroIsAllowedByValidation) {
  // σ = 0 is a legal configuration value; the accountant then reports an
  // infinite per-step cost and training stops immediately.
  PlpConfig config;
  config.noise_scale = 0.0;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace plp::core
