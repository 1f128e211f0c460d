#include "privacy/mog_accountant.h"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/plp_trainer.h"
#include "data/fixtures.h"
#include "pipeline/standard_stages.h"
#include "privacy/ledger.h"
#include "support/fixtures.h"

namespace plp::privacy {
namespace {

constexpr double kDelta = 1e-5;

MogRound PoissonRound(double q, double sigma, int32_t omega, int64_t steps) {
  MogRound round;
  round.sampling = MogSampling::kPoisson;
  round.sampling_ratio = q;
  round.noise_multiplier = sigma;
  round.split_factor = omega;
  round.steps = steps;
  return round;
}

MogRound FixedBatchRound(int64_t batch, int64_t population, double sigma,
                         int32_t omega, int64_t steps) {
  MogRound round;
  round.sampling = MogSampling::kFixedBatch;
  round.sampling_ratio =
      static_cast<double>(batch) / static_cast<double>(population);
  round.batch_size = batch;
  round.population = population;
  round.noise_multiplier = sigma;
  round.split_factor = omega;
  round.steps = steps;
  return round;
}

/// The accountant stage `name` at (δ, budget) = (kDelta, 1e9), as
/// pipeline::MakeAccountant builds it for a training run.
std::unique_ptr<pipeline::Accountant> StageAccountant(const char* name) {
  core::PlpConfig config;
  config.accountant = name;
  config.delta = kDelta;
  config.epsilon_budget = 1e9;
  return pipeline::MakeAccountant(config);
}

pipeline::RoundRecord PoissonRecord(int64_t step, double q, double sigma,
                                    int32_t omega) {
  pipeline::RoundRecord round;
  round.step = step;
  round.scheme = core::SamplingScheme::kPoisson;
  round.sampling_ratio = q;
  round.population = 200;
  round.noise_multiplier = sigma;
  round.split_factor = omega;
  return round;
}

TEST(MogAccountantTest, ZeroBeforeAnyRounds) {
  MogAccountant mog(kDelta);
  EXPECT_EQ(mog.CumulativeEpsilon(), 0.0);
  EXPECT_EQ(mog.total_steps(), 0);
  EXPECT_LE(mog.DeltaAtEpsilon(0.0), kDelta);
}

TEST(MogAccountantTest, RejectsInvalidRounds) {
  MogAccountant mog(kDelta);
  EXPECT_FALSE(mog.AddRounds(PoissonRound(0.0, 1.0, 1, 1)).ok());
  EXPECT_FALSE(mog.AddRounds(PoissonRound(1.1, 1.0, 1, 1)).ok());
  EXPECT_FALSE(mog.AddRounds(PoissonRound(0.5, 0.0, 1, 1)).ok());
  EXPECT_FALSE(mog.AddRounds(PoissonRound(0.5, 1.0, 0, 1)).ok());
  EXPECT_FALSE(mog.AddRounds(PoissonRound(0.5, 1.0, 65, 1)).ok());
  EXPECT_FALSE(mog.AddRounds(PoissonRound(0.5, 1.0, 1, 0)).ok());
  // Fixed batch requires 1 <= B <= N.
  EXPECT_FALSE(mog.AddRounds(FixedBatchRound(0, 10, 1.0, 1, 1)).ok());
  EXPECT_FALSE(mog.AddRounds(FixedBatchRound(11, 10, 1.0, 1, 1)).ok());
  EXPECT_EQ(mog.total_steps(), 0);
}

TEST(MogAccountantTest, EpsilonIncreasesWithSteps) {
  for (const MogRound& round :
       {PoissonRound(0.1, 1.5, 2, 25), FixedBatchRound(5, 50, 1.5, 2, 25)}) {
    MogAccountant mog(kDelta);
    double previous = 0.0;
    for (int run = 0; run < 6; ++run) {
      ASSERT_TRUE(mog.AddRounds(round).ok());
      const double eps = mog.CumulativeEpsilon();
      EXPECT_GT(eps, previous) << "after " << (run + 1) * 25 << " steps";
      EXPECT_TRUE(std::isfinite(eps));
      previous = eps;
    }
  }
}

TEST(MogAccountantTest, EpsilonDecreasesInSigma) {
  double previous = std::numeric_limits<double>::infinity();
  for (double sigma : {1.0, 1.5, 2.0, 3.0}) {
    MogAccountant mog(kDelta);
    ASSERT_TRUE(mog.AddRounds(PoissonRound(0.1, sigma, 2, 50)).ok());
    const double eps = mog.CumulativeEpsilon();
    EXPECT_LT(eps, previous) << "sigma=" << sigma;
    previous = eps;
  }
}

/// The pipeline samples WHOLE users and the grouper places all ω parts of
/// every sampled user into the round, so participation is all-or-nothing:
/// the dominating pair in ω·C-normalized units is (1−q)N(0,σ²) + qN(1,σ²)
/// for every ω, and — σ being the multiplier relative to the joint
/// sensitivity ω·C — ε must be bit-identical across ω. (A law with ε
/// shrinking in ω, e.g. element-wise Binomial(ω, q) weights, would mean
/// the accountant certifies more steps than the released all-or-nothing
/// mechanism supports.)
TEST(MogAccountantTest, EpsilonInvariantInOmega) {
  MogAccountant reference(kDelta);
  ASSERT_TRUE(reference.AddRounds(PoissonRound(0.25, 1.2, 1, 40)).ok());
  const double reference_eps = reference.CumulativeEpsilon();
  EXPECT_GT(reference_eps, 0.0);
  for (int32_t omega : {2, 4, 8}) {
    MogAccountant mog(kDelta);
    ASSERT_TRUE(mog.AddRounds(PoissonRound(0.25, 1.2, omega, 40)).ok());
    EXPECT_EQ(mog.CumulativeEpsilon(), reference_eps) << "omega=" << omega;
  }
}

/// q = 1, ω = 1 is a plain (unsubsampled) Gaussian, whose δ(ε) has the
/// closed form Φ(1/(2σ) − εσ) − e^ε·Φ(−1/(2σ) − εσ) [Balle & Wang 2018].
/// The pessimistic grid may overshoot slightly, never undercut.
TEST(MogAccountantTest, MatchesAnalyticGaussianAtQOne) {
  const double sigma = 2.0;
  const auto analytic_delta = [&](double eps) {
    const auto phi = [](double x) {
      return 0.5 * std::erfc(-x / std::sqrt(2.0));
    };
    return phi(1.0 / (2.0 * sigma) - eps * sigma) -
           std::exp(eps) * phi(-1.0 / (2.0 * sigma) - eps * sigma);
  };
  double lo = 0.0, hi = 16.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (analytic_delta(mid) > kDelta ? lo : hi) = mid;
  }
  const double analytic_eps = hi;

  MogAccountant mog(kDelta);
  ASSERT_TRUE(mog.AddRounds(PoissonRound(1.0, sigma, 1, 1)).ok());
  const double mog_eps = mog.CumulativeEpsilon();
  EXPECT_GE(mog_eps, analytic_eps - 1e-6);
  EXPECT_LE(mog_eps, analytic_eps + 0.02);
}

/// Drawing all N of N users without replacement is also a sure thing:
/// fixed batch at B = N must agree with Poisson at q = 1 on the grid.
TEST(MogAccountantTest, FullBatchEqualsQOnePoisson) {
  MogAccountant poisson(kDelta);
  ASSERT_TRUE(poisson.AddRounds(PoissonRound(1.0, 1.5, 2, 10)).ok());
  MogAccountant fixed(kDelta);
  ASSERT_TRUE(fixed.AddRounds(FixedBatchRound(20, 20, 1.5, 2, 10)).ok());
  EXPECT_EQ(fixed.CumulativeEpsilon(), poisson.CumulativeEpsilon());
}

/// Under Poisson the all-or-nothing participation law IS the
/// subsampled-Gaussian (1−q)N(0,σ²) + qN(1,σ²) dominating pair of
/// Koskela et al. at every ω, so the "pld_fft" stage is the "mog" stage
/// restricted to Poisson rounds: fed the same RoundRecords, the two must
/// agree bit for bit after every round, σ changes included.
TEST(MogAccountantTest, PldFftStageMatchesMogStageAtEveryOmega) {
  for (int32_t omega : {1, 2, 4}) {
    SCOPED_TRACE("omega=" + std::to_string(omega));
    auto pld = StageAccountant("pld_fft");
    auto mog = StageAccountant("mog");
    for (int64_t step = 1; step <= 12; ++step) {
      const pipeline::RoundRecord round =
          PoissonRecord(step, 0.06, step <= 8 ? 2.5 : 1.8, omega);
      auto pld_decision = pld->TrackRound(round);
      auto mog_decision = mog->TrackRound(round);
      ASSERT_TRUE(pld_decision.ok()) << pld_decision.status().message();
      ASSERT_TRUE(mog_decision.ok()) << mog_decision.status().message();
      EXPECT_GT(pld_decision->epsilon_after, 0.0);
      EXPECT_EQ(pld_decision->epsilon_after, mog_decision->epsilon_after)
          << "step " << step;
    }
    EXPECT_EQ(pld->EpsilonSpent(), mog->EpsilonSpent());
    EXPECT_EQ(pld->SaveBlob(), mog->SaveBlob());
  }
}

/// Config validation rejects fixed_batch × pld_fft up front; a
/// hand-assembled pld_fft stage must still refuse a fixed-batch round,
/// with the message that names the valid pairs, on both tracking paths.
TEST(MogAccountantTest, PldFftStageRejectsFixedBatchRound) {
  pipeline::RoundRecord round = PoissonRecord(1, 0.06, 2.5, 1);
  round.scheme = core::SamplingScheme::kFixedBatch;
  round.batch_size = 12;
  auto pld = StageAccountant("pld_fft");
  for (const Status& status : {pld->TrackRound(round).status(),
                               pld->TrackRounds(round, 3).status()}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(
                  "accountant \"pld_fft\" models Poisson sampling only; "
                  "valid (scheme, accountant) pairs are poisson x {rdp, "
                  "pld_fft, mog} and fixed_batch x {mog}"),
              std::string::npos)
        << status.message();
  }
  EXPECT_EQ(pld->EpsilonSpent(), 0.0);
  // The same round is legal under "mog".
  EXPECT_TRUE(StageAccountant("mog")->TrackRound(round).ok());
}

/// Checkpoints from builds where pld_fft was a standalone accountant carry
/// a "PLD1" blob. Both PLD stage names refuse it with a message that says
/// why and what to do, instead of a generic parse failure.
TEST(MogAccountantTest, StageRejectsLegacyPldBlobByName) {
  const std::string blob = test::LegacyPldBlob(kDelta, 0.06, 2.5, 3);
  for (const char* name : {"pld_fft", "mog"}) {
    auto accountant = StageAccountant(name);
    const Status status = accountant->RestoreBlob(blob, 3);
    ASSERT_FALSE(status.ok()) << name;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.message().find("PLD1"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("must restart"), std::string::npos)
        << status.message();
  }
}

/// The fixed-batch marginal collapses to p = B/N, so a fixed batch and a
/// Poisson round at q = B/N compose identically.
TEST(MogAccountantTest, FixedBatchMatchesPoissonAtEqualRatio) {
  MogAccountant poisson(kDelta);
  ASSERT_TRUE(poisson.AddRounds(PoissonRound(0.06, 2.5, 2, 100)).ok());
  MogAccountant fixed(kDelta);
  ASSERT_TRUE(fixed.AddRounds(FixedBatchRound(6, 100, 2.5, 2, 100)).ok());
  EXPECT_EQ(fixed.CumulativeEpsilon(), poisson.CumulativeEpsilon());
}

/// The tentpole inequality, pinned for the ablation grid: at every
/// (scheme, ω) cell the MoG ε — the exact dominating-pair PLD of the
/// all-or-nothing participation law — is strictly below the classic-RDP
/// ε of the ω·C-sensitivity argument (both flat in ω, since σ is already
/// the joint multiplier).
TEST(MogAccountantTest, GridNeverLooserThanClassicRdp) {
  const double q = 0.06, sigma = 2.5;
  const int64_t steps = 200;
  PrivacyLedger ledger(kDelta);
  for (int64_t i = 0; i < steps; ++i) {
    ASSERT_TRUE(ledger.TrackStep(q, sigma).ok());
  }
  const double rdp_eps = ledger.CumulativeEpsilon(RdpConversion::kClassic);
  ASSERT_GT(rdp_eps, 0.0);

  constexpr int64_t kPopulation = 200;
  for (const MogSampling scheme :
       {MogSampling::kPoisson, MogSampling::kFixedBatch}) {
    for (const int32_t omega : {1, 2, 4}) {
      MogAccountant mog(kDelta);
      const MogRound round =
          scheme == MogSampling::kPoisson
              ? PoissonRound(q, sigma, omega, steps)
              : FixedBatchRound(static_cast<int64_t>(q * kPopulation),
                                kPopulation, sigma, omega, steps);
      ASSERT_TRUE(mog.AddRounds(round).ok());
      const double mog_eps = mog.CumulativeEpsilon();
      EXPECT_GT(mog_eps, 0.0);
      EXPECT_LT(mog_eps, rdp_eps)
          << "scheme=" << static_cast<int>(scheme) << " omega=" << omega;
    }
  }
}

TEST(MogAccountantTest, CoalescesIdenticalRuns) {
  MogAccountant mog(kDelta);
  ASSERT_TRUE(mog.AddRounds(PoissonRound(0.1, 1.5, 2, 10)).ok());
  ASSERT_TRUE(mog.AddRounds(PoissonRound(0.1, 1.5, 2, 5)).ok());
  ASSERT_TRUE(mog.AddRounds(FixedBatchRound(5, 50, 1.5, 2, 5)).ok());
  ASSERT_EQ(mog.entries().size(), 2u);
  EXPECT_EQ(mog.entries()[0].steps, 15);
  EXPECT_EQ(mog.total_steps(), 20);
}

TEST(MogAccountantTest, SaveRestoreRoundTripsBitIdentically) {
  MogAccountant mog(kDelta);
  ASSERT_TRUE(mog.AddRounds(PoissonRound(0.06, 2.5, 2, 120)).ok());
  ASSERT_TRUE(mog.AddRounds(FixedBatchRound(12, 200, 1.8, 4, 40)).ok());
  ByteWriter writer;
  mog.SaveState(writer);
  const std::string blob = writer.Take();

  ByteReader reader(blob);
  auto restored = MogAccountant::Restore(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored->delta(), mog.delta());
  EXPECT_EQ(restored->total_steps(), mog.total_steps());
  // Bit-identity, not approximation: the discretization is deterministic.
  EXPECT_EQ(restored->CumulativeEpsilon(), mog.CumulativeEpsilon());

  ByteWriter writer2;
  restored->SaveState(writer2);
  EXPECT_EQ(writer2.Take(), blob);
}

TEST(MogAccountantTest, RejectsForeignAndTruncatedBlobs) {
  {
    const std::string blob("nonsense-bytes");
    ByteReader reader(blob);
    EXPECT_FALSE(MogAccountant::Restore(reader).ok());
  }
  {
    // Neither an RDP ledger blob nor an old "PLD1" blob parses as MoG,
    // and a MoG blob does not parse as an RDP ledger.
    PrivacyLedger ledger(kDelta);
    ASSERT_TRUE(ledger.TrackStep(0.1, 1.5).ok());
    ByteWriter writer;
    ledger.SaveState(writer);
    for (const std::string& blob :
         {writer.Take(), test::LegacyPldBlob(kDelta, 0.1, 1.5, 3)}) {
      ByteReader reader(blob);
      EXPECT_FALSE(MogAccountant::Restore(reader).ok());
    }
  }
  {
    MogAccountant mog(kDelta);
    ASSERT_TRUE(mog.AddRounds(PoissonRound(0.1, 1.5, 2, 3)).ok());
    ByteWriter writer;
    mog.SaveState(writer);
    std::string mog_blob = writer.Take();
    {
      ByteReader reader(mog_blob);
      EXPECT_FALSE(PrivacyLedger::Restore(reader).ok());
    }
    mog_blob.resize(mog_blob.size() / 2);  // truncate mid-entry
    ByteReader reader(mog_blob);
    EXPECT_FALSE(MogAccountant::Restore(reader).ok());
  }
}

TEST(MogAccountantTest, DeltaDecreasesInEpsilon) {
  MogAccountant mog(kDelta);
  ASSERT_TRUE(mog.AddRounds(PoissonRound(0.2, 1.2, 1, 50)).ok());
  double previous = 1.0;
  for (double eps = 0.0; eps <= 8.0; eps += 0.5) {
    const double d = mog.DeltaAtEpsilon(eps);
    EXPECT_LE(d, previous + 1e-15) << "eps=" << eps;
    EXPECT_GE(d, 0.0);
    previous = d;
  }
}

/// A spend past the loss grid reports ε = +infinity rather than a finite
/// under-estimate — through the "pld_fft" stage a run would use.
TEST(MogAccountantTest, OverflowingGridReportsInfinity) {
  core::PlpConfig config;
  config.accountant = "pld_fft";
  config.delta = kDelta;
  config.sampling_probability = 1.0;
  config.noise_scale = 0.05;
  auto accountant = pipeline::MakeAccountant(config);
  auto decision = accountant->TrackRounds(PoissonRecord(1, 1.0, 0.05, 1), 500);
  ASSERT_TRUE(decision.ok()) << decision.status().message();
  EXPECT_TRUE(std::isinf(decision->epsilon_after));
  EXPECT_TRUE(decision->exhausted);
}

/// End-to-end through the trainer facade: selecting "pld_fft" must train
/// successfully, and its tighter accounting must fit more steps into the
/// same ε budget than the RDP ledger.
TEST(MogAccountantTest, EngineFitsMoreStepsThanRdpInSameBudget) {
  data::FixtureCorpusOptions options;
  options.num_users = 48;
  options.num_locations = 24;
  options.neighborhood = 4;
  const data::TrainingCorpus corpus = data::MakeFixtureCorpus(777, options);

  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.25;
  config.grouping_factor = 2;
  config.noise_scale = 1.2;
  config.clip_norm = 0.5;
  config.batch_size = 8;
  config.epsilon_budget = 4.0;
  config.max_steps = 64;

  core::PlpConfig rdp = config;
  rdp.accountant = "rdp";
  Rng rng_rdp(99);
  auto rdp_result = core::PlpTrainer(rdp).Train(corpus, rng_rdp);
  ASSERT_TRUE(rdp_result.ok()) << rdp_result.status().message();
  ASSERT_EQ(rdp_result->stop_reason, core::StopReason::kBudgetExhausted);

  core::PlpConfig pld = config;
  pld.accountant = "pld_fft";
  Rng rng_pld(99);
  auto pld_result = core::PlpTrainer(pld).Train(corpus, rng_pld);
  ASSERT_TRUE(pld_result.ok()) << pld_result.status().message();

  EXPECT_GT(pld_result->steps_executed, rdp_result->steps_executed);
  EXPECT_GT(pld_result->epsilon_spent, 0.0);
  EXPECT_LE(pld_result->epsilon_spent, config.epsilon_budget);
}

/// End-to-end through the trainer facade: selecting "mog" must train, stay
/// within budget, and — being at least as tight as the RDP moments
/// ledger — fit no fewer steps into the same ε budget.
TEST(MogAccountantTest, EngineFitsAtLeastAsManyStepsAsRdp) {
  data::FixtureCorpusOptions options;
  options.num_users = 48;
  options.num_locations = 24;
  options.neighborhood = 4;
  const data::TrainingCorpus corpus = data::MakeFixtureCorpus(777, options);

  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.25;
  config.grouping_factor = 2;
  config.noise_scale = 1.2;
  config.clip_norm = 0.5;
  config.batch_size = 8;
  config.epsilon_budget = 4.0;
  config.max_steps = 64;

  core::PlpConfig rdp = config;
  rdp.accountant = "rdp";
  Rng rng_rdp(99);
  auto rdp_result = core::PlpTrainer(rdp).Train(corpus, rng_rdp);
  ASSERT_TRUE(rdp_result.ok()) << rdp_result.status().message();
  ASSERT_EQ(rdp_result->stop_reason, core::StopReason::kBudgetExhausted);

  core::PlpConfig mog = config;
  mog.accountant = "mog";
  Rng rng_mog(99);
  auto mog_result = core::PlpTrainer(mog).Train(corpus, rng_mog);
  ASSERT_TRUE(mog_result.ok()) << mog_result.status().message();

  EXPECT_GE(mog_result->steps_executed, rdp_result->steps_executed);
  EXPECT_GT(mog_result->epsilon_spent, 0.0);
  EXPECT_LE(mog_result->epsilon_spent, config.epsilon_budget);
}

/// Fixed-batch sampling end to end: the FixedBatchSampler stage plus the
/// hypergeometric MoG weights — the pairing no Poisson-only accountant
/// may account — must train to completion.
TEST(MogAccountantTest, EngineTrainsFixedBatchUnderMog) {
  data::FixtureCorpusOptions options;
  options.num_users = 48;
  options.num_locations = 24;
  options.neighborhood = 4;
  const data::TrainingCorpus corpus = data::MakeFixtureCorpus(777, options);

  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.25;
  config.grouping_factor = 2;
  config.noise_scale = 1.2;
  config.clip_norm = 0.5;
  config.batch_size = 8;
  config.epsilon_budget = 1e9;
  config.max_steps = 8;
  config.accountant = "mog";
  config.sampling_scheme = core::SamplingScheme::kFixedBatch;
  ASSERT_TRUE(config.Validate().ok());

  Rng rng(99);
  auto result = core::PlpTrainer(config).Train(corpus, rng);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->steps_executed, 8);
  EXPECT_GT(result->epsilon_spent, 0.0);
}

}  // namespace
}  // namespace plp::privacy
