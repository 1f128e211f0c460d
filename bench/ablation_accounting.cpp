// Ablation A3 (Sections 2.3 and 6): moments accountant vs classic
// composition theorems — and the FFT-composed privacy-loss-distribution
// accountant.
//
// For the paper's training regime (subsampled Gaussian mechanism with
// q ∈ {0.06, 0.10}, σ ∈ {1.5, 2.5}, δ = 2·10⁻⁴) this prints how many
// training steps each accounting method admits before a given ε budget is
// exceeded. The moments accountant (RDP) admits orders of magnitude more
// steps than naive composition and far more than advanced composition —
// the enabling observation of [Abadi et al. 2016] that PLP builds on. The
// mog column is tighter still: under Poisson sampling its dominating pair
// is the subsampled-Gaussian PLD of Koskela et al. (arXiv:1906.03049), so
// it is also the "pld_fft" accountant, which runs the same stage.
//
// The accountant columns run the same pipeline::Accountant stages the
// training engine uses — selected by PlpConfig::accountant exactly as a
// training run would select them — so the numbers here are the step counts
// a real run admits, not a re-derivation. The composition-theorem columns
// stay closed-form (they are baselines no stage implements, on purpose).
//
// Usage: ablation_accounting [--seed=N] [--max_steps=N]
//        (pure math; scale-independent)

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "core/config.h"
#include "pipeline/standard_stages.h"
#include "privacy/gaussian_mechanism.h"
#include "privacy/rdp_accountant.h"

namespace plp::bench {
namespace {

constexpr double kDelta = 2e-4;
/// The paper's user count — the fixed-batch hypergeometric weights need a
/// concrete population (Poisson accounting is population-free).
constexpr int64_t kPopulation = 4602;

core::PlpConfig AccountingConfig(const std::string& accountant,
                                 privacy::RdpConversion conversion, double q,
                                 double sigma, double eps_budget) {
  core::PlpConfig config;
  config.accountant = accountant;
  config.rdp_conversion = conversion;
  config.sampling_probability = q;
  config.noise_scale = sigma;
  config.delta = kDelta;
  config.epsilon_budget = eps_budget;
  return config;
}

/// The round-1 RoundRecord a training run over `config` would stamp —
/// what the bulk TrackRounds sweep extends.
pipeline::RoundRecord FirstRound(const core::PlpConfig& config) {
  pipeline::RoundRecord round;
  round.step = 1;
  round.scheme = config.sampling_scheme;
  round.sampling_ratio = config.sampling_probability;
  round.population = kPopulation;
  if (config.sampling_scheme == core::SamplingScheme::kFixedBatch) {
    round.batch_size = core::FixedBatchSize(
        static_cast<int32_t>(kPopulation), config.sampling_probability);
  }
  round.noise_multiplier = core::EffectiveNoiseMultiplier(config, 1);
  round.split_factor = config.split_factor;
  return round;
}

/// Largest round count the configured Accountant stage admits inside the
/// budget, by binary search over [0, max_steps]. Each probe builds a fresh
/// accountant and advances it through the bulk TrackRounds path, so a
/// probe costs one ε conversion (one FFT composition for mog)
/// instead of one per round.
int64_t StepsAdmitted(const core::PlpConfig& config, int64_t max_steps) {
  const pipeline::RoundRecord first = FirstRound(config);
  const auto exhausted = [&config, &first](int64_t rounds) {
    auto accountant = pipeline::MakeAccountant(config);
    auto decision = accountant->TrackRounds(first, rounds);
    PLP_CHECK_OK(decision.status());
    return decision->exhausted;
  };
  if (exhausted(1)) return 0;
  if (!exhausted(max_steps)) return max_steps;
  int64_t admitted = 1, over = max_steps;
  while (over - admitted > 1) {
    const int64_t mid = admitted + (over - admitted) / 2;
    (exhausted(mid) ? over : admitted) = mid;
  }
  return admitted;
}

int64_t StepsUnderNaive(double per_step_eps, double eps_budget,
                        int64_t max_steps) {
  return std::min(max_steps,
                  static_cast<int64_t>(eps_budget / per_step_eps));
}

int64_t StepsUnderAdvanced(double per_step_eps, double eps_budget,
                           int64_t max_steps) {
  int64_t steps = 0;
  while (steps < max_steps &&
         privacy::AdvancedCompositionEpsilon(per_step_eps, steps + 1,
                                             kDelta) <= eps_budget) {
    ++steps;
  }
  return steps;
}

void Run(int argc, char** argv) {
  auto flags = plp::FlagParser::Parse(argc, argv);
  PLP_CHECK_OK(flags.status());
  const int64_t max_steps = flags->GetInt("max_steps", 200000);
  std::printf(
      "== Ablation A3: steps admitted per accounting method "
      "(delta=%.0e, cap=%lld) ==\n\n",
      kDelta, static_cast<long long>(max_steps));

  TablePrinter table({"q", "sigma", "eps_budget", "naive", "advanced",
                      "rdp_classic", "rdp_improved", "mog"});
  for (double q : {0.06, 0.10}) {
    for (double sigma : {1.5, 2.5}) {
      // Per-release ε of the subsampled Gaussian for the composition
      // baselines: classic bound amplified by sampling.
      const double eps0 = privacy::AmplifyBySampling(
          privacy::GaussianEpsilon(sigma, kDelta).value(), q);
      for (double eps : {1.0, 2.0, 4.0}) {
        table.NewRow()
            .AddCell(q, 2)
            .AddCell(sigma, 1)
            .AddCell(eps, 1)
            .AddCell(StepsUnderNaive(eps0, eps, max_steps))
            .AddCell(StepsUnderAdvanced(eps0, eps, max_steps))
            .AddCell(StepsAdmitted(
                AccountingConfig("rdp", privacy::RdpConversion::kClassic, q,
                                 sigma, eps),
                max_steps))
            .AddCell(StepsAdmitted(
                AccountingConfig("rdp", privacy::RdpConversion::kImproved,
                                 q, sigma, eps),
                max_steps))
            .AddCell(StepsAdmitted(
                AccountingConfig("mog", privacy::RdpConversion::kClassic, q,
                                 sigma, eps),
                max_steps));
        std::printf(".");
        std::fflush(stdout);
      }
    }
  }
  std::printf("\n\n");
  table.PrintAligned(std::cout);

  // Group-level grid (Section 4.2 Case 2 meets Ganesh's MoG analysis):
  // the effective multiplier already normalizes by the joint sensitivity
  // ω·C, and participation is all-or-nothing (the samplers draw whole
  // users and the grouper places all ω parts of every sampled one), so
  // BOTH columns are flat in ω. The mog column composes the exact
  // dominating-pair PLD of that law instead of the RDP bound — strictly
  // tighter in every cell — and is the only column defined for
  // fixed-batch sampling at all.
  std::printf(
      "\n== Group-level grid: steps admitted at eps=2 "
      "(q=0.06, sigma=2.5, N=%lld) ==\n\n",
      static_cast<long long>(kPopulation));
  TablePrinter grid({"scheme", "omega", "rdp_classic", "mog"});
  for (const core::SamplingScheme scheme :
       {core::SamplingScheme::kPoisson, core::SamplingScheme::kFixedBatch}) {
    for (const int32_t omega : {1, 2, 4}) {
      const auto grid_config = [&](const std::string& accountant) {
        core::PlpConfig config = AccountingConfig(
            accountant, privacy::RdpConversion::kClassic, 0.06, 2.5, 2.0);
        config.sampling_scheme = scheme;
        config.split_factor = omega;
        return config;
      };
      auto& row = grid.NewRow()
                      .AddCell(core::SamplingSchemeName(scheme))
                      .AddCell(static_cast<int64_t>(omega));
      if (scheme == core::SamplingScheme::kPoisson) {
        row.AddCell(StepsAdmitted(grid_config("rdp"), max_steps));
      } else {
        row.AddCell("n/a");  // Poisson-only accountant rejects the pairing
      }
      row.AddCell(StepsAdmitted(grid_config("mog"), max_steps));
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\n\n");
  grid.PrintAligned(std::cout);
  std::printf(
      "\nClaim: the moments accountant admits far more training steps than "
      "either composition theorem at every budget — which is what makes "
      "iterative private learning feasible at all. The mog column "
      "composes the group-level Mixture-of-Gaussians PLD (Ganesh, "
      "arXiv:2401.10294) of the pipeline's all-or-nothing participation "
      "law (whole users are sampled, all omega parts of a sampled user "
      "enter the round). Under Poisson that is exactly the "
      "subsampled-Gaussian PLD of Koskela et al., so the pld_fft "
      "accountant is the same stage and admits the same steps. It beats "
      "the classic RDP conversion throughout; at large step counts its "
      "pessimistic grid rounding (error linear in steps) can concede the "
      "lead to the improved RDP conversion. In the grid above it admits "
      "strictly more steps than the "
      "classic RDP bound in every cell — flat in omega, since sigma is "
      "already the joint-sensitivity multiplier — while also covering "
      "fixed-batch sampling, which no Poisson-only accountant may "
      "account.\n");
}

}  // namespace
}  // namespace plp::bench

int main(int argc, char** argv) {
  plp::bench::Run(argc, argv);
  return 0;
}
