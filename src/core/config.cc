#include "core/config.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "privacy/mog_accountant.h"

namespace plp::core {
namespace {

/// Joins every violation into one kInvalidArgument status so a
/// misconfigured run reports all problems at once.
Status CollectViolations(const std::vector<std::string>& violations) {
  if (violations.empty()) return Status::Ok();
  std::string message = "invalid config: ";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) message += "; ";
    message += violations[i];
  }
  return InvalidArgumentError(std::move(message));
}

}  // namespace

Result<SamplingScheme> ParseSamplingScheme(const std::string& name) {
  if (name == "poisson") return SamplingScheme::kPoisson;
  if (name == "fixed_batch") return SamplingScheme::kFixedBatch;
  return InvalidArgumentError("unknown sampling scheme: " + name +
                              " (valid: poisson, fixed_batch)");
}

const char* SamplingSchemeName(SamplingScheme scheme) {
  return scheme == SamplingScheme::kFixedBatch ? "fixed_batch" : "poisson";
}

Status PlpConfig::Validate() const {
  std::vector<std::string> violations;
  const auto require = [&](bool ok, const char* message) {
    if (!ok) violations.emplace_back(message);
  };
  require(sgns.embedding_dim > 0, "embedding_dim must be > 0");
  require(sgns.window > 0, "window must be > 0");
  require(sgns.negatives > 0, "negatives must be > 0");
  require(sgns.unigram_power >= 0.0, "unigram_power must be >= 0");
  require(sampling_probability > 0.0 && sampling_probability <= 1.0,
          "sampling_probability must be in (0, 1]");
  require(grouping_factor >= 1, "grouping_factor must be >= 1");
  require(split_factor >= 1, "split_factor must be >= 1");
  require(noise_scale >= 0.0, "noise_scale must be >= 0");
  require(clip_norm > 0.0, "clip_norm must be > 0");
  require(epsilon_budget > 0.0, "epsilon_budget must be > 0");
  require(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  require(batch_size > 0, "batch_size must be > 0");
  require(local_learning_rate > 0.0, "local_learning_rate must be > 0");
  require(local_epochs >= 1, "local_epochs must be >= 1");
  if (server_optimizer != "dp_adam" && server_optimizer != "fixed_step") {
    violations.push_back("unknown server_optimizer: " + server_optimizer);
  }
  if (accountant != "rdp" && accountant != "pld_fft" &&
      accountant != "mog") {
    violations.push_back("unknown accountant: " + accountant);
  } else if (sampling_scheme == SamplingScheme::kFixedBatch &&
             accountant != "mog") {
    // The rdp ledger and pld_fft (mog restricted to Poisson rounds) both
    // certify the Poisson-subsampled Gaussian; feeding them fixed-batch
    // rounds would certify the wrong mechanism.
    violations.push_back(
        "accountant \"" + accountant +
        "\" models Poisson sampling only; valid (scheme, accountant) pairs "
        "are poisson x {rdp, pld_fft, mog} and fixed_batch x {mog}");
  }
  if ((accountant == "mog" || accountant == "pld_fft") &&
      split_factor > privacy::kMogMaxSplitFactor) {
    // Both names run MogAccountant, whose AddRounds rejects larger ω;
    // catching it here fails the run before corpus loading instead of at
    // the first TrackRound.
    violations.push_back(
        "accountant \"" + accountant + "\" supports split_factor <= " +
        std::to_string(privacy::kMogMaxSplitFactor) +
        " (kMogMaxSplitFactor); got " + std::to_string(split_factor));
  }
  require(max_steps > 0, "max_steps must be > 0");
  require(num_threads >= 1, "num_threads must be >= 1");
  require(noise_scale_final >= 0.0, "noise_scale_final must be >= 0");
  if (noise_scale_final > 0.0) {
    require(noise_scale_final <= noise_scale,
            "noise_scale_final must not exceed noise_scale");
    require(noise_decay_steps > 0,
            "noise_decay_steps must be > 0 when a schedule is set");
  }
  return CollectViolations(violations);
}

double NoiseScaleAt(const PlpConfig& config, int64_t step) {
  if (config.noise_scale_final <= 0.0) return config.noise_scale;
  if (step >= config.noise_decay_steps) return config.noise_scale_final;
  const double progress = static_cast<double>(step - 1) /
                          static_cast<double>(config.noise_decay_steps);
  return config.noise_scale +
         (config.noise_scale_final - config.noise_scale) * progress;
}

double EffectiveNoiseMultiplier(const PlpConfig& config, int64_t step) {
  const double sigma_t = NoiseScaleAt(config, step);
  return config.per_tensor_noise
             ? sigma_t / std::sqrt(static_cast<double>(sgns::kNumTensors))
             : sigma_t;
}

int32_t FixedBatchSize(int32_t num_users, double q) {
  const int64_t rounded =
      std::llround(q * static_cast<double>(num_users));
  return static_cast<int32_t>(
      std::clamp<int64_t>(rounded, 1, num_users));
}

}  // namespace plp::core
