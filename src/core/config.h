#ifndef PLP_CORE_CONFIG_H_
#define PLP_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "optim/optimizers.h"
#include "privacy/rdp_accountant.h"
#include "sgns/model.h"

namespace plp::core {

/// How sampled users are pooled into buckets (Section 4.1: дroupData).
enum class GroupingKind {
  /// Users are randomly permuted and chunked into buckets of λ (the
  /// paper's default — equal-frequency showed "no statistically
  /// significant benefit").
  kRandom,
  /// Greedy balancing so buckets hold approximately equal record counts,
  /// never splitting one user across buckets.
  kEqualFrequency,
};

/// How a bucket turns its data into a model update (lines 15–22).
enum class LocalUpdateMode {
  /// PLP: shuffled mini-batch SGD over the bucket's pairs (Algorithm 1's
  /// ModelUpdateFromBucket), optionally for several local epochs.
  kMultiBatchSgd,
  /// The DP-SGD baseline of [Abadi et al. / McMahan et al.]: one clipped
  /// gradient of the bucket's data at θ_t, scaled by η — no local
  /// optimization. This is what the paper's Section 5.2 compares against.
  kSingleGradient,
};

/// How each round's participating users are drawn (line 5).
enum class SamplingScheme : uint8_t {
  /// Each user independently with probability q (the paper's scheme;
  /// the "rdp" and "pld_fft" accountants assume it).
  kPoisson = 1,
  /// Exactly B = round(q·N) distinct users drawn uniformly without
  /// replacement every round. Only the "mog" accountant models this
  /// sampling law tightly; the Poisson-only accountants reject it.
  kFixedBatch = 2,
};

/// "poisson" / "fixed_batch" → the enum; anything else is
/// kInvalidArgument naming the valid spellings.
Result<SamplingScheme> ParseSamplingScheme(const std::string& name);

/// The inverse of ParseSamplingScheme (flag echo, stage descriptions).
const char* SamplingSchemeName(SamplingScheme scheme);

/// Full configuration of Private Location Prediction (Algorithm 1).
/// Defaults are the paper's (Section 5.1): q=0.06, σ=2.5, C=0.5, λ=4,
/// δ=2·10⁻⁴, b=32, η=0.06, dim=50, win=2, neg=16.
struct PlpConfig {
  sgns::SgnsConfig sgns;  ///< skip-gram hyper-parameters

  // --- sampling & grouping ---
  double sampling_probability = 0.06;  ///< q = m/N (per-user)
  /// Poisson (q per user, the paper's default) or fixed_batch (exactly
  /// round(q·N) users per round). fixed_batch requires accountant "mog" —
  /// the Poisson-only accountants would account the wrong mechanism.
  SamplingScheme sampling_scheme = SamplingScheme::kPoisson;
  int32_t grouping_factor = 4;         ///< λ: users per bucket
  GroupingKind grouping = GroupingKind::kRandom;
  int32_t split_factor = 1;  ///< ω: buckets a user's data may reach (§4.2)

  // --- privacy mechanism ---
  double noise_scale = 2.5;    ///< σ (noise multiplier)
  double clip_norm = 0.5;      ///< C: overall l2 clip of a bucket delta
  double epsilon_budget = 2.0; ///< training stops when ε(δ) exceeds this
  double delta = 2e-4;         ///< fixed δ < 1/N

  /// RDP → (ε, δ) conversion used by the ledger (kClassic matches the
  /// moments-accountant literature; kImproved is tighter and allows ~40%
  /// more steps at the same budget).
  privacy::RdpConversion rdp_conversion = privacy::RdpConversion::kClassic;

  /// Accountant stage implementation: "rdp" (the moments-accountant
  /// ledger, the default), "mog" (group-level Mixture-of-Gaussians PLD per
  /// Ganesh, arXiv:2401.10294, FFT-composed — tighter ε at the same
  /// (q, σ, δ), so more steps inside the same budget, and the only
  /// accountant that models fixed_batch sampling), or "pld_fft" (the
  /// subsampled-Gaussian PLD of Koskela et al., arXiv:1906.03049 — under
  /// Poisson sampling exactly the MoG dominating pair, so it runs the
  /// "mog" accountant restricted to Poisson rounds). "mog" and "pld_fft"
  /// bound split_factor by kMogMaxSplitFactor and write the same
  /// checkpoint blob, so either resumes the other's checkpoints; resuming
  /// between "rdp" and a PLD accountant is rejected.
  std::string accountant = "rdp";

  /// Flexible budget allocation across learning stages (the paper's
  /// Section 7 future work): when > 0, σ_t decays linearly from
  /// noise_scale to noise_scale_final over noise_decay_steps, then stays
  /// at noise_scale_final. Early steps get more noise (cheap budget, the
  /// model is far from convergence anyway); late steps get cleaner
  /// updates. The ledger tracks each step's actual σ_t, so accounting
  /// stays exact. Requires 0 < noise_scale_final <= noise_scale.
  double noise_scale_final = 0.0;  ///< 0 disables the schedule
  int64_t noise_decay_steps = 0;

  /// Divide the noisy sum by the *expected* bucket count q·N/λ (the
  /// "fixed-denominator estimator" of Section 4.1) instead of the realized
  /// |H|. The fixed denominator keeps the averaging step data-independent.
  bool fixed_denominator = true;

  /// Ablation: calibrate noise per tensor (σ·C/√3 on each of the three
  /// tensors) instead of σ·C on the whole parameter vector.
  bool per_tensor_noise = false;

  // --- local (in-bucket) descent, Algorithm 1 lines 15–22 ---
  int32_t batch_size = 32;           ///< β
  double local_learning_rate = 0.06; ///< η

  /// Passes over a bucket's batches before the delta is extracted
  /// (Algorithm 1 makes one pass; multiple local epochs — the DP-FedAvg
  /// trick — strengthen each bucket's signal at no extra privacy cost,
  /// since the delta is clipped to C either way).
  int32_t local_epochs = 1;

  /// Multi-batch local SGD (PLP) or single-gradient (DP-SGD baseline).
  LocalUpdateMode local_update = LocalUpdateMode::kMultiBatchSgd;

  /// Paper-literal batching: a bucket's users are concatenated into a
  /// single token array before the symmetric window is applied ("Grouped
  /// data in each bucket is organized as a single array"). When false,
  /// windows never cross sentence boundaries.
  bool cross_user_windows = true;

  /// Cost model for the local copy Φ ← θ_t (line 16). The default sparse
  /// copy-on-write overlay is an optimization with identical outputs; the
  /// dense mode materializes a full model copy per bucket (the cost
  /// structure of the paper's TensorFlow implementation) and is what the
  /// Figure 9 runtime experiment measures.
  bool dense_local_copy = false;

  // --- server update ---
  std::string server_optimizer = "dp_adam";  ///< or "fixed_step"
  optim::AdamConfig adam;

  // --- loop control ---
  int64_t max_steps = 1'000'000;  ///< hard cap independent of the budget

  /// Worker threads for bucket updates (buckets are independent, lines
  /// 7–8). Every bucket trains on an Rng derived from the step seed and
  /// the bucket's content (BucketSeed), so for a given seed the trained
  /// model is bitwise-identical for *any* thread count, including the
  /// sequential num_threads = 1 path.
  int32_t num_threads = 1;

  /// Validates ranges. Reports *every* violation in one
  /// kInvalidArgument message ("; "-separated), so a misconfigured run
  /// surfaces all problems at once instead of one per attempt.
  Status Validate() const;
};

/// σ_t of the (optional) decaying noise schedule at the 1-based `step`;
/// constant noise_scale when the schedule is disabled. Endpoints: step 1
/// yields noise_scale exactly, every step >= noise_decay_steps yields
/// noise_scale_final exactly. The trainer and the ledger both use this, so
/// accounting stays exact; tests pin the endpoints.
double NoiseScaleAt(const PlpConfig& config, int64_t step);

/// The per-round effective noise multiplier the accountant must track:
/// noise stddev divided by the query's joint l2 sensitivity ω·C. With
/// per-tensor noise σ·ω·C/√3 on each tensor, the joint multiplier is σ/√3
/// (strictly less privacy per step than the default dense noise). Every
/// accountant stage receives exactly this value via the round record, so
/// accounting matches the aggregator's calibration bit-for-bit.
double EffectiveNoiseMultiplier(const PlpConfig& config, int64_t step);

/// The fixed-batch round size B = round(q·N), clamped to [1, N] — the
/// deterministic analogue of the Poisson sample's expectation.
int32_t FixedBatchSize(int32_t num_users, double q);

}  // namespace plp::core

#endif  // PLP_CORE_CONFIG_H_
