#ifndef PLP_PRIVACY_MOG_ACCOUNTANT_H_
#define PLP_PRIVACY_MOG_ACCOUNTANT_H_

#include <complex>
#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "privacy/pld_grid.h"

namespace plp::privacy {

/// How round participants are drawn, as the MoG accountant models it.
enum class MogSampling : uint8_t {
  kPoisson = 1,     ///< each user independently with probability q
  kFixedBatch = 2,  ///< exactly B of N users drawn without replacement
};

/// Upper bound on MogRound::split_factor. The accountant's ε does not
/// depend on ω (see the class comment), but ω is part of the recorded
/// mechanism and the checkpoint blob; the bound keeps restore allocation
/// sane and is enforced again by PlpConfig::Validate for --accountant=mog
/// and its Poisson-only alias pld_fft, so a misconfigured run fails before
/// corpus loading, not at step 1.
inline constexpr int32_t kMogMaxSplitFactor = 64;

/// One coalesced run of identical Mixture-of-Gaussians rounds.
struct MogRound {
  MogSampling sampling = MogSampling::kPoisson;
  /// Poisson: per-user participation probability q in (0, 1].
  /// Fixed batch: recorded as B/N (informational; the law uses B, N).
  double sampling_ratio = 0.0;
  int64_t batch_size = 0;       ///< B (fixed batch only; 0 under Poisson)
  int64_t population = 0;       ///< N users (fixed batch only; 0 otherwise)
  double noise_multiplier = 0;  ///< σ relative to the joint sensitivity ω·C
  int32_t split_factor = 1;     ///< ω: the protected user's element count
  int64_t steps = 0;

  /// Same mechanism parameters (everything but the step count)?
  bool SameMechanism(const MogRound& other) const;
};

/// Tight group-level (ε, δ) accounting for the subsampled Gaussian
/// mechanism via the Mixture-of-Gaussians reduction (Ganesh, "Tight
/// Group-Level DP Guarantees for DP-SGD with Sampling via Mixture of
/// Gaussians Mechanisms", arXiv:2401.10294).
///
/// The protected unit is a user whose data enters a round as ω elements
/// (the ω bucket parts produced by the Grouper's split), each clipped to
/// C, so the joint l2 sensitivity is ω·C. Crucially, the pipeline samples
/// WHOLE USERS: the sampler draws user ids and the grouper then places
/// all ω parts of every sampled user into the round, so the protected
/// user's participating element count is 0 or ω — all-or-nothing,
/// perfectly correlated — and never the element-wise-independent law of
/// Ganesh's per-element setting. The general ω-component mixture
/// Σ_i w_i·N(i/ω, σ²) with Binomial/Hypergeometric weights would put
/// only mass ~q^ω (instead of q) at the full shift and therefore
/// under-report δ(ε) for ω > 1; the sound dominating pair here is the
/// two-component mixture
///
///   P = (1−p)·N(0, σ²) + p·N(1, σ²)   vs   Q = N(0, σ²),
///
/// in units where ω·C = 1 and σ is the effective multiplier, with p the
/// user's round-participation probability under the sampling scheme:
///   * Poisson:     p = q — the user enters independently each round;
///   * fixed batch: p = B/N — the marginal of drawing exactly B of the
///                  N users without replacement (Hypergeometric(N,1,B)).
/// Under Poisson this is exactly the subsampled-Gaussian PLD of Koskela et
/// al. (arXiv:1906.03049) for every ω (ε is invariant in ω given the joint
/// multiplier σ — pinned by MogAccountantTest.EpsilonInvariantInOmega);
/// it is strictly tighter than the classic RDP conversion, and — unlike
/// the RDP ledger — defined for fixed-batch sampling at all.
///
/// The PLD of log(dP/dQ) is discretized on the pessimistic loss grid of
/// privacy/pld_grid.h and composed across rounds by DFT pointwise powers,
/// so ε estimates err high, never low, under the grid's control knobs.
///
/// This backs the pipeline's "mog" Accountant stage — the only stage
/// accountant whose analysis covers fixed-batch sampling — and its
/// "pld_fft" name, which is the same stage restricted to Poisson rounds.
class MogAccountant {
 public:
  /// `delta` is the fixed δ of the (ε, δ) guarantee, in (0, 1). Aborts on
  /// out-of-range δ or degenerate grid options.
  explicit MogAccountant(double delta, const PldOptions& options = {});

  /// Accumulates `round.steps` rounds of `round`'s mechanism. Consecutive
  /// same-mechanism runs coalesce into one entry. Rejects non-positive
  /// steps, σ or ω, a Poisson ratio outside (0, 1], and a fixed batch
  /// without 1 <= B <= N.
  Status AddRounds(const MogRound& round);

  /// Smallest grid-resolvable ε such that the composition so far is
  /// (ε, δ)-DP under this discretization. 0 before any round; +infinity
  /// if even ε = grid_range cannot meet δ.
  double CumulativeEpsilon() const;

  /// δ(ε) of the composition so far (test/diagnostic surface).
  double DeltaAtEpsilon(double epsilon) const;

  double delta() const { return delta_; }
  int64_t total_steps() const { return total_steps_; }
  const std::vector<MogRound>& entries() const { return entries_; }

  /// Serializes δ, the grid options, and the coalesced entries. The PLD
  /// discretizations are deterministic functions of those, so a restored
  /// accountant answers CumulativeEpsilon bit-identically. The blob is
  /// tagged ("MOG1"), so restoring an RDP ledger blob here (or vice
  /// versa) fails instead of misparsing.
  void SaveState(ByteWriter& writer) const;
  static Result<MogAccountant> Restore(ByteReader& reader);

 private:
  struct RoundPld {
    MogRound round;  ///< steps field unused (cache key is the mechanism)
    std::vector<std::complex<double>> dft;  ///< DFT of one round's PLD
    double inf_mass = 0.0;                  ///< P[L(x) > grid_range]
  };

  const RoundPld& RoundPldFor(const MogRound& round) const;
  /// Composed PLD over all entries: the finite grid part and the total
  /// truncated mass. Empty composition → point mass at loss 0.
  void Compose(std::vector<double>& pmf, double& inf_mass) const;

  double delta_;
  PldOptions options_;
  std::vector<MogRound> entries_;
  int64_t total_steps_ = 0;
  mutable std::vector<RoundPld> step_cache_;
};

}  // namespace plp::privacy

#endif  // PLP_PRIVACY_MOG_ACCOUNTANT_H_
