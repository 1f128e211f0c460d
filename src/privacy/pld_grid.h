#ifndef PLP_PRIVACY_PLD_GRID_H_
#define PLP_PRIVACY_PLD_GRID_H_

#include <complex>
#include <cstdint>
#include <vector>

namespace plp::privacy {

/// Discretization of a privacy-loss distribution (Koskela et al.,
/// "Computing Tight Differential Privacy Guarantees Using FFT",
/// arXiv:1906.03049). Losses are binned on a uniform grid over
/// (−grid_range, grid_range]; n-fold composition is a pointwise power in
/// the Fourier domain. Mass falling past either end of the grid is
/// handled pessimistically: the right tail contributes to δ in full, the
/// left tail is rounded up into the lowest bin. Accuracy degrades (toward
/// over-estimating ε, never under the discretization's control knobs)
/// when the composed loss mass approaches ±grid_range — pick grid_range
/// comfortably above the target ε.
///
/// The grid behind MogAccountant, which serves both the "mog" and the
/// "pld_fft" accountant names (under Poisson sampling the MoG dominating
/// pair is the subsampled-Gaussian PLD, so one implementation covers
/// both).
struct PldOptions {
  int32_t log2_grid_size = 15;  ///< n = 2^15 loss bins
  double grid_range = 32.0;     ///< losses discretized on (−R, R]
};

namespace pld_grid {

/// Φ(x), the standard normal CDF.
double StdNormalCdf(double x);

/// In-place iterative radix-2 FFT (inverse = true divides by n at the
/// end). data.size() must be a power of two.
void Fft(std::vector<std::complex<double>>& data, bool inverse);

/// z^k for integer k >= 1 in polar form (exact for integer exponents:
/// e^{ik(θ+2πm)} = e^{ikθ}).
std::complex<double> IntPow(std::complex<double> z, int64_t k);

/// FFT wrap-around storage index of loss-ordered bin `t`: the bin is
/// stored at (t + n/2 + 1) mod n so that array index i represents loss
/// i·Δ (negative losses in the top half). With that convention index sums
/// equal loss sums and circular convolution composes losses with no
/// origin offset; binning losses at −R + (t+1)·Δ directly by t would
/// instead shift every composition's origin by (k−1)·(R − Δ) (mod 2R)
/// after k steps.
inline size_t WrapIndex(size_t t, size_t n) { return (t + n / 2 + 1) % n; }

/// δ(ε) of a loss-ascending pmf over (−R, R] with bin right edges
/// s_j = −R + (j+1)·Δ, plus the truncated mass (which contributes to δ in
/// full): Σ_{s_j > ε} pmf[j]·(1 − e^{ε−s_j}) + inf_mass, clamped to 1.
double DeltaAtEpsilon(const std::vector<double>& pmf, double inf_mass,
                      double range, double epsilon);

/// Smallest grid-resolvable ε such that DeltaAtEpsilon(ε) <= delta, via
/// suffix-sum precomputation (each δ(ε) probe is O(log n)) and bisection
/// over [0, range]. Returns +infinity when even ε = range cannot meet
/// delta (the grid is too small for the spend).
double EpsilonForDelta(const std::vector<double>& pmf, double inf_mass,
                       double range, double delta);

}  // namespace pld_grid

}  // namespace plp::privacy

#endif  // PLP_PRIVACY_PLD_GRID_H_
