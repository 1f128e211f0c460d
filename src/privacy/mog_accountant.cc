#include "privacy/mog_accountant.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace plp::privacy {
namespace {

using pld_grid::Fft;
using pld_grid::IntPow;
using pld_grid::StdNormalCdf;

constexpr uint32_t kBlobMagic = 0x31474F4D;  // "MOG1" little-endian
constexpr uint64_t kMaxEntries = 1u << 20;

/// Probability that the protected user participates in one round.
///
/// Participation is all-or-nothing: both samplers draw whole users
/// (PoissonSampleUsers / FixedBatchSampleUsers in core/grouping.cc) and
/// the ω-split grouper then places ALL ω parts of every sampled user into
/// the round's buckets, so the user's participating element count is 0 or
/// ω — never in between, and never element-wise independent. Under
/// Poisson sampling the user enters with probability q; under fixed batch
/// exactly B of the N users are drawn without replacement, so the user's
/// marginal (the Hypergeometric(N, 1, B) success probability) is B/N.
double ParticipationProbability(const MogRound& round) {
  if (round.sampling == MogSampling::kPoisson) {
    return std::min(round.sampling_ratio, 1.0);
  }
  return static_cast<double>(round.batch_size) /
         static_cast<double>(round.population);
}

/// CDF of the dominating pair P = (1−p)N(0,σ²) + pN(1,σ²). A sampled
/// user contributes all ω clipped parts, moving the query by the joint
/// sensitivity ω·C — exactly 1 in the ω·C-normalized units σ lives in —
/// so the full-participation component sits at shift 1 for every ω.
/// Under Poisson (p = q) this is the subsampled-Gaussian dominating pair
/// of Koskela et al.
double UpperCdf(double p, double sigma, double x) {
  return (1.0 - p) * StdNormalCdf(x / sigma) +
         p * StdNormalCdf((x - 1.0) / sigma);
}

/// x achieving privacy loss s: the inverse of the strictly increasing
/// L(x) = log(1−p+p·e^{(2x−1)/(2σ²)}). −infinity when no x reaches s
/// (s ≤ log(1−p), the loss function's infimum).
double LossInverse(double p, double sigma, double s) {
  const double shifted = std::exp(s) - (1.0 - p);
  if (shifted <= 0.0) return -std::numeric_limits<double>::infinity();
  return 0.5 + sigma * sigma * std::log(shifted / p);
}

}  // namespace

bool MogRound::SameMechanism(const MogRound& other) const {
  return sampling == other.sampling &&
         sampling_ratio == other.sampling_ratio &&
         batch_size == other.batch_size && population == other.population &&
         noise_multiplier == other.noise_multiplier &&
         split_factor == other.split_factor;
}

MogAccountant::MogAccountant(double delta, const PldOptions& options)
    : delta_(delta), options_(options) {
  PLP_CHECK_GT(delta_, 0.0);
  PLP_CHECK_LT(delta_, 1.0);
  PLP_CHECK_GE(options_.log2_grid_size, 4);
  PLP_CHECK_LE(options_.log2_grid_size, 24);
  PLP_CHECK_GT(options_.grid_range, 0.0);
}

Status MogAccountant::AddRounds(const MogRound& round) {
  if (round.steps <= 0) return InvalidArgumentError("steps must be > 0");
  if (!(round.noise_multiplier > 0.0)) {
    return InvalidArgumentError("noise multiplier must be > 0");
  }
  if (round.split_factor < 1 || round.split_factor > kMogMaxSplitFactor) {
    return InvalidArgumentError("split factor must be in [1, 64]");
  }
  switch (round.sampling) {
    case MogSampling::kPoisson:
      if (!(round.sampling_ratio > 0.0) || round.sampling_ratio > 1.0) {
        return InvalidArgumentError(
            "Poisson sampling probability must be in (0, 1]");
      }
      break;
    case MogSampling::kFixedBatch:
      if (round.population < 1 || round.batch_size < 1 ||
          round.batch_size > round.population) {
        return InvalidArgumentError(
            "fixed batch requires 1 <= batch_size <= population");
      }
      break;
    default:
      return InvalidArgumentError("unknown MoG sampling scheme");
  }
  if (!entries_.empty() && entries_.back().SameMechanism(round)) {
    entries_.back().steps += round.steps;
  } else {
    entries_.push_back(round);
  }
  total_steps_ += round.steps;
  return Status::Ok();
}

const MogAccountant::RoundPld& MogAccountant::RoundPldFor(
    const MogRound& round) const {
  for (const RoundPld& cached : step_cache_) {
    if (cached.round.SameMechanism(round)) return cached;
  }
  const size_t n = static_cast<size_t>(1) << options_.log2_grid_size;
  const double range = options_.grid_range;
  const double width = 2.0 * range / static_cast<double>(n);

  RoundPld pld;
  pld.round = round;
  const double p = ParticipationProbability(round);
  const double sigma = round.noise_multiplier;
  // Pessimistic binning (see pld_grid.h): loss-ordered bin t holds the
  // P-mass of losses in (s_t − Δ, s_t] with right edge s_t = −R + (t+1)·Δ
  // — mass rounds *up* to the edge, so every bin's contribution to δ(ε)
  // is over- rather than under-counted; mass below the grid lumps into
  // the lowest bin, mass above it is the truncated tail contributing to δ
  // in full.
  std::vector<std::complex<double>> pmf(n, {0.0, 0.0});
  double previous_cdf = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double edge = -range + static_cast<double>(t + 1) * width;
    const double x = LossInverse(p, sigma, edge);
    const double cdf = std::isinf(x) ? 0.0 : UpperCdf(p, sigma, x);
    pmf[pld_grid::WrapIndex(t, n)] = {std::max(0.0, cdf - previous_cdf),
                                      0.0};
    previous_cdf = std::max(cdf, previous_cdf);
  }
  pld.inf_mass = std::max(0.0, 1.0 - previous_cdf);
  Fft(pmf, /*inverse=*/false);
  pld.dft = std::move(pmf);
  step_cache_.push_back(std::move(pld));
  return step_cache_.back();
}

void MogAccountant::Compose(std::vector<double>& pmf,
                            double& inf_mass) const {
  const size_t n = static_cast<size_t>(1) << options_.log2_grid_size;
  std::vector<std::complex<double>> composed(n, {1.0, 0.0});
  double finite_fraction = 1.0;
  for (const MogRound& entry : entries_) {
    const RoundPld& step = RoundPldFor(entry);
    for (size_t i = 0; i < n; ++i) {
      composed[i] *= IntPow(step.dft[i], entry.steps);
    }
    finite_fraction *=
        std::pow(1.0 - step.inf_mass, static_cast<double>(entry.steps));
  }
  inf_mass = std::max(0.0, 1.0 - finite_fraction);
  if (entries_.empty()) {
    // Empty composition: point mass at loss 0 — δ(ε) = 0 for ε >= 0.
    pmf.assign(n, 0.0);
    const size_t zero_bin =
        n / 2 == 0 ? 0 : n / 2 - 1;  // right edge closest to 0 from below
    pmf[zero_bin] = 1.0;
    return;
  }
  Fft(composed, /*inverse=*/true);
  // Rotate from FFT wrap-around order back to loss-ascending order.
  pmf.resize(n);
  for (size_t t = 0; t < n; ++t) {
    pmf[t] = std::max(0.0, composed[pld_grid::WrapIndex(t, n)].real());
  }
}

double MogAccountant::DeltaAtEpsilon(double epsilon) const {
  std::vector<double> pmf;
  double inf_mass = 0.0;
  Compose(pmf, inf_mass);
  return pld_grid::DeltaAtEpsilon(pmf, inf_mass, options_.grid_range,
                                  epsilon);
}

double MogAccountant::CumulativeEpsilon() const {
  if (total_steps_ == 0) return 0.0;
  std::vector<double> pmf;
  double inf_mass = 0.0;
  Compose(pmf, inf_mass);
  return pld_grid::EpsilonForDelta(pmf, inf_mass, options_.grid_range,
                                   delta_);
}

void MogAccountant::SaveState(ByteWriter& writer) const {
  writer.U32(kBlobMagic);
  writer.F64(delta_);
  writer.I32(options_.log2_grid_size);
  writer.F64(options_.grid_range);
  writer.U64(static_cast<uint64_t>(entries_.size()));
  for (const MogRound& entry : entries_) {
    writer.U8(static_cast<uint8_t>(entry.sampling));
    writer.F64(entry.sampling_ratio);
    writer.I64(entry.batch_size);
    writer.I64(entry.population);
    writer.F64(entry.noise_multiplier);
    writer.I32(entry.split_factor);
    writer.I64(entry.steps);
  }
}

Result<MogAccountant> MogAccountant::Restore(ByteReader& reader) {
  PLP_ASSIGN_OR_RETURN(const uint32_t magic, reader.U32());
  if (magic != kBlobMagic) {
    return InvalidArgumentError("not a MoG accountant blob");
  }
  PLP_ASSIGN_OR_RETURN(const double delta, reader.F64());
  if (delta <= 0.0 || delta >= 1.0) {
    return InvalidArgumentError("MoG blob: δ out of range");
  }
  PldOptions options;
  PLP_ASSIGN_OR_RETURN(options.log2_grid_size, reader.I32());
  PLP_ASSIGN_OR_RETURN(options.grid_range, reader.F64());
  if (options.log2_grid_size < 4 || options.log2_grid_size > 24 ||
      !(options.grid_range > 0.0)) {
    return InvalidArgumentError("MoG blob: degenerate grid options");
  }
  PLP_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  if (count > kMaxEntries) {
    return InvalidArgumentError("MoG blob: entry count too large");
  }
  MogAccountant accountant(delta, options);
  for (uint64_t i = 0; i < count; ++i) {
    MogRound round;
    PLP_ASSIGN_OR_RETURN(const uint8_t sampling, reader.U8());
    if (sampling != static_cast<uint8_t>(MogSampling::kPoisson) &&
        sampling != static_cast<uint8_t>(MogSampling::kFixedBatch)) {
      return InvalidArgumentError("MoG blob: unknown sampling scheme");
    }
    round.sampling = static_cast<MogSampling>(sampling);
    PLP_ASSIGN_OR_RETURN(round.sampling_ratio, reader.F64());
    PLP_ASSIGN_OR_RETURN(round.batch_size, reader.I64());
    PLP_ASSIGN_OR_RETURN(round.population, reader.I64());
    PLP_ASSIGN_OR_RETURN(round.noise_multiplier, reader.F64());
    PLP_ASSIGN_OR_RETURN(round.split_factor, reader.I32());
    PLP_ASSIGN_OR_RETURN(round.steps, reader.I64());
    PLP_RETURN_IF_ERROR(accountant.AddRounds(round));
  }
  return accountant;
}

}  // namespace plp::privacy
