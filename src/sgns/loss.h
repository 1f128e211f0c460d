#ifndef PLP_SGNS_LOSS_H_
#define PLP_SGNS_LOSS_H_

#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "sgns/model.h"
#include "sgns/negative_sampler.h"
#include "sgns/pairs.h"
#include "sgns/sparse_delta.h"
#include "sgns/train_scratch.h"

namespace plp::sgns {

/// Loss and example counts for a processed batch.
struct BatchStats {
  double loss_sum = 0.0;
  int64_t num_pairs = 0;

  double mean_loss() const {
    return num_pairs == 0 ? 0.0 : loss_sum / static_cast<double>(num_pairs);
  }
};

/// Transcendental-math policy for the sampled loss. The production default
/// evaluates exp/sigmoid through the bounded lookup tables in
/// common/math_util (one load + an interpolation instead of a libm call per
/// candidate). Both policies are pure functions — results never depend on
/// thread count or evaluation order — so either satisfies the determinism
/// contract; they just pin *different* bit-exact trajectories.
struct FastLossMath {
  /// Hoisted table references: fetched once per batch, not per candidate.
  const ExpNegLut& exp_neg = ExpNegLut::Get();
  const SigmoidLut& sigmoid = SigmoidLut::Get();

  double ExpNeg(double x) const { return exp_neg(x); }
  double Sigmoid(double x) const { return sigmoid(x); }
};

/// libm policy for tests that need the loss to be a smooth function of the
/// parameters — the finite-difference gradient check would otherwise see
/// the O(table-step) gap between a piecewise-linear interpolant's slope
/// and its value. Mirrors the LUTs' saturation so the two policies differ
/// only by the interpolation error bounded in tests/common.
struct ExactLossMath {
  double ExpNeg(double x) const { return x >= 0.0 ? 1.0 : std::exp(x); }
  double Sigmoid(double x) const {
    // Clamp so exp() never overflows; gradients saturate anyway.
    return 1.0 / (1.0 + std::exp(-Clamp(x, -30.0, 30.0)));
  }
};

/// Computes the batch-average gradient of the sampled loss at the model's
/// current parameters (accumulated into `gradient`), returning the batch
/// loss. Only the rows of the target embedding and the neg+1 candidate
/// output rows/biases are touched per pair — the sparsity Section 3.2
/// relies on. Negative candidates are drawn *uniformly* over
/// [0, num_locations) (frequency-based sampling would leak; Section 3.2),
/// excluding the true context.
///
/// `Model` must expose InRow/OutRow/bias like SgnsModel or LocalModel.
/// `buffers` is an optional allocation cache (candidate/logit scratch,
/// fully overwritten here); passing it changes nothing but allocation.
/// `negative_table` switches candidate draws to the unigram^power law
/// (SgnsConfig::negative_sampling == kUnigram); null keeps the uniform
/// draw byte-identical to before the option existed.
template <typename Model, typename LossMath = FastLossMath>
BatchStats AccumulateBatchGradient(const Model& model,
                                   std::span<const Pair> batch,
                                   const SgnsConfig& config,
                                   int32_t num_locations, Rng& rng,
                                   SparseDelta& gradient,
                                   PairBuffers* buffers = nullptr,
                                   const UnigramTable* negative_table =
                                       nullptr);

/// Applies one SGD step over a batch (Algorithm 1 line 19):
///   Φ ← Φ − η · (1/|b|) Σ ∇J(Φ).
/// Returns the batch loss. `scratch` is an optional workspace: when given,
/// its gradient is Clear()ed and reused instead of constructing a fresh
/// SparseDelta per batch, and its candidate/logit buffers back the
/// accumulation — identical results, no steady-state allocation.
template <typename Model, typename LossMath = FastLossMath>
BatchStats ApplySgdBatch(Model& model, std::span<const Pair> batch,
                         const SgnsConfig& config, int32_t num_locations,
                         double learning_rate, Rng& rng,
                         TrainScratch* scratch = nullptr,
                         const UnigramTable* negative_table = nullptr);

// Implementation details only below here.

namespace internal_loss {

/// Draws a uniform candidate different from `exclude` (bounded retries;
/// with L >= 2 a collision streak of 16 is practically impossible).
inline int32_t DrawNegative(Rng& rng, int32_t num_locations, int32_t exclude) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int32_t c = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(num_locations)));
    if (c != exclude) return c;
  }
  return exclude == 0 ? (num_locations > 1 ? 1 : 0) : 0;
}

/// Table-driven variant: same bounded-retry/fallback contract as the
/// uniform draw, with candidates from the unigram^power law. A null table
/// falls through to the uniform draw (no extra RNG consumption either
/// way, so the uniform path stays bitwise identical).
inline int32_t DrawNegative(Rng& rng, int32_t num_locations, int32_t exclude,
                            const UnigramTable* table) {
  if (table == nullptr) return DrawNegative(rng, num_locations, exclude);
  PLP_CHECK_EQ(table->num_locations(), num_locations);
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int32_t c = table->Sample(rng);
    if (c != exclude) return c;
  }
  return exclude == 0 ? (num_locations > 1 ? 1 : 0) : 0;
}

}  // namespace internal_loss

template <typename Model, typename LossMath>
BatchStats AccumulateBatchGradient(const Model& model,
                                   std::span<const Pair> batch,
                                   const SgnsConfig& config,
                                   int32_t num_locations, Rng& rng,
                                   SparseDelta& gradient,
                                   PairBuffers* buffers,
                                   const UnigramTable* negative_table) {
  PLP_CHECK_GT(num_locations, 0);
  PLP_CHECK_GT(config.negatives, 0);
  const int32_t dim = config.embedding_dim;
  PLP_CHECK_EQ(dim, gradient.dim());

  const LossMath math;
  BatchStats stats;
  const int32_t num_candidates = config.negatives + 1;
  PairBuffers local_buffers;
  PairBuffers& buf = buffers != nullptr ? *buffers : local_buffers;
  buf.candidates.resize(static_cast<size_t>(num_candidates));
  buf.logits.resize(static_cast<size_t>(num_candidates));
  buf.dlogits.resize(static_cast<size_t>(num_candidates));
  buf.grad_h.resize(static_cast<size_t>(dim));
  buf.out_rows.resize(static_cast<size_t>(num_candidates));
  std::vector<int32_t>& candidates = buf.candidates;
  std::vector<const double*>& out_rows = buf.out_rows;
  AlignedVector<double>& logits = buf.logits;
  AlignedVector<double>& dlogits = buf.dlogits;
  AlignedVector<double>& grad_h = buf.grad_h;

  for (const Pair& pair : batch) {
    PLP_CHECK(pair.target >= 0 && pair.target < num_locations);
    PLP_CHECK(pair.context >= 0 && pair.context < num_locations);
    const std::span<const double> h = model.InRow(pair.target);

    candidates[0] = pair.context;  // positive class first
    for (int32_t i = 1; i < num_candidates; ++i) {
      candidates[i] = internal_loss::DrawNegative(rng, num_locations,
                                                  pair.context,
                                                  negative_table);
    }
    // Each candidate's W' row is looked up once and the pointer reused by
    // the forward dot and the backprop: `model` is constant for the whole
    // batch, so the cached row is exactly what a fresh lookup would return.
    // The candidate rows are uniform-random draws over W', which at
    // realistic L does not fit in L2 — without a hint the forward dots
    // stall on a miss each. Prefetching the first 64 B line of every
    // candidate row before the first dot lets those leading misses overlap;
    // the rest of each row streams in behind it during its dot.
    for (int32_t i = 0; i < num_candidates; ++i) {
      out_rows[i] = model.OutRow(candidates[i]).data();
      __builtin_prefetch(out_rows[i]);
    }
    for (int32_t i = 0; i < num_candidates; ++i) {
      logits[i] = DotKernel(out_rows[i], h.data(), static_cast<size_t>(dim)) +
                  model.bias(candidates[i]);
    }

    if (config.loss == LossKind::kSampledSoftmax) {
      // Softmax over the candidate set; loss = −log p(positive). One fused
      // max-shifted pass: e_i = exp(u_i − max) lands in dlogits, then one
      // log for the loss and one divide for the probabilities — instead of
      // a LogSumExp pass plus a second exp per candidate.
      double max_logit = logits[0];
      for (int32_t i = 1; i < num_candidates; ++i) {
        max_logit = std::max(max_logit, logits[i]);
      }
      double sum = 0.0;
      for (int32_t i = 0; i < num_candidates; ++i) {
        const double e = math.ExpNeg(logits[i] - max_logit);
        dlogits[i] = e;
        sum += e;
      }
      stats.loss_sum += max_logit + std::log(sum) - logits[0];
      const double inv_sum = 1.0 / sum;
      for (int32_t i = 0; i < num_candidates; ++i) {
        dlogits[i] = dlogits[i] * inv_sum - (i == 0 ? 1.0 : 0.0);
      }
    } else {
      // Classic SGNS: −log σ(u₀) − Σ log σ(−uᵢ).
      for (int32_t i = 0; i < num_candidates; ++i) {
        const double s = math.Sigmoid(logits[i]);
        if (i == 0) {
          stats.loss_sum += -std::log(std::max(s, 1e-12));
          dlogits[i] = s - 1.0;
        } else {
          stats.loss_sum += -std::log(std::max(1.0 - s, 1e-12));
          dlogits[i] = s;
        }
      }
    }

    // Back-propagate: dL/dW'[c] = g_c · h, dL/db[c] = g_c,
    // dL/dh = Σ g_c · W'[c]. Axpy is element-independent, so splitting the
    // old fused loop into two kernel calls keeps results bitwise identical.
    std::fill(grad_h.begin(), grad_h.end(), 0.0);
    for (int32_t i = 0; i < num_candidates; ++i) {
      const double g = dlogits[i];
      const std::span<double> grad_out =
          gradient.Row(Tensor::kWOut, candidates[i]);
      AxpyKernel(g, h.data(), grad_out.data(), static_cast<size_t>(dim));
      AxpyKernel(g, out_rows[i], grad_h.data(), static_cast<size_t>(dim));
      gradient.AddBias(candidates[i], g);
    }
    const std::span<double> grad_in = gradient.Row(Tensor::kWIn, pair.target);
    AxpyKernel(1.0, grad_h.data(), grad_in.data(), static_cast<size_t>(dim));

    ++stats.num_pairs;
  }
  return stats;
}

template <typename Model, typename LossMath>
BatchStats ApplySgdBatch(Model& model, std::span<const Pair> batch,
                         const SgnsConfig& config, int32_t num_locations,
                         double learning_rate, Rng& rng,
                         TrainScratch* scratch,
                         const UnigramTable* negative_table) {
  if (batch.empty()) return BatchStats{};
  std::optional<SparseDelta> owned_gradient;
  SparseDelta* gradient;
  if (scratch != nullptr) {
    PLP_CHECK_EQ(scratch->gradient.dim(), config.embedding_dim);
    scratch->gradient.Clear();
    gradient = &scratch->gradient;
  } else {
    owned_gradient.emplace(config.embedding_dim);
    gradient = &*owned_gradient;
  }
  const BatchStats stats = AccumulateBatchGradient<Model, LossMath>(
      model, batch, config, num_locations, rng, *gradient,
      scratch != nullptr ? &scratch->buffers : nullptr, negative_table);
  const double scale =
      -learning_rate / static_cast<double>(batch.size());
  const size_t dim = static_cast<size_t>(config.embedding_dim);
  // Apply: overlay rows for LocalModel, direct rows for SgnsModel.
  gradient->ForEachRow(Tensor::kWIn,
                       [&](int32_t row, std::span<const double> vec) {
                         AxpyKernel(scale, vec.data(),
                                    model.MutableInRow(row).data(), dim);
                       });
  gradient->ForEachRow(Tensor::kWOut,
                       [&](int32_t row, std::span<const double> vec) {
                         AxpyKernel(scale, vec.data(),
                                    model.MutableOutRow(row).data(), dim);
                       });
  gradient->ForEachRow(Tensor::kBias,
                       [&](int32_t row, std::span<const double> v) {
                         model.mutable_bias(row) += scale * v[0];
                       });
  return stats;
}

}  // namespace plp::sgns

#endif  // PLP_SGNS_LOSS_H_
