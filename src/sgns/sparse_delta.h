#ifndef PLP_SGNS_SPARSE_DELTA_H_
#define PLP_SGNS_SPARSE_DELTA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sgns/model.h"
#include "sgns/row_map.h"

namespace plp {
class ThreadPool;
}  // namespace plp

namespace plp::sgns {

/// A dense parameter-shaped buffer: the Gaussian sum query of Algorithm 1
/// accumulates clipped bucket deltas here, receives iid noise on *every*
/// coordinate (line 9 — noise is dense even though deltas are sparse), and
/// is then averaged and handed to the server optimizer.
class DenseUpdate {
 public:
  /// A zero update with the same shape as `model`.
  explicit DenseUpdate(const SgnsModel& model);

  int32_t num_locations() const { return num_locations_; }
  int32_t dim() const { return dim_; }

  std::span<double> TensorData(Tensor t);
  std::span<const double> TensorData(Tensor t) const;

  /// Adds iid N(0, stddev²) noise to every coordinate of every tensor.
  /// Each tensor draws from its own counter-based per-block stream derived
  /// from `noise_seed` (common/parallel_ops), so the output is a pure
  /// function of (noise_seed, stddev, shape): bitwise identical whether
  /// `pool` is null or has any number of threads. This is the noise half
  /// of the trainer's thread-count-determinism guarantee.
  void AddGaussianNoise(uint64_t noise_seed, double stddev,
                        ThreadPool* pool = nullptr);

  /// Sequential-stream variant drawing from `rng` in coordinate order
  /// (Gaussian-mechanism building block; kept for callers that own the
  /// stream).
  void AddGaussianNoise(Rng& rng, double stddev);

  /// Adds iid N(0, stddev²) noise to one tensor only (per-tensor noise
  /// calibration ablation), using the same per-tensor stream `noise_seed`
  /// induces in the all-tensor overload.
  void AddGaussianNoiseToTensor(Tensor t, uint64_t noise_seed, double stddev,
                                ThreadPool* pool = nullptr);

  /// Sequential-stream variant of per-tensor noise.
  void AddGaussianNoiseToTensor(Tensor t, Rng& rng, double stddev);

  /// Resets every coordinate to zero (buffer reuse across steps).
  void Zero(ThreadPool* pool = nullptr);

  /// Multiplies every coordinate by `factor` (e.g. 1/|H|).
  void Scale(double factor, ThreadPool* pool = nullptr);

  /// Overall l2 norm across all tensors. Always block-decomposed
  /// (common/parallel_ops), so serial and pooled calls agree bitwise.
  double Norm(ThreadPool* pool = nullptr) const;

  /// Adds this update into the model: θ ← θ + u (Algorithm 1 line 10).
  void ApplyTo(SgnsModel& model) const;

 private:
  int32_t num_locations_ = 0;
  int32_t dim_ = 0;
  std::vector<double> w_in_;
  std::vector<double> w_out_;
  std::vector<double> bias_;
};

/// The sparse difference phi − theta over rows where the two models differ.
/// Models must have identical shapes. O(L·dim) — used by the dense
/// local-copy mode (paper-faithful cost model for the runtime experiment).
class SparseDelta;
SparseDelta DiffModels(const SgnsModel& phi, const SgnsModel& theta);

/// sum += scale · Σ_i deltas[i] — the Σ of the Gaussian sum query: the
/// serial loop `for (d : deltas) d->AccumulateInto(sum, scale)`, skipping
/// null entries. Addition is per coordinate in index order, so folding a
/// list in consecutive pieces (the engine folds one bucket at a time, in
/// bucket order) gives exactly the bits of one call over the whole list.
void AccumulateDeltas(std::span<const SparseDelta* const> deltas,
                      double scale, DenseUpdate& sum);

/// A sparse parameter delta: only the embedding/context rows and bias
/// entries actually touched by a bucket's local training are materialized.
/// This is what makes per-bucket clipping cheap — norms and scaling are
/// O(touched rows · dim), not O(L · dim).
class SparseDelta {
 public:
  /// Requires dim > 0.
  explicit SparseDelta(int32_t dim);

  int32_t dim() const { return dim_; }

  /// Mutable row accumulator (zero-initialized on first access). `tensor`
  /// must be kWIn or kWOut. The span is invalidated by the next Row call.
  /// Inline: this and AddBias are the per-candidate accesses of the
  /// backward loop, hot enough that the row lookup must inline into
  /// callers.
  std::span<double> Row(Tensor tensor, int32_t row) {
    PLP_CHECK(tensor == Tensor::kWIn || tensor == Tensor::kWOut);
    return (tensor == Tensor::kWIn ? in_rows_ : out_rows_)
        .FindOrInsertZero(row);
  }

  /// Adds `value` to the bias accumulator for `row`.
  void AddBias(int32_t row, double value) {
    bias_.FindOrInsertZero(row)[0] += value;
  }

  /// Calls fn(row, std::span<const double>) for each touched row of kWIn
  /// or kWOut; for kBias the span has length 1.
  template <typename Fn>
  void ForEachRow(Tensor tensor, Fn&& fn) const {
    StoreFor(tensor).ForEach(fn);
  }

  /// l2 norm of one tensor's touched entries (untouched entries are zero,
  /// so this is the exact tensor norm).
  double TensorNorm(Tensor t) const;

  /// Overall l2 norm across the three tensors.
  double TotalNorm() const;

  /// Multiplies one tensor by `factor`.
  void ScaleTensor(Tensor t, double factor);

  /// Multiplies everything by `factor`.
  void Scale(double factor);

  /// Per-layer clipping of Section 4.1: each tensor is independently scaled
  /// down (if needed) so its norm is at most `per_tensor_max` = C/√|θ|.
  /// Equivalent to line 21 applied per tensor. Returns true when any tensor
  /// actually hit the bound (the clip "engaged") — the trainer aggregates
  /// this into the clip_fraction diagnostic of §4.2.
  bool ClipPerTensor(double per_tensor_max);

  /// Clips the *overall* delta norm to `max_norm` (literal line 21).
  /// Returns true when the bound engaged.
  bool ClipTotal(double max_norm);

  /// sum += scale · delta (the Σ of the Gaussian sum query).
  void AccumulateInto(DenseUpdate& sum, double scale) const;

  /// model += scale · delta (used by the non-private trainer).
  void ApplyTo(SgnsModel& model, double scale) const;

  /// Number of materialized rows across W and W' plus bias entries.
  size_t NumTouchedEntries() const;

  bool empty() const { return NumTouchedEntries() == 0; }

  /// Removes all entries but keeps capacity (reuse across batches).
  void Clear();

  /// Pre-sizes the three row stores for a burst of inserts of known
  /// cardinality (e.g. delta extraction from an overlay whose touched-row
  /// counts are known exactly).
  void Reserve(size_t in_rows, size_t out_rows, size_t bias_rows) {
    in_rows_.Reserve(in_rows);
    out_rows_.Reserve(out_rows);
    bias_.Reserve(bias_rows);
  }

 private:
  RowMap& StoreFor(Tensor t);
  const RowMap& StoreFor(Tensor t) const;

  int32_t dim_ = 0;
  RowMap in_rows_;
  RowMap out_rows_;
  RowMap bias_;  // dim 1
};

}  // namespace plp::sgns

#endif  // PLP_SGNS_SPARSE_DELTA_H_
