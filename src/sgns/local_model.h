#ifndef PLP_SGNS_LOCAL_MODEL_H_
#define PLP_SGNS_LOCAL_MODEL_H_

#include <cstdint>
#include <span>

#include "common/check.h"
#include "sgns/model.h"
#include "sgns/row_map.h"
#include "sgns/sparse_delta.h"

namespace plp::sgns {

/// Copy-on-write overlay over a base SgnsModel.
///
/// Algorithm 1 line 16 copies θ_t into Φ for each bucket; copying the full
/// model per bucket would be O(L·dim). A LocalModel instead materializes
/// only the rows a bucket's gradient descent touches: reads fall through to
/// the base, writes copy the row first. ExtractDeltaInto() then yields
/// g_h = Φ − θ_t restricted to touched rows — which is exact, because
/// untouched rows have zero delta.
///
/// The base model must outlive the LocalModel and must not be mutated while
/// the overlay is alive.
class LocalModel {
 public:
  explicit LocalModel(const SgnsModel& base)
      : base_(&base), in_rows_(base.dim()), out_rows_(base.dim()), bias_(1) {}

  /// Rebinds the overlay to `base` and drops every touched row, keeping
  /// the row stores' indexes and arenas. A reused overlay inserts, finds
  /// and iterates exactly like a freshly constructed one (RowMap behavior
  /// is independent of capacity), so reuse across buckets is bitwise
  /// result-neutral — it only removes the per-bucket index and arena
  /// allocations. `base` must have the same dim as the original.
  void Reset(const SgnsModel& base) {
    PLP_CHECK_EQ(base.dim(), dim());
    base_ = &base;
    in_rows_.Clear();
    out_rows_.Clear();
    bias_.Clear();
  }

  int32_t num_locations() const { return base_->num_locations(); }
  int32_t dim() const { return base_->dim(); }

  std::span<const double> InRow(int32_t location) const {
    const std::span<const double> overlay = in_rows_.Find(location);
    return overlay.empty() ? base_->InRow(location) : overlay;
  }

  std::span<double> MutableInRow(int32_t location) {
    return CopyOnWrite(in_rows_, base_->InRow(location), location);
  }

  std::span<const double> OutRow(int32_t location) const {
    const std::span<const double> overlay = out_rows_.Find(location);
    return overlay.empty() ? base_->OutRow(location) : overlay;
  }

  std::span<double> MutableOutRow(int32_t location) {
    return CopyOnWrite(out_rows_, base_->OutRow(location), location);
  }

  double bias(int32_t location) const {
    const std::span<const double> overlay = bias_.Find(location);
    return overlay.empty() ? base_->bias(location) : overlay[0];
  }

  double& mutable_bias(int32_t location) {
    bool inserted = false;
    std::span<double> row = bias_.FindOrInsertZero(location, &inserted);
    if (inserted) row[0] = base_->bias(location);
    return row[0];
  }

  /// Φ − θ_t over the touched rows, into `delta` (Clear()ed first; its dim
  /// must match). With a delta whose row stores already carry enough
  /// capacity this performs no allocation — the engine reuses one delta
  /// slot per bucket index across steps, which keeps the per-step fan-out
  /// free of the multi-megabyte arena alloc/zero/free cycle a by-value
  /// extraction would pay per bucket.
  void ExtractDeltaInto(SparseDelta& delta) const;

  size_t NumTouchedRows() const {
    return in_rows_.size() + out_rows_.size() + bias_.size();
  }

 private:
  std::span<double> CopyOnWrite(RowMap& store,
                                std::span<const double> base_row,
                                int32_t location) {
    bool inserted = false;
    std::span<double> row = store.FindOrInsertZero(location, &inserted);
    if (inserted) {
      for (size_t i = 0; i < row.size(); ++i) row[i] = base_row[i];
    }
    return row;
  }

  const SgnsModel* base_;
  RowMap in_rows_;
  RowMap out_rows_;
  RowMap bias_;  // dim 1
};

}  // namespace plp::sgns

#endif  // PLP_SGNS_LOCAL_MODEL_H_
