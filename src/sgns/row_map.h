#ifndef PLP_SGNS_ROW_MAP_H_
#define PLP_SGNS_ROW_MAP_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"

namespace plp::sgns {

/// Map from a non-negative int32 row id to a fixed-width row of doubles,
/// stored contiguously in insertion order.
///
/// This is the hot data structure of local training: every candidate row
/// access in the sampled-softmax inner loop goes through one of these.
/// Row ids are location ids, dense in [0, L), so the lookup is a direct
/// index — one load from a key → arena-position vector, no hashing or
/// probing — the way word2vec trainers index embedding rows by vocabulary
/// id. The index grows lazily to the largest key seen and costs
/// 4 B × (max key + 1) per map (vector growth may round its capacity up to
/// twice that).
/// Erasure is intentionally unsupported (training only ever inserts).
///
/// The arena is 64-byte aligned. Rows of SIMD-relevant width (dim >= 8)
/// are stored at a stride of PaddedRowStride(dim) doubles, so every row
/// starts on a cache-line boundary (matching SgnsModel's layout); narrow
/// rows (dim < 8 — notably the dim = 1 scalar maps for B') are packed
/// dense, because padding a scalar to a full cache line would multiply
/// the arena's footprint by 8 for loops the vector kernels never touch.
/// Row spans expose only the logical dim entries; any padding tail stays
/// at its zero-initialized value for the row's lifetime.
class RowMap {
 public:
  /// `dim` >= 1 doubles per row (use dim = 1 for scalar maps like B').
  explicit RowMap(int32_t dim)
      : dim_(static_cast<size_t>(dim)),
        stride_(dim_ < 8 ? dim_ : PaddedRowStride(dim_)) {
    PLP_CHECK_GE(dim, 1);
  }

  size_t size() const { return entry_keys_.size(); }
  bool empty() const { return entry_keys_.empty(); }
  int32_t dim() const { return static_cast<int32_t>(dim_); }

  /// Doubles between consecutive row starts (== dim() when rows are
  /// packed dense, PaddedRowStride(dim) otherwise).
  size_t stride() const { return stride_; }

  /// All rows as one contiguous span: size() rows of stride() doubles in
  /// insertion order, with any padding tail exactly 0.0. Whole-map
  /// reductions (e.g. SparseDelta::TensorNorm) run one long kernel pass
  /// over this instead of size() row-sized ones; the zero padding
  /// contributes nothing to sums of squares.
  std::span<const double> Flat() const {
    return {arena_.data(), entry_keys_.size() * stride_};
  }

  /// Returns the row for `key`, inserting a zero-filled row if absent.
  /// `inserted` (optional) reports whether the row is new. Spans are
  /// invalidated by the next insertion.
  std::span<double> FindOrInsertZero(int32_t key, bool* inserted = nullptr) {
    const size_t k = CheckedKey(key);
    if (k >= index_.size()) index_.resize(k + 1, kAbsent);
    uint32_t& pos = index_[k];
    if (pos != kAbsent) {
      if (inserted != nullptr) *inserted = false;
      return RowAt(pos);
    }
    pos = static_cast<uint32_t>(entry_keys_.size());
    const size_t offset = entry_keys_.size() * stride_;
    entry_keys_.push_back(key);
    // The arena's size is its capacity: it never shrinks (Clear() keeps
    // it), so the steady-state insert is one inlined fill of the new row —
    // resize()'s out-of-line element construction on every insert was the
    // single hottest call in the whole trainer profile.
    if (arena_.size() < offset + stride_) {
      // Geometric growth; resize value-initializes the new region to 0.
      arena_.resize(std::max(arena_.size() * 2, offset + stride_));
    } else {
      // Reused storage may hold a stale row from before a Clear().
      std::fill_n(arena_.data() + offset, stride_, 0.0);
    }
    if (inserted != nullptr) *inserted = true;
    return RowAt(pos);
  }

  /// Returns the row for `key`, or an empty span if absent.
  std::span<const double> Find(int32_t key) const {
    const uint32_t pos = PositionOf(key);
    if (pos == kAbsent) return {};
    return RowAt(pos);
  }

  std::span<double> FindMutable(int32_t key) {
    const uint32_t pos = PositionOf(key);
    if (pos == kAbsent) return {};
    return RowAt(pos);
  }

  /// Calls fn(key, std::span<const double>) for every row in insertion
  /// order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < entry_keys_.size(); ++i) {
      fn(entry_keys_[i], RowAt(i));
    }
  }

  /// Calls fn(key, std::span<double>) for every row in insertion order.
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (size_t i = 0; i < entry_keys_.size(); ++i) {
      fn(entry_keys_[i], RowAt(i));
    }
  }

  /// Removes all rows but keeps capacity (cheap reuse across batches).
  /// Only the present keys' index entries are reset, so this is O(size()).
  /// Stale arena contents are re-zeroed row-by-row on reuse.
  void Clear() {
    for (const int32_t key : entry_keys_) {
      index_[static_cast<size_t>(key)] = kAbsent;
    }
    entry_keys_.clear();
  }

  /// Pre-sizes the arena for `rows` rows, so a burst of inserts of known
  /// cardinality (e.g. delta extraction) skips the regrow ladder a fresh
  /// map would otherwise climb.
  void Reserve(size_t rows) {
    if (arena_.size() < rows * stride_) arena_.resize(rows * stride_);
    entry_keys_.reserve(rows);
  }

 private:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  static size_t CheckedKey(int32_t key) {
    PLP_CHECK_GE(key, 0);
    return static_cast<size_t>(key);
  }

  uint32_t PositionOf(int32_t key) const {
    const size_t k = CheckedKey(key);
    return k < index_.size() ? index_[k] : kAbsent;
  }

  std::span<double> RowAt(size_t pos) {
    return {arena_.data() + pos * stride_, dim_};
  }
  std::span<const double> RowAt(size_t pos) const {
    return {arena_.data() + pos * stride_, dim_};
  }

  size_t dim_;
  size_t stride_;
  std::vector<uint32_t> index_;  ///< key → arena position, kAbsent if none
  std::vector<int32_t> entry_keys_;
  AlignedVector<double> arena_;
};

}  // namespace plp::sgns

#endif  // PLP_SGNS_ROW_MAP_H_
