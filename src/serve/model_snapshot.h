#ifndef PLP_SERVE_MODEL_SNAPSHOT_H_
#define PLP_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/ivf_index.h"
#include "sgns/model.h"
#include "sgns/model_io.h"

namespace plp::serve {

/// Storage format of a snapshot's embedding payload.
///
///   * kFloat32 — the exact reference: row-major float32, unit-norm rows.
///   * kFloat16 — IEEE binary16 rows; dequantization is exact per element
///     and the absolute score error is ≤ 2^-11·Σ|profile_i| per row.
///
/// fp16 changes scores (within the tested bound) and exists for footprint
/// and scan speed; float32 stays the default and the reference it is
/// tested against. The values are stable: the checksum hashes the byte.
enum class SnapshotFormat : uint8_t {
  kFloat32 = 0,
  kFloat16 = 1,
};

/// Short stable name for logs/metrics ("f32", "fp16").
const char* FormatName(SnapshotFormat format);

/// Parses "f32" / "fp16" (the FormatName spellings) and the long forms
/// "float32" / "float16".
Result<SnapshotFormat> ParseSnapshotFormat(const std::string& name);

/// Build-time knobs applied when a model is turned into a snapshot.
/// Defaults reproduce the original behavior exactly: float32, no index.
struct SnapshotOptions {
  SnapshotFormat format = SnapshotFormat::kFloat32;
  /// Build the IVF candidate-pruning index at load time. Scoring stays
  /// exact-scan unless the engine also asks for a positive nprobe.
  bool build_ivf = false;
  IvfIndex::Options ivf;
};

/// Immutable serving artifact: the unit-normalized embedding matrix in
/// row-major float32 — half the footprint of the training-side double
/// matrix, which matters when two snapshots coexist during a hot swap.
/// Optionally quantized to fp16 (SnapshotOptions) at build time,
/// and optionally carrying an IVF candidate-pruning index.
///
/// This mirrors the paper's deployment story (Section 3.3: "only the
/// embedding matrix is deployed"): training emits a private artifact, and
/// the serving layer never sees raw check-in data, only this matrix. All
/// quantization and indexing happens post-publication, so none of it
/// touches the privacy mechanism.
///
/// Snapshots are built once, checksummed, and shared read-only behind
/// `std::shared_ptr<const ModelSnapshot>`; readers pin the snapshot they
/// scored against for the duration of a request, so a concurrent swap in
/// ModelRegistry can never free a matrix mid-score.
class ModelSnapshot {
 public:
  /// Builds from a trained model (normalizes W, casts to float32).
  /// `version` is an operator-chosen id surfaced in responses and metrics.
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      const sgns::SgnsModel& model, uint64_t version);
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      const sgns::SgnsModel& model, uint64_t version,
      const SnapshotOptions& options);

  /// Builds from a deployment artifact (LoadEmbeddings output). Rows are
  /// re-normalized in float32 to restore unit length after the cast.
  static Result<std::shared_ptr<const ModelSnapshot>> FromDeployed(
      const sgns::DeployedEmbeddings& deployed, uint64_t version);
  static Result<std::shared_ptr<const ModelSnapshot>> FromDeployed(
      const sgns::DeployedEmbeddings& deployed, uint64_t version,
      const SnapshotOptions& options);

  /// Builds from a saved file of either kind: tries the full-model format
  /// first, then falls back to the embeddings-only deployment format.
  static Result<std::shared_ptr<const ModelSnapshot>> FromFile(
      const std::string& path, uint64_t version);
  static Result<std::shared_ptr<const ModelSnapshot>> FromFile(
      const std::string& path, uint64_t version,
      const SnapshotOptions& options);

  /// Deep copy with its own allocations — the per-shard replica a sharded
  /// engine publishes so concurrent scans on different cores never share
  /// cache lines (or a refcounted control block) with another shard.
  std::shared_ptr<const ModelSnapshot> Replicate() const;

  int32_t num_locations() const { return num_locations_; }
  int32_t dim() const { return dim_; }
  uint64_t version() const { return version_; }
  SnapshotFormat format() const { return format_; }

  /// FNV-1a 64 over the header and the payload; stable across rebuilds
  /// from identical inputs, so operators can verify that the published
  /// snapshot matches the artifact they trained. Float32 snapshots hash
  /// the shape and the float matrix; fp16 snapshots fold in the format
  /// byte and hash the half payload instead of the float matrix.
  uint64_t checksum() const { return checksum_; }

  /// Resident size of the embedding payload (whatever format holds it),
  /// including the cluster-ordered copy an IVF-indexed snapshot carries.
  size_t memory_bytes() const;

  /// Integrity gate run before a snapshot may be installed: re-checks the
  /// shape invariants (positive dims, payload sizes matching the format)
  /// and recomputes the payload checksum from the bytes actually resident,
  /// comparing against the value stamped at build time. A failure means
  /// the artifact was corrupted between build and publish and must never
  /// reach readers. Fault point "snapshot.verify" lets tests and the chaos
  /// harness force this gate to fail.
  Status Verify() const;

  /// Float32 row view. Only valid on kFloat32 snapshots; fp16 drops the
  /// float matrix (that is the point) — use DequantizeRow.
  std::span<const float> Row(int32_t location) const {
    return {embeddings_.data() + static_cast<size_t>(location) * dim_,
            static_cast<size_t>(dim_)};
  }
  std::span<const float> embeddings() const { return embeddings_; }

  /// Writes the dequantized row into `out` (size dim). Works on every
  /// format; on kFloat32 it is a copy.
  void DequantizeRow(int32_t location, std::span<float> out) const;

  /// Cosine score of one row against a float32 profile, through the
  /// format's dispatched kernel. This is the inner loop of every scan.
  float ScoreRow(int32_t location, const float* profile) const;

  /// Cosine score of the row at cluster-ordered position `pos` against a
  /// float32 profile. Valid only on snapshots built with an IVF index;
  /// `pos` comes from IvfIndex::ClusterOffset + the member index, and the
  /// original row id from ClusterMembers. Same kernel and same stored
  /// values as ScoreRow, so the result is bitwise identical — only the
  /// memory layout differs.
  float ScorePackedRow(int32_t pos, const float* profile) const;

  /// The IVF index, or nullptr when the snapshot was built without one.
  const IvfIndex* ivf() const { return ivf_ ? &*ivf_ : nullptr; }

  /// F(ζ): average of the (dequantized) history rows, unit-normalized.
  /// History ids must be valid (use ValidateHistory on untrusted input).
  std::vector<float> Profile(std::span<const int32_t> recent) const;

  /// Checks every id against the vocabulary; the serving path surfaces
  /// this as a per-request error rather than aborting the process.
  Status ValidateHistory(std::span<const int32_t> recent) const;

 private:
  ModelSnapshot(int32_t num_locations, int32_t dim, uint64_t version,
                std::vector<float> embeddings);
  ModelSnapshot(const ModelSnapshot&) = default;

  /// Converts the float32 payload into `options.format` (dropping the
  /// float matrix for fp16) and builds the IVF index if asked. Called by
  /// the factories right after construction, while the float matrix is
  /// still present.
  void ApplyOptions(const SnapshotOptions& options);

  /// Recomputes the build-time checksum from the resident payload (the
  /// float matrix on kFloat32, the format byte + half payload on
  /// kFloat16). Verify compares this against checksum_.
  uint64_t ComputeChecksum() const;

  /// Builds the cluster-ordered payload copy for the pruned scan: row at
  /// packed position p is the p-th entry of the index's concatenated
  /// posting lists. A posting list's rows are scattered through the
  /// id-ordered matrix — one hardware-unpredictable cache miss each — but
  /// contiguous here, so the pruned scan streams memory the way the exact
  /// scan does. Costs one extra copy of the payload, only when an index
  /// was built.
  void BuildPackedPayload();

  int32_t num_locations_ = 0;
  int32_t dim_ = 0;
  uint64_t version_ = 0;
  uint64_t checksum_ = 0;
  SnapshotFormat format_ = SnapshotFormat::kFloat32;
  std::vector<float> embeddings_;    ///< row-major L × dim (kFloat32 only)
  std::vector<uint16_t> half_;       ///< row-major L × dim (kFloat16 only)
  std::optional<IvfIndex> ivf_;

  /// Cluster-ordered payload copies (present only when ivf_ is built; one
  /// of them, matching format_). See BuildPackedPayload.
  std::vector<float> packed_f32_;
  std::vector<uint16_t> packed_half_;
};

/// One scored candidate of a TopK answer.
struct ScoredLocation {
  int32_t location = 0;
  float score = 0.0f;  ///< cosine similarity against the profile
};

/// Heap-based top-k by cosine score over the snapshot's matrix: one pass,
/// O(L·dim + L·log k), no full sort and no per-request O(L) mask. Ids in
/// `exclude` (typically the user's current POI — a handful of entries,
/// checked linearly) are skipped. Ties break toward the smaller id, the
/// same deterministic order eval::Recommender uses. Returned highest
/// first. Every row is scored through ModelSnapshot::ScoreRow, in id
/// order; on float32 snapshots results are bitwise identical to the
/// original exact scan.
std::vector<ScoredLocation> TopKScores(const ModelSnapshot& snapshot,
                                       std::span<const float> profile,
                                       int32_t k,
                                       std::span<const int32_t> exclude = {});

/// Approximate top-k through the snapshot's IVF index: exact-scores only
/// the rows of the `nprobe` best clusters (nprobe ≤ 0 uses the index
/// default). Falls back to the exact scan when the snapshot has no index.
std::vector<ScoredLocation> ApproxTopKScores(
    const ModelSnapshot& snapshot, std::span<const float> profile, int32_t k,
    int32_t nprobe, std::span<const int32_t> exclude = {});

}  // namespace plp::serve

#endif  // PLP_SERVE_MODEL_SNAPSHOT_H_
