#include "serve/model_snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/math_util.h"

namespace plp::serve {
namespace {

uint64_t Fnv1a64(const void* data, size_t len, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t ChecksumOf(int32_t num_locations, int32_t dim,
                    std::span<const float> embeddings) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  hash = Fnv1a64(&num_locations, sizeof(num_locations), hash);
  hash = Fnv1a64(&dim, sizeof(dim), hash);
  hash = Fnv1a64(embeddings.data(), embeddings.size() * sizeof(float), hash);
  return hash;
}

/// Scales each row to unit l2 norm in float32. Zero rows stay zero (they
/// score 0 against every profile, matching the training-side convention).
void NormalizeRows(std::vector<float>& m, int32_t num_rows, int32_t dim) {
  for (int32_t r = 0; r < num_rows; ++r) {
    float* row = m.data() + static_cast<size_t>(r) * dim;
    float sq = 0.0f;
    for (int32_t d = 0; d < dim; ++d) sq += row[d] * row[d];
    if (sq <= 0.0f) continue;
    const float inv = 1.0f / std::sqrt(sq);
    for (int32_t d = 0; d < dim; ++d) row[d] *= inv;
  }
}

/// Four-accumulator dot via the shared kernel (common/math_util) — the
/// same accumulation shape the original serve-local kernel used, so
/// snapshot scores are unchanged. A naive `s += a*b` loop serializes on
/// FP-add latency and is the difference between ~13k and >100k QPS
/// single-thread.
float Dot(const float* a, const float* b, int32_t n) {
  return DotKernel(a, b, static_cast<size_t>(n));
}

/// The shared top-k heap: min-heap on (score asc, id desc), so heap[0] is
/// the worst kept candidate and each better-scoring row replaces it in
/// O(log k). The comparison and offer order are exactly the original
/// exact-scan's, so the float32 path keeps its bitwise behavior.
struct TopKHeap {
  explicit TopKHeap(int32_t k_in, std::span<const int32_t> exclude_in)
      : k(k_in), exclude(exclude_in) {
    heap.reserve(static_cast<size_t>(k));
  }

  static bool Worse(const ScoredLocation& a, const ScoredLocation& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.location > b.location;
  }

  bool IsExcluded(int32_t l) const {
    return std::find(exclude.begin(), exclude.end(), l) != exclude.end();
  }

  void Offer(const ScoredLocation& candidate) {
    auto cmp = [](const ScoredLocation& a, const ScoredLocation& b) {
      return Worse(b, a);  // max-heap of "worseness" == min-heap of score
    };
    if (static_cast<int32_t>(heap.size()) < k) {
      if (IsExcluded(candidate.location)) return;
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (Worse(heap.front(), candidate) &&
               !IsExcluded(candidate.location)) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }

  std::vector<ScoredLocation> Finish() {
    std::sort(heap.begin(), heap.end(),
              [](const ScoredLocation& a, const ScoredLocation& b) {
                return Worse(b, a);  // best first
              });
    return std::move(heap);
  }

  int32_t k;
  std::span<const int32_t> exclude;
  std::vector<ScoredLocation> heap;
};

}  // namespace

const char* FormatName(SnapshotFormat format) {
  switch (format) {
    case SnapshotFormat::kFloat32:
      return "f32";
    case SnapshotFormat::kFloat16:
      return "fp16";
  }
  return "unknown";
}

Result<SnapshotFormat> ParseSnapshotFormat(const std::string& name) {
  if (name == "f32" || name == "float32") return SnapshotFormat::kFloat32;
  if (name == "fp16" || name == "float16") return SnapshotFormat::kFloat16;
  return InvalidArgumentError("unknown snapshot format '" + name +
                              "' (expected f32 or fp16)");
}

ModelSnapshot::ModelSnapshot(int32_t num_locations, int32_t dim,
                             uint64_t version, std::vector<float> embeddings)
    : num_locations_(num_locations),
      dim_(dim),
      version_(version),
      checksum_(ChecksumOf(num_locations, dim, embeddings)),
      embeddings_(std::move(embeddings)) {}

void ModelSnapshot::ApplyOptions(const SnapshotOptions& options) {
  // The IVF index clusters the float32 matrix, so build it before the
  // fp16 conversion below can drop that matrix.
  if (options.build_ivf) {
    ivf_ = IvfIndex::Build(embeddings_.data(), num_locations_, dim_,
                           options.ivf);
  }
  if (options.format == SnapshotFormat::kFloat32) {
    if (ivf_) BuildPackedPayload();
    return;
  }
  format_ = options.format;
  half_.resize(embeddings_.size());
  for (size_t i = 0; i < half_.size(); ++i) {
    half_[i] = FloatToHalf(embeddings_[i]);
  }
  checksum_ = ComputeChecksum();
  embeddings_.clear();
  embeddings_.shrink_to_fit();
  if (ivf_) BuildPackedPayload();
}

uint64_t ModelSnapshot::ComputeChecksum() const {
  if (format_ == SnapshotFormat::kFloat32) {
    return ChecksumOf(num_locations_, dim_, embeddings_);
  }
  uint64_t hash = 0xcbf29ce484222325ULL;
  hash = Fnv1a64(&num_locations_, sizeof(num_locations_), hash);
  hash = Fnv1a64(&dim_, sizeof(dim_), hash);
  hash = Fnv1a64(&format_, sizeof(format_), hash);
  return Fnv1a64(half_.data(), half_.size() * sizeof(uint16_t), hash);
}

Status ModelSnapshot::Verify() const {
  PLP_FAULT_POINT("snapshot.verify");
  if (num_locations_ <= 0 || dim_ <= 0) {
    return InternalError("corrupt snapshot: non-positive shape (" +
                         std::to_string(num_locations_) + " x " +
                         std::to_string(dim_) + ")");
  }
  const size_t count =
      static_cast<size_t>(num_locations_) * static_cast<size_t>(dim_);
  const bool shape_ok = format_ == SnapshotFormat::kFloat32
                            ? embeddings_.size() == count
                            : half_.size() == count && embeddings_.empty();
  if (!shape_ok) {
    return InternalError(
        "corrupt snapshot: payload size does not match the " +
        std::string(FormatName(format_)) + " shape " +
        std::to_string(num_locations_) + " x " + std::to_string(dim_));
  }
  if (const uint64_t actual = ComputeChecksum(); actual != checksum_) {
    return InternalError("corrupt snapshot: checksum mismatch (stamped " +
                         std::to_string(checksum_) + ", recomputed " +
                         std::to_string(actual) + ")");
  }
  return Status::Ok();
}

void ModelSnapshot::BuildPackedPayload() {
  const size_t dim = static_cast<size_t>(dim_);
  const size_t count = static_cast<size_t>(num_locations_) * dim;
  const bool f32 = format_ == SnapshotFormat::kFloat32;
  if (f32) {
    packed_f32_.resize(count);
  } else {
    packed_half_.resize(count);
  }
  size_t pos = 0;
  for (int32_t c = 0; c < ivf_->num_clusters(); ++c) {
    for (const int32_t id : ivf_->ClusterMembers(c)) {
      const size_t src = static_cast<size_t>(id) * dim;
      const size_t dst = pos * dim;
      if (f32) {
        std::copy_n(embeddings_.data() + src, dim, packed_f32_.data() + dst);
      } else {
        std::copy_n(half_.data() + src, dim, packed_half_.data() + dst);
      }
      ++pos;
    }
  }
  PLP_CHECK_EQ(pos, static_cast<size_t>(num_locations_));
}

size_t ModelSnapshot::memory_bytes() const {
  // Only the vectors of the snapshot's own format are non-empty.
  return (embeddings_.size() + packed_f32_.size()) * sizeof(float) +
         (half_.size() + packed_half_.size()) * sizeof(uint16_t);
}

void ModelSnapshot::DequantizeRow(int32_t location,
                                  std::span<float> out) const {
  PLP_CHECK_EQ(out.size(), static_cast<size_t>(dim_));
  const size_t offset = static_cast<size_t>(location) * dim_;
  if (format_ == SnapshotFormat::kFloat32) {
    std::copy_n(embeddings_.data() + offset, dim_, out.data());
    return;
  }
  for (int32_t d = 0; d < dim_; ++d) {
    out[static_cast<size_t>(d)] = HalfToFloat(half_[offset + d]);
  }
}

float ModelSnapshot::ScorePackedRow(int32_t pos, const float* profile) const {
  const size_t offset = static_cast<size_t>(pos) * dim_;
  if (format_ == SnapshotFormat::kFloat32) {
    return Dot(packed_f32_.data() + offset, profile, dim_);
  }
  return DotF16Kernel(packed_half_.data() + offset, profile,
                      static_cast<size_t>(dim_));
}

float ModelSnapshot::ScoreRow(int32_t location, const float* profile) const {
  const size_t offset = static_cast<size_t>(location) * dim_;
  if (format_ == SnapshotFormat::kFloat32) {
    return Dot(embeddings_.data() + offset, profile, dim_);
  }
  return DotF16Kernel(half_.data() + offset, profile,
                      static_cast<size_t>(dim_));
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::Replicate() const {
  return std::shared_ptr<const ModelSnapshot>(new ModelSnapshot(*this));
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromModel(
    const sgns::SgnsModel& model, uint64_t version) {
  return FromModel(model, version, SnapshotOptions{});
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromModel(
    const sgns::SgnsModel& model, uint64_t version,
    const SnapshotOptions& options) {
  if (model.num_locations() <= 0 || model.dim() <= 0) {
    return InvalidArgumentError("cannot snapshot an empty model");
  }
  const std::vector<double> normalized = model.NormalizedEmbeddings();
  std::vector<float> embeddings(normalized.begin(), normalized.end());
  NormalizeRows(embeddings, model.num_locations(), model.dim());
  auto snapshot = std::shared_ptr<ModelSnapshot>(new ModelSnapshot(
      model.num_locations(), model.dim(), version, std::move(embeddings)));
  snapshot->ApplyOptions(options);
  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromDeployed(
    const sgns::DeployedEmbeddings& deployed, uint64_t version) {
  return FromDeployed(deployed, version, SnapshotOptions{});
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromDeployed(
    const sgns::DeployedEmbeddings& deployed, uint64_t version,
    const SnapshotOptions& options) {
  if (deployed.num_locations <= 0 || deployed.dim <= 0) {
    return InvalidArgumentError("cannot snapshot empty embeddings");
  }
  const size_t expected = static_cast<size_t>(deployed.num_locations) *
                          static_cast<size_t>(deployed.dim);
  if (deployed.embeddings.size() != expected) {
    return InvalidArgumentError("embedding matrix shape mismatch");
  }
  std::vector<float> embeddings(deployed.embeddings.begin(),
                                deployed.embeddings.end());
  NormalizeRows(embeddings, deployed.num_locations, deployed.dim);
  auto snapshot = std::shared_ptr<ModelSnapshot>(
      new ModelSnapshot(deployed.num_locations, deployed.dim, version,
                        std::move(embeddings)));
  snapshot->ApplyOptions(options);
  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromFile(
    const std::string& path, uint64_t version) {
  return FromFile(path, version, SnapshotOptions{});
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromFile(
    const std::string& path, uint64_t version,
    const SnapshotOptions& options) {
  auto model_or = sgns::LoadModel(path);
  if (model_or.ok()) return FromModel(*model_or, version, options);
  // A missing file will fail the same way again; only fall back when the
  // file exists but is not a full model (embeddings-only deployment).
  if (model_or.status().code() == StatusCode::kNotFound) {
    return model_or.status();
  }
  auto deployed_or = sgns::LoadEmbeddings(path);
  if (!deployed_or.ok()) {
    return InvalidArgumentError(
        path + " is neither a full model (" + model_or.status().message() +
        ") nor a deployment artifact (" + deployed_or.status().message() +
        ")");
  }
  return FromDeployed(*deployed_or, version, options);
}

std::vector<float> ModelSnapshot::Profile(
    std::span<const int32_t> recent) const {
  std::vector<float> profile(static_cast<size_t>(dim_), 0.0f);
  std::vector<float> row(static_cast<size_t>(dim_));
  for (int32_t l : recent) {
    DequantizeRow(l, row);
    for (size_t d = 0; d < row.size(); ++d) profile[d] += row[d];
  }
  float sq = 0.0f;
  for (float v : profile) sq += v * v;
  if (sq > 0.0f) {
    const float inv = 1.0f / std::sqrt(sq);
    for (float& v : profile) v *= inv;
  }
  return profile;
}

Status ModelSnapshot::ValidateHistory(std::span<const int32_t> recent) const {
  if (recent.empty()) return InvalidArgumentError("empty history");
  for (int32_t l : recent) {
    if (l < 0 || l >= num_locations_) {
      return InvalidArgumentError("location id " + std::to_string(l) +
                                  " outside the model vocabulary [0, " +
                                  std::to_string(num_locations_) + ")");
    }
  }
  return Status::Ok();
}

std::vector<ScoredLocation> TopKScores(const ModelSnapshot& snapshot,
                                       std::span<const float> profile,
                                       int32_t k,
                                       std::span<const int32_t> exclude) {
  if (k <= 0 || profile.size() != static_cast<size_t>(snapshot.dim())) {
    return {};
  }
  TopKHeap heap(k, exclude);
  for (int32_t l = 0; l < snapshot.num_locations(); ++l) {
    heap.Offer(ScoredLocation{l, snapshot.ScoreRow(l, profile.data())});
  }
  return heap.Finish();
}

std::vector<ScoredLocation> ApproxTopKScores(const ModelSnapshot& snapshot,
                                             std::span<const float> profile,
                                             int32_t k, int32_t nprobe,
                                             std::span<const int32_t> exclude) {
  const IvfIndex* ivf = snapshot.ivf();
  if (ivf == nullptr) return TopKScores(snapshot, profile, k, exclude);
  const int32_t dim = snapshot.dim();
  if (k <= 0 || profile.size() != static_cast<size_t>(dim)) return {};
  if (nprobe <= 0) nprobe = ivf->default_nprobe();

  // Walk the probed posting lists through the cluster-ordered payload:
  // each probed cluster is one contiguous packed range, so the pruned
  // scan streams memory sequentially (hardware-prefetchable) instead of
  // chasing one scattered cache line per row — the difference between a
  // latency-bound and a bandwidth-bound scan.
  std::vector<int32_t> clusters;
  ivf->TopClusters(profile, nprobe, clusters);
  TopKHeap heap(k, exclude);
  for (int32_t c : clusters) {
    const std::span<const int32_t> members = ivf->ClusterMembers(c);
    const int32_t base = ivf->ClusterOffset(c);
    for (size_t i = 0; i < members.size(); ++i) {
      heap.Offer(ScoredLocation{
          members[i],
          snapshot.ScorePackedRow(base + static_cast<int32_t>(i),
                                  profile.data())});
    }
  }
  return heap.Finish();
}

}  // namespace plp::serve
