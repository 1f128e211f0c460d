#include "core/bucket_update.h"

#include <algorithm>
#include <span>
#include <vector>

#include "sgns/local_model.h"
#include "sgns/loss.h"
#include "sgns/pairs.h"

namespace plp::core {
namespace {

/// Pairs for one bucket into caller-owned buffers: `out` is cleared and
/// pre-reserved from the exact window pair count, `flat_scratch` is reused
/// for the concatenation below. Paper-literal mode concatenates the
/// bucket's sentences into a single array before applying the window
/// (Section 4.1: "Grouped data in each bucket is organized as a single
/// array ... a symmetric moving window is applied to create training
/// examples, after the array is read by the generateBatches() function").
void BucketPairsInto(const Bucket& bucket, const PlpConfig& config,
                     std::vector<int32_t>& flat_scratch,
                     std::vector<sgns::Pair>& out) {
  out.clear();
  if (config.cross_user_windows) {
    flat_scratch.clear();
    flat_scratch.reserve(static_cast<size_t>(bucket.num_tokens()));
    for (const auto& s : bucket.sentences) {
      flat_scratch.insert(flat_scratch.end(), s.begin(), s.end());
    }
    out.reserve(sgns::PairCount(flat_scratch.size(), config.sgns.window));
    sgns::AppendPairs(flat_scratch, config.sgns.window, out);
    return;
  }
  size_t total = 0;
  for (const auto& s : bucket.sentences) {
    total += sgns::PairCount(s.size(), config.sgns.window);
  }
  out.reserve(total);
  for (const auto& s : bucket.sentences) {
    sgns::AppendPairs(s, config.sgns.window, out);
  }
}

/// Local SGD over the bucket's batches starting from θ_t (lines 15–22).
/// The pair list lives in `scratch` when one is given; batches are spans
/// into it after an in-place Fisher–Yates shuffle (same n−1 UniformInt
/// draws the old copy-and-shuffle MakeBatches consumed).
template <typename Model>
sgns::BatchStats TrainLocally(Model& phi, const Bucket& bucket,
                              const PlpConfig& config, int32_t num_locations,
                              Rng& rng, sgns::TrainScratch* scratch,
                              const sgns::UnigramTable* negative_table) {
  std::vector<sgns::Pair> local_pairs;
  std::vector<int32_t> local_flat;
  std::vector<sgns::Pair>& pairs =
      scratch != nullptr ? scratch->pairs : local_pairs;
  std::vector<int32_t>& flat =
      scratch != nullptr ? scratch->flat : local_flat;
  BucketPairsInto(bucket, config, flat, pairs);
  if (config.local_update == LocalUpdateMode::kSingleGradient) {
    // DP-SGD baseline: Φ = θ_t − η · ∇J(θ_t) over all of the bucket's
    // pairs at once — a single clipped gradient, no local optimization.
    return sgns::ApplySgdBatch(phi, pairs, config.sgns, num_locations,
                               config.local_learning_rate, rng, scratch,
                               negative_table);
  }
  sgns::BatchStats total;
  const size_t batch_size = static_cast<size_t>(config.batch_size);
  for (int32_t epoch = 0; epoch < config.local_epochs; ++epoch) {
    rng.Shuffle(pairs);
    for (size_t start = 0; start < pairs.size(); start += batch_size) {
      const size_t len = std::min(batch_size, pairs.size() - start);
      const std::span<const sgns::Pair> batch(pairs.data() + start, len);
      const sgns::BatchStats stats =
          sgns::ApplySgdBatch(phi, batch, config.sgns, num_locations,
                              config.local_learning_rate, rng, scratch,
                              negative_table);
      total.loss_sum += stats.loss_sum;
      total.num_pairs += stats.num_pairs;
    }
  }
  return total;
}

}  // namespace

void ComputeRawBucketDeltaInto(const sgns::SgnsModel& theta,
                               const Bucket& bucket, const PlpConfig& config,
                               int32_t num_locations, Rng& rng,
                               double* loss_out, sgns::TrainScratch* scratch,
                               sgns::SparseDelta& delta,
                               const sgns::UnigramTable* negative_table) {
  sgns::BatchStats stats;
  if (config.dense_local_copy) {
    // Paper-faithful cost model: full Φ ← θ_t copy and dense diff.
    sgns::SgnsModel phi = theta;
    stats = TrainLocally(phi, bucket, config, num_locations, rng, scratch,
                         negative_table);
    delta = sgns::DiffModels(phi, theta);
  } else if (scratch != nullptr) {
    // The overlay reuses the scratch's row stores across buckets: Reset()
    // makes it behave exactly like a fresh LocalModel(theta) without the
    // per-bucket grow-from-scratch table and arena allocations.
    if (scratch->overlay.has_value()) {
      scratch->overlay->Reset(theta);
    } else {
      scratch->overlay.emplace(theta);
    }
    sgns::LocalModel& phi = *scratch->overlay;
    stats = TrainLocally(phi, bucket, config, num_locations, rng, scratch,
                         negative_table);
    phi.ExtractDeltaInto(delta);
  } else {
    sgns::LocalModel phi(theta);
    stats = TrainLocally(phi, bucket, config, num_locations, rng, scratch,
                         negative_table);
    phi.ExtractDeltaInto(delta);
  }
  if (loss_out != nullptr) {
    *loss_out = stats.mean_loss();
  }
}

uint64_t BucketSeed(uint64_t step_seed, const Bucket& bucket) {
  // FNV-1a over the bucket's content identity. Collisions between distinct
  // buckets of one step are harmless (their data still differs), and the
  // Rng constructor's splitmix64 scrambling decorrelates nearby seeds.
  uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (int32_t u : bucket.users) mix(static_cast<uint64_t>(u) + 1);
  mix(static_cast<uint64_t>(bucket.sentences.size()));
  mix(static_cast<uint64_t>(bucket.num_tokens()));
  return step_seed ^ h;
}

}  // namespace plp::core
