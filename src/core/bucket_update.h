#ifndef PLP_CORE_BUCKET_UPDATE_H_
#define PLP_CORE_BUCKET_UPDATE_H_

#include <cstdint>

#include "common/rng.h"
#include "core/config.h"
#include "core/grouping.h"
#include "sgns/model.h"
#include "sgns/negative_sampler.h"
#include "sgns/sparse_delta.h"
#include "sgns/train_scratch.h"

namespace plp::core {

/// Lines 15–20 only: local SGD over the bucket's batches starting from
/// θ_t, writing the *unclipped* model delta into `delta` (Clear()ed
/// first). The pipeline's `LocalUpdater` stage produces this raw delta and
/// hands it to the `DeltaClipper` stage, which applies line 21 and reports
/// whether the bound engaged (clip_fraction). Deterministic given `rng`'s
/// state. `loss_out` may be null. With `scratch` (an optional per-worker
/// workspace) given, the overlay model and the delta's row stores both
/// reuse capacity grown on earlier buckets, so steady-state bucket fan-out
/// performs no allocation; results are bitwise identical either way.
/// `negative_table` selects unigram negative sampling for the local SGD
/// (null → uniform, byte-identical to the pre-option behavior).
void ComputeRawBucketDeltaInto(const sgns::SgnsModel& theta,
                               const Bucket& bucket, const PlpConfig& config,
                               int32_t num_locations, Rng& rng,
                               double* loss_out, sgns::TrainScratch* scratch,
                               sgns::SparseDelta& delta,
                               const sgns::UnigramTable* negative_table =
                                   nullptr);

/// The RNG seed for one bucket's local training, derived from the step
/// seed and the bucket's *content* (user ids and data shape), never its
/// position in the bucket list. Content keying gives two properties the
/// privacy and determinism arguments both need:
///
/// * Schedule independence: the seed is the same no matter which thread
///   processes the bucket or how many workers exist, so training is
///   bitwise-identical across num_threads (the sequential path uses the
///   same derivation).
/// * Neighbor coupling: on neighboring datasets (one user removed), every
///   bucket that does not contain that user keeps its exact seed and hence
///   its exact delta, so the pre-noise sum moves only through the removed
///   user's ≤ ω buckets — the coupling the ω·C sensitivity bound requires.
///   Index-keyed seeds would re-randomize every bucket after the removed
///   one and break that argument.
uint64_t BucketSeed(uint64_t step_seed, const Bucket& bucket);

}  // namespace plp::core

#endif  // PLP_CORE_BUCKET_UPDATE_H_
