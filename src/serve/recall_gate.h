#ifndef PLP_SERVE_RECALL_GATE_H_
#define PLP_SERVE_RECALL_GATE_H_

#include <cstdint>

#include "serve/model_snapshot.h"

namespace plp::serve {

/// Probe schedule for MeasureRecallAtK. Queries are history-derived
/// profiles (the shape the serving path actually scores) generated from a
/// seeded RNG, so the same snapshot pair always measures the same recall —
/// a gate that flickers across runs is a gate nobody trusts.
struct RecallProbe {
  int32_t num_queries = 128;
  int32_t k = 10;
  int32_t history_length = 5;
  uint64_t seed = 18;
  /// Candidate-side probe width when it carries an IVF index; 0 uses the
  /// index default (the width the ≥ 0.99 recall contract is tuned for).
  int32_t nprobe = 0;
};

/// Average recall@k of `candidate` against `reference` over the probe's
/// synthetic queries: for each query the reference answers with its exact
/// scan and the candidate answers the way the engine would serve it
/// (IVF-pruned when indexed, exact otherwise, the fp16 kernel on fp16
/// snapshots); recall is the fraction of reference ids the
/// candidate returned. This is the same machinery as the IVF recall gate
/// in tests/serve/ivf_index_test.cc, factored out so the publish
/// validation gate measures candidates against the float32 reference
/// before they can reach a registry.
///
/// Both snapshots must share the vocabulary size. k is clamped to the
/// vocabulary.
double MeasureRecallAtK(const ModelSnapshot& candidate,
                        const ModelSnapshot& reference,
                        const RecallProbe& probe);

}  // namespace plp::serve

#endif  // PLP_SERVE_RECALL_GATE_H_
