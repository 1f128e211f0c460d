#ifndef PLP_TESTS_SUPPORT_FIXTURES_H_
#define PLP_TESTS_SUPPORT_FIXTURES_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "data/corpus.h"
#include "data/fixtures.h"

namespace plp::test {

/// Structureless corpus: every token uniform over the location space. The
/// canonical input for privacy-invariant tests, where only data *shape*
/// matters. One single-sentence user per index; sentence lengths uniform
/// in [min_tokens, max_tokens] (equal values pin the length).
data::TrainingCorpus UniformCorpus(uint64_t seed, int32_t num_users,
                                   int32_t num_locations,
                                   int32_t min_tokens = 5,
                                   int32_t max_tokens = 30);

/// Corpus with learnable co-visitation structure: each user walks inside a
/// 5-location neighborhood. The canonical input for training-dynamics
/// tests (losses decrease, signals strengthen).
data::TrainingCorpus ClusteredCorpus(uint64_t seed = 7,
                                     int32_t num_users = 60,
                                     int32_t tokens_per_user = 20,
                                     int32_t num_locations = 30);

/// Small-model trainer config sized so a full Train() finishes in
/// milliseconds: dim 8, 4 negatives, q = 0.2, λ = 3, σ = 2, 10 steps.
core::PlpConfig FastTrainerConfig();

/// The config privacy-invariant suites share: dim 6, 4 negatives,
/// q = 0.25, σ = 2, budget 5, 6 steps.
core::PlpConfig InvariantTrainerConfig();

/// An accountant blob in the "PLD1" layout that builds with a standalone
/// pld_fft accountant wrote into checkpoints: magic 0x31444C50, δ, the
/// default grid options, then one (q, σ, steps) entry.
std::string LegacyPldBlob(double delta, double q, double sigma,
                          int64_t steps);

}  // namespace plp::test

#endif  // PLP_TESTS_SUPPORT_FIXTURES_H_
