#ifndef PLP_SGNS_PAIRS_H_
#define PLP_SGNS_PAIRS_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/rng.h"

namespace plp::sgns {

/// A (target, context) training example.
struct Pair {
  int32_t target = 0;
  int32_t context = 0;
};

inline bool operator==(const Pair& a, const Pair& b) {
  return a.target == b.target && a.context == b.context;
}

/// Exact number of pairs GeneratePairs emits for a sentence of `tokens`
/// tokens: every token pairs with its ≤ window neighbors on each side.
/// Used to pre-reserve pair buffers before generation.
size_t PairCount(size_t tokens, int32_t window);

/// Emits every (target, context) pair from one sentence with a symmetric
/// window of `window` tokens on each side (Section 3.2: "a symmetric window
/// of win context locations to the left and win to the right").
std::vector<Pair> GeneratePairs(std::span<const int32_t> sentence,
                                int32_t window);
inline std::vector<Pair> GeneratePairs(std::initializer_list<int32_t> sentence,
                                       int32_t window) {
  return GeneratePairs(std::span<const int32_t>(sentence.begin(),
                                                sentence.size()),
                       window);
}

/// Appends GeneratePairs' output to `out` without clearing it. Callers
/// that concatenate many sentences (a bucket's pairs in
/// core/bucket_update.cc) reserve once from PairCount and append,
/// avoiding repeated reallocation.
void AppendPairs(std::span<const int32_t> sentence, int32_t window,
                 std::vector<Pair>& out);

/// Splits `pairs` into shuffled batches of `batch_size` (the paper's
/// generateBatches(); the final batch may be short). Requires
/// batch_size > 0.
std::vector<std::vector<Pair>> MakeBatches(std::vector<Pair> pairs,
                                           int32_t batch_size, Rng& rng);

}  // namespace plp::sgns

#endif  // PLP_SGNS_PAIRS_H_
