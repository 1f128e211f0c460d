#ifndef PLP_SGNS_TRAIN_SCRATCH_H_
#define PLP_SGNS_TRAIN_SCRATCH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/aligned.h"
#include "sgns/local_model.h"
#include "sgns/pairs.h"
#include "sgns/sparse_delta.h"

namespace plp::sgns {

/// Per-pair candidate/logit buffers used inside AccumulateBatchGradient.
/// Resized (capacity kept) instead of reallocated every call. The double
/// buffers are 64-byte aligned so the Dot/Axpy kernels run over aligned
/// spans end to end.
struct PairBuffers {
  std::vector<int32_t> candidates;
  std::vector<const double*> out_rows;  ///< W' row of each candidate
  AlignedVector<double> logits;
  AlignedVector<double> dlogits;
  AlignedVector<double> grad_h;
};

/// Reusable workspace for local bucket training. The trainer owns one per
/// pool worker (indexed by ThreadPool::CurrentWorkerIndex()), so the steady
/// state of a training run does no per-batch or per-bucket allocation: the
/// pair list, the flattened-sentence buffer, the candidate/logit buffers
/// and the batch gradient all reuse the capacity they grew on earlier
/// buckets. Purely an allocation cache — every user fully overwrites or
/// Clear()s what it reads, so scratch reuse never changes results.
struct TrainScratch {
  explicit TrainScratch(int32_t dim) : gradient(dim) {}

  std::vector<Pair> pairs;        ///< one bucket's training pairs
  std::vector<int32_t> flat;      ///< concatenated sentences (paper-literal)
  PairBuffers buffers;            ///< candidate/logit scratch
  SparseDelta gradient;           ///< batch gradient, Clear()ed per batch
  /// Copy-on-write overlay reused across buckets (Reset() per bucket —
  /// bitwise result-neutral, see LocalModel::Reset). Engaged lazily the
  /// first time a bucket trains through this scratch.
  std::optional<LocalModel> overlay;
};

}  // namespace plp::sgns

#endif  // PLP_SGNS_TRAIN_SCRATCH_H_
