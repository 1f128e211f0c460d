#include "pipeline/standard_stages.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/bucket_update.h"
#include "optim/optimizers.h"
#include "privacy/ledger.h"
#include "privacy/mog_accountant.h"
#include "sgns/loss.h"
#include "sgns/pairs.h"

namespace plp::pipeline {
namespace {

// ---------------------------------------------------------------------------
// Algorithm 1 stages (PlpTrainer / DpSgdTrainer)

/// Line 5: U_sample ~ Poisson(q) over the user ids.
class PoissonSampler final : public UserSampler {
 public:
  explicit PoissonSampler(double q) : q_(q) {}

  std::vector<int32_t> Sample(const data::CorpusView& corpus,
                              Rng& rng) override {
    return core::PoissonSampleUsers(corpus.NumUsers(), q_, rng);
  }

 private:
  double q_;
};

/// Line 5, fixed-batch variant: exactly B = round(q·N) distinct users
/// every round. Only meaningful with the "mog" accountant (config
/// validation enforces the pairing).
class FixedBatchSampler final : public UserSampler {
 public:
  explicit FixedBatchSampler(double q) : q_(q) {}

  std::vector<int32_t> Sample(const data::CorpusView& corpus,
                              Rng& rng) override {
    return core::FixedBatchSampleUsers(
        corpus.NumUsers(), core::FixedBatchSize(corpus.NumUsers(), q_), rng);
  }

 private:
  double q_;
};

/// Line 6: groupData(U_sample, λ, ω) per the configured GroupingKind. The
/// split bound ω is enforced here — the ω·C sensitivity argument of the
/// aggregator is unsound without it, so violation aborts rather than
/// erroring.
class ConfiguredGrouper final : public Grouper {
 public:
  explicit ConfiguredGrouper(const core::PlpConfig& config)
      : config_(config) {}

  std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                  const std::vector<int32_t>& sampled,
                                  Rng& rng) override {
    std::vector<core::Bucket> buckets =
        core::BuildBuckets(corpus, sampled, config_, rng);
    PLP_CHECK_LE(core::RealizedSplitFactor(buckets), config_.split_factor);
    return buckets;
  }

 private:
  core::PlpConfig config_;
};

/// Lines 7–8 / 15–20: local SGD on a bucket from θ_t, raw delta out.
class BucketSgdUpdater final : public LocalUpdater {
 public:
  explicit BucketSgdUpdater(const core::PlpConfig& config)
      : config_(config) {}

  bool BucketParallel() const override { return true; }

  Status Prepare(const data::CorpusView& corpus, const sgns::SgnsModel& model,
                 Rng& rng) override {
    (void)model;
    (void)rng;  // table construction is deterministic — no draws
    if (config_.sgns.negative_sampling ==
        sgns::NegativeSamplingKind::kUnigram) {
      negative_table_.emplace(data::CountTokenFrequencies(corpus),
                              config_.sgns.unigram_power);
    }
    return Status::Ok();
  }

  void ComputeDelta(const sgns::SgnsModel& theta, const core::Bucket& bucket,
                    int32_t num_locations, Rng& bucket_rng, double* loss_out,
                    sgns::TrainScratch* scratch,
                    sgns::SparseDelta& delta) override {
    core::ComputeRawBucketDeltaInto(
        theta, bucket, config_, num_locations, bucket_rng, loss_out, scratch,
        delta, negative_table_.has_value() ? &*negative_table_ : nullptr);
  }

 private:
  core::PlpConfig config_;
  std::optional<sgns::UnigramTable> negative_table_;
};

/// Line 21 (per-layer form, Section 4.1): each tensor clipped to C/√|θ|.
class PerTensorClipper final : public DeltaClipper {
 public:
  explicit PerTensorClipper(double clip_norm) : clip_norm_(clip_norm) {}

  bool Clip(sgns::SparseDelta& delta) const override {
    return delta.ClipPerTensor(
        clip_norm_ / std::sqrt(static_cast<double>(sgns::kNumTensors)));
  }

 private:
  double clip_norm_;
};

/// Line 9: Σ + N(0, σ_t²·ω²·C²·I), then the fixed-denominator (or
/// realized-|H|) averaging of Section 4.1.
class GaussianAggregator final : public NoisyAggregator {
 public:
  explicit GaussianAggregator(const core::PlpConfig& config)
      : config_(config) {}

  void Prepare(const data::CorpusView& corpus) override {
    // Fixed-denominator estimator: E[|H|] = q·N/λ (never below 1).
    expected_buckets_ =
        std::max(1.0, config_.sampling_probability *
                          static_cast<double>(corpus.NumUsers()) /
                          static_cast<double>(config_.grouping_factor));
  }

  void Reduce(std::span<const sgns::SparseDelta* const> deltas,
              sgns::DenseUpdate& sum, ThreadPool* pool) override {
    (void)pool;
    sgns::AccumulateDeltas(deltas, 1.0, sum);
  }

  void NoiseAndAverage(const AggregateContext& ctx,
                       sgns::DenseUpdate& sum) override {
    const double sigma_t = core::NoiseScaleAt(config_, ctx.step);
    const double sensitivity =
        static_cast<double>(config_.split_factor) * config_.clip_norm;
    if (config_.per_tensor_noise) {
      const double per_tensor_std =
          sigma_t * sensitivity /
          std::sqrt(static_cast<double>(sgns::kNumTensors));
      for (int ti = 0; ti < sgns::kNumTensors; ++ti) {
        sum.AddGaussianNoiseToTensor(static_cast<sgns::Tensor>(ti),
                                     ctx.noise_seed, per_tensor_std,
                                     ctx.pool);
      }
    } else {
      sum.AddGaussianNoise(ctx.noise_seed, sigma_t * sensitivity, ctx.pool);
    }
    const double denominator =
        config_.fixed_denominator
            ? expected_buckets_
            : std::max<double>(1.0, static_cast<double>(ctx.num_buckets));
    sum.Scale(1.0 / denominator, ctx.pool);
  }

 private:
  core::PlpConfig config_;
  double expected_buckets_ = 1.0;
};

/// Poisson-only accountants must refuse fixed-batch rounds — their
/// dominating pairs certify a different mechanism. Config validation
/// rejects the pairing up front; this is the stage-level backstop for
/// hand-assembled StageSets, and its message names the valid pairs.
Status RejectNonPoissonRound(const char* accountant_name,
                             const RoundRecord& round) {
  if (round.scheme == core::SamplingScheme::kPoisson) return Status::Ok();
  return InvalidArgumentError(
      std::string("accountant \"") + accountant_name +
      "\" models Poisson sampling only; valid (scheme, accountant) pairs "
      "are poisson x {rdp, pld_fft, mog} and fixed_batch x {mog}");
}

/// Lines 11–13: the budget verdict after a round, the same for every
/// private accountant.
BudgetDecision DecideBudget(const core::PlpConfig& config,
                            double epsilon_after) {
  BudgetDecision decision;
  decision.epsilon_after = epsilon_after;
  decision.exhausted = epsilon_after > config.epsilon_budget;
  return decision;
}

/// Restores `state` (a PrivacyLedger or MogAccountant) from a checkpoint
/// blob. The blob must parse completely, carry the configured δ, and —
/// the ledger-first invariant — cover exactly the `step` steps the
/// snapshot holds, so the ledger always covers the model's spends.
template <typename State>
Status RestoreAccountantState(const std::string& blob, int64_t step,
                              const core::PlpConfig& config, State& state) {
  ByteReader reader(blob);
  PLP_ASSIGN_OR_RETURN(State restored, State::Restore(reader));
  if (!reader.AtEnd()) {
    return InvalidArgumentError("checkpoint: trailing ledger bytes");
  }
  if (restored.delta() != config.delta) {
    return InvalidArgumentError("checkpoint δ disagrees with config");
  }
  if (restored.total_steps() != step) {
    return InvalidArgumentError(
        "checkpoint ledger steps disagree with step counter");
  }
  state = std::move(restored);
  return Status::Ok();
}

/// Lines 3 + 11–13 with the RDP moments-accountant ledger (the default).
class LedgerAccountant final : public Accountant {
 public:
  explicit LedgerAccountant(const core::PlpConfig& config)
      : config_(config), ledger_(config.delta) {}

  Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    PLP_RETURN_IF_ERROR(RejectNonPoissonRound("rdp", round));
    PLP_RETURN_IF_ERROR(
        ledger_.TrackStep(round.sampling_ratio, round.noise_multiplier));
    return DecideBudget(config_, EpsilonSpent());
  }

  Result<BudgetDecision> TrackRounds(const RoundRecord& first,
                                     int64_t count) override {
    // Bulk fast path: RDP accumulation is O(orders) per round; the
    // RDP → (ε, δ) conversion is done once at the end instead of per
    // round. σ_t is recomputed per step so the sweep stays exact under a
    // noise-decay schedule.
    PLP_RETURN_IF_ERROR(RejectNonPoissonRound("rdp", first));
    for (int64_t i = 0; i < count; ++i) {
      PLP_RETURN_IF_ERROR(ledger_.TrackStep(
          first.sampling_ratio,
          core::EffectiveNoiseMultiplier(config_, first.step + i)));
    }
    return DecideBudget(config_, EpsilonSpent());
  }

  double EpsilonSpent() const override {
    return ledger_.CumulativeEpsilon(config_.rdp_conversion);
  }

  std::string SaveBlob() const override {
    ByteWriter writer;
    ledger_.SaveState(writer);
    return writer.Take();
  }

  Status RestoreBlob(const std::string& blob, int64_t step) override {
    return RestoreAccountantState(blob, step, config_, ledger_);
  }

 private:
  core::PlpConfig config_;
  privacy::PrivacyLedger ledger_;
};

/// One pipeline RoundRecord as `steps` identical MoG accountant rounds.
/// Poisson rounds zero the fixed-batch fields so identical mechanisms
/// coalesce (and serialize) canonically.
privacy::MogRound ToMogRound(const RoundRecord& round, int64_t steps) {
  privacy::MogRound mog;
  if (round.scheme == core::SamplingScheme::kFixedBatch) {
    mog.sampling = privacy::MogSampling::kFixedBatch;
    mog.batch_size = round.batch_size;
    mog.population = round.population;
  } else {
    mog.sampling = privacy::MogSampling::kPoisson;
  }
  mog.sampling_ratio = round.sampling_ratio;
  mog.noise_multiplier = round.noise_multiplier;
  mog.split_factor = round.split_factor;
  mog.steps = steps;
  return mog;
}

/// Blob magic of the standalone pld_fft accountant ("PLD1" little-endian)
/// that older builds wrote into checkpoints.
constexpr uint32_t kLegacyPldBlobMagic = 0x31444C50;

/// Lines 3 + 11–13 with the group-level Mixture-of-Gaussians accountant
/// (Ganesh, arXiv:2401.10294) — tight in ω and the only stage accountant
/// covering both sampling schemes. Also serves "pld_fft": under Poisson
/// sampling the MoG dominating pair is exactly the subsampled-Gaussian
/// PLD of Koskela et al. (arXiv:1906.03049), so "pld_fft" is this stage
/// restricted to Poisson rounds.
class MogStageAccountant final : public Accountant {
 public:
  explicit MogStageAccountant(const core::PlpConfig& config)
      : config_(config), mog_(config.delta) {}

  Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    PLP_RETURN_IF_ERROR(CheckScheme(round));
    PLP_RETURN_IF_ERROR(mog_.AddRounds(ToMogRound(round, 1)));
    return DecideBudget(config_, EpsilonSpent());
  }

  Result<BudgetDecision> TrackRounds(const RoundRecord& first,
                                     int64_t count) override {
    // Bulk fast path: identical-σ runs coalesce inside the accountant, so
    // a schedule-free sweep composes with one DFT power per mechanism
    // instead of one per round. σ_t is still recomputed per step for
    // schedule correctness.
    PLP_RETURN_IF_ERROR(CheckScheme(first));
    RoundRecord round = first;
    for (int64_t i = 0; i < count; ++i) {
      round.step = first.step + i;
      round.noise_multiplier =
          core::EffectiveNoiseMultiplier(config_, round.step);
      PLP_RETURN_IF_ERROR(mog_.AddRounds(ToMogRound(round, 1)));
    }
    return DecideBudget(config_, EpsilonSpent());
  }

  double EpsilonSpent() const override { return mog_.CumulativeEpsilon(); }

  std::string SaveBlob() const override {
    ByteWriter writer;
    mog_.SaveState(writer);
    return writer.Take();
  }

  Status RestoreBlob(const std::string& blob, int64_t step) override {
    ByteReader reader(blob);
    const Result<uint32_t> magic = reader.U32();
    if (magic.ok() && *magic == kLegacyPldBlobMagic) {
      return InvalidArgumentError(
          "checkpoint: \"PLD1\" accountant blob predates pld_fft becoming an "
          "alias of mog; the run must restart from step 0");
    }
    return RestoreAccountantState(blob, step, config_, mog_);
  }

 private:
  Status CheckScheme(const RoundRecord& round) const {
    if (config_.accountant != "pld_fft") return Status::Ok();
    return RejectNonPoissonRound("pld_fft", round);
  }

  core::PlpConfig config_;
  privacy::MogAccountant mog_;
};

/// Line 10 through the optim::ServerOptimizer registry ("dp_adam" /
/// "fixed_step").
class OptimServerAdapter final : public ServerOptimizer {
 public:
  explicit OptimServerAdapter(std::unique_ptr<optim::ServerOptimizer> inner)
      : inner_(std::move(inner)) {}

  void Apply(const sgns::DenseUpdate& update,
             sgns::SgnsModel& model) override {
    inner_->ApplyUpdate(update, model);
  }
  const char* name() const override { return inner_->name(); }
  void SaveState(ByteWriter& writer) const override {
    inner_->SaveState(writer);
  }
  Status LoadState(ByteReader& reader,
                   const sgns::SgnsModel& model) override {
    return inner_->LoadState(reader, model);
  }

 private:
  std::unique_ptr<optim::ServerOptimizer> inner_;
};

// ---------------------------------------------------------------------------
// Non-private baseline stages: the same engine with sampling, clipping,
// noise and accounting all degenerate.

/// Samples nothing — the non-private round always uses the whole corpus.
class NullSampler final : public UserSampler {
 public:
  std::vector<int32_t> Sample(const data::CorpusView& corpus,
                              Rng& rng) override {
    (void)corpus;
    (void)rng;
    return {};
  }
};

/// Groups nothing — the whole-round updater reads the corpus directly.
class NullGrouper final : public Grouper {
 public:
  std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                  const std::vector<int32_t>& sampled,
                                  Rng& rng) override {
    (void)corpus;
    (void)sampled;
    (void)rng;
    return {};
  }
};

/// No bound on local updates.
class IdentityClipper final : public DeltaClipper {
 public:
  bool Clip(sgns::SparseDelta& delta) const override {
    (void)delta;
    return false;
  }
};

/// Sum only, σ = 0, denominator 1 — plain aggregation. Unused by the
/// whole-round updater but keeps the non-private StageSet total, so the
/// same StageSet also drives bucket-parallel updaters noise-free (the
/// sensitivity suite's pre-noise sum uses this shape).
class ZeroNoiseAggregator final : public NoisyAggregator {
 public:
  void Reduce(std::span<const sgns::SparseDelta* const> deltas,
              sgns::DenseUpdate& sum, ThreadPool* pool) override {
    (void)pool;
    sgns::AccumulateDeltas(deltas, 1.0, sum);
  }
  void NoiseAndAverage(const AggregateContext& ctx,
                       sgns::DenseUpdate& sum) override {
    (void)ctx;
    (void)sum;
  }
};

/// ε = 0 forever; the checkpoint ledger blob is empty and must stay so.
class NullAccountant final : public Accountant {
 public:
  Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    (void)round;
    return BudgetDecision{};
  }
  double EpsilonSpent() const override { return 0.0; }
  std::string SaveBlob() const override { return {}; }
  Status RestoreBlob(const std::string& blob, int64_t step) override {
    (void)step;
    if (!blob.empty()) {
      return InvalidArgumentError(
          "checkpoint payload disagrees with the non-private trainer");
    }
    return Status::Ok();
  }
};

/// The non-private "server": checkpoint surface for the lazy sparse Adam
/// that the whole-round updater drives directly. Apply is a no-op — the
/// updater already folded every batch into the model.
class SparseAdamServer final : public ServerOptimizer {
 public:
  explicit SparseAdamServer(const optim::AdamConfig& config)
      : config_(config) {}

  Status Prepare(const sgns::SgnsModel& model) override {
    adam_.emplace(model, config_);
    return Status::Ok();
  }
  void Apply(const sgns::DenseUpdate& update,
             sgns::SgnsModel& model) override {
    (void)update;
    (void)model;
  }
  const char* name() const override { return "sparse_adam"; }
  void SaveState(ByteWriter& writer) const override {
    adam_->SaveState(writer);
  }
  Status LoadState(ByteReader& reader,
                   const sgns::SgnsModel& model) override {
    return adam_->LoadState(reader, model);
  }

  optim::SparseAdam* adam() { return &*adam_; }

 private:
  optim::AdamConfig config_;
  std::optional<optim::SparseAdam> adam_;
};

/// The whole non-private epoch as one round: subsample/regenerate pairs,
/// shuffle, per-batch sparse-Adam descent. Owns the main RNG stream for
/// the round; the engine draws no seeds in whole-round mode.
class EpochSgdUpdater final : public LocalUpdater {
 public:
  EpochSgdUpdater(const core::NonPrivateConfig& config,
                  SparseAdamServer* server)
      : config_(config),
        server_(server),
        gradient_(config.sgns.embedding_dim) {}

  bool BucketParallel() const override { return false; }

  Status Prepare(const data::CorpusView& corpus,
                 const sgns::SgnsModel& model, Rng& rng) override {
    (void)model;
    // One corpus scan feeds both the subsampling keep probabilities and
    // the unigram negative-sampling table (when either is enabled).
    const bool wants_unigram = config_.sgns.negative_sampling ==
                               sgns::NegativeSamplingKind::kUnigram;
    std::vector<int64_t> counts;
    if (wants_unigram || config_.subsample_threshold > 0.0) {
      counts = data::CountTokenFrequencies(corpus);
    }
    if (wants_unigram) {
      negative_table_.emplace(counts, config_.sgns.unigram_power);
    }
    // Per-token keep probabilities for word2vec-style subsampling of
    // frequent locations (non-private only; see the config comment).
    keep_probability_.clear();
    if (config_.subsample_threshold > 0.0) {
      int64_t total = 0;
      for (const int64_t c : counts) total += c;
      keep_probability_.resize(counts.size(), 1.0);
      for (size_t l = 0; l < counts.size(); ++l) {
        if (counts[l] == 0) continue;
        const double f =
            static_cast<double>(counts[l]) / static_cast<double>(total);
        const double ratio = config_.subsample_threshold / f;
        keep_probability_[l] = std::min(1.0, std::sqrt(ratio) + ratio);
      }
    }
    // Without subsampling the pair set is static: build it once (consuming
    // no randomness) and let every epoch shuffle a pristine-order copy.
    // With subsampling, every epoch builds a fresh pristine-order
    // subsample. Either way an epoch depends only on the RNG position at
    // its start, which is what lets a resumed run replay the remaining
    // epochs bit-identically.
    pristine_pairs_.clear();
    if (keep_probability_.empty()) {
      pristine_pairs_ = BuildPairs(corpus, rng);
      if (pristine_pairs_.empty()) {
        return InvalidArgumentError(
            "corpus produced no training pairs (sentences shorter than 2?)");
      }
    }
    return Status::Ok();
  }

  Result<double> WholeRound(const data::CorpusView& corpus,
                            sgns::SgnsModel& model, Rng& rng) override {
    all_pairs_ =
        keep_probability_.empty() ? pristine_pairs_ : BuildPairs(corpus, rng);
    rng.Shuffle(all_pairs_);
    double loss_sum = 0.0;
    int64_t pairs = 0;
    for (size_t start = 0; start < all_pairs_.size();
         start += static_cast<size_t>(config_.batch_size)) {
      const size_t end =
          std::min(all_pairs_.size(),
                   start + static_cast<size_t>(config_.batch_size));
      const std::span<const sgns::Pair> batch(all_pairs_.data() + start,
                                              end - start);
      // One gradient and one set of pair buffers serve every batch; a
      // Clear()ed map iterates exactly like a fresh one, so reuse only
      // drops the per-batch allocations.
      gradient_.Clear();
      const sgns::BatchStats stats = sgns::AccumulateBatchGradient(
          model, batch, config_.sgns, corpus.NumLocations(), rng, gradient_,
          &buffers_,
          negative_table_.has_value() ? &*negative_table_ : nullptr);
      server_->adam()->ApplyGradient(
          gradient_, 1.0 / static_cast<double>(batch.size()), model);
      loss_sum += stats.loss_sum;
      pairs += stats.num_pairs;
    }
    return pairs == 0 ? 0.0 : loss_sum / static_cast<double>(pairs);
  }

 private:
  std::vector<sgns::Pair> BuildPairs(const data::CorpusView& corpus,
                                     Rng& pair_rng) const {
    std::vector<sgns::Pair> pairs;
    std::vector<std::span<const int32_t>> sentences;
    std::vector<int32_t> filtered;
    for (int32_t u = 0; u < corpus.NumUsers(); ++u) {
      sentences.clear();
      corpus.AppendUserSentences(u, sentences);
      for (const auto& s : sentences) {
        std::span<const int32_t> sentence = s;
        if (!keep_probability_.empty()) {
          filtered.clear();
          for (int32_t token : s) {
            if (pair_rng.Bernoulli(
                    keep_probability_[static_cast<size_t>(token)])) {
              filtered.push_back(token);
            }
          }
          sentence = filtered;
        }
        std::vector<sgns::Pair> p =
            sgns::GeneratePairs(sentence, config_.sgns.window);
        pairs.insert(pairs.end(), p.begin(), p.end());
      }
    }
    return pairs;
  }

  core::NonPrivateConfig config_;
  SparseAdamServer* server_;  ///< owned by the same StageSet
  std::optional<sgns::UnigramTable> negative_table_;
  std::vector<double> keep_probability_;
  std::vector<sgns::Pair> pristine_pairs_;
  std::vector<sgns::Pair> all_pairs_;
  sgns::SparseDelta gradient_;  ///< batch gradient, Clear()ed per batch
  sgns::PairBuffers buffers_;   ///< candidate/logit scratch
};

}  // namespace

std::unique_ptr<Accountant> MakeAccountant(const core::PlpConfig& config) {
  if (config.accountant == "rdp") {
    return std::make_unique<LedgerAccountant>(config);
  }
  PLP_CHECK(config.accountant == "mog" || config.accountant == "pld_fft");
  return std::make_unique<MogStageAccountant>(config);
}

StageSet MakePrivateStages(const core::PlpConfig& config) {
  StageSet stages;
  if (config.sampling_scheme == core::SamplingScheme::kFixedBatch) {
    stages.sampler =
        std::make_unique<FixedBatchSampler>(config.sampling_probability);
  } else {
    stages.sampler =
        std::make_unique<PoissonSampler>(config.sampling_probability);
  }
  stages.grouper = std::make_unique<ConfiguredGrouper>(config);
  stages.updater = std::make_unique<BucketSgdUpdater>(config);
  stages.clipper = std::make_unique<PerTensorClipper>(config.clip_norm);
  stages.aggregator = std::make_unique<GaussianAggregator>(config);
  stages.accountant = MakeAccountant(config);
  stages.server = std::make_unique<OptimServerAdapter>(
      optim::MakeServerOptimizer(config.server_optimizer, config.adam));
  return stages;
}

EngineConfig MakePrivateEngineConfig(const core::PlpConfig& config) {
  EngineConfig engine;
  engine.sgns = config.sgns;
  engine.max_steps = config.max_steps;
  engine.num_threads = config.num_threads;
  engine.kind = ckpt::TrainerKind::kPrivate;
  engine.policy.scheme = config.sampling_scheme;
  engine.policy.sampling_ratio = config.sampling_probability;
  engine.policy.split_factor = config.split_factor;
  engine.policy.enforce_split_bound = true;
  engine.policy.noise_multiplier_at = [config](int64_t step) {
    return core::EffectiveNoiseMultiplier(config, step);
  };
  return engine;
}

StageSet MakeNonPrivateStages(const core::NonPrivateConfig& config) {
  StageSet stages;
  auto server = std::make_unique<SparseAdamServer>(config.adam);
  stages.updater = std::make_unique<EpochSgdUpdater>(config, server.get());
  stages.server = std::move(server);
  stages.sampler = std::make_unique<NullSampler>();
  stages.grouper = std::make_unique<NullGrouper>();
  stages.clipper = std::make_unique<IdentityClipper>();
  stages.aggregator = std::make_unique<ZeroNoiseAggregator>();
  stages.accountant = std::make_unique<NullAccountant>();
  return stages;
}

EngineConfig MakeNonPrivateEngineConfig(const core::NonPrivateConfig& config) {
  EngineConfig engine;
  engine.sgns = config.sgns;
  engine.max_steps = config.epochs;
  engine.num_threads = 1;
  engine.kind = ckpt::TrainerKind::kNonPrivate;
  return engine;
}

std::string DescribeStages(const core::PlpConfig& config) {
  const auto grouping_name = [&] {
    return config.grouping == core::GroupingKind::kRandom ? "random"
                                                          : "equal_frequency";
  };
  const auto updater_name = [&] {
    return config.local_update == core::LocalUpdateMode::kMultiBatchSgd
               ? "multi_batch_sgd"
               : "single_gradient";
  };
  std::string out;
  out += "pipeline stages (Algorithm 1):\n";
  out += "  UserSampler      " +
         std::string(core::SamplingSchemeName(config.sampling_scheme)) +
         "(q=" + std::to_string(config.sampling_probability) + ")\n";
  out += "  Grouper          " + std::string(grouping_name()) +
         "(lambda=" + std::to_string(config.grouping_factor) +
         ", omega=" + std::to_string(config.split_factor) + ")\n";
  out += "  LocalUpdater     " + std::string(updater_name()) +
         "(batch=" + std::to_string(config.batch_size) +
         ", eta=" + std::to_string(config.local_learning_rate) +
         ", local_epochs=" + std::to_string(config.local_epochs) + ")\n";
  out += "  NegativeSampler  ";
  out += config.sgns.negative_sampling == sgns::NegativeSamplingKind::kUnigram
             ? "unigram(power=" + std::to_string(config.sgns.unigram_power) +
                   ", non-private)"
             : "uniform";
  out += "\n";
  out += "  DeltaClipper     per_tensor(C=" + std::to_string(config.clip_norm) + ")\n";
  out += "  NoisyAggregator  gaussian(sigma=" + std::to_string(config.noise_scale) +
         (config.noise_scale_final > 0.0
              ? "->" + std::to_string(config.noise_scale_final)
              : "") +
         ", " + (config.fixed_denominator ? "fixed" : "realized") +
         "_denominator" + (config.per_tensor_noise ? ", per_tensor" : "") +
         ")\n";
  out += "  Accountant       " + config.accountant +
         "(delta=" + std::to_string(config.delta) +
         ", budget=" + std::to_string(config.epsilon_budget) + ")\n";
  out += "  ServerOptimizer  " + config.server_optimizer + "\n";
  return out;
}

}  // namespace plp::pipeline
