#include "traced_stages.h"

#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "sgns/model.h"
#include "sgns/sparse_delta.h"

namespace perfbench {

using plp::pipeline::Accountant;
using plp::pipeline::AggregateContext;
using plp::pipeline::BudgetDecision;
using plp::pipeline::DeltaClipper;
using plp::pipeline::Grouper;
using plp::pipeline::LocalUpdater;
using plp::pipeline::NoisyAggregator;
using plp::pipeline::RoundRecord;
using plp::pipeline::ServerOptimizer;
using plp::pipeline::StageSet;
using plp::pipeline::UserSampler;

int32_t TrainTrace::BucketIndex(const plp::core::Bucket& bucket) const {
  const plp::core::Bucket* base = buckets.load(std::memory_order_relaxed);
  const size_t n = num_buckets.load(std::memory_order_relaxed);
  if (base == nullptr || &bucket < base || &bucket >= base + n) return -1;
  return static_cast<int32_t>(&bucket - base);
}

void TrainTrace::Record(const char* name, int64_t start_ns, int64_t count,
                        int32_t bucket) {
  Span span;
  span.name = name;
  span.step = step.load(std::memory_order_relaxed);
  span.bucket = bucket;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  span.count = count;
  tracer.Record(span);
}

void TracedCorpus::AppendUserSentences(
    int32_t user, std::vector<std::span<const int32_t>>& out) const {
  const size_t before = out.size();
  const int64_t start = NowNs();
  inner_.AppendUserSentences(user, out);
  int64_t tokens = 0;
  for (size_t i = before; i < out.size(); ++i) {
    tokens += static_cast<int64_t>(out[i].size());
  }
  trace_.Record("data.read", start, tokens);
}

namespace {

// The bucket a worker is processing, so the Clip that follows its
// ComputeDelta on the same thread can carry the bucket index.
thread_local int32_t current_bucket = -1;

class TracedSampler : public UserSampler {
 public:
  TracedSampler(std::unique_ptr<UserSampler> inner, TrainTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  std::vector<int32_t> Sample(const plp::data::CorpusView& corpus,
                              plp::Rng& rng) override {
    const int64_t start = NowNs();
    std::vector<int32_t> sampled = inner_->Sample(corpus, rng);
    trace_.Record("core.sample", start, static_cast<int64_t>(sampled.size()));
    return sampled;
  }

 private:
  std::unique_ptr<UserSampler> inner_;
  TrainTrace& trace_;
};

class TracedGrouper : public Grouper {
 public:
  TracedGrouper(std::unique_ptr<Grouper> inner, TrainTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  std::vector<plp::core::Bucket> Group(const plp::data::CorpusView& corpus,
                                       const std::vector<int32_t>& sampled,
                                       plp::Rng& rng) override {
    const int64_t start = NowNs();
    std::vector<plp::core::Bucket> buckets =
        inner_->Group(corpus, sampled, rng);
    // The engine keeps the returned vector for the rest of the step, so
    // its element storage identifies the bucket each ComputeDelta gets.
    trace_.buckets.store(buckets.data(), std::memory_order_relaxed);
    trace_.num_buckets.store(buckets.size(), std::memory_order_relaxed);
    trace_.Record("core.group", start, static_cast<int64_t>(buckets.size()));
    return buckets;
  }

 private:
  std::unique_ptr<Grouper> inner_;
  TrainTrace& trace_;
};

class TracedUpdater : public LocalUpdater {
 public:
  TracedUpdater(std::unique_ptr<LocalUpdater> inner, TrainTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  plp::Status Prepare(const plp::data::CorpusView& corpus,
                      const plp::sgns::SgnsModel& model,
                      plp::Rng& rng) override {
    return inner_->Prepare(corpus, model, rng);
  }
  bool BucketParallel() const override { return inner_->BucketParallel(); }
  void ComputeDelta(const plp::sgns::SgnsModel& theta,
                    const plp::core::Bucket& bucket, int32_t num_locations,
                    plp::Rng& bucket_rng, double* loss_out,
                    plp::sgns::TrainScratch* scratch,
                    plp::sgns::SparseDelta& delta) override {
    current_bucket = trace_.BucketIndex(bucket);
    const int64_t start = NowNs();
    inner_->ComputeDelta(theta, bucket, num_locations, bucket_rng, loss_out,
                         scratch, delta);
    trace_.Record("sgns.local_update", start, bucket.num_tokens(),
                  current_bucket);
  }
  plp::Result<double> WholeRound(const plp::data::CorpusView& corpus,
                                 plp::sgns::SgnsModel& model,
                                 plp::Rng& rng) override {
    return inner_->WholeRound(corpus, model, rng);
  }

 private:
  std::unique_ptr<LocalUpdater> inner_;
  TrainTrace& trace_;
};

class TracedClipper : public DeltaClipper {
 public:
  TracedClipper(std::unique_ptr<DeltaClipper> inner, TrainTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  bool Clip(plp::sgns::SparseDelta& delta) const override {
    const int64_t start = NowNs();
    const bool engaged = inner_->Clip(delta);
    trace_.Record("sgns.clip", start, engaged ? 1 : 0, current_bucket);
    return engaged;
  }

 private:
  std::unique_ptr<DeltaClipper> inner_;
  TrainTrace& trace_;
};

class TracedAggregator : public NoisyAggregator {
 public:
  TracedAggregator(std::unique_ptr<NoisyAggregator> inner, TrainTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  void Prepare(const plp::data::CorpusView& corpus) override {
    inner_->Prepare(corpus);
  }
  void Reduce(std::span<const plp::sgns::SparseDelta* const> deltas,
              plp::sgns::DenseUpdate& sum, plp::ThreadPool* pool) override {
    int64_t entries = 0;
    for (const plp::sgns::SparseDelta* delta : deltas) {
      entries += static_cast<int64_t>(delta->NumTouchedEntries());
    }
    const int64_t start = NowNs();
    inner_->Reduce(deltas, sum, pool);
    trace_.Record("pipeline.reduce", start, entries);
  }
  void NoiseAndAverage(const AggregateContext& ctx,
                       plp::sgns::DenseUpdate& sum) override {
    const int64_t coords =
        2 * static_cast<int64_t>(sum.num_locations()) * sum.dim() +
        sum.num_locations();
    const int64_t start = NowNs();
    inner_->NoiseAndAverage(ctx, sum);
    trace_.Record("pipeline.noise", start, coords);
  }

 private:
  std::unique_ptr<NoisyAggregator> inner_;
  TrainTrace& trace_;
};

class TracedAccountant : public Accountant {
 public:
  TracedAccountant(std::unique_ptr<Accountant> inner, TrainTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  plp::Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    // TrackRound opens every engine step: publish the step id first so
    // this span and every later one of the step carry it.
    trace_.step.store(round.step, std::memory_order_relaxed);
    const int64_t start = NowNs();
    plp::Result<BudgetDecision> decision = inner_->TrackRound(round);
    trace_.Record("privacy.track_round", start, 1);
    return decision;
  }
  plp::Result<BudgetDecision> TrackRounds(const RoundRecord& first,
                                          int64_t count) override {
    return inner_->TrackRounds(first, count);
  }
  double EpsilonSpent() const override { return inner_->EpsilonSpent(); }
  std::string SaveBlob() const override { return inner_->SaveBlob(); }
  plp::Status RestoreBlob(const std::string& blob, int64_t step) override {
    return inner_->RestoreBlob(blob, step);
  }

 private:
  std::unique_ptr<Accountant> inner_;
  TrainTrace& trace_;
};

class TracedServer : public ServerOptimizer {
 public:
  TracedServer(std::unique_ptr<ServerOptimizer> inner, TrainTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  plp::Status Prepare(const plp::sgns::SgnsModel& model) override {
    return inner_->Prepare(model);
  }
  void Apply(const plp::sgns::DenseUpdate& update,
             plp::sgns::SgnsModel& model) override {
    const int64_t start = NowNs();
    inner_->Apply(update, model);
    trace_.Record("optim.apply", start, model.num_parameters());
  }
  const char* name() const override { return inner_->name(); }
  void SaveState(plp::ByteWriter& writer) const override {
    inner_->SaveState(writer);
  }
  plp::Status LoadState(plp::ByteReader& reader,
                        const plp::sgns::SgnsModel& model) override {
    return inner_->LoadState(reader, model);
  }

 private:
  std::unique_ptr<ServerOptimizer> inner_;
  TrainTrace& trace_;
};

class DelayedAggregator : public NoisyAggregator {
 public:
  DelayedAggregator(std::unique_ptr<NoisyAggregator> inner,
                    std::chrono::milliseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}
  void Prepare(const plp::data::CorpusView& corpus) override {
    inner_->Prepare(corpus);
  }
  void Reduce(std::span<const plp::sgns::SparseDelta* const> deltas,
              plp::sgns::DenseUpdate& sum, plp::ThreadPool* pool) override {
    inner_->Reduce(deltas, sum, pool);
  }
  void NoiseAndAverage(const AggregateContext& ctx,
                       plp::sgns::DenseUpdate& sum) override {
    std::this_thread::sleep_for(delay_);
    inner_->NoiseAndAverage(ctx, sum);
  }

 private:
  std::unique_ptr<NoisyAggregator> inner_;
  std::chrono::milliseconds delay_;
};

}  // namespace

StageSet TraceStages(StageSet stages, TrainTrace& trace) {
  StageSet traced;
  traced.sampler =
      std::make_unique<TracedSampler>(std::move(stages.sampler), trace);
  traced.grouper =
      std::make_unique<TracedGrouper>(std::move(stages.grouper), trace);
  traced.updater =
      std::make_unique<TracedUpdater>(std::move(stages.updater), trace);
  traced.clipper =
      std::make_unique<TracedClipper>(std::move(stages.clipper), trace);
  traced.aggregator =
      std::make_unique<TracedAggregator>(std::move(stages.aggregator), trace);
  traced.accountant =
      std::make_unique<TracedAccountant>(std::move(stages.accountant), trace);
  traced.server =
      std::make_unique<TracedServer>(std::move(stages.server), trace);
  return traced;
}

StageSet DelayNoiseStage(StageSet stages, std::chrono::milliseconds delay) {
  stages.aggregator = std::make_unique<DelayedAggregator>(
      std::move(stages.aggregator), delay);
  return stages;
}

}  // namespace perfbench
