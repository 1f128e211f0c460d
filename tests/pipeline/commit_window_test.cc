// The engine's in-order commit window: bucket deltas are folded into the
// step's sum in bucket order as they finish, through a fixed number of
// reusable delta slots (two per pool worker, one on the sequential path).
//
//   * Out-of-order completion does not change the result: with a stage
//     that makes low-index buckets finish last, the model CRC-64 and the ε
//     trajectory at 1, 2, 4 and 8 threads equal the plain serial run's.
//   * Residency is bounded: the clipper sees at most as many distinct
//     SparseDelta slots over the whole run as the window has.
//   * Every step makes at least one Reduce call: exactly one for a step
//     with zero buckets (empty span) or one bucket, one per bucket
//     otherwise.
//
// The stages are wrapped in decorators, so this needs no engine API.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/plp_trainer.h"
#include "data/fixtures.h"
#include "golden/golden_variants.h"
#include "pipeline/engine.h"
#include "pipeline/standard_stages.h"

namespace plp::pipeline {
namespace {

enum class Delay { kNone, kFirstBucket, kEvenBuckets };

/// What the decorators observed over one run.
struct Probe {
  // Written on the main thread (Group), read by workers after the pool
  // hands them a bucket.
  const core::Bucket* buckets = nullptr;
  size_t num_buckets = 0;

  std::mutex mu;
  std::set<const sgns::SparseDelta*> slots;  // seen by the clipper
  std::vector<size_t> finish_order;          // bucket indices, this step
  bool out_of_order = false;                 // in any step
  std::vector<size_t> span_sizes;            // Reduce calls, this step

  int32_t BucketIndex(const core::Bucket& bucket) const {
    if (buckets == nullptr || &bucket < buckets ||
        &bucket >= buckets + num_buckets) {
      return -1;
    }
    return static_cast<int32_t>(&bucket - buckets);
  }
};

// The bucket whose delta the calling worker is computing, so the Clip that
// follows ComputeDelta on the same thread can name it.
thread_local int32_t current_bucket = -1;

class ProbeGrouper : public Grouper {
 public:
  ProbeGrouper(std::unique_ptr<Grouper> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}
  std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                  const std::vector<int32_t>& sampled,
                                  Rng& rng) override {
    std::vector<core::Bucket> buckets = inner_->Group(corpus, sampled, rng);
    // The engine keeps the returned vector for the rest of the step, so
    // its storage identifies the bucket each ComputeDelta gets.
    probe_.buckets = buckets.data();
    probe_.num_buckets = buckets.size();
    return buckets;
  }

 private:
  std::unique_ptr<Grouper> inner_;
  Probe& probe_;
};

/// Yields no bucket at all, or every sampled user's data in one bucket.
class FixedCountGrouper : public Grouper {
 public:
  explicit FixedCountGrouper(size_t count) : count_(count) {}
  std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                  const std::vector<int32_t>& sampled,
                                  Rng&) override {
    std::vector<core::Bucket> buckets(count_);
    if (count_ == 0) return buckets;
    std::vector<std::span<const int32_t>> sentences;
    for (int32_t user : sampled) {
      buckets[0].users.push_back(user);
      sentences.clear();
      corpus.AppendUserSentences(user, sentences);
      for (const auto& sentence : sentences) {
        buckets[0].sentences.emplace_back(sentence.begin(), sentence.end());
      }
    }
    return buckets;
  }

 private:
  size_t count_;
};

class DelayingUpdater : public LocalUpdater {
 public:
  DelayingUpdater(std::unique_ptr<LocalUpdater> inner, Probe& probe,
                  Delay delay)
      : inner_(std::move(inner)), probe_(probe), delay_(delay) {}
  Status Prepare(const data::CorpusView& corpus, const sgns::SgnsModel& model,
                 Rng& rng) override {
    return inner_->Prepare(corpus, model, rng);
  }
  bool BucketParallel() const override { return inner_->BucketParallel(); }
  void ComputeDelta(const sgns::SgnsModel& theta, const core::Bucket& bucket,
                    int32_t num_locations, Rng& bucket_rng, double* loss_out,
                    sgns::TrainScratch* scratch,
                    sgns::SparseDelta& delta) override {
    current_bucket = probe_.BucketIndex(bucket);
    const bool sleep =
        (delay_ == Delay::kFirstBucket && current_bucket == 0) ||
        (delay_ == Delay::kEvenBuckets && current_bucket % 2 == 0);
    if (sleep) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    inner_->ComputeDelta(theta, bucket, num_locations, bucket_rng, loss_out,
                         scratch, delta);
  }

 private:
  std::unique_ptr<LocalUpdater> inner_;
  Probe& probe_;
  Delay delay_;
};

class ProbeClipper : public DeltaClipper {
 public:
  ProbeClipper(std::unique_ptr<DeltaClipper> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}
  bool Clip(sgns::SparseDelta& delta) const override {
    const bool engaged = inner_->Clip(delta);
    std::lock_guard<std::mutex> lock(probe_.mu);
    probe_.slots.insert(&delta);
    probe_.finish_order.push_back(static_cast<size_t>(current_bucket));
    return engaged;
  }

 private:
  std::unique_ptr<DeltaClipper> inner_;
  Probe& probe_;
};

class ProbeAggregator : public NoisyAggregator {
 public:
  ProbeAggregator(std::unique_ptr<NoisyAggregator> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}
  void Prepare(const data::CorpusView& corpus) override {
    inner_->Prepare(corpus);
  }
  void Reduce(std::span<const sgns::SparseDelta* const> deltas,
              sgns::DenseUpdate& sum, ThreadPool* pool) override {
    EXPECT_EQ(pool, nullptr);
    {
      std::lock_guard<std::mutex> lock(probe_.mu);
      probe_.span_sizes.push_back(deltas.size());
    }
    inner_->Reduce(deltas, sum, pool);
  }
  void NoiseAndAverage(const AggregateContext& ctx,
                       sgns::DenseUpdate& sum) override {
    inner_->NoiseAndAverage(ctx, sum);
  }

 private:
  std::unique_ptr<NoisyAggregator> inner_;
  Probe& probe_;
};

data::TrainingCorpus TestCorpus() {
  data::FixtureCorpusOptions options;
  options.num_users = 64;
  options.num_locations = 40;
  options.neighborhood = 4;
  return data::MakeFixtureCorpus(4242, options);
}

/// ~16 buckets per step: enough that 8 workers overrun a 16-slot window
/// only when a low bucket stalls, and 2 workers overrun a 4-slot one.
core::PlpConfig TestConfig(int32_t threads) {
  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.5;
  config.grouping_factor = 2;
  config.noise_scale = 1.2;
  config.clip_norm = 0.5;
  config.epsilon_budget = 1e9;
  config.batch_size = 8;
  config.max_steps = 4;
  config.num_threads = threads;
  return config;
}

/// The delta slots the engine's window holds at `threads`.
size_t WindowSlots(int32_t threads) {
  return threads > 1 ? 2 * static_cast<size_t>(threads) : 1;
}

struct RunOutput {
  uint64_t model_crc = 0;
  std::vector<double> epsilons;
  std::vector<int64_t> buckets_per_step;
  std::vector<std::vector<size_t>> reduce_spans_per_step;
};

/// Trains with the private stages wrapped in the probe decorators;
/// `grouper` replaces the configured grouper when set.
RunOutput RunProbed(const core::PlpConfig& config, Delay delay, Probe& probe,
                    std::unique_ptr<Grouper> grouper = nullptr) {
  StageSet stages = MakePrivateStages(config);
  if (grouper != nullptr) stages.grouper = std::move(grouper);
  stages.grouper =
      std::make_unique<ProbeGrouper>(std::move(stages.grouper), probe);
  stages.updater = std::make_unique<DelayingUpdater>(
      std::move(stages.updater), probe, delay);
  stages.clipper =
      std::make_unique<ProbeClipper>(std::move(stages.clipper), probe);
  stages.aggregator =
      std::make_unique<ProbeAggregator>(std::move(stages.aggregator), probe);

  RunOutput out;
  Rng rng(golden::kGoldenSeed);
  TrainingEngine engine(MakePrivateEngineConfig(config), std::move(stages));
  auto result = engine.Train(
      TestCorpus(), rng,
      [&](const core::StepMetrics& metrics, const sgns::SgnsModel&) {
        // Every worker of the step has finished by now.
        std::lock_guard<std::mutex> lock(probe.mu);
        out.epsilons.push_back(metrics.epsilon_spent);
        out.buckets_per_step.push_back(metrics.num_buckets);
        out.reduce_spans_per_step.push_back(probe.span_sizes);
        probe.span_sizes.clear();
        for (size_t i = 1; i < probe.finish_order.size(); ++i) {
          if (probe.finish_order[i] < probe.finish_order[i - 1]) {
            probe.out_of_order = true;
          }
        }
        probe.finish_order.clear();
        return true;
      },
      {});
  EXPECT_TRUE(result.ok()) << result.status().message();
  if (result.ok()) out.model_crc = golden::ModelCrc64(result->model);
  return out;
}

/// The plain serial run every windowed run must reproduce.
RunOutput SerialReference() {
  const core::PlpConfig config = TestConfig(1);
  Rng rng(golden::kGoldenSeed);
  RunOutput out;
  auto result = core::PlpTrainer(config).Train(
      TestCorpus(), rng,
      [&](const core::StepMetrics& metrics, const sgns::SgnsModel&) {
        out.epsilons.push_back(metrics.epsilon_spent);
        out.buckets_per_step.push_back(metrics.num_buckets);
        return true;
      });
  EXPECT_TRUE(result.ok()) << result.status().message();
  if (result.ok()) out.model_crc = golden::ModelCrc64(result->model);
  return out;
}

void ExpectWindowedRunMatchesSerial(Delay delay) {
  const RunOutput serial = SerialReference();
  ASSERT_EQ(serial.buckets_per_step.size(), 4u);
  for (int64_t n : serial.buckets_per_step) ASSERT_GT(n, 8);

  for (int32_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Probe probe;
    const RunOutput run = RunProbed(TestConfig(threads), delay, probe);
    EXPECT_EQ(run.model_crc, serial.model_crc);
    EXPECT_EQ(run.epsilons, serial.epsilons);
    EXPECT_EQ(run.buckets_per_step, serial.buckets_per_step);
    EXPECT_LE(probe.slots.size(), WindowSlots(threads));
    ASSERT_EQ(run.reduce_spans_per_step.size(),
              serial.buckets_per_step.size());
    for (size_t s = 0; s < run.reduce_spans_per_step.size(); ++s) {
      EXPECT_EQ(run.reduce_spans_per_step[s],
                std::vector<size_t>(
                    static_cast<size_t>(serial.buckets_per_step[s]), 1))
          << "step " << (s + 1);
    }
    // A stalled low bucket makes later ones finish first — otherwise the
    // window is never exercised out of order and the test shows nothing.
    if (threads > 1) {
      EXPECT_TRUE(probe.out_of_order);
    }
  }
}

TEST(CommitWindowTest, StalledFirstBucketMatchesSerialRun) {
  ExpectWindowedRunMatchesSerial(Delay::kFirstBucket);
}

TEST(CommitWindowTest, StalledEvenBucketsMatchSerialRun) {
  ExpectWindowedRunMatchesSerial(Delay::kEvenBuckets);
}

TEST(CommitWindowTest, StepWithoutOrWithOneBucketReducesOnce) {
  for (size_t count : {size_t{0}, size_t{1}}) {
    for (int32_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << count << " buckets, " << threads << " threads");
      Probe probe;
      const RunOutput run =
          RunProbed(TestConfig(threads), Delay::kNone, probe,
                    std::make_unique<FixedCountGrouper>(count));
      ASSERT_EQ(run.reduce_spans_per_step.size(), 4u);
      for (const std::vector<size_t>& spans : run.reduce_spans_per_step) {
        EXPECT_EQ(spans, std::vector<size_t>{count});
      }
      EXPECT_LE(probe.slots.size(), count);
    }
  }
}

}  // namespace
}  // namespace plp::pipeline
