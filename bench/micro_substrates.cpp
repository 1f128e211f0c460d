// Micro-benchmarks of the hot substrates (google-benchmark): RNG draws,
// RowMap vs std::unordered_map, skip-gram batch gradients, one whole
// bucket's local update, the local overlay vs dense model copy,
// subsampled-Gaussian RDP evaluation, and the synthetic generator.

#include <unordered_map>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/bucket_update.h"
#include "core/config.h"
#include "core/grouping.h"
#include "data/synthetic_generator.h"
#include "privacy/rdp_accountant.h"
#include "sgns/local_model.h"
#include "sgns/loss.h"
#include "sgns/model.h"
#include "sgns/pairs.h"
#include "sgns/row_map.h"
#include "sgns/train_scratch.h"

namespace plp {
namespace {

void BM_RngGaussian(benchmark::State& state) {
  Rng rng(1);
  double sink = 0.0;
  for (auto _ : state) sink += rng.Gaussian();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngGaussian);

void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(1);
  uint64_t sink = 0;
  for (auto _ : state) sink += rng.UniformInt(uint64_t{5069});
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngUniformInt);

// The libm exp/sigmoid calls the bounded LUTs replaced on the SGNS hot
// path, benchmarked against the tables over the same argument stream.
void BM_SigmoidLibm(benchmark::State& state) {
  Rng rng(11);
  double sink = 0.0;
  for (auto _ : state) {
    sink += SigmoidReference(rng.Uniform(-10.0, 10.0));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SigmoidLibm);

void BM_SigmoidLut(benchmark::State& state) {
  Rng rng(11);
  const SigmoidLut& lut = SigmoidLut::Get();
  double sink = 0.0;
  for (auto _ : state) sink += lut(rng.Uniform(-10.0, 10.0));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SigmoidLut);

void BM_ExpNegLibm(benchmark::State& state) {
  Rng rng(12);
  double sink = 0.0;
  for (auto _ : state) sink += ExpNegReference(rng.Uniform(-20.0, 0.0));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ExpNegLibm);

void BM_ExpNegLut(benchmark::State& state) {
  Rng rng(12);
  const ExpNegLut& lut = ExpNegLut::Get();
  double sink = 0.0;
  for (auto _ : state) sink += lut(rng.Uniform(-20.0, 0.0));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ExpNegLut);

void BM_DotKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(14);
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(-1.0, 1.0);
    b[i] = rng.Uniform(-1.0, 1.0);
  }
  double sink = 0.0;
  for (auto _ : state) sink += DotKernel(a.data(), b.data(), n);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DotKernel)->Arg(50)->Arg(512);

void BM_DotKernelPortable(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(14);
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(-1.0, 1.0);
    b[i] = rng.Uniform(-1.0, 1.0);
  }
  double sink = 0.0;
  for (auto _ : state) sink += DotKernelPortable(a.data(), b.data(), n);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DotKernelPortable)->Arg(50)->Arg(512);

// Quantized serving-scan kernel: one fp16 snapshot row against a float32
// profile. Dispatched (F16C/AVX2 when present) vs portable, same lengths
// as the float kernels so the per-element costs line up.
void BM_DotF16Kernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(14);
  std::vector<uint16_t> a(n);
  std::vector<float> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = FloatToHalf(static_cast<float>(rng.Uniform(-1.0, 1.0)));
    b[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  // DoNotOptimize inside the loop: these kernels are inline header
  // functions, and a sink consumed only after the loop lets the compiler
  // hoist the whole call out of it (measured: a bogus ~2 ns flatline).
  for (auto _ : state) {
    float sink = DotF16Kernel(a.data(), b.data(), n);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DotF16Kernel)->Arg(50)->Arg(512);

void BM_DotF16KernelPortable(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(14);
  std::vector<uint16_t> a(n);
  std::vector<float> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = FloatToHalf(static_cast<float>(rng.Uniform(-1.0, 1.0)));
    b[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  // DoNotOptimize inside the loop: these kernels are inline header
  // functions, and a sink consumed only after the loop lets the compiler
  // hoist the whole call out of it (measured: a bogus ~2 ns flatline).
  for (auto _ : state) {
    float sink = DotF16KernelPortable(a.data(), b.data(), n);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DotF16KernelPortable)->Arg(50)->Arg(512);

void BM_AxpyKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(15);
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-1.0, 1.0);
    y[i] = rng.Uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    AxpyKernel(1e-9, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AxpyKernel)->Arg(50)->Arg(512);

void BM_SubKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(13);
  std::vector<double> a(n), b(n), out(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(-1.0, 1.0);
    b[i] = rng.Uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    SubKernel(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SubKernel)->Arg(50)->Arg(512);

void BM_RowMapAccumulate(benchmark::State& state) {
  const int64_t keys = state.range(0);
  Rng rng(2);
  sgns::RowMap map(50);
  for (auto _ : state) {
    const int32_t key =
        static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(keys)));
    map.FindOrInsertZero(key)[0] += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowMapAccumulate)->Arg(64)->Arg(1024)->Arg(8192);

void BM_UnorderedMapAccumulate(benchmark::State& state) {
  const int64_t keys = state.range(0);
  Rng rng(2);
  std::unordered_map<int32_t, std::vector<double>> map;
  for (auto _ : state) {
    const int32_t key =
        static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(keys)));
    auto [it, inserted] = map.try_emplace(key);
    if (inserted) it->second.assign(50, 0.0);
    it->second[0] += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapAccumulate)->Arg(64)->Arg(1024)->Arg(8192);

sgns::SgnsModel BenchModel(int32_t locations) {
  Rng rng(3);
  sgns::SgnsConfig config;
  auto model = sgns::SgnsModel::Create(locations, config, rng);
  return std::move(model).value();
}

void BM_SgnsBatchGradient(benchmark::State& state) {
  const int32_t locations = 5069;
  const sgns::SgnsModel model = BenchModel(locations);
  sgns::SgnsConfig config;
  Rng rng(4);
  std::vector<sgns::Pair> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back(sgns::Pair{
        static_cast<int32_t>(rng.UniformInt(uint64_t{5069})),
        static_cast<int32_t>(rng.UniformInt(uint64_t{5069}))});
  }
  // The trainer reuses one gradient and one set of pair buffers across
  // batches, so the bench does too: it times the gradient, not allocation.
  sgns::SparseDelta gradient(config.embedding_dim);
  sgns::PairBuffers buffers;
  for (auto _ : state) {
    gradient.Clear();
    benchmark::DoNotOptimize(sgns::AccumulateBatchGradient(
        model, batch, config, locations, rng, gradient, &buffers));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_SgnsBatchGradient);

// One paper-shaped bucket (L = 5069, d = 50, λ = 4 users, 600 tokens)
// through Algorithm 1's local update (lines 15–20) with the per-worker
// scratch and delta slot reused, as in the trainer's steady state. Every
// iteration replays the same RNG stream, so each times identical work.
void BM_BucketLocalUpdate(benchmark::State& state) {
  const int32_t locations = 5069;
  const sgns::SgnsModel model = BenchModel(locations);
  core::PlpConfig config;
  Rng data_rng(7);
  core::Bucket bucket;
  for (int32_t user = 0; user < 4; ++user) {
    bucket.users.push_back(user);
    // Sentences revisit a neighbourhood of locations, as check-in
    // sessions do, so rows repeat within and across batches.
    for (int s = 0; s < 15; ++s) {
      const int32_t base = static_cast<int32_t>(
          data_rng.UniformInt(static_cast<uint64_t>(locations - 40)));
      std::vector<int32_t> sentence;
      for (int t = 0; t < 10; ++t) {
        sentence.push_back(
            base + static_cast<int32_t>(data_rng.UniformInt(uint64_t{40})));
      }
      bucket.sentences.push_back(std::move(sentence));
    }
  }
  sgns::TrainScratch scratch(config.sgns.embedding_dim);
  sgns::SparseDelta delta(config.sgns.embedding_dim);
  double loss = 0.0;
  for (auto _ : state) {
    Rng rng(8);
    core::ComputeRawBucketDeltaInto(model, bucket, config, locations, rng,
                                    &loss, &scratch, delta);
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations() * bucket.num_tokens());
}
BENCHMARK(BM_BucketLocalUpdate)->Unit(benchmark::kMillisecond);

// 256 copy-on-write row touches on the local overlay plus the delta
// extraction, with the overlay and the delta reused across iterations
// (Reset / ExtractDeltaInto), as the trainer reuses them per worker.
void BM_LocalOverlayTouch(benchmark::State& state) {
  const sgns::SgnsModel model = BenchModel(5069);
  Rng rng(5);
  sgns::LocalModel local(model);
  sgns::SparseDelta delta(model.dim());
  for (auto _ : state) {
    local.Reset(model);
    for (int i = 0; i < 256; ++i) {
      local.MutableInRow(
          static_cast<int32_t>(rng.UniformInt(uint64_t{5069})))[0] += 0.1;
    }
    local.ExtractDeltaInto(delta);
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_LocalOverlayTouch);

void BM_DenseModelCopy(benchmark::State& state) {
  const sgns::SgnsModel model = BenchModel(5069);
  for (auto _ : state) {
    sgns::SgnsModel copy = model;  // the per-bucket cost of line 16
    benchmark::DoNotOptimize(copy.bias(0));
  }
}
BENCHMARK(BM_DenseModelCopy);

void BM_SubsampledGaussianRdpStep(benchmark::State& state) {
  privacy::RdpAccountant accountant;
  for (auto _ : state) {
    benchmark::DoNotOptimize(accountant.StepRdp(0.06, 2.5));
  }
}
BENCHMARK(BM_SubsampledGaussianRdpStep);

void BM_SyntheticGenerator(benchmark::State& state) {
  data::SyntheticConfig config = data::SmallSyntheticConfig();
  config.num_users = 200;
  config.num_locations = 200;
  for (auto _ : state) {
    Rng rng(6);
    auto dataset = data::GenerateSyntheticCheckIns(config, rng);
    benchmark::DoNotOptimize(dataset->num_checkins());
  }
}
BENCHMARK(BM_SyntheticGenerator);

}  // namespace
}  // namespace plp

BENCHMARK_MAIN();
