#include "sgns/sparse_delta.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "common/parallel_ops.h"

namespace plp::sgns {

DenseUpdate::DenseUpdate(const SgnsModel& model)
    : num_locations_(model.num_locations()),
      dim_(model.dim()),
      w_in_(static_cast<size_t>(num_locations_) * dim_, 0.0),
      w_out_(static_cast<size_t>(num_locations_) * dim_, 0.0),
      bias_(static_cast<size_t>(num_locations_), 0.0) {}

std::span<double> DenseUpdate::TensorData(Tensor t) {
  switch (t) {
    case Tensor::kWIn:
      return w_in_;
    case Tensor::kWOut:
      return w_out_;
    case Tensor::kBias:
      return bias_;
  }
  PLP_CHECK(false);
  return {};
}

std::span<const double> DenseUpdate::TensorData(Tensor t) const {
  switch (t) {
    case Tensor::kWIn:
      return w_in_;
    case Tensor::kWOut:
      return w_out_;
    case Tensor::kBias:
      return bias_;
  }
  PLP_CHECK(false);
  return {};
}

void DenseUpdate::AddGaussianNoise(uint64_t noise_seed, double stddev,
                                   ThreadPool* pool) {
  for (int ti = 0; ti < kNumTensors; ++ti) {
    AddGaussianNoiseToTensor(static_cast<Tensor>(ti), noise_seed, stddev,
                             pool);
  }
}

void DenseUpdate::AddGaussianNoise(Rng& rng, double stddev) {
  rng.AddGaussianNoise(w_in_, stddev);
  rng.AddGaussianNoise(w_out_, stddev);
  rng.AddGaussianNoise(bias_, stddev);
}

void DenseUpdate::AddGaussianNoiseToTensor(Tensor t, uint64_t noise_seed,
                                           double stddev, ThreadPool* pool) {
  // One decorrelated stream lane per tensor: the per-tensor overload seeds
  // the same lane the all-tensor overload would, so the two compose.
  const uint64_t stream =
      DeriveStreamSeed(noise_seed, static_cast<uint64_t>(t));
  AddGaussianNoiseBlocks(TensorData(t), stream, stddev, pool);
}

void DenseUpdate::AddGaussianNoiseToTensor(Tensor t, Rng& rng,
                                           double stddev) {
  rng.AddGaussianNoise(TensorData(t), stddev);
}

void DenseUpdate::Zero(ThreadPool* pool) {
  ZeroBlocks(w_in_, pool);
  ZeroBlocks(w_out_, pool);
  ZeroBlocks(bias_, pool);
}

void DenseUpdate::Scale(double factor, ThreadPool* pool) {
  ScaleBlocks(w_in_, factor, pool);
  ScaleBlocks(w_out_, factor, pool);
  ScaleBlocks(bias_, factor, pool);
}

double DenseUpdate::Norm(ThreadPool* pool) const {
  const double s = SumSquaresBlocks(w_in_, pool) +
                   SumSquaresBlocks(w_out_, pool) +
                   SumSquaresBlocks(bias_, pool);
  return std::sqrt(s);
}

void DenseUpdate::ApplyTo(SgnsModel& model) const {
  PLP_CHECK_EQ(model.num_locations(), num_locations_);
  PLP_CHECK_EQ(model.dim(), dim_);
  // The update is stored unpadded while the model rows are padded, so the
  // W/W' tensors are applied row by row. Axpy is element-independent:
  // row-wise application is bitwise identical to one flat pass.
  const size_t dim = static_cast<size_t>(dim_);
  for (int32_t l = 0; l < num_locations_; ++l) {
    const size_t base = static_cast<size_t>(l) * dim;
    AxpyKernel(1.0, w_in_.data() + base, model.MutableInRow(l).data(), dim);
    AxpyKernel(1.0, w_out_.data() + base, model.MutableOutRow(l).data(), dim);
  }
  std::span<double> bias_dst = model.MutableTensorData(Tensor::kBias);
  AxpyKernel(1.0, bias_.data(), bias_dst.data(), bias_dst.size());
}

SparseDelta::SparseDelta(int32_t dim)
    : dim_(dim), in_rows_(dim), out_rows_(dim), bias_(1) {
  PLP_CHECK_GT(dim, 0);
}

RowMap& SparseDelta::StoreFor(Tensor t) {
  switch (t) {
    case Tensor::kWIn:
      return in_rows_;
    case Tensor::kWOut:
      return out_rows_;
    case Tensor::kBias:
      return bias_;
  }
  PLP_CHECK(false);
  return in_rows_;
}

const RowMap& SparseDelta::StoreFor(Tensor t) const {
  return const_cast<SparseDelta*>(this)->StoreFor(t);
}

double SparseDelta::TensorNorm(Tensor t) const {
  // One contiguous kernel pass over the store's arena prefix. Row padding
  // is exactly 0.0 (RowMap invariant), so including it adds only +0.0
  // terms; the 16-lane reduction spec keeps the result machine- and
  // thread-count-independent.
  const std::span<const double> flat = StoreFor(t).Flat();
  return std::sqrt(SumSquaresKernel(flat.data(), flat.size()));
}

double SparseDelta::TotalNorm() const {
  double s = 0.0;
  for (int ti = 0; ti < kNumTensors; ++ti) {
    const double n = TensorNorm(static_cast<Tensor>(ti));
    s += n * n;
  }
  return std::sqrt(s);
}

void SparseDelta::ScaleTensor(Tensor t, double factor) {
  StoreFor(t).ForEachMutable([&](int32_t, std::span<double> row) {
    for (double& v : row) v *= factor;
  });
}

void SparseDelta::Scale(double factor) {
  for (int ti = 0; ti < kNumTensors; ++ti) {
    ScaleTensor(static_cast<Tensor>(ti), factor);
  }
}

bool SparseDelta::ClipPerTensor(double per_tensor_max) {
  PLP_CHECK_GT(per_tensor_max, 0.0);
  bool engaged = false;
  for (int ti = 0; ti < kNumTensors; ++ti) {
    const Tensor t = static_cast<Tensor>(ti);
    const double norm = TensorNorm(t);
    if (norm > per_tensor_max) {
      ScaleTensor(t, per_tensor_max / norm);
      engaged = true;
    }
  }
  return engaged;
}

bool SparseDelta::ClipTotal(double max_norm) {
  PLP_CHECK_GT(max_norm, 0.0);
  const double norm = TotalNorm();
  if (norm > max_norm) {
    Scale(max_norm / norm);
    return true;
  }
  return false;
}

void SparseDelta::AccumulateInto(DenseUpdate& sum, double scale) const {
  PLP_CHECK_EQ(sum.dim(), dim_);
  const size_t dim = static_cast<size_t>(dim_);
  for (const Tensor t : {Tensor::kWIn, Tensor::kWOut}) {
    double* const dst = sum.TensorData(t).data();
    StoreFor(t).ForEach([&](int32_t row, std::span<const double> vec) {
      AxpyKernel(scale, vec.data(), dst + static_cast<size_t>(row) * dim,
                 dim);
    });
  }
  std::span<double> bias_dst = sum.TensorData(Tensor::kBias);
  bias_.ForEach([&](int32_t row, std::span<const double> v) {
    bias_dst[static_cast<size_t>(row)] += scale * v[0];
  });
}

void SparseDelta::ApplyTo(SgnsModel& model, double scale) const {
  PLP_CHECK_EQ(model.dim(), dim_);
  const size_t dim = static_cast<size_t>(dim_);
  in_rows_.ForEach([&](int32_t row, std::span<const double> vec) {
    AxpyKernel(scale, vec.data(), model.MutableInRow(row).data(), dim);
  });
  out_rows_.ForEach([&](int32_t row, std::span<const double> vec) {
    AxpyKernel(scale, vec.data(), model.MutableOutRow(row).data(), dim);
  });
  bias_.ForEach([&](int32_t row, std::span<const double> v) {
    model.mutable_bias(row) += scale * v[0];
  });
}

void AccumulateDeltas(std::span<const SparseDelta* const> deltas,
                      double scale, DenseUpdate& sum) {
  for (const SparseDelta* d : deltas) {
    if (d != nullptr) d->AccumulateInto(sum, scale);
  }
}

SparseDelta DiffModels(const SgnsModel& phi, const SgnsModel& theta) {
  PLP_CHECK_EQ(phi.num_locations(), theta.num_locations());
  PLP_CHECK_EQ(phi.dim(), theta.dim());
  const int32_t dim = phi.dim();
  SparseDelta delta(dim);
  const size_t row_len = static_cast<size_t>(dim);
  for (int32_t l = 0; l < phi.num_locations(); ++l) {
    const std::span<const double> a = phi.InRow(l);
    const std::span<const double> b = theta.InRow(l);
    for (int32_t d = 0; d < dim; ++d) {
      if (a[d] != b[d]) {
        std::span<double> row = delta.Row(Tensor::kWIn, l);
        SubKernel(a.data(), b.data(), row.data(), row_len);
        break;
      }
    }
    const std::span<const double> ao = phi.OutRow(l);
    const std::span<const double> bo = theta.OutRow(l);
    for (int32_t d = 0; d < dim; ++d) {
      if (ao[d] != bo[d]) {
        std::span<double> row = delta.Row(Tensor::kWOut, l);
        SubKernel(ao.data(), bo.data(), row.data(), row_len);
        break;
      }
    }
    if (phi.bias(l) != theta.bias(l)) {
      delta.AddBias(l, phi.bias(l) - theta.bias(l));
    }
  }
  return delta;
}

size_t SparseDelta::NumTouchedEntries() const {
  return in_rows_.size() + out_rows_.size() + bias_.size();
}

void SparseDelta::Clear() {
  in_rows_.Clear();
  out_rows_.Clear();
  bias_.Clear();
}

}  // namespace plp::sgns
