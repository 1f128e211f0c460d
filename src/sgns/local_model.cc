#include "sgns/local_model.h"

#include "common/math_util.h"

namespace plp::sgns {

void LocalModel::ExtractDeltaInto(SparseDelta& delta) const {
  PLP_CHECK_EQ(delta.dim(), dim());
  delta.Clear();
  delta.Reserve(in_rows_.size(), out_rows_.size(), bias_.size());
  const size_t dim = static_cast<size_t>(this->dim());
  in_rows_.ForEach([&](int32_t row, std::span<const double> vec) {
    std::span<double> d = delta.Row(Tensor::kWIn, row);
    SubKernel(vec.data(), base_->InRow(row).data(), d.data(), dim);
  });
  out_rows_.ForEach([&](int32_t row, std::span<const double> vec) {
    std::span<double> d = delta.Row(Tensor::kWOut, row);
    SubKernel(vec.data(), base_->OutRow(row).data(), d.data(), dim);
  });
  bias_.ForEach([&](int32_t row, std::span<const double> v) {
    delta.AddBias(row, v[0] - base_->bias(row));
  });
}

}  // namespace plp::sgns
