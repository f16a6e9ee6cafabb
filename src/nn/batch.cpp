#include "nn/batch.hpp"

#include <algorithm>
#include <cstddef>

#include "util/check.hpp"

namespace s2a::nn {

Tensor stack_batch(const std::vector<const std::vector<double>*>& samples,
                   const std::vector<int>& sample_shape) {
  S2A_CHECK(!samples.empty());
  std::size_t sample_numel = 1;
  for (int d : sample_shape) {
    S2A_CHECK(d > 0);
    sample_numel *= static_cast<std::size_t>(d);
  }
  std::vector<int> shape;
  shape.reserve(sample_shape.size() + 1);
  shape.push_back(static_cast<int>(samples.size()));
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());

  // Appended sample by sample: the batch is written once, not zeroed
  // first.
  std::vector<double> data;
  data.reserve(samples.size() * sample_numel);
  for (const std::vector<double>* s : samples) {
    S2A_CHECK(s != nullptr);
    S2A_CHECK_MSG(s->size() == sample_numel,
                  "stack_batch: sample has " << s->size() << " values, shape "
                                             << "wants " << sample_numel);
    data.insert(data.end(), s->begin(), s->end());
  }
  return Tensor(std::move(shape), std::move(data));
}

std::vector<std::vector<double>> unstack_batch(const Tensor& batched) {
  S2A_CHECK(!batched.shape().empty());
  const std::size_t n = static_cast<std::size_t>(batched.dim(0));
  S2A_CHECK(n > 0);
  const std::size_t sample_numel = batched.numel() / n;
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  const double* src = batched.data();
  for (std::size_t i = 0; i < n; ++i) {
    rows.emplace_back(src, src + sample_numel);
    src += sample_numel;
  }
  return rows;
}

}  // namespace s2a::nn
