#include "nn/activations.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace s2a::nn {

Tensor ReLU::forward(const Tensor& x) {
  last_x_ = x;
  return ReLU::infer(x);
}

Tensor ReLU::infer(Tensor x) {
  // d < 0.0 ? 0.0 : d, so -0.0 and NaN keep their bits. Written as a
  // bit mask because compilers emit the ternary as a branch, which the
  // mixed signs of a conv output mispredict (~4x slower at 9216 values).
  double* d = x.data();
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const std::uint64_t keep = 0 - static_cast<std::uint64_t>(!(d[i] < 0.0));
    d[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(d[i]) & keep);
  }
  return x;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_x_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (last_x_[i] <= 0.0) dx[i] = 0.0;
  return dx;
}

Tensor LeakyReLU::forward(const Tensor& x) {
  last_x_ = x;
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] < 0.0) y[i] *= slope_;
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_x_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (last_x_[i] <= 0.0) dx[i] *= slope_;
  return dx;
}

Tensor Tanh::forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
  last_y_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_y_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= 1.0 - last_y_[i] * last_y_[i];
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i)
    y[i] = 1.0 / (1.0 + std::exp(-y[i]));
  last_y_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_y_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= last_y_[i] * (1.0 - last_y_[i]);
  return dx;
}

}  // namespace s2a::nn
