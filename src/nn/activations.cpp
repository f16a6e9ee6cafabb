#include "nn/activations.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {

void relu_inplace(double* d, std::size_t n) {
  // Written as a bit mask because compilers emit the ternary as a
  // branch, which the mixed signs of a conv output mispredict (~4x
  // slower at 9216 values).
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t keep = 0 - static_cast<std::uint64_t>(!(d[i] < 0.0));
    d[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(d[i]) & keep);
  }
}

void sigmoid_inplace(double* d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] = 1.0 / (1.0 + std::exp(-d[i]));
}

Tensor ReLU::forward(const Tensor& x) {
  last_x_ = x;
  return ReLU::infer(x);
}

Tensor ReLU::infer(Tensor x) {
  relu_inplace(x.data(), x.numel());
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
  last_y_ = Tanh::infer(x);
  return last_y_;
}

Tensor Tanh::infer(Tensor x) {
  tanh_inplace(x.data(), x.numel());
  return x;
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
  sigmoid_inplace(y.data(), y.numel());
  last_y_ = y;
  return y;
}

Tensor Sigmoid::infer(Tensor x) {
  double* d = x.data();
  util::global_pool().parallel_for_chunks(
      0, x.numel(), 4096, [d](std::size_t lo, std::size_t hi, std::size_t) {
        sigmoid_inplace(d + lo, hi - lo);
      });
  return x;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_y_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= last_y_[i] * (1.0 - last_y_[i]);
  return dx;
}

}  // namespace s2a::nn
