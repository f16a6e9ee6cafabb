// Elementwise activation layers.
#pragma once

#include <cstddef>

#include "nn/layer.hpp"

namespace s2a::nn {

/// The in-place kernels ReLU::infer and Sigmoid::infer run over n
/// values, shared with nn::FrozenConv so both paths produce the same
/// bits. relu_inplace is d < 0.0 ? 0.0 : d (-0.0 and NaN keep their
/// bits); sigmoid_inplace is 1.0 / (1.0 + exp(-d)).
void relu_inplace(double* d, std::size_t n);
void sigmoid_inplace(double* d, std::size_t n);

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  /// Clamps in place; -0.0 and NaN pass through exactly as in forward().
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor last_x_;
};

class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(double slope = 0.1) : slope_(slope) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  double slope_;
  Tensor last_x_;
};

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor last_y_;
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  /// In place, sharded over the global pool in 4096-value chunks
  /// (elementwise, so bit-exact at every thread count).
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor last_y_;
};

}  // namespace s2a::nn
