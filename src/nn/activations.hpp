// Elementwise activation layers.
#pragma once

#include "nn/layer.hpp"

namespace s2a::nn {

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
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor last_y_;
};

}  // namespace s2a::nn
