// Elementwise activation layers, and the in-place kernels they share
// with nn::Frozen, nn::FrozenConv and GRUCell.
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

/// tanh of n values in place: every tanh in nn (Tanh, GRUCell, Frozen)
/// runs through it. It is glibc 2.36's tanh (fdlibm's algorithm over
/// the FMA build of its expm1), ported so that it gives the same bits
/// on every host: on x86-64 glibc with FMA it equals std::tanh bit for
/// bit, and unlike std::tanh it does not change with the host's FMA
/// support. The AVX-512F kernel (S2A_SIMD avx512) and the AVX2 kernel
/// (avx2, on CPUs that also have FMA) equal the scalar port (every
/// other case, NEON included) bit for bit on every input
/// (nn/tanh_kernels.hpp).
void tanh_inplace(double* d, std::size_t n);
/// The kernel tanh_inplace runs under the active S2A_SIMD family:
/// "avx512", "avx2" or "scalar".
const char* tanh_kernel_name();

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
  /// In place; the same bits as forward().
  Tensor infer(Tensor x) override;
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
