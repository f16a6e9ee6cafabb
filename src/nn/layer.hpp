// Layer interface for the library's networks.
//
// Layers are stateful trainers: forward() captures whatever backward()
// needs, backward() accumulates parameter gradients and returns the
// gradient with respect to the layer input. This matches how the training
// loops in each subsystem drive them (single-threaded, one batch in
// flight).
//
// infer() is the inference path: the same kernel call and bit-identical
// output, but it captures nothing, so backward() still sees the last
// forward(). It takes its input by value, so a Sequential moves each
// activation from layer to layer and an elementwise layer can work in
// place. The layers on the loop's inference calls (Conv2D,
// ConvTranspose2D, ReLU, Sigmoid, Tanh, Sequential) override it; every
// other layer falls back to forward() and captures as before.
//
// Layers compute in float only. A deployed low-precision model is a
// frozen snapshot held by the stack that serves it (nn/frozen.hpp), so
// no layer carries a second arithmetic or refuses backward().
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace s2a::util {
class ScratchArena;
}

namespace s2a::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& x) = 0;
  /// forward()'s output without capturing anything for backward().
  virtual Tensor infer(Tensor x) { return forward(x); }
  /// grad_out is dL/d(output); returns dL/d(input). Parameter gradients
  /// accumulate until zero_grad().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters and their gradient buffers, index-aligned.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  void zero_grad() {
    for (Tensor* g : grads()) g->fill(0.0);
  }

  /// Multiply-accumulate operations for one forward pass of a single sample.
  /// Used by the Fig. 5a / Table II compute-cost instrumentation.
  virtual std::size_t macs_per_sample() const { return 0; }

  /// The layer's kernel workspace, if it owns one (conv/deconv/dense do).
  /// Lets training loops and tests audit the zero-steady-state-allocation
  /// invariant without knowing concrete layer types.
  virtual const util::ScratchArena* scratch() const { return nullptr; }

  std::size_t param_count() {
    std::size_t n = 0;
    for (Tensor* p : params()) n += p->numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace s2a::nn
