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

  /// Snapshots the current weights into an int8 form (per-output-channel
  /// symmetric scales — see nn/quant.hpp). Once quantized, forward()
  /// runs the int8 kernel and backward() fails S2A_CHECK: the layer is
  /// a deployed, inference-only model, so train first, then quantize.
  /// Layers without an int8 path (activations, GRU, attention) are a
  /// no-op and keep reporting is_quantized() == false.
  virtual void quantize() {}
  virtual bool is_quantized() const { return false; }

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
