// 2-D convolution and transposed convolution over NCHW tensors.
//
// These back the BEV detector backbones (lidar), the occupancy decoder's
// upsampling stages, and the optical-flow networks (neuro).
//
// Every pass runs as a cache-blocked GEMM (nn/gemm.hpp) with per-layer
// ScratchArena workspaces. The forwards build no lowered matrix: each
// copies its input once into a zero-padded buffer (s*s polyphase
// planes for a stride-s conv) and the GEMM reads every B row straight
// out of it through a table of row offsets (gemm_packed_rows). The
// deconv splits into sub-pixel phases, each a stride-1 conv over the
// same padded input with its own tap table. Weight gradients lower to
// grad_out x im2col_t(input) (nn/im2col.hpp), input gradients to
// Wᵀ x grad_out folded by col2im_band (Conv2D) or to a plain strided
// convolution of grad_out by the adjoint kernel, through the forward's
// padded-input path (ConvTranspose2D). Every GEMM reduces in the direct
// loops' accumulation order, so every output and gradient element is
// bit-identical to those loops (see docs/ARCHITECTURE.md, "Kernels &
// memory"). The direct loops live in the test tree as the oracle
// (tests/nn_oracle.hpp): the kernel equivalence tests diff both
// directions against it bit-for-bit, and the finite-difference gradient
// checks pin the arithmetic. infer() runs the same forward kernels
// without keeping the input for backward(); it still records the output
// size macs_per_sample() reads. The forward loops themselves live in
// nn/conv_rows.hpp, which nn::FrozenConv (nn/frozen.hpp) also drives,
// on a subset of output sites, and for a deployed model.
#pragma once

#include <vector>

#include "nn/conv_rows.hpp"
#include "nn/layer.hpp"
#include "util/scratch_arena.hpp"

namespace s2a::nn {

class Conv2D : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, int stride,
         int padding, Rng& rng);

  Tensor forward(const Tensor& x) override;  ///< x: [N, Cin, H, W]
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::size_t macs_per_sample() const override;

  int out_size(int in_size) const {
    return (in_size + 2 * pad_ - k_) / stride_ + 1;
  }
  /// Dense forward MACs of one h x w sample, whatever the last call ran.
  std::size_t macs_for(int h, int w) const {
    return static_cast<std::size_t>(cout_) * cin_ * k_ * k_ *
           static_cast<std::size_t>(out_size(h)) * out_size(w);
  }
  int in_channels() const { return cin_; }
  int out_channels() const { return cout_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }
  const util::ScratchArena* scratch() const override { return &arena_; }

 private:
  // The shared body of forward() and infer(): checks, records the
  // output size for macs_per_sample(), runs forward_gemm.
  Tensor apply(const Tensor& x);
  void forward_gemm(const Tensor& x, Tensor& y, int n, int h, int w, int oh,
                    int ow);
  void backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                     int oh, int ow);

  int cin_, cout_, k_, stride_, pad_;
  Tensor w_, b_, gw_, gb_;  // w: [Cout, Cin, k, k]
  Tensor last_x_;
  std::size_t last_out_hw_ = 0;  // set by forward/infer, used by macs
  // The forward's tap table into its padded input and its row plan
  // (shape-only, rebuilt per call into the same storage).
  detail::ForwardScratch scratch_;
  // Padded input, packed weights and band tiles; sized on first
  // forward, reused after.
  util::ScratchArena arena_;
};

/// Transposed convolution (a.k.a. deconvolution) for decoder upsampling.
/// Output spatial size: (in-1)*stride - 2*pad + kernel.
class ConvTranspose2D : public Layer {
 public:
  ConvTranspose2D(int in_channels, int out_channels, int kernel, int stride,
                  int padding, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::size_t macs_per_sample() const override;

  int out_size(int in_size) const {
    return (in_size - 1) * stride_ - 2 * pad_ + k_;
  }
  /// Dense forward MACs of one h x w sample, whatever the last call ran.
  std::size_t macs_for(int h, int w) const {
    return static_cast<std::size_t>(cin_) * cout_ * k_ * k_ *
           static_cast<std::size_t>(h) * w;
  }
  int in_channels() const { return cin_; }
  int out_channels() const { return cout_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }
  const detail::DeconvPhases& phases() const { return phases_; }
  const util::ScratchArena* scratch() const override { return &arena_; }

 private:
  Tensor apply(const Tensor& x);  // as Conv2D::apply
  void forward_gemm(const Tensor& x, Tensor& y, int n, int h, int w, int oh,
                    int ow);
  void backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                     int oh, int ow);

  int cin_, cout_, k_, stride_, pad_;
  // Shape-only sub-pixel phase tables, built once by the constructor.
  // Offsets only, never weight values: the forward packs its panels
  // through them on every call (nn::FrozenConv reads them too).
  detail::DeconvPhases phases_;
  Tensor w_, b_, gw_, gb_;  // w: [Cin, Cout, k, k]
  Tensor last_x_;
  std::size_t last_in_hw_ = 0;  // set by forward/infer, used by macs
  // Tap tables into the padded input (every phase's for the forward,
  // the adjoint conv's for the input gradient) and the row plan.
  detail::ForwardScratch scratch_;
  util::ScratchArena arena_;
};

}  // namespace s2a::nn
