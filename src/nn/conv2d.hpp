// 2-D convolution and transposed convolution over NCHW tensors.
//
// These back the BEV detector backbones (lidar), the occupancy decoder's
// upsampling stages, and the optical-flow networks (neuro).
//
// Both are one ConvLayer: a shape-only lowering (detail::ConvLowering,
// nn/conv_rows.hpp) that the constructor builds once, plus the weight
// layout, which only the backward reads. Every pass runs as a
// cache-blocked GEMM (nn/gemm.hpp) with a per-layer ScratchArena
// workspace. The forward is the lowering's: it packs each phase's
// weight panel through the lowering's row table and runs
// detail::lowered_forward, which builds no lowered matrix but copies
// the input once into a zero-padded buffer and reads every B row
// straight out of it through a table of row offsets
// (gemm_packed_rows). A conv is one phase over s*s polyphase input
// planes; a deconv is s*s sub-pixel phases, each a stride-1 conv over
// one padded plane with its own tap table. Weight gradients lower to
// grad_out x im2col_t(input) (nn/im2col.hpp), input gradients to
// Wᵀ x grad_out folded by col2im_band (Conv2D) or to the forward of
// the adjoint conv lowering on grad_out (ConvTranspose2D). Every GEMM
// reduces in the direct loops' accumulation order, so every output
// and gradient element is bit-identical to those loops (see
// docs/ARCHITECTURE.md, "Kernels & memory"). The direct loops live in
// the test tree as the oracle (tests/nn_oracle.hpp): the kernel
// equivalence tests diff both directions against it bit-for-bit, and
// the finite-difference gradient checks pin the arithmetic. infer()
// runs the same forward without keeping the input for backward(); it
// still records the MACs macs_per_sample() reads. nn::FrozenConv
// (nn/frozen.hpp) runs the same lowering on a subset of output sites,
// and for a deployed model.
#pragma once

#include <vector>

#include "nn/conv_rows.hpp"
#include "nn/layer.hpp"
#include "util/scratch_arena.hpp"

namespace s2a::nn {

class ConvLayer : public Layer {
 public:
  Tensor forward(const Tensor& x) override;  ///< x: [N, Cin, H, W]
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::size_t macs_per_sample() const override { return last_macs_; }

  int out_size(int in_size) const { return lowering_.out_size(in_size); }
  /// Dense forward MACs of one h x w sample, whatever the last call ran.
  std::size_t macs_for(int h, int w) const { return lowering_.macs_for(h, w); }
  int in_channels() const { return lowering_.cin; }
  int out_channels() const { return lowering_.cout; }
  int kernel() const { return lowering_.k; }
  int stride() const { return lowering_.s; }
  int padding() const { return lowering_.pad; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }
  const detail::ConvLowering& lowering() const { return lowering_; }
  const util::ScratchArena* scratch() const override { return &arena_; }

 protected:
  // w_ is [c0, c1, k, k], He-initialized for fan-in c1*k*k.
  // `backward_span` names backward()'s trace span (a string literal).
  ConvLayer(detail::ConvLowering lowering, int c0, int c1,
            const char* backward_span, Rng& rng);
  // The input gradient into dx and the weight gradient into gw_, for
  // grad_out of the last forward()'s input.
  virtual void backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h,
                             int w, int oh, int ow) = 0;

  detail::ConvLowering lowering_;
  Tensor w_, b_, gw_, gb_;
  Tensor last_x_;
  // The forward's tap tables and row plan (shape-only, rebuilt per call
  // into the same storage).
  detail::ForwardScratch scratch_;
  // Padded input, packed weights and band tiles; sized on first
  // forward, reused after.
  util::ScratchArena arena_;

 private:
  // The shared body of forward() and infer(): checks, records the MACs
  // for macs_per_sample(), packs the weights and runs the lowering.
  Tensor apply(const Tensor& x);

  const char* backward_span_;
  std::vector<detail::LoweredWeights> a_;  // one per phase
  std::size_t last_macs_ = 0;              // set by forward/infer
};

class Conv2D : public ConvLayer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, int stride,
         int padding, Rng& rng);

 private:
  void backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                     int oh, int ow) override;
};

/// Transposed convolution (a.k.a. deconvolution) for decoder upsampling.
/// Output spatial size: (in-1)*stride - 2*pad + kernel.
class ConvTranspose2D : public ConvLayer {
 public:
  ConvTranspose2D(int in_channels, int out_channels, int kernel, int stride,
                  int padding, Rng& rng);

 private:
  void backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h, int w,
                     int oh, int ow) override;

  // The input gradient's lowering: a stride-s conv of grad_out by w_
  // viewed as [cin, cout*k*k].
  detail::ConvLowering adjoint_;
};

}  // namespace s2a::nn
