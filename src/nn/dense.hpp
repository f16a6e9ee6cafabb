// Fully connected layer, plus a LoRA-adapted variant for on-device
// fine-tuning (Sec. V): the base weights stay frozen and only a rank-r
// update B·A is trained. Nothing in the library builds a LoRADense yet;
// tests/nn_test.cpp covers it.
//
// Dense forward/backward route through the same cache-blocked gemm entry
// point as the conv layers (nn/gemm.hpp), drawing scratch from a
// per-layer ScratchArena. Every output element accumulates in the same
// ascending order as the tensor matmuls (matmul_nt / matmul_tn /
// matmul), so the two are bit-identical for finite inputs; the kernel
// tests use the matmuls as the oracle and assert EXPECT_EQ, no
// tolerance.
#pragma once

#include "nn/layer.hpp"
#include "util/scratch_arena.hpp"

namespace s2a::nn {

/// y = x·Wᵀ + b with x: [N, in], W: [out, in], b: [out].
class Dense : public Layer {
 public:
  Dense(int in_features, int out_features, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::size_t macs_per_sample() const override;

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }
  bool has_bias() const { return has_bias_; }

  /// Frozen parameters are excluded from params()/grads(), so optimizers
  /// never see them. Gradients still flow through to the layer input.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

  const util::ScratchArena* scratch() const override { return &arena_; }

 private:
  int in_, out_;
  bool has_bias_;
  bool frozen_ = false;
  Tensor w_, b_, gw_, gb_;
  Tensor last_x_;
  // Transposed operands + packed panels for the gemm path; sized on the
  // first call, reused after.
  util::ScratchArena arena_;
};

/// Low-Rank Adaptation around a frozen weight matrix:
///   y = x·(W + (alpha/r)·B·A)ᵀ + b
/// with A: [r, in], B: [out, r]. Only A and B are trainable. A starts
/// gaussian, B starts at zero so the adapted layer initially equals the
/// base layer exactly.
class LoRADense : public Layer {
 public:
  /// Takes a snapshot of `base`'s current weight and bias as the frozen core.
  LoRADense(const Dense& base, int rank, double alpha, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::size_t macs_per_sample() const override;

  /// Trainable parameter count (A and B only) — the quantity LoRA buys down.
  std::size_t trainable_params() const { return a_.numel() + b_lora_.numel(); }
  /// Folds B·A into a copy of the frozen weight (for export / inspection).
  Tensor merged_weight() const;

 private:
  int in_, out_, rank_;
  double scale_;
  Tensor w_, b_;          // frozen core
  Tensor a_, b_lora_;     // trainable low-rank factors
  Tensor ga_, gb_lora_;
  Tensor last_x_, last_xa_;
};

}  // namespace s2a::nn
