#include "nn/dense.hpp"

#include <algorithm>

#include "nn/gemm.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace s2a::nn {

Dense::Dense(int in_features, int out_features, Rng& rng, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      w_(Tensor::xavier(out_features, in_features, rng)),
      b_({out_features}),
      gw_({out_features, in_features}),
      gb_({out_features}) {
  S2A_CHECK(in_features > 0 && out_features > 0);
}

// The forward computes yᵀ = W·xᵀ into a zero-initialized scratch tile,
// so each output element accumulates x[i,p]*w[j,p] in ascending p from
// 0 — exactly matmul_nt's chain, which the kernel tests use as the
// oracle — and the bias is added afterwards.
Tensor Dense::forward(const Tensor& x) {
  S2A_CHECK_MSG(x.shape().size() == 2 && x.dim(1) == in_,
                "Dense expects [N," << in_ << "]");
  last_x_ = x;
  const int n = x.dim(0);
  Tensor y({n, out_});
  arena_.reset();
  // A = W [out, in] (reduction axis already contiguous), B = xᵀ.
  double* xt = arena_.alloc(static_cast<std::size_t>(in_) * n);
  transpose(x.data(), n, in_, xt);
  double* yt = arena_.alloc(static_cast<std::size_t>(out_) * n);
  std::fill_n(yt, static_cast<std::size_t>(out_) * n, 0.0);
  double* wp = arena_.alloc(packed_a_size(out_, in_));
  pack_a(w_.data(), in_, out_, in_, wp);
  gemm_packed(out_, n, in_, wp, xt, n, yt, n);
  transpose(yt, out_, n, y.data());
  if (has_bias_) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out_; ++j)
        y[static_cast<std::size_t>(i) * out_ + j] += b_[static_cast<std::size_t>(j)];
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  S2A_TRACE_SCOPE_CAT("nn.dense_backward", "nn");
  S2A_CHECK(grad_out.shape().size() == 2 && grad_out.dim(1) == out_);
  S2A_CHECK_MSG(!last_x_.empty(), "backward before forward");
  // dW += gᵀ·x ; db += column sums of g ; dx = g·W
  const int n = grad_out.dim(0);
  arena_.reset();
  // dW chain matches matmul_tn: ascending samples from 0, then one
  // += per element onto gW.
  double* gt = arena_.alloc(static_cast<std::size_t>(out_) * n);
  transpose(grad_out.data(), n, out_, gt);
  double* gtp = arena_.alloc(packed_a_size(out_, n));
  pack_a(gt, n, out_, n, gtp);
  double* dw = arena_.alloc(static_cast<std::size_t>(out_) * in_);
  std::fill_n(dw, static_cast<std::size_t>(out_) * in_, 0.0);
  gemm_packed(out_, in_, n, gtp, last_x_.data(), in_, dw, in_);
  for (std::size_t i = 0; i < gw_.numel(); ++i) gw_[i] += dw[i];
  if (has_bias_) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out_; ++j)
        gb_[static_cast<std::size_t>(j)] +=
            grad_out[static_cast<std::size_t>(i) * out_ + j];
  }
  // dx = g·W via the packed kernel; zero-init C gives matmul's chain.
  Tensor dx({n, in_});
  double* gp = arena_.alloc(packed_a_size(n, out_));
  pack_a(grad_out.data(), out_, n, out_, gp);
  gemm_packed(n, in_, out_, gp, w_.data(), in_, dx.data(), in_);
  return dx;
}

std::vector<Tensor*> Dense::params() {
  if (frozen_) return {};
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

std::vector<Tensor*> Dense::grads() {
  if (frozen_) return {};
  if (has_bias_) return {&gw_, &gb_};
  return {&gw_};
}

std::size_t Dense::macs_per_sample() const {
  return static_cast<std::size_t>(in_) * static_cast<std::size_t>(out_);
}

LoRADense::LoRADense(const Dense& base, int rank, double alpha, Rng& rng)
    : in_(base.in_features()),
      out_(base.out_features()),
      rank_(rank),
      scale_(alpha / rank),
      w_(base.weight()),
      b_(base.bias()),
      a_(Tensor::randn({rank, in_}, rng, 1.0 / in_)),
      b_lora_({out_, rank}),
      ga_({rank, in_}),
      gb_lora_({out_, rank}) {
  S2A_CHECK(rank > 0 && rank <= in_ && rank <= out_);
}

Tensor LoRADense::forward(const Tensor& x) {
  S2A_CHECK(x.shape().size() == 2 && x.dim(1) == in_);
  last_x_ = x;
  Tensor y = matmul_nt(x, w_);
  last_xa_ = matmul_nt(x, a_);                 // [N, r]
  const Tensor lora = matmul_nt(last_xa_, b_lora_);  // [N, out]
  y.add_scaled(lora, scale_);
  const int n = y.dim(0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < out_; ++j)
      y[static_cast<std::size_t>(i) * out_ + j] += b_[static_cast<std::size_t>(j)];
  return y;
}

Tensor LoRADense::backward(const Tensor& grad_out) {
  S2A_CHECK(!last_x_.empty());
  // Path 1 (frozen): dx1 = g·W.
  Tensor dx = matmul(grad_out, w_);
  // Path 2 (LoRA): y2 = s·(x·Aᵀ)·Bᵀ.
  // dB += s·gᵀ·(x·Aᵀ) ; d(xAᵀ) = s·g·B ; dA += d(xAᵀ)ᵀ·x ; dx2 = d(xAᵀ)·A.
  const Tensor db = matmul_tn(grad_out, last_xa_);
  gb_lora_.add_scaled(db, scale_);
  Tensor dxa = matmul(grad_out, b_lora_);
  for (std::size_t i = 0; i < dxa.numel(); ++i) dxa[i] *= scale_;
  const Tensor da = matmul_tn(dxa, last_x_);
  ga_.add_scaled(da, 1.0);
  dx.add_scaled(matmul(dxa, a_), 1.0);
  return dx;
}

std::vector<Tensor*> LoRADense::params() { return {&a_, &b_lora_}; }
std::vector<Tensor*> LoRADense::grads() { return {&ga_, &gb_lora_}; }

std::size_t LoRADense::macs_per_sample() const {
  return static_cast<std::size_t>(in_) * out_ +
         static_cast<std::size_t>(rank_) * (in_ + out_);
}

Tensor LoRADense::merged_weight() const {
  Tensor merged = w_;
  const Tensor ba = matmul(b_lora_, a_);  // [out, in]
  merged.add_scaled(ba, scale_);
  return merged;
}

}  // namespace s2a::nn
