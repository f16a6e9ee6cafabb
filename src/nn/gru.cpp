#include "nn/gru.hpp"

#include "nn/activations.hpp"
#include "util/check.hpp"

namespace s2a::nn {

namespace {
Tensor affine(const Tensor& x, const Tensor& w, const Tensor& h,
              const Tensor& u, const Tensor& b) {
  Tensor y = matmul_nt(x, w);
  y.add_scaled(matmul_nt(h, u), 1.0);
  const int n = y.dim(0), m = y.dim(1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < m; ++j)
      y[static_cast<std::size_t>(i) * m + j] += b[static_cast<std::size_t>(j)];
  return y;
}

void bias_grad(Tensor& gb, const Tensor& g) {
  const int n = g.dim(0), m = g.dim(1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < m; ++j)
      gb[static_cast<std::size_t>(j)] += g[static_cast<std::size_t>(i) * m + j];
}
}  // namespace

GRUCell::GRUCell(int input_size, int hidden_size, Rng& rng)
    : in_(input_size),
      hid_(hidden_size),
      wz_(Tensor::xavier(hidden_size, input_size, rng)),
      wr_(Tensor::xavier(hidden_size, input_size, rng)),
      wc_(Tensor::xavier(hidden_size, input_size, rng)),
      uz_(Tensor::xavier(hidden_size, hidden_size, rng)),
      ur_(Tensor::xavier(hidden_size, hidden_size, rng)),
      uc_(Tensor::xavier(hidden_size, hidden_size, rng)),
      bz_({hidden_size}),
      br_({hidden_size}),
      bc_({hidden_size}),
      gwz_({hidden_size, input_size}),
      gwr_({hidden_size, input_size}),
      gwc_({hidden_size, input_size}),
      guz_({hidden_size, hidden_size}),
      gur_({hidden_size, hidden_size}),
      guc_({hidden_size, hidden_size}),
      gbz_({hidden_size}),
      gbr_({hidden_size}),
      gbc_({hidden_size}) {
  S2A_CHECK(input_size > 0 && hidden_size > 0);
}

Tensor GRUCell::step(const Tensor& x, const Tensor& h) {
  S2A_CHECK(x.shape().size() == 2 && x.dim(1) == in_);
  S2A_CHECK(h.shape().size() == 2 && h.dim(1) == hid_ && h.dim(0) == x.dim(0));
  x_ = x;
  h_ = h;

  z_ = affine(x, wz_, h, uz_, bz_);
  sigmoid_inplace(z_.data(), z_.numel());
  r_ = affine(x, wr_, h, ur_, br_);
  sigmoid_inplace(r_.data(), r_.numel());

  rh_ = r_;
  for (std::size_t i = 0; i < rh_.numel(); ++i) rh_[i] *= h[i];

  c_ = affine(x, wc_, rh_, uc_, bc_);
  tanh_inplace(c_.data(), c_.numel());

  Tensor h_new = c_;
  for (std::size_t i = 0; i < h_new.numel(); ++i)
    h_new[i] = (1.0 - z_[i]) * c_[i] + z_[i] * h[i];
  return h_new;
}

std::pair<Tensor, Tensor> GRUCell::backward(const Tensor& grad_h_new) {
  S2A_CHECK_MSG(!x_.empty(), "backward before step");
  S2A_CHECK(grad_h_new.same_shape(z_));

  // h' = (1-z) ⊙ c + z ⊙ h
  Tensor dc = grad_h_new, dz = grad_h_new, dh = grad_h_new;
  for (std::size_t i = 0; i < dc.numel(); ++i) {
    dc[i] = grad_h_new[i] * (1.0 - z_[i]);
    dz[i] = grad_h_new[i] * (h_[i] - c_[i]);
    dh[i] = grad_h_new[i] * z_[i];
  }

  // Candidate pre-activation: a_c = x·Wcᵀ + (r⊙h)·Ucᵀ + bc, c = tanh(a_c).
  Tensor dac = dc;
  for (std::size_t i = 0; i < dac.numel(); ++i) dac[i] *= 1.0 - c_[i] * c_[i];
  gwc_.add_scaled(matmul_tn(dac, x_), 1.0);
  guc_.add_scaled(matmul_tn(dac, rh_), 1.0);
  bias_grad(gbc_, dac);
  Tensor dx = matmul(dac, wc_);
  const Tensor drh = matmul(dac, uc_);
  Tensor dr = drh;
  for (std::size_t i = 0; i < dr.numel(); ++i) {
    dr[i] = drh[i] * h_[i];
    dh[i] += drh[i] * r_[i];
  }

  // Update gate: a_z pre-sigmoid.
  Tensor daz = dz;
  for (std::size_t i = 0; i < daz.numel(); ++i) daz[i] *= z_[i] * (1.0 - z_[i]);
  gwz_.add_scaled(matmul_tn(daz, x_), 1.0);
  guz_.add_scaled(matmul_tn(daz, h_), 1.0);
  bias_grad(gbz_, daz);
  dx.add_scaled(matmul(daz, wz_), 1.0);
  dh.add_scaled(matmul(daz, uz_), 1.0);

  // Reset gate: a_r pre-sigmoid.
  Tensor dar = dr;
  for (std::size_t i = 0; i < dar.numel(); ++i) dar[i] *= r_[i] * (1.0 - r_[i]);
  gwr_.add_scaled(matmul_tn(dar, x_), 1.0);
  gur_.add_scaled(matmul_tn(dar, h_), 1.0);
  bias_grad(gbr_, dar);
  dx.add_scaled(matmul(dar, wr_), 1.0);
  dh.add_scaled(matmul(dar, ur_), 1.0);

  return {dx, dh};
}

std::vector<Tensor*> GRUCell::params() {
  return {&wz_, &wr_, &wc_, &uz_, &ur_, &uc_, &bz_, &br_, &bc_};
}

std::vector<Tensor*> GRUCell::grads() {
  return {&gwz_, &gwr_, &gwc_, &guz_, &gur_, &guc_, &gbz_, &gbr_, &gbc_};
}

void GRUCell::zero_grad() {
  for (Tensor* g : grads()) g->fill(0.0);
}

}  // namespace s2a::nn
