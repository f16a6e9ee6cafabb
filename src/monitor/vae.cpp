#include "monitor/vae.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/activations.hpp"
#include "nn/loss.hpp"
#include "util/check.hpp"

namespace s2a::monitor {

namespace {
double kl_to_standard_normal(const double* mu, const double* logvar,
                             std::size_t k) {
  double kl = 0.0;
  for (std::size_t i = 0; i < k; ++i)
    kl += 0.5 * (mu[i] * mu[i] + std::exp(logvar[i]) - logvar[i] - 1.0);
  return kl;
}
}  // namespace

double gaussian_kl(const std::vector<double>& mu,
                   const std::vector<double>& logvar) {
  S2A_CHECK(mu.size() == logvar.size());
  return kl_to_standard_normal(mu.data(), logvar.data(), mu.size());
}

Vae::Vae(VaeConfig config, Rng& rng)
    : cfg_(config),
      mu_head_(config.hidden, config.latent_dim, rng),
      logvar_head_(config.hidden, config.latent_dim, rng) {
  encoder_trunk_.emplace<nn::Dense>(cfg_.input_dim, cfg_.hidden, rng);
  encoder_trunk_.emplace<nn::Tanh>();
  decoder_.emplace<nn::Dense>(cfg_.latent_dim, cfg_.hidden, rng);
  decoder_.emplace<nn::Tanh>();
  decoder_.emplace<nn::Dense>(cfg_.hidden, cfg_.input_dim, rng);
  // Start logvar near 0 regardless of trunk output.
  logvar_head_.weight().fill(0.0);
}

Vae::Posterior Vae::encode(const std::vector<double>& x) {
  S2A_CHECK(static_cast<int>(x.size()) == cfg_.input_dim);
  nn::Tensor xt({1, cfg_.input_dim}, std::vector<double>(x.begin(), x.end()));
  const nn::Tensor h = encoder_trunk_.infer(std::move(xt));
  const nn::Tensor mu = mu_head_.infer(h);
  const nn::Tensor lv = logvar_head_.infer(h);
  Posterior q;
  q.mu.assign(mu.data(), mu.data() + mu.numel());
  q.logvar.assign(lv.data(), lv.data() + lv.numel());
  return q;
}

std::vector<double> Vae::decode(const std::vector<double>& z) {
  S2A_CHECK(static_cast<int>(z.size()) == cfg_.latent_dim);
  const nn::Tensor xt = decoder_.forward(nn::Tensor({1, cfg_.latent_dim}, z));
  return std::vector<double>(xt.data(), xt.data() + xt.numel());
}

double Vae::elbo(const std::vector<double>& x, const Posterior& q) {
  S2A_CHECK(static_cast<int>(q.mu.size()) == cfg_.latent_dim &&
            q.logvar.size() == q.mu.size());
  return elbo_of(x, decode(q.mu).data(), q.mu.data(), q.logvar.data());
}

nn::Frozen Vae::freeze_decoder() const { return nn::Frozen(decoder_); }

double Vae::elbo(const std::vector<double>& x, const double* mu,
                 const double* logvar, nn::Frozen& decoder) const {
  S2A_CHECK(decoder.in_features() == cfg_.latent_dim &&
            decoder.out_features() == cfg_.input_dim);
  return elbo_of(x, decoder.forward(mu), mu, logvar);
}

double Vae::elbo_of(const std::vector<double>& x, const double* x_hat,
                    const double* mu, const double* logvar) const {
  S2A_CHECK(static_cast<int>(x.size()) == cfg_.input_dim);
  double log_lik = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - x_hat[i];
    log_lik += -0.5 * d * d;  // unit-variance Gaussian, constant dropped
  }
  return log_lik - cfg_.kl_weight *
                       kl_to_standard_normal(
                           mu, logvar, static_cast<std::size_t>(cfg_.latent_dim));
}

double Vae::elbo(const std::vector<double>& x) { return elbo(x, encode(x)); }

double Vae::train_step(const std::vector<std::vector<double>>& batch,
                       nn::Optimizer& opt, Rng& rng) {
  S2A_CHECK(!batch.empty());
  const int n = static_cast<int>(batch.size());
  const int d = cfg_.input_dim, k = cfg_.latent_dim;

  nn::Tensor x({n, d});
  for (int i = 0; i < n; ++i) {
    S2A_CHECK(static_cast<int>(batch[static_cast<std::size_t>(i)].size()) == d);
    for (int j = 0; j < d; ++j)
      x.at(i, j) = batch[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }

  opt.zero_grad();
  const nn::Tensor h = encoder_trunk_.forward(x);
  const nn::Tensor mu = mu_head_.forward(h);
  const nn::Tensor lv = logvar_head_.forward(h);

  // Reparameterized sample z = µ + e^{lv/2}·ε.
  nn::Tensor eps({n, k});
  for (std::size_t i = 0; i < eps.numel(); ++i) eps[i] = rng.normal();
  nn::Tensor z = mu;
  for (std::size_t i = 0; i < z.numel(); ++i)
    z[i] += std::exp(0.5 * lv[i]) * eps[i];

  const nn::Tensor x_hat = decoder_.forward(z);

  // Loss = Σ 0.5‖x − x̂‖² / n + w·KL / n.
  double loss = 0.0;
  nn::Tensor dxhat = x_hat;
  for (std::size_t i = 0; i < dxhat.numel(); ++i) {
    const double diff = x_hat[i] - x[i];
    loss += 0.5 * diff * diff;
    dxhat[i] = diff / n;
  }
  nn::Tensor dz = decoder_.backward(dxhat);

  // KL and its gradients on µ, logvar.
  nn::Tensor dmu = dz;  // dz flows into µ directly (z = µ + …)
  nn::Tensor dlv({n, k});
  for (std::size_t i = 0; i < dlv.numel(); ++i) {
    loss += cfg_.kl_weight * 0.5 *
            (mu[i] * mu[i] + std::exp(lv[i]) - lv[i] - 1.0);
    dmu[i] += cfg_.kl_weight * mu[i] / n;
    // z depends on lv via e^{lv/2}·ε.
    dlv[i] = dz[i] * 0.5 * std::exp(0.5 * lv[i]) * eps[i] +
             cfg_.kl_weight * 0.5 * (std::exp(lv[i]) - 1.0) / n;
  }

  nn::Tensor dh = mu_head_.backward(dmu);
  dh.add_scaled(logvar_head_.backward(dlv), 1.0);
  encoder_trunk_.backward(dh);
  opt.step();
  return loss / n;
}

void Vae::fit(const std::vector<std::vector<double>>& data, int epochs,
              int batch_size, double lr, Rng& rng) {
  S2A_CHECK(!data.empty() && epochs > 0 && batch_size > 0);
  nn::Adam opt(lr);
  opt.attach(params(), grads());
  std::vector<int> order(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) order[i] = static_cast<int>(i);
  for (int e = 0; e < epochs; ++e) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < data.size();
         start += static_cast<std::size_t>(batch_size)) {
      std::vector<std::vector<double>> batch;
      for (std::size_t i = start;
           i < std::min(data.size(), start + static_cast<std::size_t>(batch_size));
           ++i)
        batch.push_back(data[static_cast<std::size_t>(order[i])]);
      train_step(batch, opt, rng);
    }
  }
}

std::vector<nn::Tensor*> Vae::params() {
  auto p = encoder_trunk_.params();
  for (auto* q : mu_head_.params()) p.push_back(q);
  for (auto* q : logvar_head_.params()) p.push_back(q);
  for (auto* q : decoder_.params()) p.push_back(q);
  return p;
}

std::vector<nn::Tensor*> Vae::grads() {
  auto g = encoder_trunk_.grads();
  for (auto* q : mu_head_.grads()) g.push_back(q);
  for (auto* q : logvar_head_.grads()) g.push_back(q);
  for (auto* q : decoder_.grads()) g.push_back(q);
  return g;
}

}  // namespace s2a::monitor
