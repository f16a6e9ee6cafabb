// Variational autoencoder over task-network feature embeddings
// (STARNet's distribution model, Fig. 6): learns the typical distribution
// of clean sensor features so that likelihood regret can flag inputs the
// encoder no longer explains.
#pragma once

#include <vector>

#include "nn/dense.hpp"
#include "nn/frozen.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace s2a::monitor {

struct VaeConfig {
  int input_dim = 16;
  int hidden = 32;
  int latent_dim = 4;
  double kl_weight = 1.0;
};

/// Gaussian encoder q(z|x) = N(µ(x), diag(exp(logvar(x)))) and Gaussian
/// decoder p(x|z) = N(x̂(z), I).
class Vae {
 public:
  Vae(VaeConfig config, Rng& rng);

  struct Posterior {
    std::vector<double> mu, logvar;
  };
  Posterior encode(const std::vector<double>& x);
  std::vector<double> decode(const std::vector<double>& z);

  /// Deterministic ELBO with z = µ (MAP point): log p(x|µ) − KL(q‖N(0,I))
  /// up to the Gaussian constant. Deterministic so SPSA optimization and
  /// scoring are reproducible.
  double elbo(const std::vector<double>& x, const Posterior& q);
  /// ELBO under the trained encoder's own posterior.
  double elbo(const std::vector<double>& x);

  /// A frozen snapshot of the decoder (nn/frozen.hpp). Likelihood
  /// regret builds one per call and evaluates every ELBO through it.
  nn::Frozen freeze_decoder() const;
  /// The same ELBO with the posterior given as latent_dim values at mu
  /// and at logvar, decoded through `decoder`, a freeze_decoder() of
  /// this VAE taken since its last weight update. Bit-identical to
  /// elbo(x, q); it allocates nothing, so likelihood regret runs its
  /// ~180 evaluations per score straight from its packed (µ, logvar)
  /// search vector.
  double elbo(const std::vector<double>& x, const double* mu,
              const double* logvar, nn::Frozen& decoder) const;

  /// One reparameterized training step on a batch; returns the batch loss
  /// (negative ELBO). Gradients flow through the sampling noise drawn from
  /// `rng`.
  double train_step(const std::vector<std::vector<double>>& batch,
                    nn::Optimizer& opt, Rng& rng);

  /// Convenience: trains for `epochs` over shuffled minibatches.
  void fit(const std::vector<std::vector<double>>& data, int epochs,
           int batch_size, double lr, Rng& rng);

  std::vector<nn::Tensor*> params();
  std::vector<nn::Tensor*> grads();
  const VaeConfig& config() const { return cfg_; }

 private:
  // log p(x|µ) − w·KL for a decoded x̂ = x_hat: the one copy of the
  // ELBO arithmetic behind both elbo() paths.
  double elbo_of(const std::vector<double>& x, const double* x_hat,
                 const double* mu, const double* logvar) const;

  VaeConfig cfg_;
  nn::Sequential encoder_trunk_;  // x -> hidden
  nn::Dense mu_head_, logvar_head_;
  nn::Sequential decoder_;  // z -> x̂
};

/// Analytic KL(N(µ, e^{logvar}) ‖ N(0, I)).
double gaussian_kl(const std::vector<double>& mu,
                   const std::vector<double>& logvar);

}  // namespace s2a::monitor
