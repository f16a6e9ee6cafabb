#include "monitor/likelihood_regret.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace s2a::monitor {

RegretResult likelihood_regret(Vae& vae, const std::vector<double>& x,
                               const RegretConfig& cfg, Rng& rng) {
  const int k = vae.config().latent_dim;
  const Vae::Posterior q0 = vae.encode(x);
  // One frozen decoder for this call's ~180 ELBO evaluations: packed
  // once, dropped on return. Nothing writes the VAE's weights while a
  // score runs, so the snapshot cannot go stale.
  nn::Frozen decoder = vae.freeze_decoder();

  RegretResult res;
  res.elbo_encoder = vae.elbo(x, q0.mu.data(), q0.logvar.data(), decoder);

  std::vector<double> theta(static_cast<std::size_t>(2 * k));
  for (int i = 0; i < k; ++i) {
    theta[static_cast<std::size_t>(i)] = q0.mu[static_cast<std::size_t>(i)];
    theta[static_cast<std::size_t>(k + i)] = q0.logvar[static_cast<std::size_t>(i)];
  }

  // Minimize negative ELBO over the per-sample posterior parameters,
  // read in place from the packed search vector t = (µ, logvar).
  auto objective = [&](const std::vector<double>& t) {
    return -vae.elbo(x, t.data(), t.data() + k, decoder);
  };

  if (cfg.optimizer == RegretOptimizer::kSpsa) {
    const SpsaResult opt = spsa_minimize(objective, theta, cfg.spsa, rng);
    res.elbo_optimized = -opt.best_value;
    res.function_evaluations = opt.function_evaluations;
  } else {
    // Coordinate-wise central differences: 2·dim evaluations per step —
    // the cost SPSA avoids (ablation bench bench_ablation_spsa).
    std::vector<double> t = theta;
    double best = objective(t);
    std::vector<double> best_t = t;
    int evals = 1;
    for (int it = 0; it < cfg.fd_iterations; ++it) {
      std::vector<double> grad(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        const double orig = t[i];
        t[i] = orig + cfg.fd_step;
        const double fp = objective(t);
        t[i] = orig - cfg.fd_step;
        const double fm = objective(t);
        t[i] = orig;
        evals += 2;
        grad[i] = (fp - fm) / (2.0 * cfg.fd_step);
      }
      for (std::size_t i = 0; i < t.size(); ++i) t[i] -= cfg.fd_lr * grad[i];
      const double f = objective(t);
      ++evals;
      if (f < best) {
        best = f;
        best_t = t;
      }
    }
    res.elbo_optimized = -best;
    res.function_evaluations = evals;
  }

  // Regret is non-negative by construction up to optimizer noise; clamp
  // tiny negatives so downstream thresholds behave. A non-finite
  // difference (an embedding holding a NaN or ±inf, or one large enough
  // to overflow the ELBO) fails closed as +inf: std::max would turn a
  // NaN into 0, the score of a perfectly explained input.
  const double diff = res.elbo_optimized - res.elbo_encoder;
  res.regret = std::isfinite(diff) ? std::max(0.0, diff)
                                   : std::numeric_limits<double>::infinity();
  return res;
}

}  // namespace s2a::monitor
