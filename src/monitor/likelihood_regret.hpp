// Likelihood Regret (Xiao et al. [35], used by STARNet): how much better
// the VAE could explain an input if its posterior were optimized for that
// single input. In-distribution inputs are already well-fit by the trained
// encoder (small regret); shifted/corrupted inputs admit a much better
// per-sample posterior (large regret). STARNet computes the inner
// optimization gradient-free with SPSA.
#pragma once

#include "monitor/spsa.hpp"
#include "monitor/vae.hpp"

namespace s2a::monitor {

enum class RegretOptimizer { kSpsa, kFiniteDifference };

struct RegretConfig {
  RegretOptimizer optimizer = RegretOptimizer::kSpsa;
  SpsaConfig spsa;
  int fd_iterations = 40;    ///< finite-difference baseline (ablation)
  double fd_step = 1e-3;
  double fd_lr = 0.05;
};

struct RegretResult {
  /// ELBO_optimized − ELBO_encoder, ≥ 0; +inf when that difference is not
  /// finite, so an input the VAE cannot score fails closed.
  double regret = 0.0;
  double elbo_encoder = 0.0;
  double elbo_optimized = 0.0;
  int function_evaluations = 0;
};

/// Computes likelihood regret of `x` under `vae`, optimizing the
/// per-sample posterior (µ, logvar) from the encoder's output.
RegretResult likelihood_regret(Vae& vae, const std::vector<double>& x,
                               const RegretConfig& config, Rng& rng);

}  // namespace s2a::monitor
