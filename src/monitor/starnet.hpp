// STARNet (Sec. V, Fig. 6): sensor-trustworthiness monitoring for
// sensing-to-action loops. A VAE models the distribution of clean task-
// network feature embeddings; at inference, likelihood regret (computed
// gradient-free with SPSA) scores how far the current embedding has
// drifted, and a threshold calibrated on clean data gates whether the
// stream is trusted.
#pragma once

#include <cstdint>
#include <vector>

#include "core/offload.hpp"
#include "monitor/likelihood_regret.hpp"
#include "monitor/vae.hpp"

namespace s2a::monitor {

struct StarNetConfig {
  VaeConfig vae;
  RegretConfig regret;
  /// Trust threshold = this percentile of clean-data regret scores.
  double threshold_percentile = 95.0;
  int vae_epochs = 80;
  int vae_batch = 16;
  double vae_lr = 5e-3;
};

class StarNet {
 public:
  StarNet(StarNetConfig config, Rng& rng);

  /// Trains the VAE on clean embeddings and calibrates the trust
  /// threshold. Embeddings are standardized per dimension internally.
  void fit(const std::vector<std::vector<double>>& clean_embeddings,
           Rng& rng);

  /// Likelihood-regret anomaly score (higher = less trustworthy).
  double score(const std::vector<double>& embedding, Rng& rng);
  /// True when the embedding's score falls below the calibrated threshold.
  bool trusted(const std::vector<double>& embedding, Rng& rng);

  double threshold() const { return threshold_; }
  bool fitted() const { return fitted_; }

 private:
  std::vector<double> standardize(const std::vector<double>& x) const;

  StarNetConfig cfg_;
  Vae vae_;
  std::vector<double> mean_, stddev_;
  double threshold_ = 0.0;
  bool fitted_ = false;
};

/// Adapts a fitted StarNet into the core::UncertaintySource interface
/// consumed by core::OffloadExecutor: the returned score is the
/// likelihood regret normalized by the calibrated trust threshold, so
/// the executor's default regret_gate of 1.0 means "offload exactly the
/// embeddings STARNet would distrust". Owns its own seeded Rng for the
/// SPSA draws (member-local → thread-count deterministic). Before fit()
/// the adapter reports 0 (confident — keep local).
class StarNetUncertainty : public core::UncertaintySource {
 public:
  StarNetUncertainty(StarNet& starnet, std::uint64_t seed)
      : starnet_(starnet), rng_(seed) {}

  double score(const core::Observation& obs) override;

 private:
  StarNet& starnet_;
  Rng rng_;
};

}  // namespace s2a::monitor
