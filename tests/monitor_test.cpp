// Tests for the reliability-monitoring stack: VAE training and ELBO
// semantics, SPSA on analytic objectives, likelihood-regret separation of
// in- vs out-of-distribution inputs, STARNet trust gating, LoRA-based
// adaptation, and trust-gated fusion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "monitor/fusion.hpp"
#include "monitor/likelihood_regret.hpp"
#include "monitor/spsa.hpp"
#include "monitor/starnet.hpp"
#include "monitor/vae.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace s2a::monitor {
namespace {

// Clean data: a correlated 2-mode Gaussian mixture in `dim` dimensions.
std::vector<std::vector<double>> make_clean_data(int n, int dim, Rng& rng) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(static_cast<std::size_t>(dim));
    const double mode = rng.bernoulli(0.5) ? 1.0 : -1.0;
    for (int d = 0; d < dim; ++d)
      x[static_cast<std::size_t>(d)] =
          mode * (d % 2 == 0 ? 1.0 : -0.5) + rng.normal(0.0, 0.3);
    data.push_back(std::move(x));
  }
  return data;
}

std::vector<double> make_anomaly(int dim, Rng& rng) {
  std::vector<double> x(static_cast<std::size_t>(dim));
  for (auto& v : x) v = rng.normal(0.0, 3.0) + 4.0;  // far off-manifold
  return x;
}

TEST(GaussianKl, ZeroForStandardNormal) {
  EXPECT_DOUBLE_EQ(gaussian_kl({0.0, 0.0}, {0.0, 0.0}), 0.0);
}

TEST(GaussianKl, PositiveOtherwise) {
  EXPECT_GT(gaussian_kl({1.0}, {0.0}), 0.0);
  EXPECT_GT(gaussian_kl({0.0}, {1.0}), 0.0);
  EXPECT_GT(gaussian_kl({0.0}, {-1.0}), 0.0);
}

TEST(GaussianKl, KnownValue) {
  // KL(N(1, 1) || N(0,1)) = 0.5.
  EXPECT_NEAR(gaussian_kl({1.0}, {0.0}), 0.5, 1e-12);
}

TEST(VaeModel, TrainingReducesLoss) {
  Rng rng(1);
  VaeConfig cfg;
  cfg.input_dim = 8;
  Vae vae(cfg, rng);
  const auto data = make_clean_data(64, 8, rng);
  nn::Adam opt(5e-3);
  opt.attach(vae.params(), vae.grads());
  double first = 0.0, last = 0.0;
  for (int e = 0; e < 60; ++e) {
    const double l = vae.train_step(data, opt, rng);
    if (e == 0) first = l;
    last = l;
  }
  EXPECT_LT(last, first * 0.8);
}

TEST(VaeModel, ElboHigherForTrainingDataThanAnomalies) {
  Rng rng(2);
  VaeConfig cfg;
  cfg.input_dim = 8;
  Vae vae(cfg, rng);
  const auto data = make_clean_data(64, 8, rng);
  vae.fit(data, 80, 16, 5e-3, rng);

  double elbo_clean = 0.0;
  for (int i = 0; i < 16; ++i) elbo_clean += vae.elbo(data[static_cast<std::size_t>(i)]);
  elbo_clean /= 16;
  double elbo_anom = 0.0;
  for (int i = 0; i < 16; ++i) elbo_anom += vae.elbo(make_anomaly(8, rng));
  elbo_anom /= 16;
  EXPECT_GT(elbo_clean, elbo_anom);
}

TEST(VaeModel, EncodeDecodeShapes) {
  Rng rng(3);
  VaeConfig cfg;
  cfg.input_dim = 6;
  cfg.latent_dim = 3;
  Vae vae(cfg, rng);
  const auto q = vae.encode(std::vector<double>(6, 0.1));
  EXPECT_EQ(q.mu.size(), 3u);
  EXPECT_EQ(q.logvar.size(), 3u);
  EXPECT_EQ(vae.decode(q.mu).size(), 6u);
}

TEST(Spsa, MinimizesQuadratic) {
  Rng rng(4);
  auto f = [](const std::vector<double>& t) {
    double s = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const double d = t[i] - static_cast<double>(i);
      s += d * d;
    }
    return s;
  };
  SpsaConfig cfg;
  cfg.iterations = 400;
  cfg.a = 0.5;
  const SpsaResult r = spsa_minimize(f, {5.0, -3.0, 7.0}, cfg, rng);
  EXPECT_LT(r.best_value, 0.5);
}

TEST(Spsa, EvaluationCountIndependentOfDimension) {
  Rng rng(5);
  auto f = [](const std::vector<double>& t) {
    double s = 0.0;
    for (double v : t) s += v * v;
    return s;
  };
  SpsaConfig cfg;
  cfg.iterations = 10;
  const SpsaResult small = spsa_minimize(f, std::vector<double>(2, 1.0), cfg, rng);
  const SpsaResult large = spsa_minimize(f, std::vector<double>(50, 1.0), cfg, rng);
  EXPECT_EQ(small.function_evaluations, large.function_evaluations);
}

TEST(Spsa, KeepsBestIterate) {
  Rng rng(6);
  auto f = [](const std::vector<double>& t) { return t[0] * t[0]; };
  SpsaConfig cfg;
  cfg.iterations = 50;
  const SpsaResult r = spsa_minimize(f, {2.0}, cfg, rng);
  EXPECT_LE(r.best_value, f({2.0}));
}

class RegretOptimizerTest : public ::testing::TestWithParam<RegretOptimizer> {};

TEST_P(RegretOptimizerTest, SeparatesCleanFromAnomalous) {
  Rng rng(7);
  VaeConfig vcfg;
  vcfg.input_dim = 8;
  Vae vae(vcfg, rng);
  const auto data = make_clean_data(64, 8, rng);
  vae.fit(data, 80, 16, 5e-3, rng);

  RegretConfig rcfg;
  rcfg.optimizer = GetParam();

  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) {
    scores.push_back(
        likelihood_regret(vae, data[static_cast<std::size_t>(i)], rcfg, rng).regret);
    labels.push_back(0);
  }
  for (int i = 0; i < 12; ++i) {
    scores.push_back(likelihood_regret(vae, make_anomaly(8, rng), rcfg, rng).regret);
    labels.push_back(1);
  }
  EXPECT_GT(auc_roc(scores, labels), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Optimizers, RegretOptimizerTest,
    ::testing::Values(RegretOptimizer::kSpsa, RegretOptimizer::kFiniteDifference),
    [](const ::testing::TestParamInfo<RegretOptimizer>& info) {
      return info.param == RegretOptimizer::kSpsa ? "spsa" : "finite_diff";
    });

TEST(Regret, SpsaUsesFarFewerEvaluationsThanFiniteDifference) {
  Rng rng(8);
  VaeConfig vcfg;
  vcfg.input_dim = 8;
  vcfg.latent_dim = 6;  // 12 posterior parameters
  Vae vae(vcfg, rng);
  const auto data = make_clean_data(32, 8, rng);
  vae.fit(data, 30, 16, 5e-3, rng);

  RegretConfig spsa_cfg;
  spsa_cfg.optimizer = RegretOptimizer::kSpsa;
  spsa_cfg.spsa.iterations = 40;
  RegretConfig fd_cfg;
  fd_cfg.optimizer = RegretOptimizer::kFiniteDifference;
  fd_cfg.fd_iterations = 40;

  const auto spsa_res = likelihood_regret(vae, data[0], spsa_cfg, rng);
  const auto fd_res = likelihood_regret(vae, data[0], fd_cfg, rng);
  EXPECT_LT(spsa_res.function_evaluations, fd_res.function_evaluations / 3);
}

TEST(Regret, NonNegativeAndEncoderElboConsistent) {
  Rng rng(9);
  VaeConfig vcfg;
  vcfg.input_dim = 8;
  Vae vae(vcfg, rng);
  const auto data = make_clean_data(32, 8, rng);
  vae.fit(data, 40, 16, 5e-3, rng);
  const auto r = likelihood_regret(vae, data[0], RegretConfig{}, rng);
  EXPECT_GE(r.regret, 0.0);
  EXPECT_NEAR(r.elbo_encoder, vae.elbo(data[0]), 1e-9);
}

TEST(StarNetMonitor, TrustsCleanFlagsCorrupted) {
  Rng rng(10);
  StarNetConfig cfg;
  cfg.vae.input_dim = 8;
  StarNet net(cfg, rng);
  const auto clean = make_clean_data(64, 8, rng);
  net.fit(clean, rng);
  ASSERT_TRUE(net.fitted());

  int clean_trusted = 0;
  for (int i = 0; i < 16; ++i)
    if (net.trusted(clean[static_cast<std::size_t>(i)], rng)) ++clean_trusted;
  int anom_trusted = 0;
  for (int i = 0; i < 16; ++i)
    if (net.trusted(make_anomaly(8, rng), rng)) ++anom_trusted;
  EXPECT_GE(clean_trusted, 12);
  EXPECT_LE(anom_trusted, 4);
}

TEST(StarNetMonitor, ThresholdMatchesCalibrationPercentile) {
  Rng rng(11);
  StarNetConfig cfg;
  cfg.vae.input_dim = 8;
  cfg.threshold_percentile = 95.0;
  StarNet net(cfg, rng);
  const auto clean = make_clean_data(64, 8, rng);
  net.fit(clean, rng);
  // About 95% of clean data should score under the threshold.
  int under = 0;
  for (const auto& x : clean)
    if (net.score(x, rng) <= net.threshold()) ++under;
  EXPECT_GE(under, static_cast<int>(clean.size() * 0.82));
}

// Pins score() to recorded values on the loop benchmark's VAE shape
// (32-dim embedding, hidden 48, latent 6, default 60 SPSA iterations).
// The regret objective's buffers may change; its arithmetic may not, so
// every score and threshold must stay bit-identical on every SIMD
// family (the GEMM kernels are bit-exact to the scalar oracle).
TEST(StarNetMonitor, ScoresArePinnedForFixedSeeds) {
  struct Pinned {
    std::uint64_t seed;
    double threshold;
    double scores[3];  // clean[0], clean[1], one anomaly
  };
  const Pinned pinned[] = {
      {21, 1.9698372657284764,
       {1.4549492928918557, 0.9253812316300607, 57.997413567932313}},
      {22, 0.79081899358085561,
       {0.28630320921359997, 0.66416131229134745, 38.706455930947641}},
      {23, 3.0057324341475571,
       {1.5498380089782913, 2.6225171261073474, 21.248115440135962}},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.seed);
    Rng rng(p.seed);
    StarNetConfig cfg;
    cfg.vae.input_dim = 32;
    cfg.vae.hidden = 48;
    cfg.vae.latent_dim = 6;
    cfg.vae_epochs = 10;
    StarNet net(cfg, rng);
    const auto clean = make_clean_data(32, 32, rng);
    net.fit(clean, rng);
    EXPECT_EQ(net.threshold(), p.threshold);
    EXPECT_EQ(net.score(clean[0], rng), p.scores[0]);
    EXPECT_EQ(net.score(clean[1], rng), p.scores[1]);
    EXPECT_EQ(net.score(make_anomaly(32, rng), rng), p.scores[2]);
  }
}

// An embedding the VAE cannot score — a NaN, ±inf, or a finite value
// large enough to overflow the ELBO — must fail closed: its regret is
// +inf and trusted() is false, never the 0 of a perfectly explained
// input. A large but finite shift still scores finite.
TEST(StarNetMonitor, NonFiniteRegretFailsClosed) {
  Rng rng(13);
  StarNetConfig cfg;
  cfg.vae.input_dim = 8;
  StarNet net(cfg, rng);
  const auto clean = make_clean_data(64, 8, rng);
  net.fit(clean, rng);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 1e300}) {
    SCOPED_TRACE(bad);
    auto x = clean[0];
    x[3] = bad;
    EXPECT_EQ(net.score(x, rng), inf);
    EXPECT_FALSE(net.trusted(x, rng));
  }
  auto scaled = clean[0];
  for (auto& v : scaled) v *= 50.0;
  const double s = net.score(scaled, rng);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_GT(s, net.threshold());
}

TEST(StarNetMonitor, ScoreBeforeFitThrows) {
  Rng rng(12);
  StarNetConfig cfg;
  cfg.vae.input_dim = 4;
  StarNet net(cfg, rng);
  EXPECT_THROW(net.score({0, 0, 0, 0}, rng), CheckError);
}

TEST(CameraSim, DetectsMostObjectsCleanly) {
  Rng rng(13);
  sim::SceneConfig sc;
  const sim::Scene scene = sim::generate_scene(sc, rng);
  CameraDetectorConfig cfg;
  cfg.miss_prob = 0.0;
  cfg.false_positives_mean = 0.0;
  const auto dets = simulate_camera_detections(scene, 0, cfg, rng);
  EXPECT_EQ(dets.size(), scene.objects.size());
}

TEST(CameraSim, SeverityIncreasesMisses) {
  Rng rng(14);
  sim::SceneConfig sc;
  sc.cars_min = sc.cars_max = 5;
  CameraDetectorConfig cfg;
  cfg.miss_prob = 0.2;
  cfg.miss_per_severity = 0.1;
  int mild = 0, severe = 0;
  for (int t = 0; t < 30; ++t) {
    const sim::Scene scene = sim::generate_scene(sc, rng);
    mild += static_cast<int>(simulate_camera_detections(scene, 0, cfg, rng).size());
    severe += static_cast<int>(simulate_camera_detections(scene, 5, cfg, rng).size());
  }
  EXPECT_GT(mild, severe);
}

TEST(Fusion, UntrustedDropsLidar) {
  std::vector<lidar::Detection> ld{
      {sim::ObjectClass::kCar, {{1, 1, 0.8}, {4, 2, 1.6}}, 0.9}};
  std::vector<lidar::Detection> cd{
      {sim::ObjectClass::kPedestrian, {{5, 5, 0.9}, {0.6, 0.6, 1.75}}, 0.7}};
  const auto fused = trust_gated_fuse(ld, cd, /*lidar_trusted=*/false);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].cls, sim::ObjectClass::kPedestrian);
}

TEST(Fusion, TrustedMergesAndDeduplicates) {
  Box3 box{{1, 1, 0.8}, {4, 2, 1.6}};
  std::vector<lidar::Detection> ld{{sim::ObjectClass::kCar, box, 0.6}};
  std::vector<lidar::Detection> cd{
      {sim::ObjectClass::kCar, box, 0.8},  // duplicate, higher score
      {sim::ObjectClass::kCyclist, {{9, 9, 0.85}, {1.8, 0.6, 1.7}}, 0.5}};
  const auto fused = trust_gated_fuse(ld, cd, /*lidar_trusted=*/true);
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_DOUBLE_EQ(fused[0].score, 0.8);  // deduplicated, kept higher
  EXPECT_EQ(fused[1].cls, sim::ObjectClass::kCyclist);
}

TEST(Fusion, TrustedKeepsDistinctDetectionsOfSameClass) {
  std::vector<lidar::Detection> ld{
      {sim::ObjectClass::kCar, {{1, 1, 0.8}, {4, 2, 1.6}}, 0.9}};
  std::vector<lidar::Detection> cd{
      {sim::ObjectClass::kCar, {{20, 20, 0.8}, {4, 2, 1.6}}, 0.7}};
  EXPECT_EQ(trust_gated_fuse(ld, cd, true).size(), 2u);
}

}  // namespace
}  // namespace s2a::monitor

// ------------------------------------------------------------------
// Temporal consistency monitoring (Sec. V future enhancement).
#include "monitor/temporal.hpp"

namespace s2a::monitor {
namespace {

std::vector<std::vector<double>> clean_stream(int n, int dim, Rng& rng,
                                              double bias = 0.0) {
  std::vector<std::vector<double>> out;
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(static_cast<std::size_t>(dim));
    for (auto& v : x) v = bias + rng.normal(0.0, 1.0);
    out.push_back(std::move(x));
  }
  return out;
}

TEST(TemporalMonitor, StableStreamStaysBelowThreshold) {
  Rng rng(1);
  TemporalConsistencyMonitor mon;
  mon.calibrate(clean_stream(64, 8, rng));
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x(8);
    for (auto& v : x) v = rng.normal(0.0, 1.0);
    mon.update(x);
  }
  EXPECT_FALSE(mon.drifting());
  EXPECT_LT(mon.drift_score(), 3.0);
}

TEST(TemporalMonitor, GradualDriftIsDetected) {
  Rng rng(2);
  TemporalConsistencyMonitor mon;
  mon.calibrate(clean_stream(64, 8, rng));
  // Sensor bias grows slowly — each individual sample stays within ~2σ of
  // clean (per-sample monitors would pass), but the EMA walks away.
  bool alarmed = false;
  for (int i = 0; i < 200 && !alarmed; ++i) {
    const double bias = 0.01 * i;  // reaches 2σ at the end
    std::vector<double> x(8);
    for (auto& v : x) v = bias + rng.normal(0.0, 1.0);
    mon.update(x);
    alarmed = mon.drifting();
  }
  EXPECT_TRUE(alarmed);
}

TEST(TemporalMonitor, ResetClearsRunningStateNotCalibration) {
  Rng rng(3);
  TemporalConsistencyMonitor mon;
  mon.calibrate(clean_stream(32, 4, rng));
  mon.update({10, 10, 10, 10});
  EXPECT_GT(mon.drift_score(), 0.0);
  mon.reset();
  EXPECT_DOUBLE_EQ(mon.drift_score(), 0.0);
  EXPECT_TRUE(mon.calibrated());
}

TEST(TemporalMonitor, UpdateBeforeCalibrateThrows) {
  TemporalConsistencyMonitor mon;
  EXPECT_THROW(mon.update({0.0}), CheckError);
}

}  // namespace
}  // namespace s2a::monitor

namespace s2a::monitor {
namespace {

TEST(AdaptiveFusion, ReliabilityScalesLidarScores) {
  std::vector<lidar::Detection> ld{
      {sim::ObjectClass::kCar, {{1, 1, 0.8}, {4, 2, 1.6}}, 0.9}};
  std::vector<lidar::Detection> cd{
      {sim::ObjectClass::kPedestrian, {{5, 5, 0.9}, {0.6, 0.6, 1.75}}, 0.6}};
  const auto fused = reliability_weighted_fuse(ld, cd, 0.5);
  ASSERT_EQ(fused.size(), 2u);
  // LiDAR car score halved: camera detection now outranks it.
  EXPECT_EQ(fused[0].cls, sim::ObjectClass::kPedestrian);
  EXPECT_DOUBLE_EQ(fused[1].score, 0.45);
}

TEST(AdaptiveFusion, FullReliabilityMatchesTrustedGate) {
  std::vector<lidar::Detection> ld{
      {sim::ObjectClass::kCar, {{1, 1, 0.8}, {4, 2, 1.6}}, 0.9}};
  std::vector<lidar::Detection> cd{
      {sim::ObjectClass::kCyclist, {{9, 9, 0.85}, {1.8, 0.6, 1.7}}, 0.5}};
  const auto a = reliability_weighted_fuse(ld, cd, 1.0);
  const auto b = trust_gated_fuse(ld, cd, true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
}

TEST(AdaptiveFusion, ZeroReliabilityKeepsOnlyCameraRanking) {
  std::vector<lidar::Detection> ld{
      {sim::ObjectClass::kCar, {{1, 1, 0.8}, {4, 2, 1.6}}, 0.9}};
  const auto fused = reliability_weighted_fuse(ld, {}, 0.0);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_DOUBLE_EQ(fused[0].score, 0.0);  // present but rank-dead
}

TEST(AdaptiveFusion, RegretMapsToSoftReliability) {
  EXPECT_DOUBLE_EQ(regret_to_reliability(0.5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(regret_to_reliability(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(regret_to_reliability(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(regret_to_reliability(10.0, 1.0), 0.1);
  EXPECT_THROW(regret_to_reliability(1.0, 0.0), CheckError);
}

// A broken monitor (NaN embedding, overflowed ELBO) must weight the
// stream at zero, never propagate non-finite values into detection
// score scaling; negative finite scores clamp to full reliability.
TEST(AdaptiveFusion, RegretReliabilityClampsNonFiniteAndNegative) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(regret_to_reliability(nan, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(regret_to_reliability(inf, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(regret_to_reliability(-inf, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(regret_to_reliability(-5.0, 1.0), 1.0);
  // The scaled score stays finite even when the regret is not.
  std::vector<lidar::Detection> ld{
      {sim::ObjectClass::kCar, {{1, 1, 0.8}, {4, 2, 1.6}}, 0.9}};
  const auto fused =
      reliability_weighted_fuse(ld, {}, regret_to_reliability(nan, 1.0));
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_TRUE(std::isfinite(fused[0].score));
  EXPECT_DOUBLE_EQ(fused[0].score, 0.0);
}

TEST(StarNetUncertaintyAdapter, UnfittedReportsConfident) {
  Rng rng(3);
  StarNetConfig cfg;
  cfg.vae.input_dim = 4;
  StarNet net(cfg, rng);
  StarNetUncertainty gate(net, /*seed=*/5);
  core::Observation obs;
  obs.data = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(gate.score(obs), 0.0);
}

}  // namespace
}  // namespace s2a::monitor
