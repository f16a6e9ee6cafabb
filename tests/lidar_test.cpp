// Tests for the generative-sensing stack: voxelization round trips,
// masking statistics (coverage and radial structure), autoencoder
// learning, detector training and AP evaluation, energy accounting, and
// the end-to-end pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lidar/autoencoder.hpp"
#include "lidar/detector.hpp"
#include "lidar/energy.hpp"
#include "lidar/masking.hpp"
#include "lidar/pipeline.hpp"
#include "lidar/voxel_grid.hpp"
#include "nn/optimizer.hpp"
#include "sim/scene.hpp"

namespace s2a::lidar {
namespace {

sim::Scene one_car_scene(double x = 15.0, double y = 0.0) {
  sim::Scene scene;
  sim::SceneObject car;
  car.cls = sim::ObjectClass::kCar;
  car.box = {{x, y, 0.8}, {4.2, 1.8, 1.6}};
  scene.objects.push_back(car);
  return scene;
}

TEST(Voxelizer, EmptyCloudEmptyGrid) {
  sim::PointCloud pc;
  const VoxelGrid g = VoxelGrid::from_cloud(pc, VoxelGridConfig{});
  EXPECT_EQ(g.occupied_count(), 0u);
}

TEST(Voxelizer, CarOccupiesVoxelsNearItsCenter) {
  sim::LidarConfig lc;
  sim::LidarSimulator lidar(lc);
  Rng rng(1);
  const sim::Scene scene = one_car_scene();
  const sim::PointCloud pc = lidar.full_scan(scene, rng);
  VoxelGridConfig gc;
  const VoxelGrid g = VoxelGrid::from_cloud(pc, gc);
  ASSERT_GT(g.occupied_count(), 0u);
  // Every occupied voxel should be near the car (only object in scene).
  for (int z = 0; z < gc.nz; ++z)
    for (int y = 0; y < gc.ny; ++y)
      for (int x = 0; x < gc.nx; ++x)
        if (g.occupied(x, y, z)) {
          const Vec3 c = g.voxel_center(x, y, z);
          EXPECT_LT((c - Vec3{15.0, 0.0, 0.8}).norm(), 6.0);
        }
}

TEST(Voxelizer, GroundReturnsExcluded) {
  sim::LidarConfig lc;
  sim::LidarSimulator lidar(lc);
  Rng rng(2);
  sim::Scene empty;  // ground only
  const sim::PointCloud pc = lidar.full_scan(empty, rng);
  ASSERT_GT(pc.hit_count(), 0u);
  const VoxelGrid g = VoxelGrid::from_cloud(pc, VoxelGridConfig{});
  EXPECT_EQ(g.occupied_count(), 0u);
}

TEST(Voxelizer, TensorRoundTrip) {
  VoxelGridConfig gc;
  gc.nx = gc.ny = 8;
  gc.nz = 2;
  VoxelGrid g(gc);
  g.set(1, 2, 0, true);
  g.set(7, 7, 1, true);
  const VoxelGrid g2 = VoxelGrid::from_tensor(g.to_tensor(), gc);
  EXPECT_DOUBLE_EQ(g.iou(g2), 1.0);
  EXPECT_EQ(g2.occupied_count(), 2u);
}

TEST(Voxelizer, IouDisjointAndPartial) {
  VoxelGridConfig gc;
  gc.nx = gc.ny = 4;
  gc.nz = 1;
  VoxelGrid a(gc), b(gc);
  a.set(0, 0, 0, true);
  b.set(1, 1, 0, true);
  EXPECT_DOUBLE_EQ(a.iou(b), 0.0);
  b.set(0, 0, 0, true);
  EXPECT_DOUBLE_EQ(a.iou(b), 0.5);
}

TEST(Voxelizer, AzimuthAndRangeGeometry) {
  VoxelGridConfig gc;
  const VoxelGrid g(gc);
  // Voxel on the +x axis: azimuth near 0 (or 2π), range ≈ x.
  const int ix = gc.nx - 1, iy = gc.ny / 2;
  const double az = g.voxel_azimuth(ix, iy);
  EXPECT_TRUE(az < 0.3 || az > 2 * 3.14159 - 0.3);
  EXPECT_NEAR(g.voxel_range(ix, iy), g.voxel_center(ix, iy, 0).range_xy(),
              1e-12);
}

class MaskerCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(MaskerCoverageTest, UniformMaskerHitsTargetFraction) {
  const double keep = GetParam();
  UniformMasker m(keep);
  VoxelGridConfig gc;
  VoxelGrid g(gc);
  Rng rng(3);
  double frac = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const auto mask = m.voxel_mask(g, rng);
    std::size_t vis = 0;
    for (bool b : mask)
      if (b) ++vis;
    frac += static_cast<double>(vis) / mask.size();
  }
  frac /= trials;
  EXPECT_NEAR(frac, keep, 0.05);
}

INSTANTIATE_TEST_SUITE_P(KeepFractions, MaskerCoverageTest,
                         ::testing::Values(0.05, 0.1, 0.3, 0.7));

TEST(RadialMasking, CoverageBelowTenPercent) {
  RadialMasker m;  // defaults calibrated to the paper's <10% coverage
  sim::LidarConfig lc;
  Rng rng(4);
  double coverage = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto plan = m.beam_plan(lc, rng);
    coverage += static_cast<double>(plan.size()) /
                (lc.azimuth_steps * lc.elevation_steps);
  }
  coverage /= trials;
  EXPECT_LT(coverage, 0.10);
  EXPECT_GT(coverage, 0.05);
}

TEST(RadialMasking, VisibleVoxelsClusterInSegments) {
  RadialMasker m;
  VoxelGridConfig gc;
  VoxelGrid g(gc);
  Rng rng(5);
  const auto mask = m.voxel_mask(g, rng);
  // Count visible columns per angular segment; kept segments should hold
  // essentially all of the visible mass.
  const int segments = m.config().angular_segments;
  std::vector<int> per_segment(static_cast<std::size_t>(segments), 0);
  for (int y = 0; y < gc.ny; ++y)
    for (int x = 0; x < gc.nx; ++x) {
      if (!mask[static_cast<std::size_t>(y) * gc.nx + x]) continue;
      const int seg = std::min(
          segments - 1, static_cast<int>(g.voxel_azimuth(x, y) /
                                         (2 * 3.14159265358979) * segments));
      per_segment[static_cast<std::size_t>(seg)]++;
    }
  int active_segments = 0;
  for (int c : per_segment)
    if (c > 0) ++active_segments;
  const int expected_kept = static_cast<int>(
      segments * m.config().segment_keep_fraction);
  EXPECT_LE(active_segments, expected_kept + 1);
}

TEST(RadialMasking, NearVoxelsKeptMoreOftenThanFar) {
  RadialMaskerConfig cfg;
  cfg.segment_keep_fraction = 1.0;  // isolate the radial stage
  RadialMasker m(cfg);
  VoxelGridConfig gc;
  VoxelGrid g(gc);
  Rng rng(6);
  int near_vis = 0, near_total = 0, far_vis = 0, far_total = 0;
  for (int t = 0; t < 20; ++t) {
    const auto mask = m.voxel_mask(g, rng);
    for (int y = 0; y < gc.ny; ++y)
      for (int x = 0; x < gc.nx; ++x) {
        const double r = g.voxel_range(x, y);
        const bool vis = mask[static_cast<std::size_t>(y) * gc.nx + x];
        if (r < 15.0) {
          ++near_total;
          if (vis) ++near_vis;
        } else if (r > 35.0) {
          ++far_total;
          if (vis) ++far_vis;
        }
      }
  }
  EXPECT_GT(static_cast<double>(near_vis) / near_total,
            2.0 * static_cast<double>(far_vis) / far_total);
}

TEST(RadialMasking, BeamPlanAveragePulseEnergyNearPaperValue) {
  RadialMasker m;
  sim::LidarConfig lc;  // 50 µJ full pulse
  sim::LidarSimulator lidar(lc);
  Rng rng(7);
  double energy = 0.0;
  std::size_t pulses = 0;
  for (int t = 0; t < 20; ++t) {
    for (const auto& cmd : m.beam_plan(lc, rng)) {
      energy += lidar.pulse_energy_for_range(cmd.target_range);
      ++pulses;
    }
  }
  const double avg_uj = energy / pulses * 1e6;
  // Paper reports 5.5 µJ; accept a generous band around it.
  EXPECT_GT(avg_uj, 2.0);
  EXPECT_LT(avg_uj, 10.0);
}

TEST(Masking, ApplyMaskZeroesHiddenVoxels) {
  VoxelGridConfig gc;
  gc.nx = gc.ny = 4;
  gc.nz = 1;
  VoxelGrid g(gc);
  g.set(0, 0, 0, true);
  g.set(1, 0, 0, true);
  std::vector<bool> visible(16, false);
  visible[0] = true;  // only (0,0) visible
  const nn::Tensor t = Masker::apply_mask(g, visible);
  EXPECT_DOUBLE_EQ(t[0], 1.0);
  EXPECT_DOUBLE_EQ(t[1], 0.0);  // masked occupied voxel hidden
}

TEST(Autoencoder, ShapesAndParamCount) {
  Rng rng(8);
  AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  OccupancyAutoencoder ae(cfg, rng);
  const nn::Tensor in({1, cfg.grid.nz, 16, 16});
  const nn::Tensor z = ae.encode(in);
  EXPECT_EQ(z.shape(), (std::vector<int>{1, cfg.c2, 4, 4}));
  const nn::Tensor out = ae.decode(z);
  EXPECT_EQ(out.shape(), in.shape());
  EXPECT_GT(ae.param_count(), 1000u);
}

TEST(Autoencoder, ReconstructionOutputsProbabilities) {
  Rng rng(9);
  AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  OccupancyAutoencoder ae(cfg, rng);
  const nn::Tensor in = nn::Tensor::randn({1, cfg.grid.nz, 16, 16}, rng);
  const nn::Tensor p = ae.reconstruct(in);
  for (std::size_t i = 0; i < p.numel(); ++i) {
    EXPECT_GE(p[i], 0.0);
    EXPECT_LE(p[i], 1.0);
  }
}

TEST(Autoencoder, ReconstructRecordsTheTrainingMacCount) {
  // reconstruct() runs Layer::infer, which still records the output
  // sizes macs_per_scan() (and so the energy bill) is computed from.
  AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  Rng r1(12), r2(12);
  OccupancyAutoencoder inferred(cfg, r1), trained(cfg, r2);
  const nn::Tensor in({1, cfg.grid.nz, 16, 16});
  inferred.reconstruct(in);
  trained.decode(trained.encode(in));
  EXPECT_GT(trained.macs_per_scan(), 0u);
  EXPECT_EQ(inferred.macs_per_scan(), trained.macs_per_scan());
}

TEST(Autoencoder, TrainingReducesLoss) {
  Rng rng(10);
  AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  cfg.c1 = 8;
  cfg.c2 = 8;
  OccupancyAutoencoder ae(cfg, rng);
  nn::Adam opt(1e-2);
  opt.attach(ae.params(), ae.grads());

  // One fixed pattern, masked: can it memorize?
  nn::Tensor target({1, cfg.grid.nz, 16, 16});
  for (std::size_t i = 0; i < target.numel(); i += 7) target[i] = 1.0;
  nn::Tensor masked = target;
  for (std::size_t i = 0; i < masked.numel(); i += 2) masked[i] = 0.0;

  const double first = ae.train_step(masked, target, opt);
  double last = first;
  for (int i = 0; i < 60; ++i) last = ae.train_step(masked, target, opt);
  EXPECT_LT(last, 0.5 * first);
}

TEST(Autoencoder, SurfaceWeightsMarkNeighborhoods) {
  VoxelGridConfig gc;
  gc.nx = gc.ny = 8;
  gc.nz = 1;
  nn::Tensor target({1, 1, 8, 8});
  target[static_cast<std::size_t>(3) * 8 + 3] = 1.0;  // voxel (3,3)
  const auto w = surface_weights(target, gc, 0.1);
  EXPECT_DOUBLE_EQ(w[static_cast<std::size_t>(3) * 8 + 3], 1.0);
  EXPECT_DOUBLE_EQ(w[static_cast<std::size_t>(2) * 8 + 4], 1.0);  // neighbor
  EXPECT_DOUBLE_EQ(w[static_cast<std::size_t>(7) * 8 + 7], 0.1);  // far
}

TEST(Autoencoder, EmbeddingHasLatentWidth) {
  Rng rng(11);
  AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  OccupancyAutoencoder ae(cfg, rng);
  const auto e = ae.embedding(nn::Tensor({1, cfg.grid.nz, 16, 16}));
  EXPECT_EQ(e.size(), static_cast<std::size_t>(cfg.c2));
}

TEST(Quantized, ReconstructionErrorWithinBand) {
  // Int8 inference (after quantize()) must track the float
  // reconstruction within a tight probability band. Fixed seeds; the
  // bands have ~5x headroom over observed error so they catch scheme
  // regressions (bad scales, wrong dequant order), not rounding noise.
  Rng rng(91);
  AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  cfg.c1 = 8;
  cfg.c2 = 8;
  OccupancyAutoencoder ae(cfg, rng);
  nn::Tensor target({1, cfg.grid.nz, 16, 16});
  for (std::size_t i = 0; i < target.numel(); i += 7) target[i] = 1.0;
  nn::Tensor masked = target;
  for (std::size_t i = 0; i < masked.numel(); i += 2) masked[i] = 0.0;
  nn::Adam opt(1e-2);
  opt.attach(ae.params(), ae.grads());
  for (int i = 0; i < 30; ++i) ae.train_step(masked, target, opt);

  const nn::Tensor p_float = ae.reconstruct(masked);
  ae.quantize();
  EXPECT_TRUE(ae.is_quantized());
  const nn::Tensor p_int8 = ae.reconstruct(masked);

  ASSERT_TRUE(p_float.same_shape(p_int8));
  double mean_abs = 0.0, max_abs = 0.0;
  for (std::size_t i = 0; i < p_float.numel(); ++i) {
    const double d = std::fabs(p_float[i] - p_int8[i]);
    mean_abs += d;
    max_abs = std::max(max_abs, d);
  }
  mean_abs /= static_cast<double>(p_float.numel());
  EXPECT_LT(mean_abs, 0.02);
  EXPECT_LT(max_abs, 0.25);
  // The int8 path really ran: quantization error is never exactly zero
  // on a trained net.
  EXPECT_GT(max_abs, 0.0);
}

TEST(Detector, PretrainedInitCopiesWeights) {
  Rng rng(12);
  AutoencoderConfig acfg;
  acfg.grid.nx = acfg.grid.ny = 16;
  OccupancyAutoencoder ae(acfg, rng);
  DetectorConfig dcfg;
  dcfg.grid = acfg.grid;
  BevDetector det(dcfg, rng);
  det.init_from_pretrained(ae);
  // The first backbone conv is the AE's first encoder conv up to a single
  // positive rescaling (transfer renormalizes to He-init scale), so the
  // filter *directions* must match exactly.
  const nn::Tensor& dw = *det.params()[0];
  const nn::Tensor& aw = *ae.encoder_conv1().params()[0];
  ASSERT_TRUE(dw.same_shape(aw));
  double dot = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < dw.numel(); ++i) {
    dot += dw[i] * aw[i];
    da += dw[i] * dw[i];
    db += aw[i] * aw[i];
  }
  EXPECT_NEAR(dot / std::sqrt(da * db), 1.0, 1e-6);
  // And the scale matches He initialization for this filter shape.
  const double std_now = std::sqrt(da / dw.numel());
  EXPECT_NEAR(std_now, std::sqrt(2.0 / (4 * 9)), 0.25 * std_now);
}

TEST(Detector, LearnsSingleCarScene) {
  Rng rng(13);
  sim::LidarConfig lc;
  sim::LidarSimulator lidar(lc);
  DetectorConfig dcfg;
  dcfg.grid.nx = dcfg.grid.ny = 32;
  dcfg.grid.extent = 30.0;
  BevDetector det(dcfg, rng);
  nn::Adam opt(3e-3);
  opt.attach(det.params(), det.grads());

  const sim::Scene scene = one_car_scene(12.0, 4.0);
  const sim::PointCloud pc = lidar.full_scan(scene, rng);
  const nn::Tensor grid = VoxelGrid::from_cloud(pc, dcfg.grid).to_tensor();

  for (int i = 0; i < 80; ++i) det.train_step(grid, scene, opt);
  const auto dets = det.detect(grid);
  ASSERT_FALSE(dets.empty());
  // Best detection should be a car near (12, 4).
  const Detection* best = &dets[0];
  for (const auto& d : dets)
    if (d.score > best->score) best = &d;
  EXPECT_EQ(best->cls, sim::ObjectClass::kCar);
  EXPECT_NEAR(best->box.center.x, 12.0, 2.5);
  EXPECT_NEAR(best->box.center.y, 4.0, 2.5);
}

TEST(Quantized, DetectionApWithinBand) {
  // The int8 detector must keep the distance-matched AP of the float
  // detector within a band on a scene the float model solves. Fixed
  // seeds throughout.
  Rng rng(92);
  sim::LidarConfig lc;
  sim::LidarSimulator lidar(lc);
  DetectorConfig dcfg;
  dcfg.grid.nx = dcfg.grid.ny = 32;
  dcfg.grid.extent = 30.0;
  BevDetector det(dcfg, rng);
  nn::Adam opt(3e-3);
  opt.attach(det.params(), det.grads());

  const sim::Scene scene = one_car_scene(12.0, 4.0);
  const sim::PointCloud pc = lidar.full_scan(scene, rng);
  const nn::Tensor grid = VoxelGrid::from_cloud(pc, dcfg.grid).to_tensor();
  for (int i = 0; i < 80; ++i) det.train_step(grid, scene, opt);

  const auto dets_float = det.detect(grid);
  const double ap_float = evaluate_ap_distance(
      {dets_float}, {scene}, sim::ObjectClass::kCar, 2.0);
  det.quantize();
  EXPECT_TRUE(det.is_quantized());
  const auto dets_int8 = det.detect(grid);
  const double ap_int8 = evaluate_ap_distance(
      {dets_int8}, {scene}, sim::ObjectClass::kCar, 2.0);

  EXPECT_GT(ap_float, 0.5);
  EXPECT_GE(ap_int8, ap_float - 0.25);
}

TEST(Detector, FeatureEmbeddingDimMatches) {
  Rng rng(14);
  DetectorConfig dcfg;
  dcfg.grid.nx = dcfg.grid.ny = 16;
  BevDetector det(dcfg, rng);
  const auto e = det.feature_embedding(nn::Tensor({1, dcfg.grid.nz, 16, 16}));
  EXPECT_EQ(static_cast<int>(e.size()), det.embedding_dim());
}

TEST(Detector, ProposalFeaturesReflectPointCount) {
  sim::PointCloud pc;
  Detection prop;
  prop.box = {{10, 0, 1}, {4, 2, 2}};
  const auto empty_feat = TwoStageDetector::proposal_features(prop, pc);
  EXPECT_DOUBLE_EQ(empty_feat[0], 0.0);

  for (int i = 0; i < 30; ++i) {
    sim::LidarReturn r;
    r.hit = true;
    r.point = {10.0 + 0.01 * i, 0.0, 1.0};
    pc.returns.push_back(r);
  }
  const auto feat = TwoStageDetector::proposal_features(prop, pc);
  EXPECT_GT(feat[0], 0.5);
  EXPECT_NEAR(feat[1], 1.0, 1e-9);  // mean z
}

TEST(Detector, ApEvaluationOracleScoresHigh) {
  // Detections exactly equal to ground truth → AP 1.
  Rng rng(15);
  sim::SceneConfig sc;
  std::vector<sim::Scene> scenes;
  std::vector<std::vector<Detection>> dets;
  for (int i = 0; i < 3; ++i) {
    scenes.push_back(sim::generate_scene(sc, rng));
    std::vector<Detection> d;
    for (const auto& obj : scenes.back().objects)
      d.push_back({obj.cls, obj.box, 0.9});
    dets.push_back(std::move(d));
  }
  for (int c = 0; c < sim::kNumObjectClasses; ++c)
    EXPECT_NEAR(evaluate_ap(dets, scenes, static_cast<sim::ObjectClass>(c), 0.5),
                1.0, 1e-9);
}

TEST(Detector, ApPenalizesFalsePositives) {
  sim::Scene scene = one_car_scene();
  std::vector<sim::Scene> scenes{scene};
  // One true match at lower score + two high-scored false positives.
  std::vector<Detection> d{
      {sim::ObjectClass::kCar, {{40, 40, 0.8}, {4.2, 1.8, 1.6}}, 0.95},
      {sim::ObjectClass::kCar, {{-40, 40, 0.8}, {4.2, 1.8, 1.6}}, 0.9},
      {sim::ObjectClass::kCar, scene.objects[0].box, 0.5},
  };
  const double ap = evaluate_ap({d}, scenes, sim::ObjectClass::kCar, 0.5);
  EXPECT_GT(ap, 0.0);
  EXPECT_LT(ap, 0.6);
}

TEST(Detector, ApIgnoresOtherClasses) {
  sim::Scene scene = one_car_scene();
  std::vector<Detection> d{
      {sim::ObjectClass::kPedestrian, scene.objects[0].box, 0.9}};
  EXPECT_DOUBLE_EQ(evaluate_ap({d}, {scene}, sim::ObjectClass::kCar, 0.5), 0.0);
}

TEST(Energy, ConventionalScanReportMatchesConfig) {
  sim::LidarConfig lc;
  lc.azimuth_steps = 90;
  lc.elevation_steps = 8;
  sim::LidarSimulator lidar(lc);
  Rng rng(16);
  sim::Scene scene;
  const sim::PointCloud pc = lidar.full_scan(scene, rng);
  const EnergyReport r = make_energy_report(pc, lc, 0, 0);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_NEAR(r.avg_pulse_energy_j, 50e-6, 1e-12);
  EXPECT_NEAR(r.sensing_energy_j, 90 * 8 * 50e-6, 1e-9);
  EXPECT_DOUBLE_EQ(r.reconstruction_energy_j, 0.0);
}

TEST(Energy, ReconstructionOverheadUsesFlopConstant) {
  sim::LidarConfig lc;
  sim::PointCloud pc;
  const EnergyReport r = make_energy_report(pc, lc, 830000, 167500000);
  EXPECT_EQ(r.flops_per_scan, 335000000u);
  EXPECT_NEAR(r.reconstruction_energy_j, 335e6 * kJoulesPerFlop, 1e-9);
  // With the paper's constants this lands at ≈7.1 mJ.
  EXPECT_NEAR(r.reconstruction_energy_j, 7.1e-3, 0.2e-3);
}

TEST(Pipeline, EndToEndEnergyAdvantage) {
  Rng rng(17);
  sim::LidarConfig lc;
  lc.azimuth_steps = 90;
  lc.elevation_steps = 8;
  AutoencoderConfig acfg;
  acfg.grid.nx = acfg.grid.ny = 16;
  acfg.c1 = 8;
  acfg.c2 = 8;
  GenerativeSensingPipeline pipe(lc, acfg, RadialMaskerConfig{}, rng);

  const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
  const SensedScene active = pipe.sense(scene, rng);
  const SensedScene conventional = pipe.sense_conventional(scene, rng);

  EXPECT_LT(active.energy.coverage, 0.15);
  EXPECT_DOUBLE_EQ(conventional.energy.coverage, 1.0);
  // Total energy advantage should be large (paper: 9.11×).
  EXPECT_GT(conventional.energy.total_energy_j() /
                active.energy.total_energy_j(),
            3.0);
}

TEST(Pipeline, BillsInt8ExactlyWhenAutoencoderIsQuantized) {
  Rng rng(18);
  sim::LidarConfig lc;
  lc.azimuth_steps = 90;
  lc.elevation_steps = 8;
  AutoencoderConfig acfg;
  acfg.grid.nx = acfg.grid.ny = 16;
  acfg.c1 = 8;
  acfg.c2 = 8;
  GenerativeSensingPipeline pipe(lc, acfg, RadialMaskerConfig{}, rng);
  const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);

  Rng sense_rng = rng;
  const SensedScene float_scan = pipe.sense(scene, sense_rng);
  EXPECT_EQ(float_scan.energy.int8_macs_per_scan, 0u);
  pipe.autoencoder().quantize();
  sense_rng = rng;
  const SensedScene int8_scan = pipe.sense(scene, sense_rng);
  EXPECT_EQ(int8_scan.energy.int8_macs_per_scan,
            pipe.autoencoder().macs_per_scan());
  EXPECT_LT(int8_scan.energy.reconstruction_energy_j,
            float_scan.energy.reconstruction_energy_j);
}

TEST(Pipeline, PretrainingImprovesReconstruction) {
  Rng rng(18);
  sim::LidarConfig lc;
  lc.azimuth_steps = 90;
  lc.elevation_steps = 8;
  AutoencoderConfig acfg;
  acfg.grid.nx = acfg.grid.ny = 16;
  acfg.c1 = 8;
  acfg.c2 = 8;
  GenerativeSensingPipeline pipe(lc, acfg, RadialMaskerConfig{}, rng);

  sim::SceneConfig sc;
  Rng eval_rng(19);
  const sim::Scene test_scene = sim::generate_scene(sc, eval_rng);
  const sim::PointCloud full = pipe.lidar().full_scan(test_scene, eval_rng);
  const VoxelGrid truth = VoxelGrid::from_cloud(full, acfg.grid);
  const nn::Tensor target = truth.to_tensor();

  // Held-out masked-reconstruction BCE (probability space, clamped).
  auto eval_bce = [&](Rng& r) {
    const auto visible = pipe.masker().voxel_mask(truth, r);
    const nn::Tensor masked = Masker::apply_mask(truth, visible);
    const nn::Tensor p = pipe.autoencoder().reconstruct(masked);
    double bce = 0.0;
    for (std::size_t i = 0; i < p.numel(); ++i) {
      const double pi = std::clamp(p[i], 1e-6, 1.0 - 1e-6);
      bce += -(target[i] * std::log(pi) + (1 - target[i]) * std::log(1 - pi));
    }
    return bce / static_cast<double>(p.numel());
  };

  Rng r1(20), r2(20);
  const double before = eval_bce(r1);
  pipe.pretrain(/*num_scenes=*/8, /*epochs=*/30, /*lr=*/3e-3, rng, sc);
  const double after = eval_bce(r2);
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace s2a::lidar

// ------------------------------------------------------------------
// Adaptive task-aware masking (Sec. III future work).
#include "lidar/adaptive_masking.hpp"

namespace s2a::lidar {
namespace {

TEST(TaskAwareMasking, InterestDecaysWithoutDetections) {
  TaskAwareMasker m;
  Detection d;
  d.box.center = {10.0, 0.0, 0.8};
  m.observe_detections({d});
  const double before = m.interest()[0];
  m.observe_detections({});
  m.observe_detections({});
  EXPECT_LT(m.interest()[0], before);
  EXPECT_GT(before, 0.9);
}

TEST(TaskAwareMasking, DetectionRaisesSegmentAndNeighbours) {
  TaskAwareMaskerConfig cfg;
  TaskAwareMasker m(cfg);
  Detection d;
  d.box.center = {0.0, 12.0, 0.8};  // azimuth pi/2
  m.observe_detections({d});
  const int seg = cfg.base.angular_segments / 4;  // pi/2 of 2pi
  EXPECT_DOUBLE_EQ(m.interest()[static_cast<std::size_t>(seg)], 1.0);
  EXPECT_GE(m.interest()[static_cast<std::size_t>(seg + 1)], 0.5);
  EXPECT_GE(m.interest()[static_cast<std::size_t>(seg - 1)], 0.5);
}

TEST(TaskAwareMasking, BeamBudgetConcentratesOnInterestingSegments) {
  sim::LidarConfig lc;
  TaskAwareMaskerConfig cfg;
  cfg.base.segment_keep_fraction = 0.15;
  TaskAwareMasker m(cfg);
  Detection d;
  d.box.center = {15.0, 0.0, 0.8};  // azimuth ~0 -> segment 0
  m.observe_detections({d});

  Rng rng(41);
  int seg0_fired = 0, total = 0, seg0_total_possible = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto plan = m.beam_plan(lc, rng);
    total += static_cast<int>(plan.size());
    for (const auto& cmd : plan) {
      const int seg = cmd.azimuth_idx * cfg.base.angular_segments /
                      lc.azimuth_steps;
      if (seg == 0) ++seg0_fired;
    }
    seg0_total_possible += lc.azimuth_steps / cfg.base.angular_segments *
                           lc.elevation_steps;
  }
  // Segment 0 fires at nearly in_segment_keep (its segment is almost
  // always selected); a background segment fires at ~0.15 of that.
  const double seg0_rate = static_cast<double>(seg0_fired) / seg0_total_possible;
  EXPECT_GT(seg0_rate, 0.5 * cfg.base.in_segment_keep);
  // And overall coverage stays frugal.
  EXPECT_LT(static_cast<double>(total) / trials /
                (lc.azimuth_steps * lc.elevation_steps),
            0.25);
}

TEST(TaskAwareMasking, InterestingSegmentsFireMoreFullRangePulses) {
  sim::LidarConfig lc;
  TaskAwareMaskerConfig cfg;
  cfg.base.segment_keep_fraction = 1.0;  // isolate pulse-power behaviour
  TaskAwareMasker m(cfg);
  Detection d;
  d.box.center = {15.0, 0.0, 0.8};
  m.observe_detections({d});

  Rng rng(43);
  int seg0_far = 0, seg0_n = 0, other_far = 0, other_n = 0;
  for (int t = 0; t < 20; ++t) {
    for (const auto& cmd : m.beam_plan(lc, rng)) {
      const int seg = cmd.azimuth_idx * cfg.base.angular_segments /
                      lc.azimuth_steps;
      const bool interesting = m.interest()[static_cast<std::size_t>(seg)] > 0.25;
      const bool far = cmd.target_range >= lc.max_range * 0.99;
      if (interesting) {
        ++seg0_n;
        if (far) ++seg0_far;
      } else {
        ++other_n;
        if (far) ++other_far;
      }
    }
  }
  ASSERT_GT(seg0_n, 50);
  ASSERT_GT(other_n, 50);
  EXPECT_GT(static_cast<double>(seg0_far) / seg0_n,
            2.0 * static_cast<double>(other_far) / other_n);
}

}  // namespace
}  // namespace s2a::lidar

// ------------------------------------------------------------------
// Distance-matched AP (the nuScenes-style criterion used by the benches).
namespace s2a::lidar {
namespace {

TEST(DistanceAp, ExactCentersScorePerfect) {
  sim::Scene scene = one_car_scene(10.0, 5.0);
  std::vector<Detection> d{{sim::ObjectClass::kCar, scene.objects[0].box, 0.9}};
  EXPECT_NEAR(evaluate_ap_distance({d}, {scene}, sim::ObjectClass::kCar, 2.0),
              1.0, 1e-9);
}

TEST(DistanceAp, MatchRadiusIsRespected) {
  sim::Scene scene = one_car_scene(10.0, 0.0);
  Detection close, far;
  close.cls = far.cls = sim::ObjectClass::kCar;
  close.box = scene.objects[0].box;
  close.box.center.x += 1.5;  // within 2 m
  close.score = 0.9;
  far.box = scene.objects[0].box;
  far.box.center.x += 3.0;  // outside 2 m
  far.score = 0.9;
  EXPECT_GT(evaluate_ap_distance({{close}}, {scene}, sim::ObjectClass::kCar, 2.0), 0.9);
  EXPECT_DOUBLE_EQ(evaluate_ap_distance({{far}}, {scene}, sim::ObjectClass::kCar, 2.0), 0.0);
}

TEST(DistanceAp, EachGroundTruthMatchesAtMostOnce) {
  // Two cars; a duplicate detection of car A ranked between the two true
  // positives. If the duplicate were allowed to re-match car A, AP would
  // be 1; counted (correctly) as a false positive mid-curve, it drags the
  // interpolated precision at full recall below 1.
  sim::Scene scene;
  sim::SceneObject a, b;
  a.cls = b.cls = sim::ObjectClass::kCar;
  a.box = {{10, 0, 0.8}, {4.2, 1.8, 1.6}};
  b.box = {{20, 0, 0.8}, {4.2, 1.8, 1.6}};
  scene.objects = {a, b};
  Detection hit_a{sim::ObjectClass::kCar, a.box, 0.9};
  Detection dup_a{sim::ObjectClass::kCar, a.box, 0.85};
  Detection hit_b{sim::ObjectClass::kCar, b.box, 0.8};
  const double ap = evaluate_ap_distance({{hit_a, dup_a, hit_b}}, {scene},
                                         sim::ObjectClass::kCar, 2.0);
  EXPECT_GT(ap, 0.6);
  EXPECT_LT(ap, 0.95);
}

TEST(DistanceAp, PrefersNearestUnmatchedGroundTruth) {
  // Two cars; one detection halfway but closer to car A: must match A,
  // leaving car B unmatched (recall 0.5).
  sim::Scene scene;
  sim::SceneObject a, b;
  a.cls = b.cls = sim::ObjectClass::kCar;
  a.box = {{10, 0, 0.8}, {4.2, 1.8, 1.6}};
  b.box = {{14, 0, 0.8}, {4.2, 1.8, 1.6}};
  scene.objects = {a, b};
  Detection d;
  d.cls = sim::ObjectClass::kCar;
  d.box = a.box;
  d.box.center.x += 1.0;  // 1 m from A, 3 m from B
  d.score = 0.9;
  const double ap = evaluate_ap_distance({{d}}, {scene},
                                         sim::ObjectClass::kCar, 3.5);
  EXPECT_GT(ap, 0.0);
  EXPECT_LT(ap, 0.6);  // only 1 of 2 ground truths recalled
}

}  // namespace
}  // namespace s2a::lidar

// ------------------------------------------------------------------
// Parallel-vs-serial equivalence for the sharded hot paths
// (util::ThreadPool). Voxel occupancy is merged by bitwise OR and every
// conv/deconv output element is produced by exactly one task in the
// serial summation order, so all comparisons are bit-exact — no float
// tolerance is needed at any thread count.
#include <thread>

#include "util/thread_pool.hpp"

namespace s2a::lidar {
namespace {

std::vector<int> equivalence_thread_counts() {
  std::vector<int> counts{2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1 && hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

std::size_t count_mismatches(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.numel() != b.numel()) return a.numel() + b.numel();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) ++bad;
  return bad;
}

TEST(ParallelEquivalence, VoxelizeBitExactAcrossThreadCounts) {
  sim::LidarConfig lc;
  lc.azimuth_steps = 720;
  lc.elevation_steps = 16;  // 11520 returns: above the parallel threshold
  sim::LidarSimulator lidar(lc);
  Rng rng(101);
  const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
  const sim::PointCloud pc = lidar.full_scan(scene, rng);
  ASSERT_GE(pc.returns.size(), 10000u);

  VoxelGridConfig gc;
  nn::Tensor serial;
  {
    util::ScopedGlobalThreads threads(1);
    serial = VoxelGrid::from_cloud(pc, gc).to_tensor();
  }
  for (int threads : equivalence_thread_counts()) {
    util::ScopedGlobalThreads scoped(threads);
    const nn::Tensor parallel = VoxelGrid::from_cloud(pc, gc).to_tensor();
    EXPECT_EQ(count_mismatches(serial, parallel), 0u) << threads << " threads";
  }
}

TEST(ParallelEquivalence, AutoencoderReconstructBitExactAcrossThreadCounts) {
  Rng rng(102);
  AutoencoderConfig cfg;  // default 48x48 grid: conv work above threshold
  OccupancyAutoencoder ae(cfg, rng);
  const nn::Tensor in =
      nn::Tensor::randn({1, cfg.grid.nz, cfg.grid.ny, cfg.grid.nx}, rng);

  nn::Tensor serial;
  {
    util::ScopedGlobalThreads threads(1);
    serial = ae.reconstruct(in);
  }
  for (int threads : equivalence_thread_counts()) {
    util::ScopedGlobalThreads scoped(threads);
    const nn::Tensor parallel = ae.reconstruct(in);
    EXPECT_EQ(count_mismatches(serial, parallel), 0u) << threads << " threads";
  }
}

TEST(ParallelEquivalence, DetectorOutputIdenticalAcrossThreadCounts) {
  Rng rng(103);
  sim::LidarConfig lc;
  sim::LidarSimulator lidar(lc);
  DetectorConfig dcfg;
  dcfg.grid.nx = dcfg.grid.ny = 32;
  dcfg.grid.extent = 30.0;
  dcfg.score_threshold = 0.05;  // surface plenty of detections to compare
  BevDetector det(dcfg, rng);
  const sim::Scene scene = one_car_scene(12.0, 4.0);
  const sim::PointCloud pc = lidar.full_scan(scene, rng);
  const nn::Tensor grid = VoxelGrid::from_cloud(pc, dcfg.grid).to_tensor();

  std::vector<Detection> serial;
  {
    util::ScopedGlobalThreads threads(1);
    serial = det.detect(grid);
  }
  for (int threads : equivalence_thread_counts()) {
    util::ScopedGlobalThreads scoped(threads);
    const std::vector<Detection> parallel = det.detect(grid);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].cls, serial[i].cls);
      EXPECT_EQ(parallel[i].score, serial[i].score);
      EXPECT_EQ(parallel[i].box.center.x, serial[i].box.center.x);
      EXPECT_EQ(parallel[i].box.center.y, serial[i].box.center.y);
      EXPECT_EQ(parallel[i].box.center.z, serial[i].box.center.z);
    }
  }
}

}  // namespace
}  // namespace s2a::lidar

// ------------------------------------------------------------------
// The deployed int8 model: quantize() freezes each inference stack into
// an int8 snapshot (nn::FrozenConv::quantized). Known answers, the
// train-step refusal, serialization, and the snapshot as a value.
#include <bit>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "nn/serialize.hpp"
#include "util/check.hpp"

namespace s2a::lidar {
namespace {

// FNV-1a over the bits of every value it is given.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) {
    const auto b = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const nn::Tensor& t) {
    for (std::size_t i = 0; i < t.numel(); ++i) add(t[i]);
  }
  void add(const std::vector<double>& v) {
    for (const double x : v) add(x);
  }
  void add(const std::vector<Detection>& dets) {
    add(static_cast<double>(dets.size()));
    for (const Detection& d : dets)
      for (const double x : {static_cast<double>(d.cls), d.score,
                             d.box.center.x, d.box.center.y, d.box.center.z,
                             d.box.size.x, d.box.size.y, d.box.size.z})
        add(x);
  }
};

AutoencoderConfig small_int8_ae() {
  AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  cfg.c1 = 8;
  cfg.c2 = 8;
  return cfg;
}

DetectorConfig detector_for(const AutoencoderConfig& acfg) {
  DetectorConfig cfg;
  cfg.grid = acfg.grid;
  cfg.c1 = acfg.c1;
  cfg.c2 = acfg.c2;
  cfg.score_threshold = 0.05;
  return cfg;
}

nn::Tensor voxels(const VoxelGridConfig& g, int count, Rng& rng) {
  nn::Tensor t({1, g.nz, g.ny, g.nx});
  for (int i = 0; i < count; ++i)
    t[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(t.numel()) - 1))] = 1.0;
  return t;
}

struct Int8Answers {
  std::uint64_t reconstruct, embedding, detect, feature_embeddings;
  std::size_t detections;
};

// Trains a small autoencoder and a detector pretrained from it for a
// few steps on fixed seeds, quantizes both, and hashes their int8
// outputs at `threads` pool threads.
Int8Answers int8_answers(int threads) {
  Rng rng(120);
  const AutoencoderConfig acfg = small_int8_ae();
  const VoxelGridConfig& g = acfg.grid;
  const nn::Tensor empty = voxels(g, 0, rng), sparse = voxels(g, 6, rng),
                   dense = voxels(g, 120, rng);
  OccupancyAutoencoder ae(acfg, rng);
  nn::Adam opt(1e-2);
  opt.attach(ae.params(), ae.grads());
  for (int i = 0; i < 3; ++i) ae.train_step(sparse, dense, opt);
  BevDetector det(detector_for(acfg), rng);
  det.init_from_pretrained(ae);
  nn::Adam dopt(3e-3);
  dopt.attach(det.params(), det.grads());
  for (int i = 0; i < 3; ++i) det.train_step(dense, one_car_scene(), dopt);
  ae.quantize();
  det.quantize();

  util::ScopedGlobalThreads scoped(threads);
  Int8Answers out{};
  BitHash recon, embed, detect, features;
  for (const nn::Tensor* x : {&empty, &sparse, &dense, &sparse, &empty})
    recon.add(ae.reconstruct(*x));
  for (const nn::Tensor* x : {&sparse, &dense, &empty})
    embed.add(ae.embedding(*x));
  const nn::Tensor seen = ae.reconstruct(sparse);
  for (const nn::Tensor* x : {&seen, &seen, &dense, &empty, &seen}) {
    const std::vector<Detection> dets = det.detect(*x);
    out.detections += dets.size();
    detect.add(dets);
  }
  nn::Tensor batch({3, g.nz, g.ny, g.nx});
  std::size_t at = 0;
  for (const nn::Tensor* x : {&empty, &sparse, &dense})
    for (std::size_t i = 0; i < x->numel(); ++i) batch[at++] = (*x)[i];
  for (const std::vector<double>& e : det.feature_embeddings(batch))
    features.add(e);
  features.add(det.feature_embedding(sparse));
  out.reconstruct = recon.h;
  out.embedding = embed.h;
  out.detect = detect.h;
  out.feature_embeddings = features.h;
  return out;
}

TEST(Quantized, Int8OutputsMatchKnownAnswers) {
  // Recorded from the int8 forward as the training layers ran it, before
  // the int8 model became a frozen snapshot; the same bits under every
  // S2A_SIMD family, since the int8 GEMM accumulates exactly. The
  // feature_embeddings hash (a 3-grid batch) was re-recorded when each
  // image of a batch got its own activation scale.
  for (const int threads : {1, 4}) {
    const Int8Answers got = int8_answers(threads);
    EXPECT_EQ(got.reconstruct, 0xf814582f38fedc29ULL) << threads << " threads";
    EXPECT_EQ(got.embedding, 0x67443abb357fadeaULL) << threads << " threads";
    EXPECT_EQ(got.detect, 0x6dd21eebed8dac15ULL) << threads << " threads";
    EXPECT_EQ(got.feature_embeddings, 0xd7408706de55fa2eULL)
        << threads << " threads";
    EXPECT_EQ(got.detections, 194u) << threads << " threads";
  }
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(double)) == 0;
}

std::uint64_t hash_detections(const std::vector<Detection>& dets) {
  BitHash h;
  h.add(dets);
  return h.h;
}

TEST(Quantized, TrainStepIsRefused) {
  // The int8 forward is not differentiable as the float one: a train
  // step on a quantized model would fit the float gradient of a function
  // it no longer serves.
  Rng rng(26);
  const AutoencoderConfig acfg = small_int8_ae();
  OccupancyAutoencoder ae(acfg, rng);
  BevDetector det(detector_for(acfg), rng);
  nn::Adam opt(1e-2), dopt(1e-2);
  opt.attach(ae.params(), ae.grads());
  dopt.attach(det.params(), det.grads());
  const nn::Tensor x = voxels(acfg.grid, 6, rng);
  EXPECT_FALSE(ae.is_quantized());
  EXPECT_FALSE(det.is_quantized());
  ae.train_step(x, x, opt);
  det.train_step(x, one_car_scene(), dopt);
  ae.quantize();
  det.quantize();
  EXPECT_TRUE(ae.is_quantized());
  EXPECT_TRUE(det.is_quantized());
  EXPECT_THROW(ae.train_step(x, x, opt), CheckError);
  EXPECT_THROW(det.train_step(x, one_car_scene(), dopt), CheckError);
}

TEST(Quantized, SnapshotIsAValue) {
  // quantize() freezes the weights as they are; later writes reach the
  // training forward but not the int8 outputs, until the next quantize().
  Rng rng(67);
  const AutoencoderConfig acfg = small_int8_ae();
  OccupancyAutoencoder ae(acfg, rng);
  BevDetector det(detector_for(acfg), rng);
  const nn::Tensor x = voxels(acfg.grid, 6, rng);
  const nn::Tensor seen = ae.reconstruct(x);
  ae.quantize();
  det.quantize();
  const nn::Tensor recon = ae.reconstruct(x);
  const std::vector<double> embedding = ae.embedding(x);
  const std::uint64_t dets = hash_detections(det.detect(seen));
  const std::vector<double> features = det.feature_embedding(x);

  const nn::Tensor latent = ae.encode(x);
  for (nn::Tensor* p : ae.params())
    for (std::size_t i = 0; i < p->numel(); ++i) (*p)[i] *= 1.5;
  for (nn::Tensor* p : det.params())
    for (std::size_t i = 0; i < p->numel(); ++i) (*p)[i] *= 1.5;
  ASSERT_FALSE(same_bits(ae.encode(x), latent)) << "the write is invisible";

  EXPECT_TRUE(same_bits(ae.reconstruct(x), recon));
  EXPECT_EQ(ae.embedding(x), embedding);
  EXPECT_EQ(hash_detections(det.detect(seen)), dets);
  EXPECT_EQ(det.feature_embedding(x), features);

  // Re-quantizing freezes the new weights.
  ae.quantize();
  det.quantize();
  EXPECT_FALSE(same_bits(ae.reconstruct(x), recon));
  EXPECT_NE(det.feature_embedding(x), features);
}

TEST(Quantized, BatchedRowsAreTheSingleImageAnswers) {
  // Each image of an int8 batch is coded at its own activation scale, so
  // row i of a batched call is the call on image i alone. The grids'
  // magnitudes differ, so their activation scales differ at every layer.
  Rng rng(121);
  const AutoencoderConfig acfg = small_int8_ae();
  const VoxelGridConfig& g = acfg.grid;
  OccupancyAutoencoder ae(acfg, rng);
  BevDetector det(detector_for(acfg), rng);
  nn::Tensor loud = voxels(g, 30, rng);
  for (std::size_t i = 0; i < loud.numel(); ++i) loud[i] *= 3.0;
  const nn::Tensor sparse = voxels(g, 6, rng), empty = voxels(g, 0, rng),
                   seen = ae.reconstruct(sparse);
  ae.quantize();
  det.quantize();
  const std::vector<const nn::Tensor*> grids = {&sparse, &loud, &empty,
                                                &seen};
  const std::size_t image = sparse.numel();
  nn::Tensor batch({static_cast<int>(grids.size()), g.nz, g.ny, g.nx});
  for (std::size_t b = 0; b < grids.size(); ++b)
    std::copy_n(grids[b]->data(), image, batch.data() + b * image);

  for (const int threads : {1, 4}) {
    util::ScopedGlobalThreads scoped(threads);
    const std::vector<std::vector<double>> rows = det.feature_embeddings(batch);
    const nn::Tensor latents = ae.infer_latent(batch);
    ASSERT_EQ(rows.size(), grids.size());
    const std::size_t latent = latents.numel() / grids.size();
    for (std::size_t b = 0; b < grids.size(); ++b) {
      EXPECT_EQ(rows[b], det.feature_embedding(*grids[b]))
          << "detector row " << b << ", " << threads << " threads";
      const nn::Tensor one = ae.infer_latent(*grids[b]);
      ASSERT_EQ(one.numel(), latent);
      EXPECT_EQ(std::memcmp(latents.data() + b * latent, one.data(),
                            latent * sizeof(double)),
                0)
          << "autoencoder row " << b << ", " << threads << " threads";
    }
  }
}

TEST(Serialize, QuantizeSurvivesRoundTrip) {
  // Serialization persists float weights only; the int8 snapshot is
  // derived state. quantize() is deterministic from the float weights,
  // so quantize → save → load → quantize must give bit-identical int8
  // outputs (int32 accumulation has no rounding to drift).
  Rng rng(65);
  const AutoencoderConfig acfg = small_int8_ae();
  OccupancyAutoencoder ae(acfg, rng);
  ae.quantize();
  std::ostringstream os;
  nn::save_params(ae.params(), os);

  Rng rng2(66);
  OccupancyAutoencoder loaded(acfg, rng2);
  std::istringstream is(os.str());
  nn::load_params(loaded.params(), is);
  loaded.quantize();

  const nn::Tensor x = voxels(acfg.grid, 6, rng);
  EXPECT_TRUE(same_bits(loaded.reconstruct(x), ae.reconstruct(x)));
  EXPECT_EQ(loaded.embedding(x), ae.embedding(x));
}

}  // namespace
}  // namespace s2a::lidar
