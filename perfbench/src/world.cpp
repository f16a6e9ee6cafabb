#include "world.hpp"

#include <algorithm>
#include <cmath>

#include "lidar/energy.hpp"
#include "nn/optimizer.hpp"

namespace perfbench {

namespace {
constexpr int kPool = 32;                // distinct scenes, driven in turn
constexpr double kSegmentS = 3.0;        // loop time spent on one scene
constexpr double kCorruptWindowS = 0.5;  // corruption windows are this long
constexpr int kCorruptionWindows = 997;  // prime: no alignment with segments
}  // namespace

World::World(double corrupt_fraction, std::uint64_t seed) {
  Rng rng(seed);
  Rng scene_rng = rng.spawn();
  for (int i = 0; i < kPool; ++i)
    pool_.push_back(sim::generate_scene(scenes_, scene_rng));
  Rng window_rng = rng.spawn();
  const auto kinds = sim::all_corruptions();
  windows_.resize(kCorruptionWindows);
  // Which windows are corrupted is seeded, one in each block of 1 /
  // corrupt_fraction windows, so every stretch of the run sees the same
  // share; the kinds take turns, so every seed sees the same mix.
  if (corrupt_fraction <= 0.0) return;
  const int block = std::max(1, static_cast<int>(std::lround(1.0 / corrupt_fraction)));
  std::size_t next = 0;
  for (int b = 0; b < kCorruptionWindows; b += block) {
    const int last = std::min(b + block, kCorruptionWindows) - 1;
    Corruption& w = windows_[static_cast<std::size_t>(window_rng.uniform_int(b, last))];
    w.type = kinds[next++ % kinds.size()];
    w.severity = 4;
  }
}

sim::Scene World::scene_at(double t) const {
  const double k = std::floor(t / kSegmentS);
  sim::Scene s = pool_[static_cast<std::size_t>(
      static_cast<long>(k) % static_cast<long>(pool_.size()))];
  s.step(t - k * kSegmentS);
  return s;
}

const Corruption* World::corruption_at(double t) const {
  const long k = static_cast<long>(std::floor(t / kCorruptWindowS));
  const Corruption& w =
      windows_[static_cast<std::size_t>(k % kCorruptionWindows)];
  return w.type == sim::CorruptionType::kNone ? nullptr : &w;
}

core::Observation LidarSensor::sense(double now, Rng& rng) {
  if (log_ != nullptr && tag_ops_) SpanLog::set_op(calls);
  ++calls;
  start_s = now_s();
  double total = 0.0;
  core::Observation obs;
  {
    Timed t_total(log_, &total, "sensor", tid_);
    const double t = now + offset_;
    const sim::Scene scene = world_.scene_at(t);
    std::vector<sim::BeamCommand> plan;
    {
      Timed t_plan(log_, &times.beam_plan, "lidar.beam_plan", tid_);
      plan = world_.masker().beam_plan(world_.lidar().config(), rng);
    }
    sim::PointCloud pc;
    {
      Timed t_scan(log_, &times.scan, "sim.selective_scan", tid_);
      pc = world_.lidar().selective_scan(scene, plan, rng);
    }
    if (const Corruption* c = world_.corruption_at(t))
      pc = sim::apply_corruption(pc, c->type, c->severity,
                                 world_.lidar().config(), rng);
    lidar::VoxelGrid grid;
    {
      Timed t_vox(log_, &times.voxelize, "lidar.voxelize", tid_);
      grid = lidar::VoxelGrid::from_cloud(pc, world_.grid());
    }
    nn::Tensor occ = grid.to_tensor();
    obs.data.assign(occ.data(), occ.data() + occ.numel());
    obs.timestamp = now;
    obs.energy_j = pc.emitted_energy_j;
    pulses += pc.pulses_fired;
  }
  times.total += total;
  end_s = now_s();
  return obs;
}

nn::Tensor grid_tensor(const std::vector<double>& data,
                       const lidar::VoxelGridConfig& grid) {
  return nn::Tensor({1, grid.nz, grid.ny, grid.nx}, data);
}

double reconstruction_iou(lidar::OccupancyAutoencoder& ae, const World& world,
                          int scenes, std::uint64_t seed) {
  Rng rng(seed);
  const lidar::VoxelGridConfig& gc = world.grid();
  double sum = 0.0;
  for (int i = 0; i < scenes; ++i) {
    const sim::Scene scene = sim::generate_scene(world.scenes(), rng);
    const auto plan = world.masker().beam_plan(world.lidar().config(), rng);
    const nn::Tensor sensed = lidar::VoxelGrid::from_cloud(
        world.lidar().selective_scan(scene, plan, rng), gc).to_tensor();
    const lidar::VoxelGrid full =
        lidar::VoxelGrid::from_cloud(world.lidar().full_scan(scene, rng), gc);
    sum += lidar::VoxelGrid::from_tensor(ae.reconstruct(sensed), gc).iou(full);
  }
  return sum / scenes;
}

nn::Tensor detector_input(const nn::Tensor& sensed, const nn::Tensor& recon) {
  nn::Tensor out = recon;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] = std::max(out[i], sensed[i]);
  return out;
}

double reconstruct_energy_j(lidar::OccupancyAutoencoder& ae) {
  // MAC counts are recorded by the layers' last forward.
  const auto& g = ae.config().grid;
  ae.reconstruct(nn::Tensor({1, g.nz, g.ny, g.nx}));
  return 2.0 * static_cast<double>(ae.macs_per_scan()) * lidar::kJoulesPerFlop;
}

Perception build_perception(const World& world, bool with_trust) {
  constexpr int kAeScenes = 48, kAeEpochs = 6, kDetEpochs = 4;
  constexpr int kStarnetScenes = 160;
  Rng rng(kModelSeed);
  Perception p;
  const lidar::VoxelGridConfig& gc = world.grid();
  lidar::AutoencoderConfig ac;
  ac.grid = gc;
  p.ae = std::make_unique<lidar::OccupancyAutoencoder>(ac, rng);

  // Training scenes are drawn apart from the world's pool. Each gives a
  // full-scan target and the sensed grid of an active scan.
  struct Sample {
    sim::Scene scene;
    lidar::VoxelGrid full;
    nn::Tensor full_t, sensed_t;
  };
  std::vector<Sample> data;
  for (int i = 0; i < std::max(kAeScenes, kStarnetScenes); ++i) {
    Sample s;
    s.scene = sim::generate_scene(world.scenes(), rng);
    s.full = lidar::VoxelGrid::from_cloud(
        world.lidar().full_scan(s.scene, rng), gc);
    s.full_t = s.full.to_tensor();
    const auto plan = world.masker().beam_plan(world.lidar().config(), rng);
    s.sensed_t = lidar::VoxelGrid::from_cloud(
                     world.lidar().selective_scan(s.scene, plan, rng), gc)
                     .to_tensor();
    data.push_back(std::move(s));
  }

  // R-MAE pretraining: radially masked full scans → full occupancy.
  {
    nn::Adam opt(3e-3);
    opt.attach(p.ae->params(), p.ae->grads());
    for (int e = 0; e < kAeEpochs; ++e)
      for (int i = 0; i < kAeScenes; ++i) {
        const Sample& s = data[static_cast<std::size_t>(i)];
        const auto visible = world.masker().voxel_mask(s.full, rng);
        p.ae->train_step(lidar::Masker::apply_mask(s.full, visible), s.full_t,
                         opt);
      }
  }
  if (!with_trust) return p;

  // Detector: backbone from the AE encoder, fine-tuned on what the loop
  // feeds it — the occupancy probabilities reconstructed from active
  // scans.
  lidar::DetectorConfig dc;
  dc.grid = gc;
  p.det = std::make_unique<lidar::BevDetector>(dc, rng);
  p.det->init_from_pretrained(*p.ae);
  std::vector<nn::Tensor> recon;
  for (int i = 0; i < kAeScenes; ++i)
    recon.push_back(detector_input(data[static_cast<std::size_t>(i)].sensed_t,
                                   p.ae->reconstruct(data[static_cast<std::size_t>(i)].sensed_t)));
  {
    nn::Adam opt(2e-3);
    opt.attach(p.det->params(), p.det->grads());
    for (int e = 0; e < kDetEpochs; ++e)
      for (std::size_t i = 0; i < recon.size(); ++i)
        p.det->train_step(recon[i], data[i].scene, opt);
  }
  p.det_monitor = std::make_unique<lidar::BevDetector>(dc, rng);
  copy_params(*p.det, *p.det_monitor);

  // STARNet on clean embeddings of sensed grids (what the monitor sees).
  std::vector<std::vector<double>> clean;
  for (const auto& s : data)
    clean.push_back(p.det_monitor->feature_embedding(s.sensed_t));
  monitor::StarNetConfig sc;
  sc.vae.input_dim = p.det_monitor->embedding_dim();
  sc.vae.hidden = 48;
  sc.vae.latent_dim = 6;
  p.starnet = std::make_unique<monitor::StarNet>(sc, rng);
  p.starnet->fit(clean, rng);
  return p;
}

}  // namespace perfbench
