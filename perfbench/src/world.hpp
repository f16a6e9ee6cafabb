// The benchmark's LiDAR world and perception stack, shared by the
// loop_tick, fleet_serve and ae_train workloads.
//
// Everything the library sees is generated from the workload seed: a
// pool of moving scenes driven in fixed-length segments, and seeded
// corruption windows. Both are pure functions of loop time, so a loop
// replayed through another execution engine senses exactly the same
// world.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/loop.hpp"
#include "lidar/autoencoder.hpp"
#include "lidar/detector.hpp"
#include "lidar/masking.hpp"
#include "lidar/voxel_grid.hpp"
#include "monitor/starnet.hpp"
#include "sim/corruptions.hpp"
#include "sim/lidar_sim.hpp"
#include "sim/scene.hpp"

namespace perfbench {

struct Corruption {
  sim::CorruptionType type = sim::CorruptionType::kNone;
  int severity = 0;
};

/// Scenes, beams, grid and masker are the library defaults: 180 x 12
/// beams, a 48 x 48 x 4 grid over ±50 m, R-MAE radial masking.
class World {
 public:
  /// `corrupt_fraction` is the share of corruption windows that are
  /// corrupted: one, at a seeded place, in each block of
  /// 1 / corrupt_fraction windows.
  World(double corrupt_fraction, std::uint64_t seed);

  /// The scene at loop time t: pool scene floor(t / segment) (cycled),
  /// advanced by the time since its segment began.
  sim::Scene scene_at(double t) const;
  /// The corruption active at loop time t, or nullptr when clean.
  const Corruption* corruption_at(double t) const;

  const lidar::VoxelGridConfig& grid() const { return grid_; }
  const sim::SceneConfig& scenes() const { return scenes_; }
  const sim::LidarSimulator& lidar() const { return lidar_; }
  const lidar::RadialMasker& masker() const { return masker_; }

 private:
  lidar::VoxelGridConfig grid_{};
  sim::SceneConfig scenes_{};
  sim::LidarSimulator lidar_{sim::LidarConfig{}};
  lidar::RadialMasker masker_{};
  std::vector<sim::Scene> pool_;
  std::vector<Corruption> windows_;
};

/// Layer self times of one sense call (seconds); filled only when the
/// sensor has a span log.
struct SenseTimes {
  double beam_plan = 0.0, scan = 0.0, voxelize = 0.0, total = 0.0;
};

/// The active LiDAR front end: RadialMasker::beam_plan →
/// LidarSimulator::selective_scan → (corruption window) → voxelize.
/// The observation payload is the sensed occupancy grid, flattened in
/// [nz][ny][nx] order; energy is the emitted pulse energy.
class LidarSensor : public core::Sensor {
 public:
  /// `time_offset` shifts this sensor's view of the world (fleet members
  /// see different scenes at the same loop time).
  explicit LidarSensor(const World& world, double time_offset = 0.0)
      : world_(world), offset_(time_offset) {}

  core::Observation sense(double now, Rng& rng) override;

  /// Tracing: spans go to `log` under thread row `tid`; with `tag_ops`
  /// each sense call is its own op (fleet members, whose sense stages
  /// run on pool threads).
  void set_trace(SpanLog* log, int tid, bool tag_ops = false) {
    log_ = log;
    tid_ = tid;
    tag_ops_ = tag_ops;
  }
  SenseTimes times{};
  long calls = 0;
  long pulses = 0;       ///< pulses fired, summed over calls
  double start_s = 0.0;  ///< wall clock of the last call's start / end
  double end_s = 0.0;

 private:
  const World& world_;
  double offset_;
  SpanLog* log_ = nullptr;
  int tid_ = 0;
  bool tag_ops_ = false;
};

/// The perception models of the loop: an R-MAE-pretrained occupancy
/// autoencoder, a BEV detector fine-tuned on its reconstructions, a
/// weight-identical detector copy for the trust monitor (the monitor
/// runs in the sense stage and the processor in the commit stage, so
/// they must not share a model), and STARNet fitted on clean
/// embeddings.
struct Perception {
  std::unique_ptr<lidar::OccupancyAutoencoder> ae;
  std::unique_ptr<lidar::BevDetector> det;
  std::unique_ptr<lidar::BevDetector> det_monitor;
  std::unique_ptr<monitor::StarNet> starnet;
};

/// The models, scan pools and tasks the workloads train on are drawn
/// from this fixed seed: every workload seed runs the same task over
/// different inputs.
inline constexpr std::uint64_t kModelSeed = 0x5eed;

/// Trains the autoencoder (48 scenes x 6 epochs) and, `with_trust`,
/// fine-tunes the detector (48 x 4) and fits STARNet (160 embeddings).
Perception build_perception(const World& world, bool with_trust);

/// Copies the parameter values of one model into an identically shaped
/// one.
template <typename Model>
void copy_params(Model& from, Model& to) {
  const auto src = from.params();
  const auto dst = to.params();
  for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
}

/// Modeled energy of one reconstruction forward (2 FLOPs per MAC at the
/// library's edge-accelerator efficiency). Runs one forward on an empty
/// grid to size the layers.
double reconstruct_energy_j(lidar::OccupancyAutoencoder& ae);

/// Mean IoU of the autoencoder's reconstruction of an active scan
/// against a conventional full scan, over `scenes` fresh scenes drawn
/// from the world's scene generator.
double reconstruction_iou(lidar::OccupancyAutoencoder& ae, const World& world,
                          int scenes, std::uint64_t seed);

/// What the detector sees: the reconstructed occupancy probabilities,
/// with every voxel the active scan actually hit forced to occupied.
nn::Tensor detector_input(const nn::Tensor& sensed, const nn::Tensor& recon);

/// [1, nz, ny, nx] tensor view of a flattened occupancy payload.
nn::Tensor grid_tensor(const std::vector<double>& data,
                       const lidar::VoxelGridConfig& grid);

}  // namespace perfbench
