#include "lidar/pipeline.hpp"

#include "nn/optimizer.hpp"
#include "obs/obs.hpp"
#include "sim/scene.hpp"
#include "util/check.hpp"

namespace s2a::lidar {

GenerativeSensingPipeline::GenerativeSensingPipeline(
    sim::LidarConfig lidar_config, AutoencoderConfig ae_config,
    RadialMaskerConfig masker_config, Rng& rng)
    : lidar_(lidar_config), masker_(masker_config), ae_(ae_config, rng) {}

double GenerativeSensingPipeline::pretrain(
    int num_scenes, int epochs, double lr, Rng& rng,
    const sim::SceneConfig& scene_config) {
  S2A_CHECK(num_scenes > 0 && epochs > 0);
  const auto& grid_cfg = ae_.config().grid;

  // Pre-voxelize full scans once.
  std::vector<nn::Tensor> targets;
  std::vector<VoxelGrid> grids;
  targets.reserve(static_cast<std::size_t>(num_scenes));
  for (int i = 0; i < num_scenes; ++i) {
    const sim::Scene scene = sim::generate_scene(scene_config, rng);
    const sim::PointCloud pc = lidar_.full_scan(scene, rng);
    VoxelGrid g = VoxelGrid::from_cloud(pc, grid_cfg);
    targets.push_back(g.to_tensor());
    grids.push_back(std::move(g));
  }

  nn::Adam opt(lr);
  opt.attach(ae_.params(), ae_.grads());
  double last_epoch_loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    last_epoch_loss = 0.0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      // Fresh mask each epoch: the model sees many views of each scene.
      const auto visible = masker_.voxel_mask(grids[i], rng);
      const nn::Tensor masked = Masker::apply_mask(grids[i], visible);
      last_epoch_loss += ae_.train_step(masked, targets[i], opt);
    }
    last_epoch_loss /= static_cast<double>(targets.size());
  }
  return last_epoch_loss;
}

SensedScene GenerativeSensingPipeline::sense(const sim::Scene& scene,
                                             Rng& rng) {
  S2A_TRACE_SCOPE_CAT("lidar.sense", "lidar");
  SensedScene out;
  const auto plan = masker_.beam_plan(lidar_.config(), rng);
  {
    S2A_TRACE_SCOPE_CAT("lidar.selective_scan", "lidar");
    out.cloud = lidar_.selective_scan(scene, plan, rng);
  }
  out.sensed = VoxelGrid::from_cloud(out.cloud, ae_.config().grid);
  const nn::Tensor probs = out.sensed.to_tensor();
  const nn::Tensor recon = ae_.reconstruct(probs);
  {
    S2A_TRACE_SCOPE_CAT("lidar.merge", "lidar");
    out.reconstructed = VoxelGrid::from_tensor(recon, ae_.config().grid);
    // Keep sensed voxels authoritative: reconstruction fills gaps only.
    for (int z = 0; z < ae_.config().grid.nz; ++z)
      for (int y = 0; y < ae_.config().grid.ny; ++y)
        for (int x = 0; x < ae_.config().grid.nx; ++x)
          if (out.sensed.occupied(x, y, z))
            out.reconstructed.set(x, y, z, true);
  }
  // A quantized autoencoder reconstructs in int8, so bill those MACs
  // at int8 cost.
  out.energy = make_energy_report(out.cloud, lidar_.config(),
                                  ae_.param_count(), ae_.macs_per_scan(),
                                  ae_.is_quantized());
  S2A_COUNTER_ADD("lidar.active_scans", 1);
  S2A_HISTOGRAM_RECORD("lidar.scan_energy_j", out.energy.sensing_energy_j);
  return out;
}

SensedScene GenerativeSensingPipeline::sense_conventional(
    const sim::Scene& scene, Rng& rng) {
  S2A_TRACE_SCOPE_CAT("lidar.sense_conventional", "lidar");
  SensedScene out;
  {
    S2A_TRACE_SCOPE_CAT("lidar.full_scan", "lidar");
    out.cloud = lidar_.full_scan(scene, rng);
  }
  out.sensed = VoxelGrid::from_cloud(out.cloud, ae_.config().grid);
  out.reconstructed = out.sensed;
  out.energy = make_energy_report(out.cloud, lidar_.config(), 0, 0);
  S2A_COUNTER_ADD("lidar.full_scans", 1);
  return out;
}

}  // namespace s2a::lidar
