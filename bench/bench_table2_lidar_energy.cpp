// Reproduces Table II: Conventional LiDAR vs the R-MAE generative-sensing
// framework — coverage, per-pulse energy, model size, FLOPs, and the
// per-scan energy split (sensing vs reconstruction overhead).
//
// Paper reference:
//   Scene Coverage          100%        <10%
//   Energy per Laser Pulse  50 µJ       5.5 µJ
//   Model Parameters        n/a         830 K
//   FLOPs per 360° Scan     none        335 M
//   Sensing Energy per Scan 72 mJ       792 µJ
//   Reconstruction Overhead n/a         7.1 mJ
//   (combined advantage ≈ 9.11×)
// Our model is far smaller than the paper's (the substrate is a 2-D BEV
// autoencoder), so absolute FLOPs/overhead are lower; coverage, pulse
// energy, and the >3× total-energy advantage are the quantities that must
// hold.
// After the table, the bench sweeps the energy/accuracy frontier: the
// same pretrained autoencoder is quantized to int8 (nn/quant.hpp) and
// the scenes are re-sensed under identical beam plans, producing
// (total energy, reconstruction IoU) points for the conventional, float,
// and int8 paths. The points are written to BENCH_frontier.json (or
// S2A_BENCH_FRONTIER=<path>) for the CI artifact, with the detected CPU
// features, the selected SIMD kernel and the host's core count.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "lidar/pipeline.hpp"
#include "nn/gemm.hpp"
#include "sim/scene.hpp"
#include "util/cpu_features.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace s2a;

int main() {
  Rng rng(42);

  // Paper-matched sensor: 72 mJ / 50 µJ = 1440 pulses per scan.
  sim::LidarConfig lidar_cfg;
  lidar_cfg.azimuth_steps = 180;
  lidar_cfg.elevation_steps = 8;
  lidar_cfg.full_pulse_energy_j = 50e-6;

  lidar::AutoencoderConfig ae_cfg;
  ae_cfg.grid.nx = ae_cfg.grid.ny = 32;

  lidar::GenerativeSensingPipeline pipe(lidar_cfg, ae_cfg,
                                        lidar::RadialMaskerConfig{}, rng);
  pipe.pretrain(/*num_scenes=*/16, /*epochs=*/12, /*lr=*/3e-3, rng);

  // Average the measured quantities over scenes.
  RunningStat conv_coverage, conv_pulse, conv_sense;
  RunningStat gen_coverage, gen_pulse, gen_sense, gen_recon, gen_iou;
  std::size_t model_params = 0, flops = 0;
  const int trials = 12;
  for (int i = 0; i < trials; ++i) {
    const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
    const auto conv = pipe.sense_conventional(scene, rng);
    const auto gen = pipe.sense(scene, rng);
    conv_coverage.add(conv.energy.coverage);
    conv_pulse.add(conv.energy.avg_pulse_energy_j);
    conv_sense.add(conv.energy.sensing_energy_j);
    gen_coverage.add(gen.energy.coverage);
    gen_pulse.add(gen.energy.avg_pulse_energy_j);
    gen_sense.add(gen.energy.sensing_energy_j);
    gen_recon.add(gen.energy.reconstruction_energy_j);
    gen_iou.add(gen.reconstructed.iou(conv.sensed));
    model_params = gen.energy.model_params;
    flops = gen.energy.flops_per_scan;
  }

  Table t("Table II: Conventional LiDAR vs R-MAE generative sensing "
          "(measured on the simulated substrate; paper values in brackets)");
  t.set_header({"Metric", "Conventional", "R-MAE (ours)", "Paper R-MAE"});
  t.add_row({"Scene Coverage",
             Table::num(100.0 * conv_coverage.mean(), 0) + "%",
             Table::num(100.0 * gen_coverage.mean(), 1) + "%", "<10%"});
  t.add_row({"Energy per Laser Pulse",
             Table::num(conv_pulse.mean() * 1e6, 1) + " uJ",
             Table::num(gen_pulse.mean() * 1e6, 1) + " uJ", "5.5 uJ"});
  t.add_row({"Model Parameters", "n/a", std::to_string(model_params),
             "830K"});
  t.add_row({"FLOPs per 360 Scan", "none",
             Table::num(static_cast<double>(flops) / 1e6, 2) + " M", "335 M"});
  t.add_row({"Sensing Energy per Scan",
             Table::num(conv_sense.mean() * 1e3, 1) + " mJ",
             Table::num(gen_sense.mean() * 1e6, 0) + " uJ", "792 uJ"});
  t.add_row({"Reconstruction Overhead", "n/a",
             Table::num(gen_recon.mean() * 1e6, 1) + " uJ", "7.1 mJ"});

  const double conv_total = conv_sense.mean();
  const double gen_total = gen_sense.mean() + gen_recon.mean();
  t.add_row({"Total Energy per Scan",
             Table::num(conv_total * 1e3, 1) + " mJ",
             Table::num(gen_total * 1e6, 0) + " uJ", "7.9 mJ"});
  t.print(std::cout);

  std::cout << "\nCombined energy advantage: " << Table::num(conv_total / gen_total, 2)
            << "x (paper: 9.11x)\n";
  std::cout << "Reconstruction occupancy IoU vs full scan: "
            << Table::num(gen_iou.mean(), 3) << "\n";

  // ---- Energy/accuracy frontier: float vs int8 inference ----
  //
  // Sense fresh scenes with the trained float autoencoder, then quantize
  // it and re-sense the same scenes. Replaying the Rng copy taken before
  // each float sense() gives the int8 leg byte-identical beam plans and
  // point clouds, so the IoU delta is purely quantization error and the
  // energy delta is purely the fp32-MAC vs int8-MAC billing
  // (kJoulesPerFlop vs kJoulesPerInt8Mac).
  struct FrontierTrial {
    sim::Scene scene;
    Rng sense_rng;               // state before the float sense()
    lidar::VoxelGrid full_scan;  // the conventional scan's occupancy
  };
  std::vector<FrontierTrial> frontier;
  RunningStat conv_e, float_e, float_recon_e, float_f_iou;
  RunningStat int8_e, int8_recon_e, int8_f_iou;
  const int frontier_trials = 8;
  for (int i = 0; i < frontier_trials; ++i) {
    sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
    const auto conv = pipe.sense_conventional(scene, rng);
    const Rng sense_rng = rng;
    const auto fgen = pipe.sense(scene, rng);
    conv_e.add(conv.energy.total_energy_j());
    float_e.add(fgen.energy.total_energy_j());
    float_recon_e.add(fgen.energy.reconstruction_energy_j);
    float_f_iou.add(fgen.reconstructed.iou(conv.sensed));
    frontier.push_back({std::move(scene), sense_rng, conv.sensed});
  }
  pipe.autoencoder().quantize();
  for (FrontierTrial& t : frontier) {
    const auto qgen = pipe.sense(t.scene, t.sense_rng);
    int8_e.add(qgen.energy.total_energy_j());
    int8_recon_e.add(qgen.energy.reconstruction_energy_j);
    int8_f_iou.add(qgen.reconstructed.iou(t.full_scan));
  }

  std::cout << "\nEnergy/accuracy frontier (mean over " << frontier_trials
            << " scenes; IoU vs full scan):\n";
  std::cout << "  conventional  total " << Table::num(conv_e.mean() * 1e3, 2)
            << " mJ  IoU 1.000\n";
  std::cout << "  float         total " << Table::num(float_e.mean() * 1e6, 1)
            << " uJ  recon " << Table::num(float_recon_e.mean() * 1e6, 2)
            << " uJ  IoU " << Table::num(float_f_iou.mean(), 3) << "\n";
  std::cout << "  int8          total " << Table::num(int8_e.mean() * 1e6, 1)
            << " uJ  recon " << Table::num(int8_recon_e.mean() * 1e6, 2)
            << " uJ  IoU " << Table::num(int8_f_iou.mean(), 3) << "\n";

  const char* out_path = std::getenv("S2A_BENCH_FRONTIER");
  if (out_path == nullptr) out_path = "BENCH_frontier.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n  \"cpu\": \"" << util::cpu_feature_string()
      << "\",\n  \"simd\": \""
      << util::simd_isa_name(util::active_simd_isa())
      << "\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"trials\": " << frontier_trials
      << ",\n  \"joules_per_flop\": " << lidar::kJoulesPerFlop
      << ",\n  \"joules_per_int8_mac\": " << lidar::kJoulesPerInt8Mac
      << ",\n  \"points\": [\n"
      << "    {\"path\": \"conventional\", \"total_energy_j\": "
      << conv_e.mean() << ", \"recon_energy_j\": 0, \"iou\": 1.0},\n"
      << "    {\"path\": \"float\", \"total_energy_j\": " << float_e.mean()
      << ", \"recon_energy_j\": " << float_recon_e.mean()
      << ", \"iou\": " << float_f_iou.mean() << "},\n"
      << "    {\"path\": \"int8\", \"total_energy_j\": " << int8_e.mean()
      << ", \"recon_energy_j\": " << int8_recon_e.mean()
      << ", \"iou\": " << int8_f_iou.mean() << "}\n  ]\n}\n";
  std::cout << "Wrote frontier report to " << out_path << "\n";
  return 0;
}
