// Energy accounting for conventional vs generative sensing (Table II).
//
// Sensing energy is integrated directly from the simulator's per-pulse
// emissions; reconstruction overhead converts the autoencoder's FLOP count
// at a fixed edge-accelerator efficiency. The paper reports 335 MFLOPs →
// 7.1 mJ, i.e. ≈21 pJ/FLOP, which we adopt as the conversion constant.
//
// A deployed int8 model (OccupancyAutoencoder::quantize(), which
// freezes an int8 snapshot, nn/quant.hpp) gets its own per-MAC
// constant: Horowitz-style accounting puts an 8-bit MAC at
// roughly 4–8x below an FP32 one at the same node, and we take 4x —
// conservative for the energy/accuracy frontier the quantization bench
// sweeps (bench_table2_lidar_energy). An int8-quantized scan reports its
// MACs in int8_macs_per_scan and is billed at kJoulesPerInt8Mac; float
// scans leave that field zero.
//
// Billed MACs are the dense count: OccupancyAutoencoder::macs_per_scan()
// is the configured grid's full forward, although a float reconstruct()
// only recomputes the sites a sensed voxel reaches (nn/frozen.hpp; the
// int8 snapshot computes every site). That
// keeps Table II the paper's per-scan compute cost, makes the bill a
// property of the model rather than of the scene, and keeps the energy
// of a scan the same whichever path served it.
#pragma once

#include <cstddef>

#include "sim/lidar_sim.hpp"

namespace s2a::lidar {

inline constexpr double kJoulesPerFlop = 21.2e-12;
/// One int8 MAC at ~4x below the fp32 cost above (Horowitz, ISSCC'14
/// scaling: 8-bit multiply ≈ 0.2 pJ vs fp32 ≈ 3.7 pJ, plus shared
/// access overheads that keep the realized ratio nearer 4x than 18x).
inline constexpr double kJoulesPerInt8Mac = 5.3e-12;

struct EnergyReport {
  double coverage = 0.0;              ///< fired beams / total beams
  double avg_pulse_energy_j = 0.0;
  std::size_t model_params = 0;
  std::size_t flops_per_scan = 0;     ///< 2 × MACs (float path)
  std::size_t int8_macs_per_scan = 0; ///< MACs billed at int8 cost
  double sensing_energy_j = 0.0;      ///< per 360° scan
  double reconstruction_energy_j = 0.0;
  double total_energy_j() const {
    return sensing_energy_j + reconstruction_energy_j;
  }
};

/// Accounts a scan that used `model_macs` of reconstruction compute
/// (0 for conventional scans). With int8_inference, the same MACs are
/// billed at kJoulesPerInt8Mac instead of 2 × kJoulesPerFlop —
/// model_macs keeps meaning MACs either way.
EnergyReport make_energy_report(const sim::PointCloud& cloud,
                                const sim::LidarConfig& config,
                                std::size_t model_params,
                                std::size_t model_macs,
                                bool int8_inference = false);

}  // namespace s2a::lidar
