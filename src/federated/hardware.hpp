// Hardware heterogeneity and cost modeling for federated multi-agent
// loops (Sec. VII, Fig. 10): each client has its own compute throughput,
// memory, and energy efficiency, and the cost model is
// precision-reconfigurable — the simulator HaLo-FL's selector searches
// over. Energy per MAC scales quadratically with operand width (multiplier
// energy), latency inversely with the packing factor, and accelerator
// area quadratically with the MAC array width.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace s2a::federated {

struct PrecisionConfig {
  int weight_bits = 32;
  int activation_bits = 32;
  int gradient_bits = 32;
};

struct HardwareProfile {
  std::string name = "edge-device";
  double throughput_macs_per_s = 1e9;   ///< fp32 MAC throughput
  double energy_per_mac_j = 20e-12;     ///< fp32 MAC energy
  double memory_bytes = 64e6;
  double latency_budget_s = 1.0;        ///< per-round target (DC-NAS input)
  double energy_budget_j = 0.5;         ///< per-round target (HaLo-FL input)
};

/// A heterogeneous fleet: profiles spanning ~an order of magnitude in
/// capability, mirroring the server/desktop/mobile/embedded spread of
/// Fig. 10.
std::vector<HardwareProfile> make_heterogeneous_fleet(int clients, Rng& rng);

struct RoundCost {
  double energy_j = 0.0;
  double latency_s = 0.0;
  double area_mm2 = 0.0;  ///< accelerator area proxy for the MAC config
};

/// Cost of executing `training_macs` on `hw` at precision `p`.
/// Scaling laws:
///   energy  ∝ (w_bits·a_bits)/32² per MAC (multiplier energy),
///   latency ∝ max(w,a)/32 (operand packing),
///   area    ∝ (w_bits·a_bits)/32² · model_fraction relative to a 45 nm
///           fp32 MAC array sized for the full model (DC-NAS's pruned
///           sub-networks need proportionally fewer lanes/buffers).
RoundCost round_cost(double training_macs, const HardwareProfile& hw,
                     const PrecisionConfig& p, double model_fraction = 1.0);

/// Symmetric uniform fake-quantization of a value set to `bits`
/// (per-tensor max scaling). 32 bits returns inputs unchanged.
void fake_quantize(std::vector<double>& values, int bits);
void fake_quantize(double* values, std::size_t n, int bits);
double quantize_value(double v, double scale, int bits);

}  // namespace s2a::federated
