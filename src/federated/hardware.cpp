#include "federated/hardware.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace s2a::federated {

std::vector<HardwareProfile> make_heterogeneous_fleet(int clients, Rng& rng) {
  S2A_CHECK(clients > 0);
  std::vector<HardwareProfile> fleet;
  const char* tiers[] = {"server", "desktop", "mobile", "embedded"};
  for (int i = 0; i < clients; ++i) {
    HardwareProfile hw;
    const int tier = i % 4;
    hw.name = std::string(tiers[tier]) + "-" + std::to_string(i);
    // Capability decreases ~3× per tier; jitter ±20%.
    const double scale = std::pow(3.0, -tier) * rng.uniform(0.8, 1.2);
    hw.throughput_macs_per_s = 4e9 * scale;
    hw.energy_per_mac_j = 10e-12 / std::max(0.05, scale);  // weaker = less efficient
    hw.memory_bytes = 256e6 * scale;
    // Round deadlines and energy budgets are uniform across the fleet (the
    // application's real-time constraint), so weaker devices must adapt —
    // the premise of DC-NAS and HaLo-FL.
    hw.latency_budget_s = 4e-4;
    hw.energy_budget_j = 4e-6;
    fleet.push_back(hw);
  }
  return fleet;
}

RoundCost round_cost(double training_macs, const HardwareProfile& hw,
                     const PrecisionConfig& p, double model_fraction) {
  S2A_CHECK(training_macs >= 0.0);
  S2A_CHECK(model_fraction > 0.0 && model_fraction <= 1.0);
  S2A_CHECK(p.weight_bits >= 2 && p.weight_bits <= 32);
  S2A_CHECK(p.activation_bits >= 2 && p.activation_bits <= 32);
  S2A_CHECK(p.gradient_bits >= 2 && p.gradient_bits <= 32);

  const double mult_factor =
      (static_cast<double>(p.weight_bits) * p.activation_bits) / (32.0 * 32.0);
  const double pack_factor =
      static_cast<double>(std::max(p.weight_bits, p.activation_bits)) / 32.0;
  // Gradient precision affects the backward-pass two-thirds of training.
  const double grad_factor =
      (1.0 + 2.0 * static_cast<double>(p.gradient_bits) / 32.0) / 3.0;

  RoundCost cost;
  cost.energy_j =
      training_macs * hw.energy_per_mac_j * mult_factor * grad_factor;
  cost.latency_s =
      training_macs / hw.throughput_macs_per_s * pack_factor * grad_factor;
  // fp32 MAC array reference area: 0.01 mm²/MAC-lane × 64 lanes.
  cost.area_mm2 = 0.64 * mult_factor * model_fraction;
  return cost;
}

double quantize_value(double v, double scale, int bits) {
  if (bits >= 32 || scale <= 0.0) return v;
  const double levels = static_cast<double>((1 << (bits - 1)) - 1);
  const double q = std::round(std::clamp(v / scale, -1.0, 1.0) * levels);
  return q / levels * scale;
}

void fake_quantize(std::vector<double>& values, int bits) {
  fake_quantize(values.data(), values.size(), bits);
}

void fake_quantize(double* values, std::size_t n, int bits) {
  if (bits >= 32 || n == 0) return;
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, std::abs(values[i]));
  if (scale == 0.0) return;
  for (std::size_t i = 0; i < n; ++i)
    values[i] = quantize_value(values[i], scale, bits);
}

}  // namespace s2a::federated
