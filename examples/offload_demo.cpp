// Uncertainty-gated edge↔cloud offload demo (docs/RESILIENCE.md
// "Resilient edge↔cloud offload"): one sensing-to-action loop whose
// Processor is a core::OffloadExecutor routing each tick's inference
// local-vs-remote over a fault-injected net::LinkSim. Low-confidence
// ticks buy the big cloud model when the link cooperates; when the link
// partitions mid-run the circuit breaker opens, local fallback carries
// the loop, and a HALF_OPEN probe re-admits remote traffic after the
// window — printed as a routing timeline plus the final executor,
// breaker, and loop counters.
//
// Knobs:
//   S2A_OFFLOAD=policy|local|remote  routing mode (default: policy)
//   S2A_LINK_LOSS=<p>                per-direction drop probability
//   S2A_LINK_LATENCY_MS=<ms>         one-way base latency (default: 2)
//   S2A_LINK_BW_BPS=<bytes/s>        uplink bandwidth (default: 1e7)
//   S2A_FAULT_SEED=<n>               replace the scripted partition with
//                                    a seeded random link fault schedule
//
// Build & run:  ./build/examples/offload_demo
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/loop.hpp"
#include "core/offload.hpp"
#include "core/policies.hpp"
#include "net/circuit.hpp"
#include "net/link.hpp"
#include "obs/obs.hpp"

using namespace s2a;

namespace {

/// Rangefinder with mild noise; the gate, not the sensor, decides which
/// ticks are hard.
class WaveSensor : public core::Sensor {
 public:
  core::Observation sense(double now, Rng& rng) override {
    core::Observation obs;
    obs.data = {10.0 + 2.0 * std::sin(0.8 * now) + rng.normal(0.0, 0.05),
                std::cos(0.8 * now) + rng.normal(0.0, 0.05)};
    obs.timestamp = now;
    obs.energy_j = 1e-3;
    return obs;
  }
};

/// The small on-device model and the big cloud model: same interface,
/// different quality (scale) and modeled cost (OffloadConfig).
class ScaleModel : public core::Processor {
 public:
  explicit ScaleModel(double scale, double energy_j = 0.0)
      : scale_(scale), energy_j_(energy_j) {}
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    std::vector<double> out = obs.data;
    for (double& v : out) v *= scale_;
    return out;
  }
  double energy_per_call_j() const override { return energy_j_; }

 private:
  double scale_;
  double energy_j_;
};

/// Scripted confidence: ~40% of ticks score above the regret gate, so
/// the routing decision is visible without training a monitor. Swap in
/// monitor::StarNetUncertainty to gate on real likelihood regret.
class ScriptedGate : public core::UncertaintySource {
 public:
  double score(const core::Observation& obs) override {
    return std::sin(40.0 * obs.timestamp) > 0.2 ? 2.0 : 0.0;
  }
};

class CountingActuator : public core::Actuator {
 public:
  void actuate(const core::Action&, Rng&) override { ++count_; }
  long count() const { return count_; }

 private:
  long count_ = 0;
};

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtod(v, nullptr) : fallback;
}

core::OffloadMode env_mode() {
  const char* v = std::getenv("S2A_OFFLOAD");
  if (v == nullptr) return core::OffloadMode::kPolicy;
  const std::string s(v);
  if (s == "local") return core::OffloadMode::kAlwaysLocal;
  if (s == "remote") return core::OffloadMode::kAlwaysRemote;
  return core::OffloadMode::kPolicy;
}

const char* loop_state_name(core::LoopState s) {
  switch (s) {
    case core::LoopState::kNominal: return "NOMINAL";
    case core::LoopState::kDegraded: return "DEGRADED";
    case core::LoopState::kSafeStop: return "SAFE_STOP";
  }
  return "?";
}

}  // namespace

int main() {
  obs::init_from_env();
  net::LinkConfig lc;
  lc.loss_prob = env_double("S2A_LINK_LOSS", 0.0);
  lc.base_latency_s = env_double("S2A_LINK_LATENCY_MS", 2.0) * 1e-3;
  lc.bandwidth_bytes_per_s = env_double("S2A_LINK_BW_BPS", 1.0e7);

  // Scripted outage by default: the link partitions for [3 s, 5 s) of
  // the 10 s run. S2A_FAULT_SEED replaces it with a random schedule
  // drawn by net::LinkFaultSchedule::random, the generator the chaos
  // tests sweep.
  net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kPartition, 3.0, 5.0, 0.0}});
  std::uint64_t seed = 21;
  if (const char* seed_env = std::getenv("S2A_FAULT_SEED")) {
    seed = std::strtoull(seed_env, nullptr, 10);
    sched = net::LinkFaultSchedule::random(seed, /*horizon_s=*/10.0,
                                           /*events=*/4,
                                           /*mean_duration_s=*/1.5);
    std::printf("(S2A_FAULT_SEED=%llu: random link fault plan, %zu windows)\n",
                static_cast<unsigned long long>(seed),
                sched.windows().size());
  }

  core::OffloadConfig ocfg;
  ocfg.mode = env_mode();
  ocfg.deadline_s = 0.05;       // the loop's rate contract: dt
  ocfg.local_compute_s = 4e-3;  // small model: fast but coarse
  ocfg.remote_compute_s = 1e-3; // big model: fast compute, pays the link
  ocfg.tx_energy_j = 2e-3;
  ocfg.breaker.open_cooldown_s = 0.5;

  WaveSensor sensor;
  ScaleModel local(2.0, 5e-3);
  ScaleModel remote(10.0);
  ScriptedGate gate;
  CountingActuator actuator;
  core::PeriodicPolicy policy(1);
  core::LoopConfig lcfg;
  lcfg.resilience.degrade_after = 2;
  lcfg.resilience.recover_after = 2;
  lcfg.resilience.safe_stop_after = 0;  // fall back forever, never halt

  core::OffloadExecutor exec(local, remote, net::LinkSim(lc, sched, seed),
                             ocfg, &gate, seed);
  core::SensingActionLoop loop(sensor, exec, actuator, policy, lcfg);

  std::printf("Offload routing timeline (mode %s, dt 0.05 s, 10 s horizon)\n",
              core::offload_mode_name(ocfg.mode));
  std::printf("%6s %8s %8s %8s %10s %10s\n", "t(s)", "local", "remote",
              "blocked", "breaker", "loop");

  Rng rng(11);
  constexpr int kTicks = 200, kWindow = 25;
  long prev_local = 0, prev_remote = 0, prev_blocked = 0;
  for (int i = 0; i < kTicks; ++i) {
    loop.tick(rng);
    if ((i + 1) % kWindow == 0) {
      const core::OffloadMetrics& m = exec.metrics();
      const long blocked = m.breaker_blocked + m.cost_gated;
      std::printf("%6.2f %8ld %8ld %8ld %10s %10s\n", 0.05 * (i + 1),
                  m.local_served - prev_local, m.remote_served - prev_remote,
                  blocked - prev_blocked, breaker_state_name(exec.breaker().state()),
                  loop_state_name(loop.state()));
      prev_local = m.local_served;
      prev_remote = m.remote_served;
      prev_blocked = blocked;
    }
  }

  const core::OffloadMetrics& m = exec.metrics();
  const net::BreakerMetrics& b = exec.breaker().metrics();
  std::printf("\nExecutor: %ld requests | %ld local (%ld gated, %ld cost, "
              "%ld breaker) | %ld remote | %ld retries | %ld hedged "
              "(%ld local wins)\n",
              m.requests, m.local_served, m.gated_local, m.cost_gated,
              m.breaker_blocked, m.remote_served, m.retries, m.hedged,
              m.hedge_local_wins);
  std::printf("Link:     %ld attempts, %ld successes, %ld failures, "
              "%ld corrupt | mean serve %.2f ms | EMA rtt %.2f ms loss %.2f\n",
              m.remote_attempts, m.remote_successes, m.remote_failures,
              m.corrupt_responses,
              m.requests > 0 ? m.total_latency_s / m.requests * 1e3 : 0.0,
              exec.ema_rtt_s() * 1e3, exec.ema_loss());
  std::printf("Breaker:  %ld opens, %ld half-opens, %ld closes, %ld probes, "
              "%ld blocked (final %s)\n",
              b.opens, b.half_opens, b.closes, b.probes, b.blocked,
              breaker_state_name(exec.breaker().state()));
  std::printf("Loop:     %ld actions, %ld fallbacks, %ld quarantined, "
              "final %s\n",
              loop.metrics().actions, loop.metrics().fallback_actions,
              loop.metrics().quarantined_actions,
              loop_state_name(loop.state()));
  if (obs::dump_trace())
    std::printf("Wrote Chrome trace to %s\n", obs::trace_path().c_str());
  return 0;
}
