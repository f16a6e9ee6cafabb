// Uncertainty-gated edge↔cloud offload (Sec. VII; CoSense-LLM in
// PAPERS.md): a core::Processor that routes each tick's heavy processing
// local-vs-remote over a net::LinkSim, and survives the link misbehaving.
//
// Decision policy, in order:
//  1. Uncertainty gate — remote only when the UncertaintySource score
//     exceeds `regret_gate` (low-confidence inputs buy the bigger remote
//     model; confident ones stay on the cheap local path). STARNet's
//     likelihood regret plugs in via monitor::StarNetUncertainty.
//  2. Circuit breaker — after `breaker.failure_threshold` consecutive
//     remote failures the breaker OPENs and calls are answered locally
//     without touching the link; seeded HALF_OPEN probes re-admit remote
//     traffic once the cooldown passes (net/circuit.hpp).
//  3. Cost model — EMA round-trip latency/deviation/loss observed on this
//     link must predict the per-request deadline is makeable; the
//     prediction decays optimistically while gated so a healed link gets
//     re-tried instead of being written off forever.
// The remote path itself is resilient: bounded retries with exponential
// backoff + deterministic (counter-hashed) jitter, per-attempt timeouts
// carved from the request deadline, and a hedged local computation fired
// when the remote response is past its p95 budget — first finisher wins,
// the loser is cancelled.
//
// Failure semantics: by default every remote failure silently falls back
// to the local model, so a dead cloud degrades answer quality but never
// safety (the loop stays NOMINAL). With `strict_uncertain` set, an
// uncertain input whose remote path fails emits a non-finite sentinel
// action instead — the loop's actuation boundary blocks it
// (quarantined_actions), applies the fallback policy, and drives the
// existing NOMINAL → DEGRADED → SAFE_STOP machine; no parallel error
// channel is invented. Use strict mode when acting on a low-confidence
// local answer is worse than not acting.
//
// Determinism: all latency arithmetic runs on the loop clock, and all
// randomness (link draws, backoff jitter, probe admission) is hashed from
// member-local counters — per-member metrics are bit-identical at every
// thread count (tests/net_test.cpp chaos cases).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/loop.hpp"
#include "net/circuit.hpp"
#include "net/link.hpp"

namespace s2a::core {

/// Per-observation confidence score; higher = less confident. The
/// OffloadExecutor offloads when score > OffloadConfig::regret_gate.
class UncertaintySource {
 public:
  virtual ~UncertaintySource() = default;
  virtual double score(const Observation& obs) = 0;
};

/// Routing mode. kAlwaysLocal / kAlwaysRemote are the baselines of the
/// policy-value sweep (Offload.PolicyBeatsBothBaselinesAtSomeSweepPoint in
/// tests/net_test.cpp): they bypass the gate, breaker, and cost model so
/// the policy's value shows up against naive routing.
enum class OffloadMode { kPolicy = 0, kAlwaysLocal, kAlwaysRemote };
const char* offload_mode_name(OffloadMode mode);

struct OffloadConfig {
  OffloadMode mode = OffloadMode::kPolicy;
  /// Offload when UncertaintySource::score(obs) exceeds this. With no
  /// gate wired in, every tick counts as uncertain.
  double regret_gate = 1.0;
  /// Per-request completion budget. Derive it from the loop's rate
  /// contract: the result must land inside the tick, so deadline_s ≤
  /// LoopConfig::dt (or the fleet's FleetLoopConfig::deadline_s).
  double deadline_s = 0.05;
  /// Extra attempts after the first; each attempt times out after
  /// deadline_s / (max_retries + 1).
  int max_retries = 2;
  double local_compute_s = 4e-3;   ///< modeled local inference time
  double remote_compute_s = 1e-3;  ///< modeled cloud inference time
  double tx_energy_j = 0.0;        ///< radio energy per remote attempt
  /// Strict mode: uncertain ticks whose remote path fails emit a
  /// non-finite sentinel (blocked at the loop's actuation boundary)
  /// instead of silently serving the low-confidence local answer.
  bool strict_uncertain = false;
  /// Always run the local model first and treat remote as an upgrade.
  /// Required when the local Processor is a batched_fleet BatchSlot —
  /// the staged row must be consumed exactly once per tick.
  bool prepaid_local = false;
  net::BreakerConfig breaker;
};

/// Cumulative executor counters; compared bit-exactly in the chaos
/// determinism tests alongside LoopMetrics and BreakerMetrics.
struct OffloadMetrics {
  long requests = 0;
  long local_served = 0;       ///< ticks answered by the local model
  long remote_served = 0;      ///< ticks answered by the remote model
  long gated_local = 0;        ///< confident ticks kept local by the gate
  long cost_gated = 0;         ///< uncertain ticks kept local by the cost model
  long breaker_blocked = 0;    ///< uncertain ticks kept local by the breaker
  long remote_attempts = 0;    ///< link round trips issued
  long retries = 0;            ///< attempts beyond the first
  long remote_successes = 0;   ///< requests whose remote path delivered
  long remote_failures = 0;    ///< requests whose remote path gave up
  long corrupt_responses = 0;  ///< delivered-but-damaged responses discarded
  long hedged = 0;             ///< ticks where the local hedge fired
  long hedge_local_wins = 0;   ///< hedges where local beat the remote reply
  long strict_denied = 0;      ///< strict-mode sentinel emissions
  double total_latency_s = 0.0;  ///< summed modeled serve latency

  friend bool operator==(const OffloadMetrics&, const OffloadMetrics&) =
      default;
};

class OffloadExecutor : public Processor {
 public:
  /// `local` and `remote` are the small on-device and big cloud models;
  /// `link` is this member's endpoint (value — construct with a
  /// per-member stream id when a fleet shares one uplink). `gate` may be
  /// null (every tick uncertain). `seed` keys backoff jitter and probe
  /// admission.
  OffloadExecutor(Processor& local, Processor& remote, net::LinkSim link,
                  OffloadConfig cfg = {}, UncertaintySource* gate = nullptr,
                  std::uint64_t seed = 0);

  std::vector<double> process(const Observation& obs, Rng& rng) override;
  std::vector<double> process_at(double now, const Observation& obs,
                                 Rng& rng) override;
  double energy_per_call_j() const override { return last_energy_j_; }

  const OffloadMetrics& metrics() const { return metrics_; }
  const net::CircuitBreaker& breaker() const { return breaker_; }
  const OffloadConfig& config() const { return cfg_; }
  /// Did the last process_at() serve the remote model's answer?
  bool last_served_remote() const { return last_served_remote_; }
  /// Modeled serve latency of the last process_at().
  double last_latency_s() const { return last_latency_s_; }
  /// Cost-model state (diagnostics / bench reporting).
  double ema_rtt_s() const { return ema_rtt_; }
  double ema_loss() const { return ema_loss_; }

 private:
  double attempt_timeout() const;
  /// Does the cost model predict the deadline is makeable?
  bool predicts_deadline_met() const;
  void seed_cost_model(const Observation& obs);
  void observe_success(double rtt_s);
  void observe_failure();

  std::vector<double> serve_local(const Observation& obs, Rng& rng,
                                  std::vector<double>* prepaid,
                                  double latency_s);
  std::vector<double> serve_remote(const Observation& obs, Rng& rng,
                                   double latency_s);
  std::vector<double> strict_sentinel(double latency_s);

  Processor& local_;
  Processor& remote_;
  net::LinkSim link_;
  OffloadConfig cfg_;
  UncertaintySource* gate_;
  std::uint64_t seed_;
  net::CircuitBreaker breaker_;

  // EMA cost model (seeded from LinkSim::estimate_rtt_s on first use).
  bool cost_seeded_ = false;
  double ema_rtt_ = 0.0;
  double ema_dev_ = 0.0;
  double ema_loss_ = 0.0;

  std::uint64_t request_counter_ = 0;
  double last_energy_j_ = 0.0;
  double last_latency_s_ = 0.0;
  bool last_served_remote_ = false;
  OffloadMetrics metrics_;
};

}  // namespace s2a::core
