#include "core/offload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace s2a::core {

namespace {
constexpr double kEmaAlpha = 0.2;
// Retry k waits kBackoffBaseS * 2^(k-1) * jitter, jitter uniform in
// [1, 1 + kBackoffJitterFrac).
constexpr double kBackoffBaseS = 2e-3;
constexpr double kBackoffJitterFrac = 0.5;
// The hedged local computation fires once the remote response is past
// kHedgeFactor * (EMA rtt + 2·dev) — the running p95 budget.
constexpr double kHedgeFactor = 1.5;
// While the cost model refuses the link, its EMA loss decays by this
// factor per gated call — bounded optimism so recovery is possible.
constexpr double kGateDecay = 0.05;
// EMA loss above this predicts a dead link regardless of latency.
constexpr double kLossGate = 0.9;
// Request and response payload when the observation carries no data.
constexpr std::size_t kDefaultPayloadBytes = 1024;

// Request and response are both sized like the observation's payload.
std::size_t payload_bytes(const Observation& obs) {
  return obs.data.empty() ? kDefaultPayloadBytes
                          : obs.data.size() * sizeof(double);
}
}  // namespace

const char* offload_mode_name(OffloadMode mode) {
  switch (mode) {
    case OffloadMode::kPolicy:
      return "policy";
    case OffloadMode::kAlwaysLocal:
      return "always_local";
    case OffloadMode::kAlwaysRemote:
      return "always_remote";
  }
  return "?";
}

OffloadExecutor::OffloadExecutor(Processor& local, Processor& remote,
                                 net::LinkSim link, OffloadConfig cfg,
                                 UncertaintySource* gate, std::uint64_t seed)
    : local_(local),
      remote_(remote),
      link_(std::move(link)),
      cfg_(cfg),
      gate_(gate),
      seed_(seed),
      breaker_(cfg.breaker, net::mix_seed(seed, 0x5EEDu)) {
  S2A_CHECK(cfg_.deadline_s > 0.0);
  S2A_CHECK(cfg_.max_retries >= 0);
  S2A_CHECK(cfg_.local_compute_s >= 0.0 && cfg_.remote_compute_s >= 0.0);
  S2A_CHECK(cfg_.tx_energy_j >= 0.0);
}

double OffloadExecutor::attempt_timeout() const {
  return cfg_.deadline_s / static_cast<double>(cfg_.max_retries + 1);
}

void OffloadExecutor::seed_cost_model(const Observation& obs) {
  if (cost_seeded_) return;
  const std::size_t bytes = payload_bytes(obs);
  ema_rtt_ = link_.estimate_rtt_s(bytes, bytes, cfg_.remote_compute_s);
  ema_dev_ = 0.25 * ema_rtt_;
  ema_loss_ = link_.config().loss_prob;
  cost_seeded_ = true;
}

bool OffloadExecutor::predicts_deadline_met() const {
  if (ema_loss_ > kLossGate) return false;
  // Expected serve latency: p95-ish round trip plus the expected cost of
  // one loss-driven retry (timeout burned + backoff).
  const double expected = ema_rtt_ + 2.0 * ema_dev_ +
                          ema_loss_ * (attempt_timeout() + kBackoffBaseS);
  return expected <= cfg_.deadline_s;
}

void OffloadExecutor::observe_success(double rtt_s) {
  ema_rtt_ = (1.0 - kEmaAlpha) * ema_rtt_ + kEmaAlpha * rtt_s;
  ema_dev_ = (1.0 - kEmaAlpha) * ema_dev_ +
             kEmaAlpha * std::abs(rtt_s - ema_rtt_);
  ema_loss_ = (1.0 - kEmaAlpha) * ema_loss_;
  S2A_GAUGE_SET("core.offload_ema_rtt_s", ema_rtt_);
}

void OffloadExecutor::observe_failure() {
  ema_loss_ = (1.0 - kEmaAlpha) * ema_loss_ + kEmaAlpha;
  S2A_GAUGE_SET("core.offload_ema_loss", ema_loss_);
}

std::vector<double> OffloadExecutor::serve_local(const Observation& obs,
                                                 Rng& rng,
                                                 std::vector<double>* prepaid,
                                                 double latency_s) {
  ++metrics_.local_served;
  S2A_COUNTER_ADD("core.offload_local_served", 1);
  last_latency_s_ = latency_s;
  metrics_.total_latency_s += latency_s;
  S2A_HISTOGRAM_RECORD("core.offload_latency_s", latency_s);
  if (prepaid != nullptr) return std::move(*prepaid);
  last_energy_j_ += local_.energy_per_call_j();
  return local_.process(obs, rng);
}

std::vector<double> OffloadExecutor::serve_remote(const Observation& obs,
                                                  Rng& rng,
                                                  double latency_s) {
  ++metrics_.remote_served;
  S2A_COUNTER_ADD("core.offload_remote_served", 1);
  last_served_remote_ = true;
  last_latency_s_ = latency_s;
  metrics_.total_latency_s += latency_s;
  S2A_HISTOGRAM_RECORD("core.offload_latency_s", latency_s);
  return remote_.process(obs, rng);
}

std::vector<double> OffloadExecutor::strict_sentinel(double latency_s) {
  // The loop's actuation boundary blocks this (quarantined_actions),
  // applies the fallback policy, and counts a bad tick toward the
  // NOMINAL → DEGRADED → SAFE_STOP machine — the existing error channel.
  ++metrics_.strict_denied;
  S2A_COUNTER_ADD("core.offload_strict_denied", 1);
  last_latency_s_ = latency_s;
  metrics_.total_latency_s += latency_s;
  return {std::numeric_limits<double>::quiet_NaN()};
}

std::vector<double> OffloadExecutor::process(const Observation& obs,
                                             Rng& rng) {
  return process_at(obs.timestamp, obs, rng);
}

std::vector<double> OffloadExecutor::process_at(double now,
                                                const Observation& obs,
                                                Rng& rng) {
  S2A_TRACE_SCOPE_CAT("core.offload_tick", "core");
  ++metrics_.requests;
  last_energy_j_ = 0.0;
  last_served_remote_ = false;
  seed_cost_model(obs);

  // prepaid_local: the local model runs unconditionally up front (a
  // BatchSlot's staged row must be consumed exactly once per tick);
  // remote success upgrades the answer afterwards.
  std::vector<double> prepaid_out;
  bool have_prepaid = false;
  if (cfg_.prepaid_local) {
    prepaid_out = local_.process(obs, rng);
    last_energy_j_ += local_.energy_per_call_j();
    have_prepaid = true;
  }
  std::vector<double>* prepaid = have_prepaid ? &prepaid_out : nullptr;

  const bool policy = cfg_.mode == OffloadMode::kPolicy;

  // 1. Uncertainty gate.
  if (cfg_.mode == OffloadMode::kAlwaysLocal) {
    return serve_local(obs, rng, prepaid, cfg_.local_compute_s);
  }
  if (policy && gate_ != nullptr && gate_->score(obs) <= cfg_.regret_gate) {
    ++metrics_.gated_local;
    S2A_COUNTER_ADD("core.offload_gated_local", 1);
    return serve_local(obs, rng, prepaid, cfg_.local_compute_s);
  }

  // 2. Circuit breaker (policy mode only — the always-remote baseline
  // measures naive routing, so it gets no protection).
  bool probing = false;
  if (policy) {
    const std::uint64_t admission_id = ++request_counter_;
    if (!breaker_.allow(now, admission_id)) {
      ++metrics_.breaker_blocked;
      S2A_COUNTER_ADD("core.offload_breaker_blocked", 1);
      if (cfg_.strict_uncertain) return strict_sentinel(0.0);
      return serve_local(obs, rng, prepaid, cfg_.local_compute_s);
    }
    probing = breaker_.state() == net::BreakerState::kHalfOpen;

    // 3. Cost model (probes bypass it — a probe *is* the exploration
    // that refreshes the model).
    if (!probing && !predicts_deadline_met()) {
      ++metrics_.cost_gated;
      S2A_COUNTER_ADD("core.offload_cost_gated", 1);
      // Optimistic decay: a link written off by the model is re-tried
      // eventually instead of being gated forever.
      ema_loss_ *= (1.0 - kGateDecay);
      if (cfg_.strict_uncertain) return strict_sentinel(0.0);
      return serve_local(obs, rng, prepaid, cfg_.local_compute_s);
    }
  }

  // Remote attempt loop: bounded retries, exponential backoff with
  // deterministic hashed jitter, per-attempt timeouts.
  const double hedge_budget = kHedgeFactor * (ema_rtt_ + 2.0 * ema_dev_);
  const double budget = attempt_timeout();
  const std::size_t bytes = payload_bytes(obs);
  double elapsed = 0.0;
  bool success = false;
  for (int attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++metrics_.retries;
      S2A_COUNTER_ADD("core.offload_retries", 1);
      const double scale = static_cast<double>(1 << (attempt - 1));
      Rng jitter_rng(net::mix_seed(seed_ ^ 0xB0FFu, ++request_counter_));
      const double jitter = 1.0 + kBackoffJitterFrac * jitter_rng.uniform();
      elapsed += kBackoffBaseS * scale * jitter;
    }
    ++metrics_.remote_attempts;
    S2A_COUNTER_ADD("core.offload_remote_attempts", 1);
    last_energy_j_ += cfg_.tx_energy_j;
    const double send_s = now + elapsed;
    const net::RoundTrip rt =
        link_.roundtrip(send_s, bytes, bytes, cfg_.remote_compute_s,
                        ++request_counter_);
    if (rt.delivered) {
      const double rtt = rt.response_at_s - send_s;
      if (!rt.corrupted && rtt <= budget) {
        elapsed += rtt;
        success = true;
        observe_success(rtt);
        break;
      }
      if (rt.corrupted && rtt <= budget) {
        // Corruption is detected on arrival; the wait is paid, the
        // payload is discarded, and the attempt counts as failed.
        ++metrics_.corrupt_responses;
        S2A_COUNTER_ADD("core.offload_corrupt_responses", 1);
        elapsed += rtt;
        observe_failure();
        continue;
      }
    }
    // Lost, partitioned, or past the attempt timeout: the full timeout
    // is burned waiting.
    elapsed += budget;
    observe_failure();
  }

  if (policy) {
    if (success) {
      breaker_.record_success();
    } else {
      breaker_.record_failure(now + elapsed);
    }
  }

  // Hedging: a local computation was fired once the remote response went
  // past its p95 budget; first finisher wins, the loser is cancelled.
  const bool hedge_fired = !success || elapsed > hedge_budget;
  if (hedge_fired) {
    ++metrics_.hedged;
    S2A_COUNTER_ADD("core.offload_hedged", 1);
  }

  if (success) {
    ++metrics_.remote_successes;
    const double local_finish = hedge_fired
                                    ? hedge_budget + cfg_.local_compute_s
                                    : std::numeric_limits<double>::infinity();
    if (local_finish < elapsed) {
      // The hedged local answer beat the (late but delivered) remote
      // reply; the remote result is cancelled unread.
      ++metrics_.hedge_local_wins;
      S2A_COUNTER_ADD("core.offload_hedge_local_wins", 1);
      return serve_local(obs, rng, prepaid, local_finish);
    }
    return serve_remote(obs, rng, elapsed);
  }

  ++metrics_.remote_failures;
  S2A_COUNTER_ADD("core.offload_remote_failures", 1);
  if (cfg_.strict_uncertain) return strict_sentinel(elapsed);
  // Local fallback: with a hedge in flight the local answer has been
  // cooking since the hedge budget expired, so the failure costs
  // min(hedge point, full retry window) + local compute.
  const double fallback_latency =
      (hedge_fired ? std::min(hedge_budget, elapsed) : elapsed) +
      cfg_.local_compute_s;
  return serve_local(obs, rng, prepaid, fallback_latency);
}

}  // namespace s2a::core
