// Tests for the simulated network link, the circuit breaker, and the
// uncertainty-gated offload executor built on them (docs/RESILIENCE.md):
// per-request determinism of the link, fault-window behavior and the
// severity-clamp regression, breaker state transitions, offload routing /
// retry / hedge / fallback semantics, loop integration (strict-mode
// failures drive the existing NOMINAL → DEGRADED → SAFE_STOP machine),
// and the chaos determinism cases — per-member LoopMetrics, offload
// metrics and breaker transitions bit-identical across S2A_THREADS ∈
// {1, 4} under the same S2A_FAULT_SEED. Labeled chaos + tsan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "core/fleet.hpp"
#include "core/loop.hpp"
#include "core/offload.hpp"
#include "core/policies.hpp"
#include "net/circuit.hpp"
#include "net/link.hpp"
#include "util/check.hpp"
#include "util/finite.hpp"
#include "util/thread_pool.hpp"

namespace s2a::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t fault_seed() {
  const char* env = std::getenv("S2A_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42ULL;
}

net::LinkConfig healthy_link() {
  net::LinkConfig cfg;
  cfg.bandwidth_bytes_per_s = 1e7;
  cfg.base_latency_s = 2e-3;
  cfg.jitter_s = 1e-3;
  return cfg;
}

// ------------------------------------------------------------- LinkSim

TEST(Link, RoundTripDeterministicPerRequestId) {
  net::LinkConfig cfg = healthy_link();
  cfg.loss_prob = 0.3;
  const net::LinkSim link(cfg, {}, /*seed=*/7, /*stream_id=*/0);
  for (std::uint64_t id = 0; id < 50; ++id) {
    const net::RoundTrip a = link.roundtrip(1.0, 1024, 256, 1e-3, id);
    const net::RoundTrip b = link.roundtrip(1.0, 1024, 256, 1e-3, id);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.corrupted, b.corrupted);
    EXPECT_DOUBLE_EQ(a.response_at_s, b.response_at_s);
  }
}

TEST(Link, StreamsDecorrelated) {
  net::LinkConfig cfg = healthy_link();
  cfg.loss_prob = 0.5;
  const net::LinkSim a(cfg, {}, /*seed=*/7, /*stream_id=*/0);
  const net::LinkSim b(cfg, {}, /*seed=*/7, /*stream_id=*/1);
  int differing = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    if (a.roundtrip(0.0, 512, 512, 0.0, id).delivered !=
        b.roundtrip(0.0, 512, 512, 0.0, id).delivered)
      ++differing;
  }
  EXPECT_GT(differing, 20);  // p=0.5 per direction: ~half should differ
}

TEST(Link, HealthyRoundTripRespectsPhysics) {
  const net::LinkSim link(healthy_link(), {}, 1);
  const net::RoundTrip rt = link.roundtrip(0.0, 10000, 10000, 2e-3, 0);
  ASSERT_TRUE(rt.delivered);
  EXPECT_FALSE(rt.corrupted);
  // Floor: two serializations (1 ms each at 10 MB/s) + two propagation
  // delays + remote compute, no jitter.
  EXPECT_GE(rt.response_at_s, 2e-3 + 2 * 2e-3 + 2e-3);
  // Ceiling: floor plus both jitter draws.
  EXPECT_LE(rt.response_at_s, 2e-3 + 2 * (2e-3 + 1e-3) + 2e-3 + 1e-9);
  EXPECT_NEAR(link.estimate_rtt_s(10000, 10000, 2e-3), 9e-3, 1e-9);
}

TEST(Link, PartitionWindowDropsTraffic) {
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kPartition, 1.0, 2.0, 0.0}});
  const net::LinkSim link(healthy_link(), sched, 3);
  EXPECT_TRUE(link.roundtrip(0.5, 256, 256, 0.0, 0).delivered);
  EXPECT_FALSE(link.roundtrip(1.5, 256, 256, 0.0, 1).delivered);
  // In-flight at partition onset: sent just before the window, arrives
  // inside it — eaten too.
  EXPECT_FALSE(link.roundtrip(0.999, 256, 256, 0.0, 2).delivered);
  EXPECT_TRUE(link.roundtrip(2.5, 256, 256, 0.0, 3).delivered);
}

TEST(Link, SpikeAndCollapseSlowTheLink) {
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kLatencySpike, 1.0, 2.0, 0.1},
       {net::LinkFaultKind::kBandwidthCollapse, 3.0, 4.0, 0.01}});
  const net::LinkSim link(healthy_link(), sched, 5);
  const double clean = link.roundtrip(0.0, 10000, 256, 0.0, 0).response_at_s;
  const double spiked =
      link.roundtrip(1.0, 10000, 256, 0.0, 0).response_at_s - 1.0;
  const double dripped =
      link.roundtrip(3.0, 10000, 256, 0.0, 0).response_at_s - 3.0;
  EXPECT_GE(spiked, clean + 0.1);          // both directions spiked
  EXPECT_GE(dripped, clean + 10000 / 1e7 * 90.0);  // 100x slower uplink
}

TEST(Link, CorruptWindowFlagsResponses) {
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kCorrupt, 0.0, 10.0, 1.0}});
  const net::LinkSim link(healthy_link(), sched, 9);
  const net::RoundTrip rt = link.roundtrip(0.5, 256, 256, 0.0, 0);
  ASSERT_TRUE(rt.delivered);
  EXPECT_TRUE(rt.corrupted);
}

// Regression: an out-of-range schedule entry must not produce an
// unbounded latency spike (or a zero/negative bandwidth, or a
// probability outside [0, 1]) — severities are clamped, not trusted.
TEST(Link, SeverityClampRegression) {
  EXPECT_DOUBLE_EQ(
      net::clamp_link_magnitude(net::LinkFaultKind::kLatencySpike, 1e9),
      net::kMaxLatencySpikeS);
  EXPECT_DOUBLE_EQ(
      net::clamp_link_magnitude(net::LinkFaultKind::kLatencySpike, kNaN), 0.0);
  EXPECT_DOUBLE_EQ(
      net::clamp_link_magnitude(net::LinkFaultKind::kBandwidthCollapse, -3.0),
      net::kMinBandwidthFactor);
  EXPECT_DOUBLE_EQ(
      net::clamp_link_magnitude(net::LinkFaultKind::kCorrupt, 7.0), 1.0);

  // Through the schedule constructor: a 1e9-second "spike" window still
  // yields bounded round trips.
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kLatencySpike, 0.0, 10.0, 1e9},
       {net::LinkFaultKind::kCorrupt, 0.0, 10.0, -5.0}});
  EXPECT_DOUBLE_EQ(sched.windows()[0].magnitude, net::kMaxLatencySpikeS);
  EXPECT_DOUBLE_EQ(sched.windows()[1].magnitude, 0.0);
  EXPECT_DOUBLE_EQ(sched.latency_spike_s(1.0), net::kMaxLatencySpikeS);
  EXPECT_DOUBLE_EQ(sched.corrupt_prob(1.0), 0.0);
  const net::LinkSim link(healthy_link(), sched, 11);
  const net::RoundTrip rt = link.roundtrip(0.0, 256, 256, 0.0, 0);
  ASSERT_TRUE(rt.delivered);
  EXPECT_FALSE(rt.corrupted);  // corrupt probability clamped up to 0
  EXPECT_LE(rt.response_at_s, 2 * (net::kMaxLatencySpikeS + 4e-3) + 1e-3);
}

// ---------------------------------------------------- LinkFaultSchedule

TEST(LinkSchedule, WindowsAreHalfOpenAndKindSpecific) {
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kPartition, 0.0, 5.0, 0.0}});
  ASSERT_EQ(sched.windows().size(), 1u);
  EXPECT_TRUE(sched.partitioned(0.0));
  EXPECT_TRUE(sched.partitioned(1.0));
  EXPECT_FALSE(sched.partitioned(5.0));
  EXPECT_FALSE(sched.partitioned(6.0));
  // A partition window answers no other kind's query.
  EXPECT_DOUBLE_EQ(sched.latency_spike_s(1.0), 0.0);
  EXPECT_DOUBLE_EQ(sched.bandwidth_factor(1.0), 1.0);
  EXPECT_DOUBLE_EQ(sched.corrupt_prob(1.0), 0.0);
}

TEST(LinkSchedule, FirstActiveWindowOfAKindWins) {
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kLatencySpike, 0.0, 4.0, 0.1},
       {net::LinkFaultKind::kLatencySpike, 2.0, 6.0, 0.3}});
  EXPECT_DOUBLE_EQ(sched.latency_spike_s(1.0), 0.1);
  EXPECT_DOUBLE_EQ(sched.latency_spike_s(3.0), 0.1);
  EXPECT_DOUBLE_EQ(sched.latency_spike_s(5.0), 0.3);
}

TEST(LinkSchedule, RandomScheduleSeededAndWellFormed) {
  const auto a = net::LinkFaultSchedule::random(123, 20.0, 8, 1.0);
  const auto b = net::LinkFaultSchedule::random(123, 20.0, 8, 1.0);
  ASSERT_EQ(a.windows().size(), 8u);
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const net::LinkFaultWindow& w = a.windows()[i];
    EXPECT_EQ(w.kind, b.windows()[i].kind);
    EXPECT_DOUBLE_EQ(w.start_s, b.windows()[i].start_s);
    EXPECT_DOUBLE_EQ(w.magnitude, b.windows()[i].magnitude);
    EXPECT_GE(w.start_s, 0.0);
    EXPECT_LT(w.start_s, 20.0);
    EXPECT_GE(w.end_s - w.start_s, 0.5);
    EXPECT_LE(w.end_s - w.start_s, 1.5);
  }
  const auto c = net::LinkFaultSchedule::random(124, 20.0, 8, 1.0);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.windows().size(); ++i)
    any_diff = any_diff || c.windows()[i].start_s != a.windows()[i].start_s;
  EXPECT_TRUE(any_diff);
}

// Pins the generator's draws: these are the windows the seeded link
// chaos plans have produced since the generator was introduced (kind
// draw, start, duration, then a kind-specific magnitude, per window).
// The chaos tests sweep seeds through it, so a changed draw order would
// silently change every chaos run.
TEST(LinkSchedule, RandomSchedulePinnedForSeed123) {
  using K = net::LinkFaultKind;
  const std::vector<net::LinkFaultWindow> expected = {
      {K::kBandwidthCollapse, 0x1.0c3597d39ef0cp+4, 0x1.1edce9f38a616p+4,
       0x1.1637548852573p-2},
      {K::kPartition, 0x1.80c6a80c8181ap+3, 0x1.a94ab80280cbp+3, 0.0},
      {K::kBandwidthCollapse, 0x1.30ee3274a09b3p+4, 0x1.4332ab4eee832p+4,
       0x1.92a92efca62afp-2},
      {K::kLatencySpike, 0x1.34aa3f2e225e4p+4, 0x1.42653be96a47ep+4,
       0x1.287bf25a12db7p-3},
      {K::kLatencySpike, 0x1.dac5527a6fcc5p+1, 0x1.12234a96b833dp+2,
       0x1.7a05bea90fd32p-3},
      {K::kCorrupt, 0x1.68ee7f5b11c12p+3, 0x1.92d8b8ed5ccb5p+3,
       0x1.477e06cbd8906p-2},
      {K::kBandwidthCollapse, 0x1.d7e7ac78e6b41p+1, 0x1.440acc51f574ap+2,
       0x1.ad1b52f5941f4p-5},
      {K::kBandwidthCollapse, 0x1.097300c90a6f2p+4, 0x1.212da94e02373p+4,
       0x1.39f839c249763p-2},
  };
  const auto got = net::LinkFaultSchedule::random(123, 20.0, 8, 1.0);
  ASSERT_EQ(got.windows().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.windows()[i].kind, expected[i].kind) << i;
    EXPECT_EQ(got.windows()[i].start_s, expected[i].start_s) << i;
    EXPECT_EQ(got.windows()[i].end_s, expected[i].end_s) << i;
    EXPECT_EQ(got.windows()[i].magnitude, expected[i].magnitude) << i;
  }
}

// ------------------------------------------------------ CircuitBreaker

TEST(Breaker, OpensAfterConsecutiveFailures) {
  net::CircuitBreaker br({/*failure_threshold=*/3, /*open_cooldown_s=*/1.0,
                          /*probe_prob=*/1.0, /*close_after=*/2},
                         7);
  EXPECT_EQ(br.state(), net::BreakerState::kClosed);
  for (int i = 0; i < 2; ++i) br.record_failure(0.1 * i);
  EXPECT_EQ(br.state(), net::BreakerState::kClosed);
  br.record_success();  // success resets the streak
  for (int i = 0; i < 3; ++i) br.record_failure(0.3 + 0.1 * i);
  EXPECT_EQ(br.state(), net::BreakerState::kOpen);
  EXPECT_FALSE(br.allow(0.6, 0));
  EXPECT_EQ(br.metrics().opens, 1);
  EXPECT_EQ(br.metrics().blocked, 1);
}

TEST(Breaker, HalfOpenProbesThenCloses) {
  net::CircuitBreaker br({3, 1.0, /*probe_prob=*/1.0, /*close_after=*/2}, 7);
  for (int i = 0; i < 3; ++i) br.record_failure(0.0);
  ASSERT_EQ(br.state(), net::BreakerState::kOpen);
  EXPECT_FALSE(br.allow(0.5, 1));  // cooldown not elapsed
  EXPECT_TRUE(br.allow(1.5, 2));   // HALF_OPEN, probe admitted
  EXPECT_EQ(br.state(), net::BreakerState::kHalfOpen);
  br.record_success();
  EXPECT_EQ(br.state(), net::BreakerState::kHalfOpen);
  EXPECT_TRUE(br.allow(1.6, 3));
  br.record_success();
  EXPECT_EQ(br.state(), net::BreakerState::kClosed);
  EXPECT_EQ(br.metrics().half_opens, 1);
  EXPECT_EQ(br.metrics().probes, 2);
  EXPECT_EQ(br.metrics().closes, 1);
}

TEST(Breaker, FailedProbeReopensAndRestartsCooldown) {
  net::CircuitBreaker br({3, 1.0, 1.0, 2}, 7);
  for (int i = 0; i < 3; ++i) br.record_failure(0.0);
  EXPECT_TRUE(br.allow(1.5, 0));  // probe
  br.record_failure(1.5);
  EXPECT_EQ(br.state(), net::BreakerState::kOpen);
  EXPECT_EQ(br.metrics().opens, 2);
  EXPECT_FALSE(br.allow(2.0, 1));  // new cooldown from t=1.5
  EXPECT_TRUE(br.allow(2.6, 2));
}

TEST(Breaker, ProbeAdmissionSeededDeterministic) {
  auto run = [](std::uint64_t seed) {
    net::CircuitBreaker br({1, 0.1, /*probe_prob=*/0.5, 1}, seed);
    br.record_failure(0.0);
    std::vector<bool> admissions;
    for (std::uint64_t id = 0; id < 32; ++id)
      admissions.push_back(br.allow(1.0 + 1e-3 * id, id));
    return admissions;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

// ----------------------------------------------- OffloadExecutor units

class SmallLocalModel : public Processor {
 public:
  std::vector<double> process(const Observation& obs, Rng&) override {
    ++calls;
    std::vector<double> out = obs.data;
    for (double& v : out) v *= 2.0;
    return out;
  }
  double energy_per_call_j() const override { return 5e-3; }
  long calls = 0;
};

class BigRemoteModel : public Processor {
 public:
  std::vector<double> process(const Observation& obs, Rng&) override {
    ++calls;
    std::vector<double> out = obs.data;
    for (double& v : out) v *= 10.0;
    return out;
  }
  long calls = 0;
};

/// Deterministic gate scripted off the observation timestamp: uncertain
/// (score 2.0) when sin(40 t) > 0.2, confident (score 0.0) otherwise —
/// roughly 40% of ticks uncertain, no RNG involved.
class ScriptedGate : public UncertaintySource {
 public:
  double score(const Observation& obs) override {
    return std::sin(40.0 * obs.timestamp) > 0.2 ? 2.0 : 0.0;
  }
};

class AlwaysUncertainGate : public UncertaintySource {
 public:
  double score(const Observation&) override { return 2.0; }
};

Observation make_obs(double t) {
  Observation obs;
  obs.data = {std::sin(t), std::cos(t), 0.5};
  obs.timestamp = t;
  return obs;
}

OffloadConfig test_offload_config() {
  OffloadConfig cfg;
  cfg.deadline_s = 0.05;
  cfg.local_compute_s = 4e-3;
  cfg.remote_compute_s = 1e-3;
  cfg.max_retries = 2;
  cfg.breaker.open_cooldown_s = 0.25;
  return cfg;
}

TEST(Offload, ConfidentTicksStayLocal) {
  SmallLocalModel local;
  BigRemoteModel remote;
  ScriptedGate gate;
  OffloadConfig cfg = test_offload_config();
  cfg.regret_gate = 10.0;  // nothing scores above this
  OffloadExecutor exec(local, remote, net::LinkSim(healthy_link(), {}, 1),
                       cfg, &gate, 1);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Observation obs = make_obs(0.05 * i);
    const std::vector<double> out = exec.process_at(0.05 * i, obs, rng);
    EXPECT_DOUBLE_EQ(out[0], obs.data[0] * 2.0);  // local answer
    EXPECT_FALSE(exec.last_served_remote());
    EXPECT_DOUBLE_EQ(exec.last_latency_s(), cfg.local_compute_s);
  }
  EXPECT_EQ(exec.metrics().gated_local, 20);
  EXPECT_EQ(exec.metrics().remote_attempts, 0);
  EXPECT_EQ(remote.calls, 0);
  EXPECT_DOUBLE_EQ(exec.energy_per_call_j(), local.energy_per_call_j());
}

TEST(Offload, UncertainTicksUpgradeToRemoteOnHealthyLink) {
  SmallLocalModel local;
  BigRemoteModel remote;
  AlwaysUncertainGate gate;
  OffloadExecutor exec(local, remote, net::LinkSim(healthy_link(), {}, 2),
                       test_offload_config(), &gate, 2);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Observation obs = make_obs(0.05 * i);
    const std::vector<double> out = exec.process_at(0.05 * i, obs, rng);
    EXPECT_DOUBLE_EQ(out[0], obs.data[0] * 10.0);  // remote answer
    EXPECT_TRUE(exec.last_served_remote());
  }
  EXPECT_EQ(exec.metrics().remote_served, 20);
  EXPECT_EQ(exec.metrics().remote_successes, 20);
  EXPECT_EQ(local.calls, 0);
}

TEST(Offload, AlwaysModesBypassThePolicy) {
  SmallLocalModel local;
  BigRemoteModel remote;
  AlwaysUncertainGate gate;
  OffloadConfig cfg = test_offload_config();
  cfg.mode = OffloadMode::kAlwaysLocal;
  OffloadExecutor exec(local, remote, net::LinkSim(healthy_link(), {}, 3),
                       cfg, &gate, 3);
  Rng rng(5);
  for (int i = 0; i < 10; ++i)
    exec.process_at(0.05 * i, make_obs(0.05 * i), rng);
  EXPECT_EQ(exec.metrics().local_served, 10);
  EXPECT_EQ(exec.metrics().remote_attempts, 0);
  EXPECT_EQ(exec.metrics().gated_local, 0);  // the gate never ran

  ScriptedGate confident_half;
  cfg.mode = OffloadMode::kAlwaysRemote;
  OffloadExecutor exec2(local, remote, net::LinkSim(healthy_link(), {}, 4),
                        cfg, &confident_half, 4);
  for (int i = 0; i < 10; ++i)
    exec2.process_at(0.05 * i, make_obs(0.05 * i), rng);
  EXPECT_EQ(exec2.metrics().remote_served, 10);
}

TEST(Offload, LossyLinkRetriesAndFallsBackDeterministically) {
  net::LinkConfig lcfg = healthy_link();
  lcfg.loss_prob = 0.5;
  auto run = [&] {
    SmallLocalModel local;
    BigRemoteModel remote;
    AlwaysUncertainGate gate;
    OffloadConfig cfg = test_offload_config();
    cfg.breaker.failure_threshold = 100;  // isolate retry behavior
    OffloadExecutor exec(local, remote, net::LinkSim(lcfg, {}, 6), cfg,
                         &gate, 6);
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
      exec.process_at(0.05 * i, make_obs(0.05 * i), rng);
    return exec.metrics();
  };
  const OffloadMetrics m = run();
  EXPECT_GT(m.retries, 0);
  EXPECT_GT(m.remote_successes, 50);  // retries rescue most requests
  EXPECT_GT(m.remote_failures, 0);    // but not all
  // Every request is accounted for: attempted remote (success or
  // failure) or kept local by the cost model riding the loss EMA.
  EXPECT_EQ(m.remote_successes + m.remote_failures + m.cost_gated,
            m.requests);
  EXPECT_EQ(m.local_served + m.remote_served, m.requests);
  EXPECT_EQ(run(), m);  // bit-identical replay
}

TEST(Offload, CorruptResponsesDiscardedAndServedLocally) {
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kCorrupt, 0.0, 1e6, 1.0}});
  SmallLocalModel local;
  BigRemoteModel remote;
  AlwaysUncertainGate gate;
  OffloadConfig cfg = test_offload_config();
  cfg.breaker.failure_threshold = 1000;
  OffloadExecutor exec(local, remote, net::LinkSim(healthy_link(), sched, 7),
                       cfg, &gate, 7);
  Rng rng(5);
  for (int i = 0; i < 10; ++i)
    exec.process_at(0.05 * i, make_obs(0.05 * i), rng);
  EXPECT_EQ(exec.metrics().remote_served, 0);
  EXPECT_EQ(exec.metrics().local_served, 10);
  EXPECT_GT(exec.metrics().corrupt_responses, 0);
  EXPECT_EQ(remote.calls, 0);  // a corrupted payload is never consumed
}

TEST(Offload, BreakerShortCircuitsPartitionedLink) {
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kPartition, 0.0, 1e6, 0.0}});
  SmallLocalModel local;
  BigRemoteModel remote;
  AlwaysUncertainGate gate;
  OffloadConfig cfg = test_offload_config();
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cooldown_s = 1e5;  // stays open for the whole test
  OffloadExecutor exec(local, remote, net::LinkSim(healthy_link(), sched, 8),
                       cfg, &gate, 8);
  Rng rng(5);
  for (int i = 0; i < 50; ++i)
    exec.process_at(0.05 * i, make_obs(0.05 * i), rng);
  EXPECT_EQ(exec.breaker().state(), net::BreakerState::kOpen);
  EXPECT_GT(exec.metrics().breaker_blocked, 30);
  // Once OPEN the link is never touched again: attempts stop at the
  // trip point (3 failed requests × (1 + max_retries) visits at most).
  EXPECT_LE(exec.metrics().remote_attempts,
            3L * (1 + cfg.max_retries) + 3);
  EXPECT_EQ(exec.metrics().local_served, 50);
}

TEST(Offload, HedgedLocalBeatsSpikedRemote) {
  // A spike window well above the seeded cost model: the remote reply is
  // past its p95 budget, the hedged local computation fires and wins.
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kLatencySpike, 0.0, 1e6, 0.05}});
  SmallLocalModel local;
  BigRemoteModel remote;
  AlwaysUncertainGate gate;
  OffloadConfig cfg = test_offload_config();
  cfg.deadline_s = 0.25;  // the slow reply still beats the deadline
  cfg.max_retries = 0;
  OffloadExecutor exec(local, remote, net::LinkSim(healthy_link(), sched, 9),
                       cfg, &gate, 9);
  Rng rng(5);
  const std::vector<double> out = exec.process_at(0.0, make_obs(0.0), rng);
  EXPECT_EQ(exec.metrics().hedged, 1);
  EXPECT_EQ(exec.metrics().hedge_local_wins, 1);
  EXPECT_FALSE(exec.last_served_remote());
  EXPECT_DOUBLE_EQ(out[0], make_obs(0.0).data[0] * 2.0);  // local answer
  EXPECT_LT(exec.last_latency_s(), 0.1);  // cheaper than waiting out the spike
}

TEST(Offload, PrepaidLocalConsumedExactlyOncePerTick) {
  SmallLocalModel local;
  BigRemoteModel remote;
  AlwaysUncertainGate gate;
  OffloadConfig cfg = test_offload_config();
  cfg.prepaid_local = true;
  OffloadExecutor exec(local, remote, net::LinkSim(healthy_link(), {}, 10),
                       cfg, &gate, 10);
  Rng rng(5);
  for (int i = 0; i < 15; ++i) {
    exec.process_at(0.05 * i, make_obs(0.05 * i), rng);
    EXPECT_TRUE(exec.last_served_remote());  // remote upgrade still wins
  }
  EXPECT_EQ(local.calls, 15);  // exactly one local consumption per tick
  EXPECT_EQ(remote.calls, 15);
}

// The offload policy's value over a link loss x base-latency sweep: at
// each point it runs 400 virtual ticks against always-local and
// always-remote on the scripted ~40%-uncertain gate. A tick is answered
// adequately when it is confident or the remote model served it; the
// policy wins a point when it meets the 0.9 accuracy floor and beats
// each baseline that also meets the floor on mean latency. It must win
// at least one point. All waiting is virtual time, so the sweep is
// deterministic.
TEST(Offload, PolicyBeatsBothBaselinesAtSomeSweepPoint) {
  constexpr double kAccuracyFloor = 0.9;
  constexpr int kTicks = 400;
  struct Point {
    double mean_latency_ms = 0.0;
    double accuracy = 0.0;
  };
  const auto run_point = [](OffloadMode mode, double loss, double base_ms) {
    SmallLocalModel local;
    BigRemoteModel remote;
    ScriptedGate gate;
    net::LinkConfig lcfg;
    lcfg.loss_prob = loss;
    lcfg.base_latency_s = base_ms * 1e-3;
    OffloadConfig cfg = test_offload_config();
    cfg.mode = mode;
    cfg.breaker.open_cooldown_s = net::BreakerConfig{}.open_cooldown_s;
    OffloadExecutor exec(local, remote, net::LinkSim(lcfg, {}, /*seed=*/77),
                         cfg, &gate, /*seed=*/77);
    Rng rng(5);
    long adequate = 0;
    for (int i = 0; i < kTicks; ++i) {
      const double now = 0.05 * i;
      const Observation obs = make_obs(now);
      exec.process_at(now, obs, rng);
      if (exec.last_served_remote() || gate.score(obs) <= cfg.regret_gate)
        ++adequate;
    }
    Point p;
    p.mean_latency_ms = exec.metrics().total_latency_s / kTicks * 1e3;
    p.accuracy = static_cast<double>(adequate) / kTicks;
    return p;
  };

  int wins = 0;
  std::ostringstream sweep;
  for (const double loss : {0.0, 0.1, 0.3})
    for (const double base_ms : {2.0, 10.0}) {
      const Point pol = run_point(OffloadMode::kPolicy, loss, base_ms);
      const Point loc = run_point(OffloadMode::kAlwaysLocal, loss, base_ms);
      const Point rem = run_point(OffloadMode::kAlwaysRemote, loss, base_ms);
      const auto beats = [&](const Point& base) {
        return base.accuracy < kAccuracyFloor ||
               pol.mean_latency_ms < base.mean_latency_ms;
      };
      const bool win =
          pol.accuracy >= kAccuracyFloor && beats(loc) && beats(rem);
      wins += win ? 1 : 0;
      sweep << "loss " << loss << " base " << base_ms << " ms: policy "
            << pol.mean_latency_ms << " ms acc " << pol.accuracy << ", local "
            << loc.mean_latency_ms << " ms acc " << loc.accuracy << ", remote "
            << rem.mean_latency_ms << " ms acc " << rem.accuracy
            << (win ? " (policy wins)\n" : "\n");
    }
  EXPECT_GE(wins, 1) << sweep.str();
}

// ------------------------------------------------- loop integration

class FiniteGuardActuator : public Actuator {
 public:
  void actuate(const Action& action, Rng&) override {
    ++count;
    saw_nonfinite = saw_nonfinite || !util::all_finite(action.data);
  }
  long count = 0;
  bool saw_nonfinite = false;
};

/// One offloading loop member: sensor → OffloadExecutor(local, remote,
/// link) → finite-guarded actuator.
struct OffloadStack {
  class DeterministicSensor : public Sensor {
   public:
    Observation sense(double now, Rng& rng) override {
      Observation obs;
      obs.data = {std::sin(now) + rng.normal(0.0, 0.05),
                  std::cos(now) + rng.normal(0.0, 0.05)};
      obs.timestamp = now;
      obs.energy_j = 1e-3;
      return obs;
    }
  };

  DeterministicSensor sensor;
  SmallLocalModel local;
  BigRemoteModel remote;
  AlwaysUncertainGate gate;
  FiniteGuardActuator act;
  PeriodicPolicy policy{1};
  std::unique_ptr<OffloadExecutor> exec;
  std::unique_ptr<SensingActionLoop> loop;

  OffloadStack(net::LinkSim link, OffloadConfig ocfg, LoopConfig lcfg,
               std::uint64_t seed) {
    exec = std::make_unique<OffloadExecutor>(local, remote, std::move(link),
                                             ocfg, &gate, seed);
    loop = std::make_unique<SensingActionLoop>(sensor, *exec, act, policy,
                                               lcfg);
  }
};

LoopConfig hysteresis_loop_config() {
  LoopConfig cfg;
  cfg.resilience.degrade_after = 2;
  cfg.resilience.recover_after = 2;
  cfg.resilience.safe_stop_after = 3;
  return cfg;
}

TEST(OffloadLoop, StrictPartitionLandsInSafeStopWithinHysteresisBound) {
  // Partition from t=0.5 to the end; strict mode means uncertain ticks
  // with no remote answer emit non-finite sentinels, which the loop's
  // actuation boundary blocks — driving DEGRADED → SAFE_STOP through
  // the existing machine, with zero non-finite actuations.
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kPartition, 0.5, 1e6, 0.0}});
  OffloadConfig ocfg = test_offload_config();
  ocfg.strict_uncertain = true;
  OffloadStack stack(net::LinkSim(healthy_link(), sched, 21), ocfg,
                     hysteresis_loop_config(), 21);
  Rng rng(77);
  constexpr int kTicks = 100;
  stack.loop->run(kTicks, rng);

  EXPECT_EQ(stack.loop->state(), LoopState::kSafeStop);
  EXPECT_FALSE(stack.act.saw_nonfinite);
  EXPECT_GT(stack.loop->metrics().quarantined_actions, 0);
  // Hysteresis bound: the partition starts at tick 10 (dt=0.05); the
  // latch needs degrade_after + safe_stop_after consecutive bad ticks,
  // so it must land within a few ticks of tick 15 and the loop spends
  // the rest of the run halted.
  EXPECT_GE(stack.loop->metrics().safe_stop_ticks, kTicks - 20);
}

TEST(OffloadLoop, TransientPartitionRecoversToNominal) {
  // Partition [0.5, 1.5): the breaker opens, local fallback carries the
  // loop (non-strict → every tick still actuates finitely), and after
  // the window a HALF_OPEN probe succeeds and the breaker re-closes.
  const net::LinkFaultSchedule sched(
      {{net::LinkFaultKind::kPartition, 0.5, 1.5, 0.0}});
  OffloadStack stack(net::LinkSim(healthy_link(), sched, 22),
                     test_offload_config(), hysteresis_loop_config(), 22);
  Rng rng(78);
  constexpr int kTicks = 80;  // 4 s at dt=0.05
  stack.loop->run(kTicks, rng);

  EXPECT_EQ(stack.loop->state(), LoopState::kNominal);
  EXPECT_EQ(stack.loop->metrics().safe_stops, 0);
  EXPECT_EQ(stack.loop->metrics().quarantined_actions, 0);
  EXPECT_EQ(stack.loop->metrics().actions, kTicks);
  EXPECT_FALSE(stack.act.saw_nonfinite);
  EXPECT_GE(stack.exec->breaker().metrics().opens, 1);
  EXPECT_GE(stack.exec->breaker().metrics().closes, 1);
  EXPECT_EQ(stack.exec->breaker().state(), net::BreakerState::kClosed);
}

// --------------------------------------------- chaos determinism

// The satellite acceptance case: a fleet of offloading members sharing
// one contended uplink (static fair-share, per-member stream ids) under
// a seeded link fault plan — per-member LoopMetrics, offload metrics,
// breaker metrics and final breaker states must be bit-identical across
// thread counts. Seed comes from S2A_FAULT_SEED (default 42) so the CI
// chaos step can sweep it.
TEST(OffloadChaos, FleetDeterministicAcrossThreadCounts) {
  constexpr int kLoops = 8, kTicks = 120;
  const std::uint64_t seed = fault_seed();
  const net::LinkFaultSchedule sched = net::LinkFaultSchedule::random(
      seed, /*horizon_s=*/6.0, /*events=*/6, /*mean_duration_s=*/1.0);
  net::LinkConfig lcfg = healthy_link();
  lcfg.loss_prob = 0.1;
  lcfg.sharers = kLoops;

  struct Result {
    LoopMetrics loop;
    OffloadMetrics offload;
    net::BreakerMetrics breaker;
    net::BreakerState breaker_state;
    LoopState state;
  };
  auto run_fleet = [&](int threads) {
    util::ScopedGlobalThreads t(threads);
    std::vector<std::unique_ptr<OffloadStack>> stacks;
    Fleet fleet(FleetConfig{/*batch=*/3});
    for (int i = 0; i < kLoops; ++i) {
      OffloadConfig ocfg = test_offload_config();
      ocfg.strict_uncertain = (i % 4 == 0);  // a quarter run strict
      stacks.push_back(std::make_unique<OffloadStack>(
          net::LinkSim(lcfg, sched, seed,
                       /*stream_id=*/static_cast<std::uint64_t>(i)),
          ocfg, hysteresis_loop_config(), seed + i));
      fleet.add(*stacks.back()->loop, {kTicks}, /*seed=*/900 + i);
    }
    fleet.run();
    std::vector<Result> out;
    for (auto& s : stacks) {
      EXPECT_FALSE(s->act.saw_nonfinite);
      out.push_back({s->loop->metrics(), s->exec->metrics(),
                     s->exec->breaker().metrics(),
                     s->exec->breaker().state(), s->loop->state()});
    }
    return out;
  };

  const auto one = run_fleet(1);
  const auto four = run_fleet(4);
  ASSERT_EQ(one.size(), four.size());
  long remote_served_total = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].loop, four[i].loop) << "member " << i;
    EXPECT_EQ(one[i].offload, four[i].offload) << "member " << i;
    EXPECT_EQ(one[i].breaker, four[i].breaker) << "member " << i;
    EXPECT_EQ(one[i].breaker_state, four[i].breaker_state) << "member " << i;
    EXPECT_EQ(one[i].state, four[i].state) << "member " << i;
    remote_served_total += one[i].offload.remote_served;
  }
  // The chaos plan must not have degenerated into never offloading.
  EXPECT_GT(remote_served_total, 0);
}

// A fully partitioned uplink mid-run: every member either recovers to
// NOMINAL via local fallback (non-strict) or latches SAFE_STOP within
// its hysteresis bound (strict) — never a wedged in-between state, and
// never a non-finite actuation. Run on private uplinks and on one uplink
// every member shares (static fair share, per-member stream ids).
TEST(OffloadChaos, MidRunPartitionEveryMemberRecoversOrSafeStops) {
  constexpr int kLoops = 6, kTicks = 100;
  const net::LinkFaultSchedule transient(
      {{net::LinkFaultKind::kPartition, 1.0, 2.0, 0.0}});
  const net::LinkFaultSchedule permanent(
      {{net::LinkFaultKind::kPartition, 1.0, 1e6, 0.0}});
  util::ScopedGlobalThreads t(4);
  for (const int sharers : {1, kLoops}) {
    SCOPED_TRACE(testing::Message() << sharers << " sharers per uplink");
    net::LinkConfig lcfg = healthy_link();
    lcfg.sharers = sharers;
    std::vector<std::unique_ptr<OffloadStack>> stacks;
    Fleet fleet(FleetConfig{/*batch=*/2});
    for (int i = 0; i < kLoops; ++i) {
      const bool strict = i % 2 == 1;
      OffloadConfig ocfg = test_offload_config();
      ocfg.strict_uncertain = strict;
      stacks.push_back(std::make_unique<OffloadStack>(
          net::LinkSim(lcfg, strict ? permanent : transient, 31,
                       static_cast<std::uint64_t>(i)),
          ocfg, hysteresis_loop_config(), 31 + i));
      // A generous 0.25 s/tick budget: a member that wall-blocked on the
      // dead link would miss it.
      fleet.add(*stacks.back()->loop, {kTicks, /*deadline_s=*/0.25},
                /*seed=*/700 + i);
    }
    const FleetStats stats = fleet.run();

    for (int i = 0; i < kLoops; ++i) {
      const bool strict = i % 2 == 1;
      EXPECT_FALSE(stacks[i]->act.saw_nonfinite) << "member " << i;
      if (strict) {
        EXPECT_EQ(stacks[i]->loop->state(), LoopState::kSafeStop)
            << "member " << i;
        // Latched within the hysteresis bound of the partition onset
        // (tick 20), not at the very end of the run.
        EXPECT_GE(stacks[i]->loop->metrics().safe_stop_ticks, kTicks - 35)
            << "member " << i;
      } else {
        EXPECT_EQ(stacks[i]->loop->state(), LoopState::kNominal)
            << "member " << i;
        EXPECT_EQ(stacks[i]->loop->metrics().actions, kTicks)
            << "member " << i;
      }
      // Zero deadline misses attributable to a stuck remote call: the
      // link is virtual-time, so members never wall-block.
      EXPECT_EQ(stats.loops[static_cast<std::size_t>(i)].deadline_misses, 0);
      EXPECT_EQ(stats.loops[static_cast<std::size_t>(i)].shed, 0);
      EXPECT_EQ(stats.loops[static_cast<std::size_t>(i)].executed, kTicks);
    }
  }
}

}  // namespace
}  // namespace s2a::core
