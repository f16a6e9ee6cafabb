// Chaos/degradation suite (docs/RESILIENCE.md): seeded fault plans
// driven through the loop engine and the federated runner, asserting
// the three headline guarantees —
//  1. recovery or SAFE_STOP: every chaos run ends NOMINAL (after the
//     plan's fault windows close) or latched in SAFE_STOP;
//  2. determinism: LoopMetrics / FlResult are bit-identical across
//     repeated runs and across thread counts;
//  3. containment: no non-finite value ever reaches Actuator::actuate
//     or the global federated model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/loop.hpp"
#include "core/policies.hpp"
#include "fault/fault.hpp"
#include "federated/fedavg.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/finite.hpp"
#include "util/thread_pool.hpp"

namespace s2a::fault {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class ConstantSensor : public core::Sensor {
 public:
  explicit ConstantSensor(double value = 1.0) : value_(value) {}
  core::Observation sense(double now, Rng&) override {
    core::Observation obs;
    obs.data = {value_};
    obs.timestamp = now;
    obs.energy_j = 1e-3;
    return obs;
  }

 private:
  double value_;
};

class PassthroughProcessor : public core::Processor {
 public:
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    return obs.data;
  }
};

/// Records every actuation and asserts finiteness on arrival — the
/// "plant" that must never see NaN.
class GuardedActuator : public core::Actuator {
 public:
  void actuate(const core::Action& action, Rng&) override {
    EXPECT_TRUE(util::all_finite(action.data));
    if (!util::all_finite(action.data)) ++nonfinite_seen;
    actions.push_back(action);
  }
  std::vector<core::Action> actions;
  long nonfinite_seen = 0;
};

// ---------------------------------------------------------------- plans

TEST(FaultPlan, SameSeedSamePlan) {
  const FaultPlan a = FaultPlan::random_component_plan(42, 10.0, 6, 0.5);
  const FaultPlan b = FaultPlan::random_component_plan(42, 10.0, 6, 0.5);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_DOUBLE_EQ(a.events()[i].end, b.events()[i].end);
    EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  const FaultPlan c = FaultPlan::random_component_plan(43, 10.0, 6, 0.5);
  bool any_diff = c.events().size() != a.events().size();
  for (std::size_t i = 0; !any_diff && i < a.events().size(); ++i)
    any_diff = a.events()[i].start != c.events()[i].start;
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, WindowQueriesAreHalfOpen) {
  FaultPlan plan({{FaultKind::kDropout, 1.0, 2.0, -1, 0.0}});
  EXPECT_EQ(plan.component_fault_at(0.99), nullptr);
  ASSERT_NE(plan.component_fault_at(1.0), nullptr);
  ASSERT_NE(plan.component_fault_at(1.99), nullptr);
  EXPECT_EQ(plan.component_fault_at(2.0), nullptr);
  // Client queries never match component kinds and vice versa.
  EXPECT_EQ(plan.client_fault_at(1, 0), nullptr);
}

TEST(FaultPlan, ClientQueriesRespectTarget) {
  FaultPlan plan({{FaultKind::kClientDropout, 0.0, 2.0, 1, 0.0},
                  {FaultKind::kClientStraggler, 1.0, 3.0, -1, 4.0}});
  ASSERT_NE(plan.client_fault_at(0, 1), nullptr);
  EXPECT_EQ(plan.client_fault_at(0, 1)->kind, FaultKind::kClientDropout);
  EXPECT_EQ(plan.client_fault_at(0, 0), nullptr);  // wrong target
  ASSERT_NE(plan.client_fault_at(2, 0), nullptr);  // wildcard straggler
  EXPECT_EQ(plan.client_fault_at(2, 0)->kind, FaultKind::kClientStraggler);
  EXPECT_EQ(plan.component_fault_at(1.0), nullptr);
}

// The linear scan client_fault_at is defined by: the first event in
// plan order that is a client kind, whose [start, end) holds the round
// and whose target is the client or -1.
const FaultEvent* client_fault_by_scan(const FaultPlan& plan, long round,
                                       int client) {
  const double r = static_cast<double>(round);
  for (const FaultEvent& ev : plan.events())
    if (ev.is_client_kind() && r >= ev.start && r < ev.end &&
        (ev.target < 0 || ev.target == client))
      return &ev;
  return nullptr;
}

TEST(FaultPlanIndex, ClientLookupMatchesTheLinearScan) {
  // Random plans mixing client and component kinds, integer and
  // fractional bounds, empty windows, wide windows that overlap many
  // others, shared bounds and wildcard targets, queried on every round
  // and client around them.
  Rng rng(97);
  const FaultKind client_kinds[] = {FaultKind::kClientDropout,
                                    FaultKind::kClientStraggler,
                                    FaultKind::kClientCorrupt};
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<FaultEvent> evs;
    const int events = rng.uniform_int(0, 40);
    for (int i = 0; i < events; ++i) {
      FaultEvent ev;
      if (rng.bernoulli(0.2)) {
        ev.kind = FaultKind::kDropout;
      } else {
        ev.kind = client_kinds[rng.uniform_int(0, 2)];
        ev.target = rng.bernoulli(0.3) ? -1 : rng.uniform_int(0, 5);
      }
      if (ev.kind == FaultKind::kClientStraggler) ev.magnitude = 2.0;
      ev.start = rng.uniform_int(-3, 30);
      if (rng.bernoulli(0.3)) ev.start += 0.5;
      const int len = rng.bernoulli(0.1) ? rng.uniform_int(20, 40)
                                         : rng.uniform_int(0, 4);
      ev.end = ev.start + len;
      evs.push_back(ev);
    }
    if (trial % 10 == 0)  // a window with no end
      evs.push_back({FaultKind::kClientCorrupt, 5.0,
                     std::numeric_limits<double>::infinity(), -1, 0.0});
    const FaultPlan plan(evs);
    for (long round = -6; round < 75; ++round)
      for (int client = -1; client < 8; ++client)
        ASSERT_EQ(plan.client_fault_at(round, client),
                  client_fault_by_scan(plan, round, client))
            << "trial " << trial << ", round " << round << ", client "
            << client;
  }
  // The plan fed_round draws: 96 windows over 2048 clients.
  const FaultPlan big = FaultPlan::random_client_plan(5, 400, 2048, 96);
  FaultPlan copy = big;  // the index travels with the plan
  for (long round = 0; round < 410; ++round)
    for (int client = 0; client < 2048; client += 7)
      ASSERT_EQ(copy.client_fault_at(round, client),
                client_fault_by_scan(copy, round, client));
}

TEST(FaultPlan, InvalidEventsRejected) {
  EXPECT_THROW(FaultPlan({{FaultKind::kDropout, 2.0, 1.0, -1, 0.0}}),
               CheckError);
  EXPECT_THROW(
      FaultPlan({{FaultKind::kClientStraggler, 0.0, 1.0, -1, 0.5}}),
      CheckError);
}

// ----------------------------------------------------------- decorators

TEST(FaultySensor, DropoutThrowsInsideWindowOnly) {
  ConstantSensor inner;
  FaultySensor sensor(inner, FaultPlan({{FaultKind::kDropout, 1.0, 2.0}}));
  Rng rng(1);
  EXPECT_NO_THROW(sensor.sense(0.5, rng));
  EXPECT_THROW(sensor.sense(1.5, rng), core::SensorFault);
  EXPECT_NO_THROW(sensor.sense(2.5, rng));
  EXPECT_EQ(sensor.faults_injected(), 1);
}

TEST(FaultySensor, PayloadAndLatencyFaults) {
  ConstantSensor inner(3.0);
  FaultySensor sensor(inner,
                      FaultPlan({{FaultKind::kNaNPayload, 1.0, 2.0},
                                 {FaultKind::kInfPayload, 2.0, 3.0},
                                 {FaultKind::kLatencySpike, 3.0, 4.0, -1, 0.25}}));
  Rng rng(2);
  EXPECT_TRUE(std::isnan(sensor.sense(1.5, rng).data[0]));
  EXPECT_TRUE(std::isinf(sensor.sense(2.5, rng).data[0]));
  EXPECT_DOUBLE_EQ(sensor.sense(3.5, rng).extra_latency_s, 0.25);
  EXPECT_DOUBLE_EQ(sensor.sense(4.5, rng).extra_latency_s, 0.0);
}

TEST(FaultySensor, StuckRepeatsLastGoodFrame) {
  // A sensor whose payload encodes the sample time, so repeats show.
  class ClockSensor : public core::Sensor {
   public:
    core::Observation sense(double now, Rng&) override {
      core::Observation obs;
      obs.data = {now};
      return obs;
    }
  } inner;
  FaultySensor sensor(inner, FaultPlan({{FaultKind::kStuckPayload, 1.0, 2.0}}));
  Rng rng(3);
  EXPECT_DOUBLE_EQ(sensor.sense(0.5, rng).data[0], 0.5);
  EXPECT_DOUBLE_EQ(sensor.sense(1.5, rng).data[0], 0.5);  // frozen
  EXPECT_DOUBLE_EQ(sensor.sense(2.5, rng).data[0], 2.5);
}

TEST(FaultySensor, StuckBeforeFirstFrameIsDropout) {
  ConstantSensor inner;
  FaultySensor sensor(inner, FaultPlan({{FaultKind::kStuckPayload, 0.0, 1.0}}));
  Rng rng(4);
  EXPECT_THROW(sensor.sense(0.5, rng), core::SensorFault);
}

TEST(FaultyProcessor, CorruptsByCallIndex) {
  PassthroughProcessor inner;
  FaultyProcessor proc(inner, FaultPlan({{FaultKind::kNaNPayload, 1.0, 2.0},
                                         {FaultKind::kStuckPayload, 3.0, 4.0}}));
  Rng rng(5);
  core::Observation obs;
  obs.data = {7.0};
  EXPECT_DOUBLE_EQ(proc.process(obs, rng)[0], 7.0);  // call 0
  EXPECT_TRUE(std::isnan(proc.process(obs, rng)[0]));  // call 1
  obs.data = {8.0};
  EXPECT_DOUBLE_EQ(proc.process(obs, rng)[0], 8.0);  // call 2
  obs.data = {9.0};
  EXPECT_DOUBLE_EQ(proc.process(obs, rng)[0], 8.0);  // call 3: stuck
  EXPECT_DOUBLE_EQ(proc.process(obs, rng)[0], 9.0);  // call 4
  EXPECT_EQ(proc.faults_injected(), 2);
}

// --------------------------------------------------- loop degradation

core::LoopConfig chaos_loop_config() {
  core::LoopConfig cfg;
  cfg.dt = 0.1;
  cfg.resilience.max_sense_retries = 1;
  cfg.resilience.max_staleness_s = 0.5;
  cfg.resilience.degrade_after = 2;
  cfg.resilience.recover_after = 3;
  cfg.resilience.safe_stop_after = 10;
  return cfg;
}

TEST(LoopDegradation, RecoversAfterTransientDropout) {
  ConstantSensor inner;
  // Dropout for 0.7 s (7 ticks) starting at t=1: long enough to degrade
  // and outlive the 0.5 s staleness bound, short enough to recover.
  FaultySensor sensor(inner, FaultPlan({{FaultKind::kDropout, 1.0, 1.7}}));
  PassthroughProcessor proc;
  GuardedActuator act;
  core::PeriodicPolicy policy(1);
  core::SensingActionLoop loop(sensor, proc, act, policy,
                               chaos_loop_config());
  Rng rng(6);
  loop.run(40, rng);
  const auto& m = loop.metrics();
  EXPECT_EQ(loop.state(), core::LoopState::kNominal);
  EXPECT_EQ(m.degradations, 1);
  EXPECT_EQ(m.recoveries, 1);
  EXPECT_EQ(m.safe_stops, 0);
  EXPECT_GT(m.degraded_ticks, 0);
  EXPECT_GT(m.sensor_faults, 0);
  // Fallback (hold-last) kept commands flowing through the outage.
  EXPECT_GT(m.fallback_actions, 0);
  EXPECT_EQ(act.nonfinite_seen, 0);
}

TEST(LoopDegradation, PersistentDropoutLatchesSafeStop) {
  ConstantSensor inner;
  FaultySensor sensor(inner, FaultPlan({{FaultKind::kDropout, 1.0, 1e9}}));
  PassthroughProcessor proc;
  GuardedActuator act;
  core::PeriodicPolicy policy(1);
  auto cfg = chaos_loop_config();
  cfg.resilience.fallback = core::FallbackPolicy::kZeroAction;
  core::SensingActionLoop loop(sensor, proc, act, policy, cfg);
  Rng rng(7);
  loop.run(100, rng);
  const auto& m = loop.metrics();
  EXPECT_EQ(loop.state(), core::LoopState::kSafeStop);
  EXPECT_EQ(m.safe_stops, 1);
  EXPECT_EQ(m.recoveries, 0);
  EXPECT_GT(m.safe_stop_ticks, 50);
  // After the latch, nothing was sensed or actuated again.
  const std::size_t actuations = act.actions.size();
  loop.run(10, rng);
  EXPECT_EQ(act.actions.size(), actuations);
  EXPECT_EQ(loop.metrics().ticks, 110);
}

TEST(LoopDegradation, NaNPayloadsAreQuarantinedNotActuated) {
  ConstantSensor inner;
  FaultySensor sensor(inner, FaultPlan({{FaultKind::kNaNPayload, 1.0, 2.0}}));
  PassthroughProcessor proc;
  GuardedActuator act;
  core::PeriodicPolicy policy(1);
  core::SensingActionLoop loop(sensor, proc, act, policy,
                               chaos_loop_config());
  Rng rng(8);
  loop.run(40, rng);
  EXPECT_GT(loop.metrics().quarantined, 0);
  EXPECT_EQ(act.nonfinite_seen, 0);
  for (const auto& a : act.actions) EXPECT_TRUE(util::all_finite(a.data));
}

TEST(LoopDegradation, NonFiniteProcessorOutputBlockedAtActuationBoundary) {
  ConstantSensor sensor;
  PassthroughProcessor inner;
  FaultyProcessor proc(inner, FaultPlan({{FaultKind::kInfPayload, 5.0, 10.0}}));
  GuardedActuator act;
  core::PeriodicPolicy policy(1);
  core::SensingActionLoop loop(sensor, proc, act, policy,
                               chaos_loop_config());
  Rng rng(9);
  loop.run(30, rng);
  EXPECT_GT(loop.metrics().quarantined_actions, 0);
  EXPECT_EQ(act.nonfinite_seen, 0);
}

TEST(LoopDegradation, LatencySpikeTriggersStalenessFallback) {
  ConstantSensor inner;
  // Spike adds 1 s of acquisition delay against a 0.5 s staleness bound.
  FaultySensor sensor(inner,
                      FaultPlan({{FaultKind::kLatencySpike, 1.0, 2.0, -1, 1.0}}));
  PassthroughProcessor proc;
  GuardedActuator act;
  core::PeriodicPolicy policy(1);
  core::SensingActionLoop loop(sensor, proc, act, policy,
                               chaos_loop_config());
  Rng rng(10);
  loop.run(40, rng);
  EXPECT_GT(loop.metrics().staleness_violations, 0);
  EXPECT_GT(loop.metrics().fallback_actions, 0);
  EXPECT_EQ(loop.state(), core::LoopState::kNominal);  // spike window passed
}

TEST(LoopDegradation, StalenessBoundWithSafeStopPolicyHalts) {
  ConstantSensor sensor;
  PassthroughProcessor proc;
  GuardedActuator act;
  core::PeriodicPolicy policy(100);  // sense once, then starve
  core::LoopConfig cfg;
  cfg.dt = 0.1;
  cfg.resilience.max_staleness_s = 0.35;
  cfg.resilience.fallback = core::FallbackPolicy::kSafeStop;
  core::SensingActionLoop loop(sensor, proc, act, policy, cfg);
  Rng rng(11);
  loop.run(20, rng);
  EXPECT_EQ(loop.state(), core::LoopState::kSafeStop);
  EXPECT_EQ(loop.metrics().safe_stops, 1);
  // Acted while fresh (ticks 0..3), halted at the first stale tick.
  EXPECT_EQ(loop.metrics().actions, 4);
}

TEST(LoopDegradation, ZeroActionFallbackIssuesZeros) {
  ConstantSensor sensor(5.0);
  PassthroughProcessor proc;
  GuardedActuator act;
  core::PeriodicPolicy policy(100);  // sense once, then starve
  core::LoopConfig cfg;
  cfg.dt = 0.1;
  cfg.resilience.max_staleness_s = 0.35;
  cfg.resilience.fallback = core::FallbackPolicy::kZeroAction;
  core::SensingActionLoop loop(sensor, proc, act, policy, cfg);
  Rng rng(12);
  loop.run(10, rng);
  EXPECT_GT(loop.metrics().fallback_actions, 0);
  EXPECT_EQ(act.actions.back().data, std::vector<double>{0.0});
  EXPECT_EQ(act.actions.front().data, std::vector<double>{5.0});
}

TEST(LoopDegradation, RetryBackoffAgesObservation) {
  // First attempt of each tick in the window faults; the retry succeeds.
  class FlakySensor : public core::Sensor {
   public:
    core::Observation sense(double now, Rng&) override {
      if (fail_next_) {
        fail_next_ = false;
        throw core::SensorFault("flaky");
      }
      fail_next_ = true;
      core::Observation obs;
      obs.data = {1.0};
      obs.timestamp = now;
      return obs;
    }

   private:
    bool fail_next_ = true;
  } sensor;
  PassthroughProcessor proc;
  GuardedActuator act;
  core::PeriodicPolicy policy(1);
  core::LoopConfig cfg;
  cfg.dt = 0.1;
  cfg.resilience.max_sense_retries = 1;
  cfg.resilience.retry_backoff_s = 0.02;
  core::SensingActionLoop loop(sensor, proc, act, policy, cfg);
  Rng rng(13);
  loop.run(10, rng);
  const auto& m = loop.metrics();
  EXPECT_EQ(m.sensor_faults, 10);
  EXPECT_EQ(m.sense_retries, 10);
  EXPECT_EQ(m.senses, 10);
  // Every action was based on an observation aged by one backoff step.
  EXPECT_NEAR(m.mean_staleness_s(), 0.02, 1e-12);
}

// ------------------------------------------------------- chaos sweeps

core::LoopMetrics run_chaos_loop(std::uint64_t plan_seed, int threads) {
  util::ScopedGlobalThreads scoped(threads);
  ConstantSensor inner;
  FaultySensor sensor(
      inner, FaultPlan::random_component_plan(plan_seed, 20.0, 8, 0.8));
  PassthroughProcessor pinner;
  FaultyProcessor proc(
      pinner, FaultPlan::random_component_plan(plan_seed + 1000, 200.0, 4, 10.0));
  GuardedActuator act;
  core::PeriodicPolicy policy(1);
  auto cfg = chaos_loop_config();
  cfg.resilience.safe_stop_after = 25;
  core::SensingActionLoop loop(sensor, proc, act, policy, cfg);
  Rng rng(99);
  // 20 s of faults then 10 s of clean tail: the loop must end NOMINAL
  // (recovered) or SAFE_STOP (latched) — never dangling in DEGRADED.
  loop.run(300, rng);
  EXPECT_TRUE(loop.state() == core::LoopState::kNominal ||
              loop.state() == core::LoopState::kSafeStop)
      << "seed " << plan_seed << " ended " << state_name(loop.state());
  if (loop.state() == core::LoopState::kNominal) {
    EXPECT_EQ(loop.metrics().recoveries, loop.metrics().degradations);
  }
  EXPECT_EQ(act.nonfinite_seen, 0);
  return loop.metrics();
}

TEST(Chaos, SeededPlansRecoverOrSafeStopAndStayDeterministic) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const core::LoopMetrics once = run_chaos_loop(seed, 1);
    const core::LoopMetrics again = run_chaos_loop(seed, 1);
    EXPECT_TRUE(once == again) << "seed " << seed << " not reproducible";
    const core::LoopMetrics threaded = run_chaos_loop(seed, 4);
    EXPECT_TRUE(once == threaded)
        << "seed " << seed << " diverges at 4 threads";
  }
}

}  // namespace
}  // namespace s2a::fault

// ------------------------------------------------------------------
// Federated chaos: straggler/dropout/corruption plans through
// run_federated, with bit-exact determinism across thread counts.
namespace s2a::fault {
namespace {

struct FlFixture {
  sim::ClassificationDataset train, test;
  std::vector<std::vector<int>> shards;
  std::vector<federated::HardwareProfile> fleet;
  federated::FlConfig cfg;
};

FlFixture make_fl_fixture(int clients = 5, int rounds = 4) {
  FlFixture f;
  Rng data_rng(31);
  const auto full = sim::make_gaussian_classes(450, 16, 10, 3.0, data_rng);
  f.train.feature_dim = f.test.feature_dim = 16;
  f.train.num_classes = f.test.num_classes = 10;
  for (std::size_t i = 0; i < 300; ++i) {
    f.train.features.push_back(full.features[i]);
    f.train.labels.push_back(full.labels[i]);
  }
  for (std::size_t i = 300; i < 450; ++i) {
    f.test.features.push_back(full.features[i]);
    f.test.labels.push_back(full.labels[i]);
  }
  Rng part_rng(32);
  f.shards =
      sim::dirichlet_partition(f.train.labels, clients, 10, 0.5, part_rng);
  f.fleet = federated::make_heterogeneous_fleet(clients, part_rng);
  f.cfg.rounds = rounds;
  return f;
}

TEST(FlChaos, DroppedClientsAreExcludedDeterministically) {
  const FlFixture f = make_fl_fixture();
  // Client 2 never responds in rounds 1-2; client 4 is a hopeless
  // straggler (responses 1e12x late) against the round deadline.
  FaultPlan plan({{FaultKind::kClientDropout, 1.0, 3.0, 2, 0.0},
                  {FaultKind::kClientStraggler, 0.0, 4.0, 4, 1e12}});
  auto cfg = f.cfg;
  cfg.client_timeout_s = 10.0;

  util::ScopedGlobalThreads scoped(1);
  Rng rng(33);
  const federated::FlResult res = federated::run_federated(
      federated::FlStrategy::kStaticFl, f.train, f.test, f.shards, f.fleet,
      cfg, rng, &plan);
  ASSERT_EQ(res.survivors_per_round.size(), 4u);
  EXPECT_EQ(res.survivors_per_round[0], 4);  // straggler out
  EXPECT_EQ(res.survivors_per_round[1], 3);  // straggler + dropout
  EXPECT_EQ(res.survivors_per_round[2], 3);
  EXPECT_EQ(res.survivors_per_round[3], 4);
  EXPECT_EQ(res.dropped_client_rounds, 6);
  EXPECT_EQ(res.nonfinite_deltas, 0);
  // The server never waits past the deadline.
  EXPECT_LE(res.total_latency_s, 4 * cfg.client_timeout_s + 1e-12);
  EXPECT_GT(res.final_accuracy, 0.5);
}

TEST(FlChaos, CorruptUpdateQuarantinedAndEquivalentToExclusion) {
  const FlFixture f = make_fl_fixture();
  FaultPlan corrupt({{FaultKind::kClientCorrupt, 1.0, 2.0, 3, 0.0}});
  // Exclusion baseline: the same client timed out instead (it still
  // trains, so the server-side aggregate must be identical).
  FaultPlan straggle({{FaultKind::kClientStraggler, 1.0, 2.0, 3, 1e12}});
  auto cfg = f.cfg;
  cfg.client_timeout_s = 1e6;

  util::ScopedGlobalThreads scoped(1);
  Rng r1(34), r2(34);
  const federated::FlResult qc = federated::run_federated(
      federated::FlStrategy::kStaticFl, f.train, f.test, f.shards, f.fleet,
      cfg, r1, &corrupt);
  const federated::FlResult ex = federated::run_federated(
      federated::FlStrategy::kStaticFl, f.train, f.test, f.shards, f.fleet,
      cfg, r2, &straggle);
  EXPECT_EQ(qc.nonfinite_deltas, 1);
  EXPECT_EQ(ex.nonfinite_deltas, 0);
  EXPECT_EQ(ex.dropped_client_rounds, 1);
  ASSERT_EQ(qc.accuracy_per_round.size(), ex.accuracy_per_round.size());
  for (std::size_t r = 0; r < qc.accuracy_per_round.size(); ++r)
    EXPECT_DOUBLE_EQ(qc.accuracy_per_round[r], ex.accuracy_per_round[r]);
  // The poisoned update never touched the model: accuracy stays sane.
  for (double acc : qc.accuracy_per_round) EXPECT_TRUE(std::isfinite(acc));
}

TEST(FlChaos, AllClientsLostLeavesModelUnchanged) {
  const FlFixture f = make_fl_fixture(4, 3);
  FaultPlan plan({{FaultKind::kClientDropout, 1.0, 2.0, -1, 0.0}});
  util::ScopedGlobalThreads scoped(1);
  Rng rng(35);
  const federated::FlResult res = federated::run_federated(
      federated::FlStrategy::kStaticFl, f.train, f.test, f.shards, f.fleet,
      f.cfg, rng, &plan);
  ASSERT_EQ(res.survivors_per_round.size(), 3u);
  EXPECT_EQ(res.survivors_per_round[1], 0);
  // The wiped round can't change the model, so its accuracy repeats.
  EXPECT_DOUBLE_EQ(res.accuracy_per_round[1], res.accuracy_per_round[0]);
}

TEST(FlChaos, StragglerDropDeterministicAcrossThreadCounts) {
  const FlFixture f = make_fl_fixture(6, 3);
  const FaultPlan plan = FaultPlan::random_client_plan(77, 3, 6, 5);
  auto cfg = f.cfg;
  cfg.client_timeout_s = 25.0;

  federated::FlResult serial;
  {
    util::ScopedGlobalThreads scoped(1);
    Rng rng(36);
    serial = federated::run_federated(federated::FlStrategy::kDcNas, f.train,
                                      f.test, f.shards, f.fleet, cfg, rng,
                                      &plan);
  }
  for (int threads : {2, 4}) {
    util::ScopedGlobalThreads scoped(threads);
    Rng rng(36);
    const federated::FlResult par = federated::run_federated(
        federated::FlStrategy::kDcNas, f.train, f.test, f.shards, f.fleet,
        cfg, rng, &plan);
    EXPECT_EQ(par.survivors_per_round, serial.survivors_per_round);
    EXPECT_EQ(par.dropped_client_rounds, serial.dropped_client_rounds);
    EXPECT_EQ(par.nonfinite_deltas, serial.nonfinite_deltas);
    ASSERT_EQ(par.accuracy_per_round.size(),
              serial.accuracy_per_round.size());
    for (std::size_t r = 0; r < serial.accuracy_per_round.size(); ++r)
      EXPECT_DOUBLE_EQ(par.accuracy_per_round[r],
                       serial.accuracy_per_round[r])
          << threads << " threads, round " << r;
    EXPECT_DOUBLE_EQ(par.total_energy_j, serial.total_energy_j);
    EXPECT_DOUBLE_EQ(par.total_latency_s, serial.total_latency_s);
  }
}

TEST(FlChaos, NoFaultPlanMatchesLegacyBehaviour) {
  // nullptr plan and an empty plan must agree bit-for-bit.
  const FlFixture f = make_fl_fixture(4, 3);
  util::ScopedGlobalThreads scoped(1);
  Rng r1(37), r2(37);
  const FaultPlan empty;
  const federated::FlResult none = federated::run_federated(
      federated::FlStrategy::kStaticFl, f.train, f.test, f.shards, f.fleet,
      f.cfg, r1, nullptr);
  const federated::FlResult with_empty = federated::run_federated(
      federated::FlStrategy::kStaticFl, f.train, f.test, f.shards, f.fleet,
      f.cfg, r2, &empty);
  EXPECT_EQ(none.dropped_client_rounds, 0);
  ASSERT_EQ(none.accuracy_per_round.size(),
            with_empty.accuracy_per_round.size());
  for (std::size_t r = 0; r < none.accuracy_per_round.size(); ++r)
    EXPECT_DOUBLE_EQ(none.accuracy_per_round[r],
                     with_empty.accuracy_per_round[r]);
  EXPECT_DOUBLE_EQ(none.total_energy_j, with_empty.total_energy_j);
}

}  // namespace
}  // namespace s2a::fault
