// Tests for the execution engines above the loop: the bounded SPSC
// stage queue, the pipelined tick engine (bit-exactness vs the
// synchronous reference, SAFE_STOP speculation discard, sense-error
// propagation), and the fleet scheduler (equivalence to serial
// execution, determinism across thread counts, straggler shedding
// under chaos, admission control against straggler waves, SAFE_STOP
// members, latency stats — shedding, SAFE_STOP and latency through both
// the per-loop and the batched front-end). Run under TSan via check.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batched_fleet.hpp"
#include "core/fleet.hpp"
#include "core/loop.hpp"
#include "core/pipeline.hpp"
#include "core/policies.hpp"
#include "fault/fault.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_pool.hpp"

namespace s2a::core {
namespace {

// ---------------------------------------------------------------- SPSC

TEST(SpscQueue, DeliversInOrderAcrossThreads) {
  util::SpscQueue<int> q(4);
  std::thread producer([&] {
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  int expected = 0, v = 0;
  while (q.pop(v)) EXPECT_EQ(v, expected++);
  EXPECT_EQ(expected, 200);
  producer.join();
}

TEST(SpscQueue, CloseDrainsThenFails) {
  util::SpscQueue<int> q(8);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  q.close();  // idempotent
  EXPECT_FALSE(q.push(3));  // producer side fails immediately
  int v = 0;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));  // drained
}

TEST(SpscQueue, CloseUnblocksFullProducer) {
  util::SpscQueue<int> q(1);
  ASSERT_TRUE(q.push(0));
  std::thread producer([&] { EXPECT_FALSE(q.push(1)); });  // blocks: full
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
}

// Capacity 1 degenerates to a rendezvous slot: every push must wait for
// the matching pop, so the two threads strictly alternate and ordering
// still holds with the ring's head wrapping on every element.
TEST(SpscQueue, CapacityOneAlternatesAcrossThreads) {
  util::SpscQueue<int> q(1);
  std::thread producer([&] {
    for (int i = 0; i < 500; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  int expected = 0, v = 0;
  while (q.pop(v)) EXPECT_EQ(v, expected++);
  EXPECT_EQ(expected, 500);
  producer.join();
}

// Drives head_ around the ring many times with the queue repeatedly
// filling and draining, so the wraparound index arithmetic (head_ +
// size_ mod capacity) is exercised at every phase offset of a capacity
// that does not divide the element count.
TEST(SpscQueue, IndexWrapsAroundPastCapacity) {
  util::SpscQueue<int> q(3);
  int next_push = 0, next_pop = 0, v = 0;
  for (int round = 0; round < 100; ++round) {
    const int burst = 1 + round % 3;  // 1..3: hits every fill level
    for (int i = 0; i < burst; ++i) ASSERT_TRUE(q.push(next_push++));
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(q.pop(v));
      EXPECT_EQ(v, next_pop++);
    }
  }
  EXPECT_EQ(next_pop, next_push);
  // Ring is empty but head_ has wrapped ~dozens of times; a fresh
  // fill-to-capacity still delivers in order.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.push(100 + i));
  q.close();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 100 + i);
  }
  EXPECT_FALSE(q.pop(v));
}

// Producer abandons mid-stream (closes without finishing its planned
// pushes, e.g. its sense chain latched SAFE_STOP): the consumer must
// receive exactly the prefix that was pushed, in order, then see
// end-of-stream — no loss, no duplication, no hang.
TEST(SpscQueue, ProducerAbandonsMidStream) {
  util::SpscQueue<int> q(4);
  constexpr int kPlanned = 100, kActual = 37;
  std::thread producer([&] {
    for (int i = 0; i < kActual; ++i) ASSERT_TRUE(q.push(i));
    q.close();  // walks away with kPlanned - kActual never sent
  });
  int expected = 0, v = 0;
  while (q.pop(v)) EXPECT_EQ(v, expected++);
  EXPECT_EQ(expected, kActual);
  EXPECT_LT(expected, kPlanned);
  EXPECT_TRUE(q.closed());
  producer.join();
}

// ---------------------------------------------------- pipeline fixtures

class WavySensor : public Sensor {
 public:
  Observation sense(double now, Rng& rng) override {
    Observation obs;
    obs.data = {std::sin(now) + rng.normal(0.0, 0.1),
                std::cos(now) + rng.normal(0.0, 0.1)};
    obs.timestamp = now;
    obs.energy_j = 1e-3;
    return obs;
  }
};

class ScaleProcessor : public Processor {
 public:
  std::vector<double> process(const Observation& obs, Rng& rng) override {
    std::vector<double> out = obs.data;
    for (double& v : out) v *= 2.0 + rng.uniform() * 1e-3;
    return out;
  }
  double energy_per_call_j() const override { return 1e-4; }
};

class CountingActuator : public Actuator {
 public:
  void actuate(const Action& action, Rng&) override {
    ++count;
    if (!action.data.empty()) last = action.data[0];
  }
  long count = 0;
  double last = 0.0;
};

// One complete loop stack, so tests can build identical twins.
struct Stack {
  WavySensor raw_sensor;
  std::unique_ptr<fault::FaultySensor> faulty;  // set iff plan non-empty
  ScaleProcessor proc;
  CountingActuator act;
  PeriodicPolicy policy{1};
  std::unique_ptr<SensingActionLoop> loop;

  explicit Stack(LoopConfig cfg = {}, fault::FaultPlan plan = {}) {
    Sensor* sensor = &raw_sensor;
    if (!plan.empty()) {
      faulty = std::make_unique<fault::FaultySensor>(raw_sensor, plan);
      sensor = faulty.get();
    }
    loop = std::make_unique<SensingActionLoop>(*sensor, proc, act, policy,
                                               cfg);
  }
};

void expect_same_result(const SensingActionLoop& a,
                        const SensingActionLoop& b) {
  EXPECT_EQ(a.metrics(), b.metrics());
  EXPECT_EQ(a.state(), b.state());
  EXPECT_DOUBLE_EQ(a.now(), b.now());
}

// ------------------------------------------------------------ pipeline

TEST(Pipeline, PipelinedBitExactVsSynchronous) {
  util::ScopedGlobalThreads threads(4);
  Stack sync_stack, pipe_stack;
  PipelinedRunner sync_runner(*sync_stack.loop,
                              {PipelineMode::kSynchronous, 4});
  PipelinedRunner pipe_runner(*pipe_stack.loop, {PipelineMode::kPipelined, 4});

  PipelineStats ss = sync_runner.run(500, /*seed=*/42);
  PipelineStats ps = pipe_runner.run(500, /*seed=*/42);

  EXPECT_FALSE(ss.pipelined);
  EXPECT_TRUE(ps.pipelined);
  EXPECT_EQ(ss.committed, 500);
  EXPECT_EQ(ps.committed, 500);
  expect_same_result(*sync_stack.loop, *pipe_stack.loop);
  EXPECT_EQ(sync_stack.act.count, pipe_stack.act.count);
  EXPECT_DOUBLE_EQ(sync_stack.act.last, pipe_stack.act.last);
}

TEST(Pipeline, BitExactUnderFaultChaos) {
  util::ScopedGlobalThreads threads(4);
  LoopConfig cfg;
  cfg.resilience.max_sense_retries = 2;
  cfg.resilience.retry_backoff_s = 0.01;
  cfg.resilience.max_staleness_s = 0.5;
  cfg.resilience.degrade_after = 2;
  cfg.resilience.recover_after = 3;
  const fault::FaultPlan plan =
      fault::FaultPlan::random_component_plan(/*seed=*/7, /*horizon_s=*/25.0,
                                              /*events=*/12,
                                              /*mean_duration_s=*/1.0);
  Stack sync_stack(cfg, plan), pipe_stack(cfg, plan);
  PipelinedRunner sync_runner(*sync_stack.loop,
                              {PipelineMode::kSynchronous, 4});
  PipelinedRunner pipe_runner(*pipe_stack.loop, {PipelineMode::kPipelined, 4});

  sync_runner.run(500, /*seed=*/11);
  pipe_runner.run(500, /*seed=*/11);
  expect_same_result(*sync_stack.loop, *pipe_stack.loop);
  // The plan actually fired (which exact kinds depends on the seed).
  EXPECT_GT(sync_stack.faulty->faults_injected(), 0);
}

TEST(Pipeline, SafeStopLatchDiscardsSpeculation) {
  util::ScopedGlobalThreads threads(4);
  LoopConfig cfg;
  cfg.resilience.max_sense_retries = 0;
  cfg.resilience.degrade_after = 2;
  cfg.resilience.safe_stop_after = 3;
  // Permanent dropout: every sense fails, so the loop degrades and then
  // latches SAFE_STOP a few ticks in — while the producer is ahead.
  const fault::FaultPlan plan(
      {{fault::FaultKind::kDropout, 0.0, 1e9, -1, 0.0}});
  Stack sync_stack(cfg, plan), pipe_stack(cfg, plan);
  PipelinedRunner sync_runner(*sync_stack.loop,
                              {PipelineMode::kSynchronous, 4});
  PipelinedRunner pipe_runner(*pipe_stack.loop, {PipelineMode::kPipelined, 4});

  PipelineStats ss = sync_runner.run(200, /*seed=*/5);
  PipelineStats ps = pipe_runner.run(200, /*seed=*/5);

  expect_same_result(*sync_stack.loop, *pipe_stack.loop);
  EXPECT_EQ(sync_stack.loop->state(), LoopState::kSafeStop);
  EXPECT_EQ(ss.committed, 200);
  EXPECT_EQ(ps.committed, 200);
  EXPECT_GE(ps.discarded, 0);
  // The synchronous path senses only until the latch.
  EXPECT_LT(ss.produced, 200);
}

TEST(Pipeline, AutoFallsBackSingleThreadedAndMatches) {
  Stack pipe_stack;
  PipelineStats ps;
  {
    util::ScopedGlobalThreads threads(1);
    PipelinedRunner runner(*pipe_stack.loop, {PipelineMode::kAuto, 4});
    ps = runner.run(300, /*seed=*/42);
    EXPECT_FALSE(ps.pipelined);  // no spare worker → in-order path
  }
  Stack sync_stack;
  {
    util::ScopedGlobalThreads threads(4);
    PipelinedRunner runner(*sync_stack.loop, {PipelineMode::kAuto, 4});
    PipelineStats ss = runner.run(300, /*seed=*/42);
    EXPECT_TRUE(ss.pipelined);
  }
  // Metric determinism across S2A_THREADS ∈ {1, 4}.
  expect_same_result(*sync_stack.loop, *pipe_stack.loop);
}

class ExplodingSensor : public Sensor {
 public:
  explicit ExplodingSensor(int fail_at) : fail_at_(fail_at) {}
  Observation sense(double now, Rng&) override {
    if (++calls_ > fail_at_)
      throw std::logic_error("sensor wiring bug");  // not a SensorFault
    Observation obs;
    obs.data = {1.0};
    obs.timestamp = now;
    return obs;
  }

 private:
  int fail_at_, calls_ = 0;
};

TEST(Pipeline, NonFaultSenseErrorPropagates) {
  util::ScopedGlobalThreads threads(4);
  ExplodingSensor sensor(50);
  ScaleProcessor proc;
  CountingActuator act;
  PeriodicPolicy policy(1);
  SensingActionLoop loop(sensor, proc, act, policy);
  PipelinedRunner runner(loop, {PipelineMode::kPipelined, 4});
  Rng root(3);
  Rng sense_rng = root.spawn();
  Rng commit_rng = root.spawn();
  EXPECT_THROW(runner.run(200, sense_rng, commit_rng), std::logic_error);
  // Every tick before the failing sense still committed.
  EXPECT_EQ(loop.metrics().ticks, 50);
}

// --------------------------------------------------------------- fleet

TEST(Fleet, MatchesSerialExecutionPerLoop) {
  util::ScopedGlobalThreads threads(4);
  constexpr int kLoops = 8, kTicks = 200;
  std::vector<std::unique_ptr<Stack>> serial, fleet_stacks;
  Fleet fleet;
  for (int i = 0; i < kLoops; ++i) {
    serial.push_back(std::make_unique<Stack>());
    fleet_stacks.push_back(std::make_unique<Stack>());
    fleet.add(*fleet_stacks.back()->loop, {kTicks}, /*seed=*/100 + i);
  }
  FleetStats stats = fleet.run();
  for (int i = 0; i < kLoops; ++i) {
    Rng rng(100 + i);
    serial[i]->loop->run(kTicks, rng);
    expect_same_result(*serial[i]->loop, *fleet_stacks[i]->loop);
    EXPECT_EQ(stats.loops[i].executed, kTicks);
    EXPECT_EQ(stats.loops[i].shed, 0);
  }
  EXPECT_EQ(stats.executed, static_cast<long>(kLoops) * kTicks);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_GT(stats.dispatches, 0);
}

TEST(Fleet, DeterministicAcrossThreadCounts) {
  constexpr int kLoops = 6, kTicks = 150;
  auto run_fleet = [&](int threads) {
    util::ScopedGlobalThreads t(threads);
    std::vector<std::unique_ptr<Stack>> stacks;
    Fleet fleet(FleetConfig{/*batch=*/3});
    for (int i = 0; i < kLoops; ++i) {
      stacks.push_back(std::make_unique<Stack>());
      fleet.add(*stacks.back()->loop, {kTicks}, /*seed=*/500 + i);
    }
    fleet.run();
    std::vector<LoopMetrics> out;
    for (auto& s : stacks) out.push_back(s->loop->metrics());
    return out;
  };
  const std::vector<LoopMetrics> one = run_fleet(1);
  const std::vector<LoopMetrics> four = run_fleet(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) EXPECT_EQ(one[i], four[i]);
}

// A processor that stalls — the fleet's straggler. The stall is a real
// sleep (sensing/processing latency is I/O-like wait), so shedding
// fires even on a single-core host.
class StallingProcessor : public Processor {
 public:
  explicit StallingProcessor(int ms) : ms_(ms) {}
  std::vector<double> process(const Observation& obs, Rng&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return obs.data;
  }

 private:
  int ms_;
};

// A straggler loop: a stalling processor behind a healthy sensor.
struct StragglerStack {
  WavySensor sensor;
  StallingProcessor proc;
  CountingActuator act;
  PeriodicPolicy policy{1};
  SensingActionLoop loop{sensor, proc, act, policy};
  explicit StragglerStack(int stall_ms) : proc(stall_ms) {}
};

TEST(Fleet, ShedsStragglerWithoutStallingHealthyLoops) {
  util::ScopedGlobalThreads threads(4);
  constexpr int kHealthy = 12, kTicks = 60;

  // Healthy loops ride out their own sensor fault windows (dropouts,
  // NaN/Inf, stuck values, latency spikes) with one sense retry: faults
  // degrade a loop's state, never its schedule.
  LoopConfig faulty_cfg;
  faulty_cfg.resilience.max_sense_retries = 1;
  std::vector<std::unique_ptr<Stack>> healthy;
  Fleet fleet(FleetConfig{/*batch=*/4});
  for (int i = 0; i < kHealthy; ++i) {
    healthy.push_back(std::make_unique<Stack>(
        faulty_cfg, fault::FaultPlan::random_component_plan(
                        /*seed=*/7000 + i, /*horizon_s=*/kTicks * 0.05,
                        /*events=*/4, /*mean_duration_s=*/0.2)));
    // Generous 1 s/tick budget: healthy loops must never miss or shed.
    fleet.add(*healthy.back()->loop, {kTicks, /*deadline_s=*/1.0},
              /*seed=*/900 + i);
  }

  // 0.5 ms/tick budget against a 5 ms/tick stall: hopeless. shed_slack 4
  // → abandoned once it is > 2 ms behind schedule.
  StragglerStack straggler(5);
  const std::size_t straggler_id = fleet.add(
      straggler.loop, {kTicks, /*deadline_s=*/5e-4, /*shed_slack=*/4.0},
      /*seed=*/1);

  FleetStats stats = fleet.run();

  const FleetLoopStats& sl = stats.loops[straggler_id];
  EXPECT_GT(sl.shed, 0) << "straggler was never shed";
  // Every tick it did execute blew its 0.5 ms budget by 10x.
  EXPECT_EQ(sl.deadline_misses, sl.executed);
  EXPECT_EQ(sl.executed + sl.shed, kTicks);
  long faults = 0;
  for (int i = 0; i < kHealthy; ++i) {
    EXPECT_EQ(stats.loops[i].executed, kTicks);
    EXPECT_EQ(stats.loops[i].shed, 0);
    EXPECT_EQ(stats.loops[i].deadline_misses, 0);
    faults += healthy[static_cast<std::size_t>(i)]->faulty->faults_injected();
  }
  EXPECT_GT(faults, 0) << "no fault window fired";
  // Accounting closes: every requested tick was executed or shed.
  EXPECT_EQ(stats.executed + stats.shed,
            static_cast<long>(kHealthy + 1) * kTicks);
  EXPECT_GT(stats.ticks_per_s, 0.0);
}

TEST(Fleet, AdmissionKeepsStragglerWavesOffHealthyMembers) {
  // Sixteen healthy members with feasible deadlines face three waves of
  // stragglers through try_add(). Wave 1 lands on a cold window
  // (admitted) and drives the miss/shed pressure up; waves 2 and 3 meet
  // that pressure (a degraded contract, then rejection at saturation).
  // No healthy member may miss a deadline or be shed. Every straggler
  // tick is a miss or a shed, so after two runs the window holds 600
  // bad outcomes of 1880 (0.32, over the 0.25 reject threshold): the
  // third wave's rejection is a count, not a wall-clock race, and it is
  // what shows admission at work, since pop-time shedding alone would
  // keep the healthy members whole too.
  util::ScopedGlobalThreads threads(4);
  constexpr int kHealthy = 16, kHealthyTicks = 40, kWaveTicks = 30;
  FleetConfig fc;
  fc.batch = 4;
  fc.admission.enabled = true;
  fc.admission.min_samples = 64;
  fc.admission.degrade_threshold = 0.05;
  fc.admission.reject_threshold = 0.25;
  Fleet fleet(fc);

  std::vector<std::unique_ptr<Stack>> healthy;
  for (int i = 0; i < kHealthy; ++i) {
    healthy.push_back(std::make_unique<Stack>());
    const AdmissionResult r = fleet.try_add(
        *healthy.back()->loop, {kHealthyTicks, /*deadline_s=*/0.25},
        /*seed=*/8000 + i);
    EXPECT_EQ(r.decision, AdmissionDecision::kAdmitted);
  }
  // Stragglers stall 20 ms per tick against a 2 ms budget: hopeless.
  std::vector<std::unique_ptr<StragglerStack>> stragglers;
  const auto wave = [&](int n, int base_seed) {
    std::vector<AdmissionDecision> decisions;
    for (int i = 0; i < n; ++i) {
      stragglers.push_back(std::make_unique<StragglerStack>(20));
      decisions.push_back(
          fleet
              .try_add(stragglers.back()->loop,
                       {kWaveTicks, /*deadline_s=*/2e-3, /*shed_slack=*/4.0},
                       /*seed=*/base_seed + i)
              .decision);
    }
    return decisions;
  };

  wave(4, 8100);
  const FleetStats s1 = fleet.run();
  wave(12, 8200);
  const FleetStats s2 = fleet.run();
  for (const AdmissionDecision d : wave(4, 8300))
    EXPECT_EQ(d, AdmissionDecision::kRejected) << admission_name(d);
  EXPECT_EQ(fleet.size(), 32u);
  const FleetStats s3 = fleet.run();

  long wave1_shed = 0;
  for (int i = kHealthy; i < kHealthy + 4; ++i)
    wave1_shed += s1.loops[static_cast<std::size_t>(i)].shed;
  EXPECT_GT(wave1_shed, 0) << "the first wave put no pressure on the fleet";
  for (const FleetStats* s : {&s1, &s2, &s3})
    for (int i = 0; i < kHealthy; ++i) {
      const FleetLoopStats& ls = s->loops[static_cast<std::size_t>(i)];
      EXPECT_EQ(ls.deadline_misses, 0) << "healthy member " << i;
      EXPECT_EQ(ls.shed, 0) << "healthy member " << i;
      EXPECT_EQ(ls.executed, kHealthyTicks) << "healthy member " << i;
    }
}

TEST(Fleet, SafeStopMemberRunsToCompletionHalted) {
  util::ScopedGlobalThreads threads(4);
  LoopConfig cfg;
  cfg.resilience.max_sense_retries = 0;
  cfg.resilience.degrade_after = 1;
  cfg.resilience.safe_stop_after = 2;
  const fault::FaultPlan plan(
      {{fault::FaultKind::kDropout, 0.0, 1e9, -1, 0.0}});
  Stack doomed(cfg, plan), fine;
  Fleet fleet;
  const std::size_t d = fleet.add(*doomed.loop, {100}, /*seed=*/3);
  const std::size_t f = fleet.add(*fine.loop, {100}, /*seed=*/4);
  FleetStats stats = fleet.run();
  EXPECT_EQ(stats.loops[d].executed, 100);  // SAFE_STOP ticks still tick
  EXPECT_EQ(stats.loops[d].final_state, LoopState::kSafeStop);
  EXPECT_GT(doomed.loop->metrics().safe_stop_ticks, 0);
  EXPECT_EQ(stats.loops[f].final_state, LoopState::kNominal);
  EXPECT_EQ(stats.loops[f].executed, 100);
}

// Tick latency stats: positive and ordered when recorded, all zero when
// recording is off.
void expect_latency_stats(const FleetLoopStats& ls, bool recorded) {
  if (recorded) {
    EXPECT_GT(ls.p50_tick_ms, 0.0);
    EXPECT_LE(ls.p50_tick_ms, ls.p95_tick_ms);
    EXPECT_LE(ls.p95_tick_ms, ls.max_tick_ms);
  } else {
    EXPECT_EQ(ls.p50_tick_ms, 0.0);
    EXPECT_EQ(ls.p95_tick_ms, 0.0);
    EXPECT_EQ(ls.max_tick_ms, 0.0);
  }
}

TEST(Fleet, LatencyPercentilesPopulated) {
  util::ScopedGlobalThreads threads(2);
  Stack s;
  Fleet fleet;
  fleet.add(*s.loop, {50}, /*seed=*/9);
  FleetStats stats = fleet.run();
  EXPECT_GE(stats.loops[0].p95_tick_ms, stats.loops[0].p50_tick_ms);
  EXPECT_GE(stats.loops[0].max_tick_ms, stats.loops[0].p95_tick_ms);
  expect_latency_stats(stats.loops[0], /*recorded=*/true);

  FleetConfig quiet;
  quiet.record_latencies = false;
  Fleet unrecorded(quiet);
  unrecorded.add(*s.loop, {50}, /*seed=*/9);
  expect_latency_stats(unrecorded.run().loops[0], /*recorded=*/false);
}

// ------------------------------------------------- batched front-end
//
// The straggler, SAFE_STOP, and latency scenarios above, driven through
// BatchedFleet: members share one rng-free BatchProcessor through their
// BatchSlots, so pop-time shedding, miss counting, and the latency
// stats are exercised on the fused dispatch shape too.

class DoublingBatchProcessor : public BatchProcessor {
 public:
  std::vector<double> process(const Observation& obs, Rng&) override {
    std::vector<double> out = obs.data;
    for (double& v : out) v *= 2.0;
    return out;
  }
  std::vector<std::vector<double>> process_batch(
      const std::vector<const Observation*>& obs) override {
    std::vector<std::vector<double>> rows;
    Rng unused(0);
    for (const Observation* o : obs) rows.push_back(process(*o, unused));
    return rows;
  }
};

// A straggler whose stall sits in its own sense stage (real sleep, so
// shedding fires even on a single-core host).
class StallingSensor : public WavySensor {
 public:
  explicit StallingSensor(int ms) : ms_(ms) {}
  Observation sense(double now, Rng& rng) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return WavySensor::sense(now, rng);
  }

 private:
  int ms_;
};

// One member stack whose processor is a slot onto the shared model.
struct SlotStack {
  std::unique_ptr<WavySensor> raw_sensor;
  std::unique_ptr<fault::FaultySensor> faulty;  // set iff plan non-empty
  BatchSlot slot;
  CountingActuator act;
  PeriodicPolicy policy{1};
  std::unique_ptr<SensingActionLoop> loop;

  SlotStack(BatchProcessor& shared, std::unique_ptr<WavySensor> sensor,
            LoopConfig cfg = {}, fault::FaultPlan plan = {})
      : raw_sensor(std::move(sensor)), slot(shared) {
    Sensor* s = raw_sensor.get();
    if (!plan.empty()) {
      faulty = std::make_unique<fault::FaultySensor>(*raw_sensor, plan);
      s = faulty.get();
    }
    loop = std::make_unique<SensingActionLoop>(*s, slot, act, policy, cfg);
  }
};

TEST(BatchedFleet, ShedsStragglerWithoutStallingHealthyLoops) {
  util::ScopedGlobalThreads threads(4);
  constexpr int kHealthy = 12, kTicks = 60;
  DoublingBatchProcessor shared;
  BatchedFleetConfig bc;
  bc.gather = 4;
  BatchedFleet fleet(shared, bc);

  std::vector<std::unique_ptr<SlotStack>> healthy;
  for (int i = 0; i < kHealthy; ++i) {
    healthy.push_back(
        std::make_unique<SlotStack>(shared, std::make_unique<WavySensor>()));
    fleet.add(*healthy.back()->loop, healthy.back()->slot,
              {kTicks, /*deadline_s=*/1.0}, /*seed=*/900 + i);
  }
  // 0.5 ms/tick budget against a 5 ms/tick stall: hopeless.
  SlotStack straggler(shared, std::make_unique<StallingSensor>(5));
  const std::size_t straggler_id =
      fleet.add(*straggler.loop, straggler.slot,
                {kTicks, /*deadline_s=*/5e-4, /*shed_slack=*/4.0},
                /*seed=*/1);

  FleetStats stats = fleet.run();

  const FleetLoopStats& sl = stats.loops[straggler_id];
  EXPECT_GT(sl.shed, 0) << "straggler was never shed";
  EXPECT_EQ(sl.deadline_misses, sl.executed);
  EXPECT_EQ(sl.executed + sl.shed, kTicks);
  for (int i = 0; i < kHealthy; ++i) {
    EXPECT_EQ(stats.loops[i].executed, kTicks);
    EXPECT_EQ(stats.loops[i].shed, 0);
    EXPECT_EQ(stats.loops[i].deadline_misses, 0);
  }
  EXPECT_EQ(stats.executed + stats.shed,
            static_cast<long>(kHealthy + 1) * kTicks);
  EXPECT_GT(stats.ticks_per_s, 0.0);
}

TEST(BatchedFleet, SafeStopMemberRunsToCompletionHalted) {
  util::ScopedGlobalThreads threads(4);
  LoopConfig cfg;
  cfg.resilience.max_sense_retries = 0;
  cfg.resilience.degrade_after = 1;
  cfg.resilience.safe_stop_after = 2;
  const fault::FaultPlan plan(
      {{fault::FaultKind::kDropout, 0.0, 1e9, -1, 0.0}});
  DoublingBatchProcessor shared;
  SlotStack doomed(shared, std::make_unique<WavySensor>(), cfg, plan);
  SlotStack fine(shared, std::make_unique<WavySensor>());
  BatchedFleet fleet(shared);
  const std::size_t d = fleet.add(*doomed.loop, doomed.slot, {100}, 3);
  const std::size_t f = fleet.add(*fine.loop, fine.slot, {100}, 4);
  FleetStats stats = fleet.run();
  EXPECT_EQ(stats.loops[d].executed, 100);  // SAFE_STOP ticks still tick
  EXPECT_EQ(stats.loops[d].final_state, LoopState::kSafeStop);
  EXPECT_GT(doomed.loop->metrics().safe_stop_ticks, 0);
  EXPECT_EQ(stats.loops[f].final_state, LoopState::kNominal);
  EXPECT_EQ(stats.loops[f].executed, 100);
  EXPECT_EQ(fine.act.count, 100);
}

TEST(BatchedFleet, LatencyPercentilesPopulated) {
  util::ScopedGlobalThreads threads(2);
  DoublingBatchProcessor shared;
  for (const bool record : {true, false}) {
    SlotStack s(shared, std::make_unique<WavySensor>());
    BatchedFleetConfig bc;
    bc.record_latencies = record;
    BatchedFleet fleet(shared, bc);
    fleet.add(*s.loop, s.slot, {50}, /*seed=*/9);
    expect_latency_stats(fleet.run().loops[0], record);
  }
}

// Reaches the engine's protected admit() the way a front-end would, to
// check that each fleet shape refuses the other shape's members.
class ShapeProbeFleet : public Fleet {
 public:
  ShapeProbeFleet() = default;
  explicit ShapeProbeFleet(BatchProcessor& shared) : Fleet(shared, 4, {}) {}
  std::size_t admit_with(SensingActionLoop& loop, BatchSlot* slot) {
    return admit(loop, slot, {10}, /*seed=*/1);
  }
};

TEST(BatchedFleet, EachShapeRejectsTheOthersMembers) {
  DoublingBatchProcessor shared;
  SlotStack s(shared, std::make_unique<WavySensor>());

  ShapeProbeFleet shared_model(shared);
  EXPECT_THROW(shared_model.admit_with(*s.loop, nullptr), CheckError);
  EXPECT_EQ(shared_model.admit_with(*s.loop, &s.slot), 0u);

  ShapeProbeFleet per_loop;
  EXPECT_THROW(per_loop.admit_with(*s.loop, &s.slot), CheckError);
  EXPECT_EQ(per_loop.admit_with(*s.loop, nullptr), 0u);
}

}  // namespace
}  // namespace s2a::core
