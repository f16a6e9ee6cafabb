// loop_tick: one robot's closed SensingActionLoop at one thread.
//
//   sense    RadialMasker::beam_plan → selective_scan → voxelize
//   trust    BevDetector::feature_embedding → StarNet::trusted
//   process  OccupancyAutoencoder::reconstruct → BevDetector::detect →
//            control law
//   act      digesting actuator
//
// Seeded corruption windows cover about 20% of ticks and a few
// FaultPlan dropout windows exhaust the sensor's retries. One op is one
// tick. The timed run drives the loop one tick at a time through the
// synchronous PipelinedRunner; the check replays the first 1000 ticks of
// the same seed through the pipelined engine, untimed, and that replay
// also computes the output-quality metrics.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "core/pipeline.hpp"
#include "core/policies.hpp"
#include "fault/fault.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr double kDt = 0.1;  // 10 Hz LiDAR loop
constexpr long kReplayTicks = 1000;  // ticks the replay check covers

/// The loop's trust monitor: detector embedding of the sensed grid,
/// gated by STARNet. Keeps veto counts split by whether the tick fell
/// in a corruption window.
class StarGate : public core::TrustMonitor {
 public:
  StarGate(lidar::BevDetector& det, monitor::StarNet& net, const World& world)
      : det_(det), net_(net), world_(world) {}

  bool trusted(const core::Observation& obs, Rng& rng) override {
    bool ok = true;
    double total = 0.0;
    {
      Timed t(log, &total, "monitor");
      std::vector<double> emb;
      {
        Timed te(log, &embed_s, "lidar.embed");
        emb = det_.feature_embedding(grid_tensor(obs.data, world_.grid()));
      }
      Timed tt(log, &trust_s, "monitor.trust");
      ok = net_.trusted(emb, rng);
    }
    total_s += total;
    const bool corrupt = world_.corruption_at(obs.timestamp) != nullptr;
    ++(corrupt ? corrupt_calls : clean_calls);
    if (!ok) ++(corrupt ? corrupt_vetoes : clean_vetoes);
    return ok;
  }

  SpanLog* log = nullptr;
  double embed_s = 0.0, trust_s = 0.0, total_s = 0.0;
  long clean_calls = 0, clean_vetoes = 0, corrupt_calls = 0, corrupt_vetoes = 0;

 private:
  lidar::BevDetector& det_;
  monitor::StarNet& net_;
  const World& world_;
};

/// Steer away from, and slow for, the nearest detected object ahead.
std::vector<double> control_law(const std::vector<lidar::Detection>& dets) {
  double best = std::numeric_limits<double>::infinity(), lateral = 0.0;
  for (const auto& d : dets) {
    const double x = d.box.center.x, y = d.box.center.y;
    if (x <= 0.0) continue;
    const double r = std::hypot(x, y);
    if (r < best) {
      best = r;
      lateral = y;
    }
  }
  if (std::isinf(best)) return {1.0, 0.0, static_cast<double>(dets.size())};
  return {std::clamp((best - 15.0) / 15.0, -1.0, 1.0),
          std::clamp(-lateral / best, -1.0, 1.0),
          static_cast<double>(dets.size())};
}

/// reconstruct → detect on the completed occupancy → control law.
class PerceptionProcessor : public core::Processor {
 public:
  PerceptionProcessor(lidar::OccupancyAutoencoder& ae, lidar::BevDetector& det,
                      const lidar::VoxelGridConfig& grid)
      : ae_(ae), det_(det), grid_(grid), energy_j_(reconstruct_energy_j(ae)) {}

  std::vector<double> process(const core::Observation& obs, Rng&) override {
    std::vector<double> action;
    double total = 0.0;
    {
      Timed t(log, &total, "processor");
      const nn::Tensor sensed = grid_tensor(obs.data, grid_);
      nn::Tensor recon;
      {
        Timed tr(log, &reconstruct_s, "lidar.reconstruct");
        recon = ae_.reconstruct(sensed);
      }
      const nn::Tensor scene = detector_input(sensed, recon);
      std::vector<lidar::Detection> dets;
      {
        Timed td(log, &detect_s, "lidar.detect");
        dets = det_.detect(scene);
      }
      action = control_law(dets);
      if (probe) probe(obs, recon, dets);
    }
    total_s += total;
    return action;
  }
  double energy_per_call_j() const override { return energy_j_; }

  SpanLog* log = nullptr;
  double reconstruct_s = 0.0, detect_s = 0.0, total_s = 0.0;
  /// Untimed replay only: sees every processed tick's outputs.
  std::function<void(const core::Observation&, const nn::Tensor&,
                     const std::vector<lidar::Detection>&)>
      probe;

 private:
  lidar::OccupancyAutoencoder& ae_;
  lidar::BevDetector& det_;
  lidar::VoxelGridConfig grid_;
  double energy_j_;
};

/// A few short dropout windows per minute of loop time: every retry in
/// a window fails, so the tick falls back and the state machine moves.
fault::FaultPlan dropout_plan(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fault::FaultEvent> events;
  for (double t = 10.0; t < 6000.0; t += 25.0) {
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kDropout;
    ev.start = t + rng.uniform(0.0, 10.0);
    ev.end = ev.start + rng.uniform(0.15, 0.55);
    events.push_back(ev);
  }
  return fault::FaultPlan(std::move(events));
}

core::LoopConfig loop_config() {
  core::LoopConfig lc;
  lc.dt = kDt;
  lc.resilience.max_sense_retries = 2;
  // Act only on this tick's observation: a vetoed or failed sense makes
  // the previous one stale, and the loop holds its last action.
  lc.resilience.max_staleness_s = 0.5 * kDt;
  lc.resilience.fallback = core::FallbackPolicy::kHoldLastAction;
  lc.resilience.degrade_after = 3;
  lc.resilience.recover_after = 3;
  return lc;
}

struct Stack {
  LidarSensor lidar;
  fault::FaultySensor faulty;
  StarGate gate;
  PerceptionProcessor proc;
  DigestActuator act;
  core::PeriodicPolicy policy{1};
  core::SensingActionLoop loop;

  Stack(const World& w, Perception& p, const fault::FaultPlan& plan)
      : lidar(w),
        faulty(lidar, plan),
        gate(*p.det_monitor, *p.starnet, w),
        proc(*p.ae, *p.det, w.grid()),
        loop(faulty, proc, act, policy, loop_config(), &gate) {}

  void set_trace(SpanLog* log) {
    lidar.set_trace(log, 0);
    gate.log = log;
    proc.log = log;
    act.log = log;
  }
};

struct Setup {
  std::unique_ptr<World> world;
  Perception perception;
  fault::FaultPlan plan;
};

enum Col {
  kBeamPlan, kScan, kVoxelize, kEmbed, kTrust, kReconstruct, kDetect,
  kLoopSelf, kUnattributed, kCols
};

}  // namespace

Result run_loop_tick(const Options& o) {
  util::set_global_threads(1);
  Result r;
  Setup su = repeated_setup(r, 3, [&] {
    Setup s;
    s.world = std::make_unique<World>(0.2, o.seed);
    s.perception = build_perception(*s.world, true);
    s.plan = dropout_plan(o.seed + 2);
    return s;
  });
  const World& world = *su.world;

  {  // Untimed warm-up on a throwaway loop over the same models.
    Stack warm(world, su.perception, su.plan);
    Rng rng(o.seed + 3);
    warm.loop.run(60, rng);
  }

  Stack s(world, su.perception, su.plan);
  Rng root(o.seed + 4);
  Rng sense_rng = root.spawn();
  Rng commit_rng = root.spawn();
  core::PipelinedRunner runner(s.loop, {core::PipelineMode::kSynchronous, 4});

  SpanLog spans;
  LayerRows rows({"lidar.beam_plan_us", "sim.selective_scan_us",
                  "lidar.voxelize_us", "lidar.embed_us", "monitor.trust_us",
                  "lidar.reconstruct_us", "lidar.detect_us", "core.loop_self_us",
                  "unattributed_us"});

  // The timed loop's state after its first kReplayTicks ticks, which the
  // replay check reproduces.
  core::LoopMetrics prefix_metrics;
  std::uint64_t prefix_digest = 0;

  // One tick; returns its latency and classifies failure.
  auto tick = [&](bool traced) {
    const core::LoopMetrics before = s.loop.metrics();
    const long nonfinite0 = s.act.nonfinite();
    if (traced) {
      s.lidar.times = {};
      s.gate.embed_s = s.gate.trust_s = s.gate.total_s = 0.0;
      s.proc.reconstruct_s = s.proc.detect_s = s.proc.total_s = 0.0;
      s.act.total_s = 0.0;
    }
    SpanLog::set_op(s.loop.metrics().ticks);
    const double t0 = now_s();
    bool threw = false;
    try {
      runner.run(1, sense_rng, commit_rng);
    } catch (const std::exception&) {
      threw = true;
    }
    const double t1 = now_s();
    const double ms = (t1 - t0) * 1e3;
    ++r.attempted;
    if (threw) {
      count_failure(r, "exception");
    } else if (s.act.nonfinite() != nonfinite0 ||
               s.loop.metrics().quarantined_actions != before.quarantined_actions) {
      count_failure(r, "nonfinite_action");
    } else if (s.loop.state() == core::LoopState::kSafeStop) {
      count_failure(r, "safe_stop");
    } else if (ms > kDt * 1e3) {
      count_failure(r, "over_period");
    }
    if (traced) {
      spans.add("loop.tick", 0, t0, t1 - t0);
      const SenseTimes& st = s.lidar.times;
      std::vector<double> row(kCols, 0.0);
      row[kBeamPlan] = st.beam_plan;
      row[kScan] = st.scan;
      row[kVoxelize] = st.voxelize;
      row[kEmbed] = s.gate.embed_s;
      row[kTrust] = s.gate.trust_s;
      row[kReconstruct] = s.proc.reconstruct_s;
      row[kDetect] = s.proc.detect_s;
      const double wrapped =
          st.total + s.gate.total_s + s.proc.total_s + s.act.total_s;
      double named = 0.0;
      for (int c = kBeamPlan; c <= kDetect; ++c) named += row[c];
      row[kLoopSelf] = (t1 - t0) - wrapped;
      row[kUnattributed] = wrapped - named;
      rows.add(row, ms);
    }
    if (s.loop.metrics().ticks == kReplayTicks) {
      prefix_metrics = s.loop.metrics();
      prefix_digest = s.act.digest();
    }
    return ms;
  };

  const Segments seg = Segments::of(o);
  auto quiet = std::make_unique<QuietCpu>();
  {
    Budget b{seg.untraced_s, seg.min_ops};
    while (b.more(static_cast<long>(r.op_ms.size()))) {
      quiet->between_ops();
      r.op_ms.push_back(tick(false));
      r.op_end_s.push_back(now_s() - b.start_s);
    }
    r.wall_s = now_s() - b.start_s;
  }
  const core::LoopMetrics traced_before = s.loop.metrics();
  const long pulses_before = s.lidar.pulses;
  const long calls_before = s.gate.clean_calls + s.gate.corrupt_calls;
  const long vetoes_before = s.gate.clean_vetoes + s.gate.corrupt_vetoes;
  if (o.trace) {
    s.set_trace(&spans);
    Budget b{seg.traced_s, seg.min_ops};
    while (b.more(static_cast<long>(r.traced_op_ms.size()))) {
      quiet->between_ops();
      r.traced_op_ms.push_back(tick(true));
    }
    s.set_trace(nullptr);
  }
  r.info.emplace_back("cpu_moves", std::to_string(quiet->moves()));
  quiet.reset();
  r.peak_rss_mb = peak_rss_mb();

  const core::LoopMetrics& m = s.loop.metrics();
  const long ticks = m.ticks;
  if (ticks < kReplayTicks) {
    prefix_metrics = m;
    prefix_digest = s.act.digest();
  }
  r.energy_mj_per_op = m.total_energy_j() / static_cast<double>(ticks) * 1e3;

  if (o.trace) {
    const auto means = rows.band_means();
    for (int c = 0; c < kCols; ++c) {
      r.layers.emplace_back(rows.column(c), means[c] * 1e6);
      r.self_layers.emplace_back(rows.column(c));
    }
    const double n = static_cast<double>(m.ticks - traced_before.ticks);
    const long calls = s.gate.clean_calls + s.gate.corrupt_calls - calls_before;
    const long vetoes = s.gate.clean_vetoes + s.gate.corrupt_vetoes - vetoes_before;
    r.layers.emplace_back("monitor.veto_rate",
                          calls ? static_cast<double>(vetoes) / calls : 0.0);
    r.layers.emplace_back("sim.pulses_fired",
                          (s.lidar.pulses - pulses_before) / n);
    r.layers.emplace_back("core.fallback_actions",
                          (m.fallback_actions - traced_before.fallback_actions) / n);
    r.layers.emplace_back("core.degraded_ticks",
                          (m.degraded_ticks - traced_before.degraded_ticks) / n);
    r.layers.emplace_back("core.sense_retries",
                          (m.sense_retries - traced_before.sense_retries) / n);
    spans.write_chrome_trace(o.out_dir + "/loop_tick.trace.json");
  }

  // Replay the same seed through the pipelined engine, untimed; it must
  // reproduce the timed run's first ticks exactly. Its probe computes
  // output quality.
  {
    // A spare worker for the sense chain, and more for the conv kernels.
    util::ScopedGlobalThreads threads(
        std::max(2u, std::min(4u, std::thread::hardware_concurrency())));
    Stack rep(world, su.perception, su.plan);
    Rng probe_rng(o.seed + 5);
    double iou_sum = 0.0;
    long iou_n = 0, processed = 0;
    std::vector<std::vector<lidar::Detection>> dets_all;
    std::vector<sim::Scene> scenes_all;
    const lidar::VoxelGridConfig& gc = world.grid();
    rep.proc.probe = [&](const core::Observation& obs, const nn::Tensor& recon,
                         const std::vector<lidar::Detection>& dets) {
      if (processed++ % 2) return;
      const sim::Scene scene = world.scene_at(obs.timestamp);
      const lidar::VoxelGrid full = lidar::VoxelGrid::from_cloud(
          world.lidar().full_scan(scene, probe_rng), gc);
      iou_sum += lidar::VoxelGrid::from_tensor(recon, gc).iou(full);
      ++iou_n;
      dets_all.push_back(dets);
      scenes_all.push_back(scene);
    };
    Rng root2(o.seed + 4);
    Rng sense2 = root2.spawn();
    Rng commit2 = root2.spawn();
    core::PipelinedRunner pr(rep.loop, {core::PipelineMode::kPipelined, 4});
    const core::PipelineStats ps =
        pr.run(static_cast<int>(prefix_metrics.ticks), sense2, commit2);
    const bool same =
        rep.loop.metrics() == prefix_metrics && rep.act.digest() == prefix_digest;
    r.checks.push_back({"loop_tick.pipelined_replay", same,
                        "timed " + describe(prefix_metrics) + " | replay " +
                            describe(rep.loop.metrics()) +
                            (ps.pipelined ? " (pipelined)" : " (synchronous)")});

    const double recon_iou = iou_n ? iou_sum / iou_n : 0.0;
    const double detect_ap = lidar::evaluate_ap_distance(
        dets_all, scenes_all, sim::ObjectClass::kCar,
        su.perception.det->config().match_distance[0]);
    const StarGate& g = s.gate;
    const double veto_recall =
        g.corrupt_calls ? static_cast<double>(g.corrupt_vetoes) / g.corrupt_calls : 0.0;
    const double false_veto =
        g.clean_calls ? static_cast<double>(g.clean_vetoes) / g.clean_calls : 0.0;
    // Balanced accuracy of the trust gate: vetoes corrupted ticks, lets
    // clean ones act.
    r.quality = 0.5 * (veto_recall + 1.0 - false_veto);
    r.named_quality = {{"recon_iou", recon_iou},
                       {"detect_ap", detect_ap},
                       {"veto_recall", veto_recall},
                       {"false_veto_rate", false_veto}};
    r.info.emplace_back("actions_per_tick", std::to_string(static_cast<double>(m.actions) / ticks));
    r.info.emplace_back("corrupted_share",
                        std::to_string(static_cast<double>(g.corrupt_calls) /
                                       std::max(1L, g.corrupt_calls + g.clean_calls)));
  }
  r.info.emplace_back("pool_threads", "1");
  return r;
}

}  // namespace perfbench
