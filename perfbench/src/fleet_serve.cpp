// fleet_serve: 64 members, each with its own LiDAR sensing stack, share
// one occupancy autoencoder through core::BatchedFleet (gather 16) on a
// pool of min(4, nproc) threads. Closed loop: a member's next tick
// starts after its commit. No trust monitor. One op is one member-tick,
// timed from the start of its sense call to the end of its actuation.
//
// Check: a sample of members, run alone via SensingActionLoop::run with
// a private copy of the model, must be bit-identical to their fleet
// runs (LoopMetrics + action digest) — the BatchProcessor contract.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "core/batched_fleet.hpp"
#include "core/policies.hpp"
#include "lidar/batched.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr int kMembers = 64;
constexpr int kGather = 16;
constexpr int kChunkTicks = 8;  // ticks per member per BatchedFleet::run()
constexpr double kDt = 0.1;

/// Times every fused forward from the outside.
class TimedBatchProcessor : public core::BatchProcessor {
 public:
  explicit TimedBatchProcessor(core::BatchProcessor& inner) : inner_(inner) {}

  std::vector<double> process(const core::Observation& obs, Rng& rng) override {
    return inner_.process(obs, rng);
  }
  std::vector<std::vector<double>> process_batch(
      const std::vector<const core::Observation*>& obs) override {
    const double t0 = now_s();
    auto rows = inner_.process_batch(obs);
    const double t1 = now_s();
    last_start_s = t0;
    last_end_s = t1;
    busy_s += t1 - t0;
    ++calls;
    members += static_cast<long>(obs.size());
    if (log) {
      SpanLog::set_op(calls);
      log->add("nn.batch_forward", 0, t0, t1 - t0);
    }
    return rows;
  }
  double energy_per_call_j() const override { return inner_.energy_per_call_j(); }

  void reset() { busy_s = 0.0, calls = 0, members = 0; }

  SpanLog* log = nullptr;
  double last_start_s = 0.0, last_end_s = 0.0, busy_s = 0.0;
  long calls = 0, members = 0;

 private:
  core::BatchProcessor& inner_;
};

enum Col {
  kBeamPlan, kScan, kVoxelize, kGatherWait, kForward, kCommitWait,
  kUnattributed, kCols
};

/// Shared sink of member-tick latencies and layer rows. Commits run
/// serially on the coordinator thread, so no locking is needed.
struct TickLog {
  std::vector<double>* op_ms = nullptr;
  std::vector<double>* op_end_s = nullptr;  ///< untraced: end times since start_s
  double start_s = 0.0;
  LayerRows* rows = nullptr;  ///< non-null while tracing
  double sense_busy_s = 0.0;
  long nonfinite = 0, over_period = 0;
};

/// Ends a member-tick: digests the action and records the tick's
/// latency and, when tracing, its layer row.
class MemberActuator : public DigestActuator {
 public:
  MemberActuator(LidarSensor& sensor, const TimedBatchProcessor& proc,
                 TickLog& log)
      : sensor_(sensor), proc_(proc), log_(log) {}

  void actuate(const core::Action& action, Rng& rng) override {
    const long nf = nonfinite();
    DigestActuator::actuate(action, rng);
    const double ms = (end_s - sensor_.start_s) * 1e3;
    log_.op_ms->push_back(ms);
    if (log_.op_end_s) log_.op_end_s->push_back(end_s - log_.start_s);
    if (nonfinite() != nf) ++log_.nonfinite;
    if (ms > kDt * 1e3) ++log_.over_period;
    if (log_.rows == nullptr) return;
    const SenseTimes& st = sensor_.times;
    std::vector<double> row(kCols, 0.0);
    row[kBeamPlan] = st.beam_plan;
    row[kScan] = st.scan;
    row[kVoxelize] = st.voxelize;
    row[kUnattributed] = st.total - st.beam_plan - st.scan - st.voxelize;
    row[kGatherWait] = proc_.last_start_s - sensor_.end_s;
    row[kForward] = proc_.last_end_s - proc_.last_start_s;
    row[kCommitWait] = end_s - proc_.last_end_s;
    log_.rows->add(row, ms);
    log_.sense_busy_s += st.total;
    sensor_.times = {};  // the member's next sense starts after this commit
  }

 private:
  LidarSensor& sensor_;
  const TimedBatchProcessor& proc_;
  TickLog& log_;
};

core::LoopConfig loop_config() {
  core::LoopConfig lc;
  lc.dt = kDt;
  return lc;
}

struct Member {
  LidarSensor sensor;
  MemberActuator act;
  core::PeriodicPolicy policy{1};
  core::BatchSlot slot;
  core::SensingActionLoop loop;

  Member(const World& w, double offset, TimedBatchProcessor& shared,
         TickLog& log)
      : sensor(w, offset),
        act(sensor, shared, log),
        slot(shared),
        loop(sensor, slot, act, policy, loop_config()) {}
};

double member_offset(int i) { return 37.0 * i; }
std::uint64_t member_seed(std::uint64_t seed, int i) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(i);
}

struct Setup {
  std::unique_ptr<World> world;
  Perception perception;
  std::unique_ptr<lidar::BatchedReconstructionProcessor> proc;
  std::unique_ptr<TimedBatchProcessor> timed;
};

}  // namespace

Result run_fleet_serve(const Options& o) {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min(4, nproc);
  util::set_global_threads(1);  // set-up trains at one thread, as loop_tick's
  Result r;
  Setup su = repeated_setup(r, 3, [&] {
    Setup s;
    s.world = std::make_unique<World>(0.0, o.seed);
    s.perception = build_perception(*s.world, false);
    auto& ae = *s.perception.ae;
    s.proc = std::make_unique<lidar::BatchedReconstructionProcessor>(
        ae, reconstruct_energy_j(ae));
    s.timed = std::make_unique<TimedBatchProcessor>(*s.proc);
    return s;
  });
  const World& world = *su.world;
  TimedBatchProcessor& shared = *su.timed;
  util::set_global_threads(threads);

  core::BatchedFleetConfig bc;
  bc.gather = kGather;
  bc.record_latencies = false;

  std::vector<double> warm_ms;
  TickLog warm_log;
  warm_log.op_ms = &warm_ms;
  {  // Untimed warm-up: throwaway members over the same shared model.
    std::vector<std::unique_ptr<Member>> warm;
    core::BatchedFleet fleet(shared, bc);
    for (int i = 0; i < kMembers; ++i) {
      warm.push_back(std::make_unique<Member>(world, 5000.0 + member_offset(i),
                                              shared, warm_log));
      fleet.add(warm.back()->loop, warm.back()->slot, {2}, member_seed(o.seed + 9, i));
    }
    fleet.run();
  }
  shared.reset();

  TickLog log;
  log.op_ms = &r.op_ms;
  std::vector<std::unique_ptr<Member>> members;
  core::BatchedFleet fleet(shared, bc);
  for (int i = 0; i < kMembers; ++i) {
    members.push_back(std::make_unique<Member>(world, member_offset(i), shared, log));
    fleet.add(members.back()->loop, members.back()->slot, {kChunkTicks},
              member_seed(o.seed, i));
  }

  const Segments seg = Segments::of(o);
  {
    Budget b{seg.untraced_s, seg.min_ops};
    log.op_end_s = &r.op_end_s;
    log.start_s = b.start_s;
    while (b.more(static_cast<long>(r.op_ms.size()))) fleet.run();
    r.wall_s = now_s() - b.start_s;
    log.op_end_s = nullptr;
  }
  SpanLog spans;
  LayerRows rows({"lidar.beam_plan_us", "sim.selective_scan_us",
                  "lidar.voxelize_us", "core.gather_wait_us",
                  "nn.batch_forward_us", "core.commit_wait_us",
                  "unattributed_us"});
  long dispatches = 0;
  double traced_wall = 0.0;
  if (o.trace) {
    shared.reset();
    shared.log = &spans;
    for (int i = 0; i < kMembers; ++i)
      members[i]->sensor.set_trace(&spans, 100 + i, true);
    log.op_ms = &r.traced_op_ms;
    log.rows = &rows;
    Budget b{seg.traced_s, seg.min_ops};
    while (b.more(static_cast<long>(r.traced_op_ms.size())))
      dispatches += fleet.run().dispatches;
    traced_wall = now_s() - b.start_s;
    shared.log = nullptr;
    for (auto& m : members) m->sensor.set_trace(nullptr, 0);
  }
  r.peak_rss_mb = peak_rss_mb();
  r.attempted = static_cast<long>(r.op_ms.size() + r.traced_op_ms.size());
  for (long i = 0; i < log.nonfinite; ++i) count_failure(r, "nonfinite_action");
  for (long i = 0; i < log.over_period; ++i) count_failure(r, "over_period");
  long safe_stopped = 0;
  double energy_j = 0.0;
  long ticks = 0;
  for (const auto& m : members) {
    safe_stopped += m->loop.state() == core::LoopState::kSafeStop;
    energy_j += m->loop.metrics().total_energy_j();
    ticks += m->loop.metrics().ticks;
  }
  for (long i = 0; i < safe_stopped; ++i) count_failure(r, "safe_stop");
  r.energy_mj_per_op = energy_j / static_cast<double>(ticks) * 1e3;

  if (o.trace) {
    const auto means = rows.band_means();
    for (std::size_t c = 0; c < rows.width(); ++c) {
      r.layers.emplace_back(rows.column(c), means[c] * 1e6);
      r.self_layers.emplace_back(rows.column(c));
    }
    const double n = static_cast<double>(r.traced_op_ms.size());
    r.layers.emplace_back("nn.batch_size",
                          shared.calls ? static_cast<double>(shared.members) / shared.calls : 0.0);
    r.layers.emplace_back("core.dispatches", dispatches / n);
    // Worker-time covered by wrapped calls; a fused forward shards over
    // the whole pool, so it covers every worker while it runs.
    r.layers.emplace_back("core.busy_frac",
                          (log.sense_busy_s + shared.busy_s * threads) /
                              (traced_wall * threads));
    spans.write_chrome_trace(o.out_dir + "/fleet_serve.trace.json");
  }

  // Members run alone with a private model copy must match the fleet.
  {
    Rng init(0);
    lidar::OccupancyAutoencoder ae(su.perception.ae->config(), init);
    copy_params(*su.perception.ae, ae);
    lidar::BatchedReconstructionProcessor alone_proc(ae, reconstruct_energy_j(ae));
    bool all_same = true;
    std::string detail;
    for (int i : {0, 21, 42, 63}) {
      const Member& fm = *members[i];
      LidarSensor sensor(world, member_offset(i));
      DigestActuator act;
      core::PeriodicPolicy policy(1);
      core::SensingActionLoop loop(sensor, alone_proc, act, policy, loop_config());
      Rng rng(member_seed(o.seed, i));
      loop.run(static_cast<int>(fm.loop.metrics().ticks), rng);
      const bool same = loop.metrics() == fm.loop.metrics() &&
                        act.digest() == fm.act.digest();
      all_same = all_same && same;
      detail += "member " + std::to_string(i) + (same ? " ok; " : " differs; ");
    }
    r.checks.push_back({"fleet_serve.members_match_alone", all_same, detail});
  }
  r.quality = reconstruction_iou(*su.perception.ae, world, 256, kModelSeed + 1);
  r.named_quality = {{"recon_iou", r.quality}};
  r.info.emplace_back("pool_threads", std::to_string(threads));
  r.info.emplace_back("members", std::to_string(kMembers));
  r.info.emplace_back("gather", std::to_string(kGather));
  return r;
}

}  // namespace perfbench
