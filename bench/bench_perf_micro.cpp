// Google-benchmark microbenches of the hot paths: voxelization, dense and
// convolutional forward passes, LIF stepping, LiDAR ray casting, and the
// LQR solve. These bound the per-tick budget of a real-time
// sensing-to-action loop on this substrate.
//
// The BM_Obs* series measures the observability layer itself — the cost
// of a TraceScope / histogram record when enabled, and the residual cost
// of instrumentation when disabled (the <2% overhead budget quoted in
// docs/OBSERVABILITY.md). Run with S2A_TRACE=<path> to also write a
// Chrome trace of the instrumented benchmark bodies.
// With S2A_BENCH_FLEET=<out.json> the binary instead times the
// execution engines: a 64-loop fleet on a 4-slot pool vs the serial
// one-loop-at-a-time baseline, the pipelined single-loop engine vs the
// synchronous one, and a FaultPlan straggler chaos run with finite
// deadlines, writing aggregate ticks/sec, per-loop p50/p95 tick latency,
// and the chaos shed/stall outcome to BENCH_fleet.json (speedups flagged
// "speedup_measurable": false on hosts with fewer than 4 hardware
// threads).
// With S2A_BENCH_OFFLOAD=<out.json> it evaluates the uncertainty-gated
// offload policy against the always-local and always-remote baselines
// across a link loss × latency sweep, runs a mid-run partition stall
// check on a fleet sharing one uplink, and writes BENCH_offload.json —
// exiting non-zero if the policy wins at no sweep point or any member
// stalls, misses a deadline, or actuates a non-finite value.
// With S2A_BENCH_FED_SCALE=<out.json> it sweeps the hierarchical
// federated engine over {1k, 10k, 100k} simulated clients (override the
// sweep with S2A_FED_SCALE_CLIENTS=<n> for a single point, e.g. the CI
// 1k upload), timing a full-participation dense round and a
// sampled+top-k compressed round per point, and writes
// BENCH_fed_scale.json — exiting non-zero if peak aggregator memory at
// any point exceeds the smallest point's (the streaming reduction's
// O(levels + threads) bound must not grow with client count).
// With S2A_BENCH_BUDGETS=<budgets.json> it becomes the perf regression
// gate: re-times every HotPathFixtures workload and exits non-zero if any
// p95 exceeds its recorded budget by more than the file's tolerance.
// Every report's JSON payload records the detected CPU features, the
// SIMD kernel the dispatcher selected, and the host's core count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/batched_fleet.hpp"
#include "core/fleet.hpp"
#include "core/loop.hpp"
#include "core/offload.hpp"
#include "core/pipeline.hpp"
#include "core/policies.hpp"
#include "fault/fault.hpp"
#include "federated/fedavg.hpp"
#include "federated/hardware.hpp"
#include "federated/hierarchy.hpp"
#include "lidar/autoencoder.hpp"
#include "lidar/batched.hpp"
#include "lidar/detector.hpp"
#include "lidar/masking.hpp"
#include "lidar/voxel_grid.hpp"
#include "monitor/starnet.hpp"
#include "neuro/spiking.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "nn/sequential.hpp"
#include "util/cpu_features.hpp"
#include "util/finite.hpp"
#include "util/scratch_arena.hpp"
#include "util/stats.hpp"
#include "obs/obs.hpp"
#include "sim/dataset.hpp"
#include "sim/lidar_sim.hpp"
#include "sim/scene.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace s2a;

// One-line hardware banner printed at the top of every report mode.
void print_cpu_banner() {
  printf("cpu features: %s | gemm kernel: %s\n",
         util::cpu_feature_string().c_str(), nn::gemm_kernel_name());
}

void BM_LidarFullScan(benchmark::State& state) {
  sim::LidarConfig cfg;
  cfg.azimuth_steps = static_cast<int>(state.range(0));
  cfg.elevation_steps = 8;
  sim::LidarSimulator lidar(cfg);
  Rng rng(1);
  const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lidar.full_scan(scene, rng));
  }
  state.SetItemsProcessed(state.iterations() * lidar.num_beams());
}
BENCHMARK(BM_LidarFullScan)->Arg(90)->Arg(180)->Arg(360);

void BM_Voxelize(benchmark::State& state) {
  sim::LidarConfig cfg;
  cfg.azimuth_steps = 180;
  cfg.elevation_steps = 10;
  sim::LidarSimulator lidar(cfg);
  Rng rng(2);
  const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
  const sim::PointCloud pc = lidar.full_scan(scene, rng);
  lidar::VoxelGridConfig gc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lidar::VoxelGrid::from_cloud(pc, gc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(pc.returns.size()));
}
BENCHMARK(BM_Voxelize);

void BM_DenseForward(benchmark::State& state) {
  Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  nn::Dense dense(n, n, rng);
  const nn::Tensor x = nn::Tensor::randn({8, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n);
}
BENCHMARK(BM_DenseForward)->Arg(32)->Arg(128)->Arg(512);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(4);
  nn::Sequential mlp = nn::make_mlp(32, {64, 64}, 16, rng);
  const nn::Tensor x = nn::Tensor::randn({16, 32}, rng);
  for (auto _ : state) {
    nn::Tensor y = mlp.forward(x);
    benchmark::DoNotOptimize(mlp.backward(y));
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_LifStep(benchmark::State& state) {
  Rng rng(5);
  neuro::SpikingConv2D layer(2, 8, 3, 2, 1, rng);
  const nn::Tensor x = nn::Tensor::randn({1, 2, 32, 32}, rng, 0.5);
  for (auto _ : state) {
    layer.begin_sequence();
    benchmark::DoNotOptimize(layer.step(x));
  }
}
BENCHMARK(BM_LifStep);

// ---- Observability layer (src/obs) ----
//
// Each BM_Obs* benchmark saves and restores the global enable flag so
// an S2A_TRACE run of the *other* benchmarks is unaffected.

class ObsEnabledGuard {
 public:
  explicit ObsEnabledGuard(bool on) : prev_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~ObsEnabledGuard() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

// The residual cost of a compiled-in span when obs is off: one relaxed
// load and a branch. This is what every instrumented hot path pays.
void BM_ObsDisabledTraceScope(benchmark::State& state) {
  ObsEnabledGuard guard(false);
  for (auto _ : state) {
    S2A_TRACE_SCOPE("bench.noop");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsDisabledTraceScope);

void BM_ObsEnabledTraceScope(benchmark::State& state) {
  ObsEnabledGuard guard(true);
  for (auto _ : state) {
    S2A_TRACE_SCOPE("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsEnabledTraceScope);

void BM_ObsDisabledHistogram(benchmark::State& state) {
  ObsEnabledGuard guard(false);
  double v = 1e-6;
  for (auto _ : state) {
    S2A_HISTOGRAM_RECORD("bench.noop_hist", v);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsDisabledHistogram);

void BM_ObsEnabledHistogram(benchmark::State& state) {
  ObsEnabledGuard guard(true);
  double v = 1e-6;
  for (auto _ : state) {
    S2A_HISTOGRAM_RECORD("bench.hist", v);
    v *= 1.0000001;  // walk the buckets a little
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsEnabledHistogram);

// A full instrumented loop tick with trivial components: the worst
// realistic case for relative span overhead (5 spans + 3 counters around
// almost no work). Real ticks do orders of magnitude more per span.
struct NullSensor : core::Sensor {
  core::Observation sense(double now, Rng&) override {
    core::Observation o;
    o.data = {now};
    return o;
  }
};
struct NullProcessor : core::Processor {
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    return obs.data;
  }
};
struct NullActuator : core::Actuator {
  void actuate(const core::Action&, Rng&) override {}
};

void loop_tick_bench(benchmark::State& state, bool obs_on) {
  ObsEnabledGuard guard(obs_on);
  NullSensor sensor;
  NullProcessor processor;
  NullActuator actuator;
  core::PeriodicPolicy policy(1);
  core::SensingActionLoop loop(sensor, processor, actuator, policy);
  Rng rng(6);
  for (auto _ : state) loop.tick(rng);
}
void BM_LoopTickObsOff(benchmark::State& state) {
  loop_tick_bench(state, false);
}
void BM_LoopTickObsOn(benchmark::State& state) {
  loop_tick_bench(state, true);
}
BENCHMARK(BM_LoopTickObsOff);
BENCHMARK(BM_LoopTickObsOn);

// ---- Timing and report helpers shared by the report modes and the gate ----
//
// The modes time fixed call sequences with steady_clock; google-benchmark
// stays out of the way so every run replays the same calls.

struct Percentiles {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

Percentiles percentiles(const std::vector<double>& ms) {
  return {percentile(ms, 50.0), percentile(ms, 95.0)};
}

std::vector<double> time_reps(int reps, const std::function<void()>& fn) {
  for (int i = 0; i < 2; ++i) fn();  // warmup
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return ms;
}

struct Workload {
  const char* name;
  int reps;
  std::function<void()> fn;
};

// Opens `path` for a JSON report and writes the fields every report
// shares, so report history is comparable across hosts: the detected CPU
// features, the SIMD kernel the dispatcher selected, and the host's real
// core count. Returns false, after saying why, when the file cannot be
// opened.
bool open_report(std::ofstream& out, const char* path) {
  out.open(path);
  if (!out) {
    fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  out << "{\n  \"cpu\": \"" << util::cpu_feature_string()
      << "\",\n  \"simd\": \""
      << util::simd_isa_name(util::active_simd_isa())
      << "\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency();
  return true;
}

// Offload executor fixtures, shared by the core.offload_tick budget
// workload and the S2A_BENCH_OFFLOAD report. The models scale the
// observation (compute cost is *modeled* via OffloadConfig, not burned),
// and the gate is scripted off the observation timestamp — ~40% of ticks
// uncertain, no RNG — so every mode and thread count replays the exact
// same decision sequence.
struct ScaleModel : core::Processor {
  double scale;
  double energy_j;
  explicit ScaleModel(double s, double e = 0.0) : scale(s), energy_j(e) {}
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    std::vector<double> out = obs.data;
    for (double& v : out) v *= scale;
    return out;
  }
  double energy_per_call_j() const override { return energy_j; }
};

struct TimestampGate : core::UncertaintySource {
  double score(const core::Observation& obs) override {
    return std::sin(40.0 * obs.timestamp) > 0.2 ? 2.0 : 0.0;
  }
};

core::Observation offload_obs(double t) {
  core::Observation obs;
  obs.data = {std::sin(t), std::cos(t), 0.5};
  obs.timestamp = t;
  return obs;
}

core::OffloadConfig bench_offload_config(core::OffloadMode mode) {
  core::OffloadConfig cfg;
  cfg.mode = mode;
  cfg.deadline_s = 0.05;
  cfg.local_compute_s = 4e-3;
  cfg.remote_compute_s = 1e-3;
  cfg.max_retries = 2;
  cfg.tx_energy_j = 2e-3;
  return cfg;
}

// core.offload_tick: one executor on a healthy link, driven for a block
// of virtual ticks per rep. All waiting is virtual time, so the workload
// measures the executor's own bookkeeping (gate, cost model, breaker,
// link arithmetic), which is what the budget bounds.
struct OffloadTickFixture {
  ScaleModel local{2.0, 5e-3};
  ScaleModel remote{10.0};
  TimestampGate gate;
  core::OffloadExecutor exec;
  Rng rng{5};
  long tick = 0;

  OffloadTickFixture()
      : exec(local, remote, net::LinkSim(net::LinkConfig{}, {}, /*seed=*/77),
             bench_offload_config(core::OffloadMode::kPolicy), &gate,
             /*seed=*/77) {}

  void run_block() {
    for (int i = 0; i < 256; ++i) {
      const double now = 0.05 * static_cast<double>(tick++);
      benchmark::DoNotOptimize(exec.process_at(now, offload_obs(now), rng));
    }
  }
};

// Fed-scale fixtures, shared by the fed.hier_round_1k budget workload
// and the S2A_BENCH_FED_SCALE sweep. A tiny MLP (12 features, 16
// hidden, 4 classes — 276 params) over synthetic cyclically-assigned
// 4-sample shards: dirichlet_partition degenerates into empty shards
// past a few hundred clients, and the sweep measures the aggregation
// tree, not the sharder. Local training is deliberately trivial so the
// round cost is dominated by the engine's own sampling / streaming
// reduction / accounting — the thing the scale sweep bounds.
struct FedScaleFixture {
  sim::ClassificationDataset train, test;
  std::vector<std::vector<int>> shards;
  std::vector<federated::HardwareProfile> fleet;
  federated::HierConfig cfg;

  static FedScaleFixture make(int clients) {
    FedScaleFixture fx;
    Rng rng(21);
    fx.train = sim::make_gaussian_classes(240, 12, 4, 3.0, rng);
    fx.test = sim::make_gaussian_classes(120, 12, 4, 3.0, rng);
    const int n = static_cast<int>(fx.train.labels.size());
    fx.shards.resize(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      auto& shard = fx.shards[static_cast<std::size_t>(c)];
      shard.reserve(4);
      for (int j = 0; j < 4; ++j) shard.push_back((c * 7 + j * 61 + 3) % n);
    }
    fx.fleet = federated::make_heterogeneous_fleet(clients, rng);
    fx.cfg.fl.rounds = 1;
    fx.cfg.fl.local_epochs = 1;
    fx.cfg.fl.batch = 4;
    fx.cfg.fl.hidden = 16;
    fx.cfg.clients_per_edge = 64;
    fx.cfg.edges_per_region = 32;
    return fx;
  }

  // The constrained-uplink configuration: 5% uniform cohort, top-25%
  // deltas with error feedback, updates billed through the link model.
  federated::HierConfig sampled_cfg() const {
    federated::HierConfig c = cfg;
    c.sample_mode = federated::SampleMode::kUniform;
    c.sample_fraction = 0.05;
    c.topk_fraction = 0.25;
    c.error_feedback = true;
    c.bill_uplink = true;
    return c;
  }

  federated::HierResult run(const federated::HierConfig& c) const {
    Rng round_rng(31);
    return federated::run_federated_hier(federated::FlStrategy::kStaticFl,
                                         train, test, shards, fleet, c,
                                         round_rng);
  }
};

// Inputs for the budgeted hot paths, built once. workloads() is the one
// timed list: the budget gate times each entry against its budget in
// BENCH_budgets.json, and the gate fails on an entry without one.
struct HotPathFixtures {
  sim::PointCloud pc;
  lidar::VoxelGridConfig gc;
  lidar::AutoencoderConfig ac;
  lidar::OccupancyAutoencoder ae;
  nn::Tensor bev;
  sim::ClassificationDataset train;
  sim::ClassificationDataset test;
  std::vector<std::vector<int>> shards;
  std::vector<federated::HardwareProfile> fleet;
  federated::FlConfig fc;
  // Training fixtures: a sparse occupancy target with a ~10% sensed
  // subset as input (the R-MAE masking regime), an optimizer attached to
  // `ae` (layer tensors are heap-owned, so the attachment survives the
  // fixture being moved), and a global MLP for one client update.
  nn::Tensor ae_masked, ae_target;
  nn::Adam ae_opt{1e-3};
  federated::MlpParams fed_global;
  std::vector<bool> fed_active;
  // Raw-GEMM fixture for nn.gemm_conv2 (the conv2 product shape,
  // 32x144x144). The arena lives behind a unique_ptr because
  // ScratchArena is non-movable and the fixture is returned by value.
  std::vector<double> gemm_a, gemm_b, gemm_c;
  std::unique_ptr<util::ScratchArena> gemm_arena;
  // fed.hier_round_1k: one sampled+compressed hierarchical round over a
  // 1000-client tree (value-initialized by the aggregate init below,
  // filled at the end of make()).
  std::unique_ptr<FedScaleFixture> fed_hier;
  // lidar.ae_reconstruct_int8: a quantized twin of `ae` built from the
  // same seed (so the same initial weights). `ae` itself stays float:
  // lidar.ae_pretrain_step trains it.
  std::unique_ptr<lidar::OccupancyAutoencoder> ae_int8;
  // monitor.starnet_score: a fitted STARNet with the loop benchmark's VAE
  // shape (32-dim embedding, hidden 48, latent 6, default 60 SPSA
  // iterations) and one clean embedding to score.
  std::unique_ptr<monitor::StarNet> starnet;
  std::vector<double> starnet_embedding;
  // lidar.ae_reconstruct_sensed: another float twin of `ae` (same seed,
  // never trained) on what the loop senses: the voxelized selective
  // scan of one R-MAE beam plan (the loop's default LiDAR, masker and
  // grid), the first draw with 4 to 8 occupied voxels. The timer's
  // warm-up calls key and build its active-site snapshot, so the timed
  // calls recompute only the sites those voxels reach.
  std::unique_ptr<lidar::OccupancyAutoencoder> ae_sensed;
  nn::Tensor sensed;
  // lidar.detect_loop: a BevDetector of the loop's shape (default
  // config: 16/32 channels on the 48x48x4 grid) on what the loop feeds
  // it: max(background, sensed), where background is ae_sensed's
  // reconstruction of an empty grid and sensed the 4-8 voxels above.
  // make() calls detect(background) twice, which adopts it as the
  // snapshot's reference input, so the timed calls recompute only the
  // sites the sensed voxels reach.
  std::unique_ptr<lidar::BevDetector> det_loop;
  nn::Tensor det_input;

  static HotPathFixtures make() {
    // lidar.voxelize: a 360x32 scan (11520 returns) is well above the
    // kMinParallelReturns threshold, so the sharded path actually
    // engages.
    sim::LidarConfig lc;
    lc.azimuth_steps = 360;
    lc.elevation_steps = 32;
    sim::LidarSimulator lidar(lc);
    Rng rng(7);
    const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
    sim::PointCloud pc = lidar.full_scan(scene, rng);

    // lidar.ae_reconstruct: default 48x48 grid keeps the conv/deconv
    // MACs above the inline threshold.
      lidar::AutoencoderConfig ac;
    Rng ae_int8_rng = rng;
    Rng ae_sensed_rng = rng;
    lidar::OccupancyAutoencoder ae(ac, rng);
    nn::Tensor bev =
        nn::Tensor::randn({1, ac.grid.nz, ac.grid.ny, ac.grid.nx}, rng);

    // fed.round: one round over five heterogeneous clients; a fresh Rng
    // with a fixed seed per rep keeps every rep (and both thread
    // counts) on the same arithmetic.
    Rng fed_rng(8);
    auto train = sim::make_gaussian_classes(300, 16, 10, 3.0, fed_rng);
    auto test = sim::make_gaussian_classes(150, 16, 10, 3.0, fed_rng);
    auto shards = sim::dirichlet_partition(train.labels, 5, 10, 0.5, fed_rng);
    auto fleet = federated::make_heterogeneous_fleet(5, fed_rng);
    federated::FlConfig fc;
    fc.rounds = 1;
    // Trailing members (training fixtures) start empty and are filled
    // in below.
    HotPathFixtures fx{std::move(pc),   lidar::VoxelGridConfig{},
                       ac,              std::move(ae),
                       std::move(bev),  std::move(train),
                       std::move(test), std::move(shards),
                       std::move(fleet), fc,
                       nn::Tensor{},    nn::Tensor{},
                       nn::Adam{1e-3},  federated::MlpParams{},
                       std::vector<bool>{},
                       {},              {},
                       {},              nullptr,
                       nullptr,         nullptr,
                       nullptr,         {},
                       nullptr,         nn::Tensor{},
                       nullptr,         nn::Tensor{}};

    // lidar.ae_pretrain_step: sparse occupancy target (~6% occupied),
    // masked input keeping ~10% of sensed voxels.
    fx.ae_target = nn::Tensor({1, fx.ac.grid.nz, fx.ac.grid.ny, fx.ac.grid.nx});
    fx.ae_masked = fx.ae_target;
    for (std::size_t i = 0; i < fx.ae_target.numel(); ++i) {
      const double occ = rng.uniform(0.0, 1.0) < 0.06 ? 1.0 : 0.0;
      fx.ae_target[i] = occ;
      fx.ae_masked[i] = rng.uniform(0.0, 1.0) < 0.1 ? occ : 0.0;
    }
    fx.ae_opt.attach(fx.ae.params(), fx.ae.grads());

    // fed.client_update: one client's local_train against the initial
    // global model (copied per rep so every rep trains the same weights).
    fx.fed_global = federated::init_mlp(fx.train.feature_dim, fx.fc.hidden,
                                        fx.train.num_classes, rng);
    fx.fed_active.assign(static_cast<std::size_t>(fx.fc.hidden), true);

    // nn.gemm_conv2: the conv2 GEMM shape timed through the public
    // nn::gemm entry (pack + blocked kernel), exactly as the budget gate
    // replays it.
    fx.gemm_a.resize(32 * 144);
    fx.gemm_b.resize(144 * 144);
    fx.gemm_c.resize(32 * 144);
    for (auto& v : fx.gemm_a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : fx.gemm_b) v = rng.uniform(-1.0, 1.0);
    fx.gemm_arena = std::make_unique<util::ScratchArena>();

    fx.ae_int8 =
        std::make_unique<lidar::OccupancyAutoencoder>(fx.ac, ae_int8_rng);
    fx.ae_int8->quantize();

    fx.ae_sensed =
        std::make_unique<lidar::OccupancyAutoencoder>(fx.ac, ae_sensed_rng);
    const sim::LidarSimulator loop_lidar{sim::LidarConfig{}};
    const lidar::RadialMasker masker;
    for (int occupied = 0; occupied < 4 || occupied > 8;) {
      fx.sensed = lidar::VoxelGrid::from_cloud(
                      loop_lidar.selective_scan(
                          scene, masker.beam_plan(loop_lidar.config(), rng), rng),
                      fx.ac.grid)
                      .to_tensor();
      occupied = static_cast<int>(std::count_if(
          fx.sensed.data(), fx.sensed.data() + fx.sensed.numel(),
          [](double v) { return v != 0.0; }));
    }

    Rng det_rng(12);
    fx.det_loop = std::make_unique<lidar::BevDetector>(lidar::DetectorConfig{},
                                                       det_rng);
    const nn::Tensor background = fx.ae_sensed->reconstruct(nn::Tensor(
        {1, fx.ac.grid.nz, fx.ac.grid.ny, fx.ac.grid.nx}));
    fx.det_input = background;
    for (std::size_t i = 0; i < fx.det_input.numel(); ++i)
      fx.det_input[i] = std::max(fx.det_input[i], fx.sensed[i]);
    fx.det_loop->detect(background);
    fx.det_loop->detect(background);

    // fed.hier_round_1k: the 1k point of the S2A_BENCH_FED_SCALE sweep
    // under the constrained-uplink configuration.
    fx.fed_hier = std::make_unique<FedScaleFixture>(FedScaleFixture::make(1000));

    // monitor.starnet_score: fitted on 64 synthetic clean embeddings
    // drawn from a two-mode Gaussian mixture.
    Rng star_rng(10);
    std::vector<std::vector<double>> clean;
    for (int i = 0; i < 64; ++i) {
      const double mode = star_rng.bernoulli(0.5) ? 1.0 : -1.0;
      std::vector<double> e(32);
      for (std::size_t d = 0; d < e.size(); ++d)
        e[d] = mode * (d % 2 == 0 ? 1.0 : -0.5) + star_rng.normal(0.0, 0.3);
      clean.push_back(std::move(e));
    }
    monitor::StarNetConfig sc;
    sc.vae.input_dim = 32;
    sc.vae.hidden = 48;
    sc.vae.latent_dim = 6;
    fx.starnet = std::make_unique<monitor::StarNet>(sc, star_rng);
    fx.starnet->fit(clean, star_rng);
    fx.starnet_embedding = clean.front();
    return fx;
  }

  // A workload's reps bound how far one co-tenant burst on a shared host
  // can move its p95. The sensed reconstruct, loop detect, client update,
  // 1k hierarchical round and STARNet score run 0.1-0.3 s of reps each,
  // so a burst that stalls a few milliseconds of them stays inside the
  // 5% tail.
  std::vector<Workload> workloads() {
    std::vector<Workload> w;
    w.push_back({"lidar.voxelize", 100, [this] {
                   benchmark::DoNotOptimize(
                       lidar::VoxelGrid::from_cloud(pc, gc));
                 }});
    w.push_back({"lidar.ae_reconstruct", 30, [this] {
                   benchmark::DoNotOptimize(ae.reconstruct(bev));
                 }});
    w.push_back({"fed.round", 15, [this] {
                   Rng round_rng(9);
                   benchmark::DoNotOptimize(federated::run_federated(
                       federated::FlStrategy::kStaticFl, train, test, shards,
                       fleet, fc, round_rng));
                 }});
    w.push_back({"lidar.ae_pretrain_step", 25, [this] {
                   benchmark::DoNotOptimize(
                       ae.train_step(ae_masked, ae_target, ae_opt));
                 }});
    w.push_back({"fed.client_update", 600, [this] {
                   federated::MlpParams local = fed_global;
                   Rng client_rng(13);
                   benchmark::DoNotOptimize(federated::local_train(
                       local, train, shards[0], fed_active,
                       federated::PrecisionConfig{}, fc.local_epochs, fc.batch,
                       fc.lr, client_rng));
                 }});
    w.push_back({"lidar.ae_reconstruct_int8", 30, [this] {
                   benchmark::DoNotOptimize(ae_int8->reconstruct(bev));
                 }});
    w.push_back({"lidar.ae_reconstruct_sensed", 1000, [this] {
                   benchmark::DoNotOptimize(ae_sensed->reconstruct(sensed));
                 }});
    w.push_back({"lidar.detect_loop", 1000, [this] {
                   benchmark::DoNotOptimize(det_loop->detect(det_input));
                 }});
    w.push_back({"core.offload_tick", 60,
                 [fx = std::make_shared<OffloadTickFixture>()] {
                   fx->run_block();
                 }});
    w.push_back({"fed.hier_round_1k", 300, [this] {
                   benchmark::DoNotOptimize(
                       fed_hier->run(fed_hier->sampled_cfg()));
                 }});
    w.push_back({"monitor.starnet_score", 1000, [this] {
                   Rng score_rng(17);
                   benchmark::DoNotOptimize(
                       starnet->score(starnet_embedding, score_rng));
                 }});
    w.push_back({"nn.gemm_conv2", 400, [this] {
                   std::fill(gemm_c.begin(), gemm_c.end(), 0.0);
                   nn::gemm(32, 144, 144, gemm_a.data(), 144, gemm_b.data(),
                            144, gemm_c.data(), 144, *gemm_arena);
                   benchmark::DoNotOptimize(gemm_c.data());
                   gemm_arena->reset();
                 }});
    return w;
  }
};

// Full autoencoder pretrain step (forward + weighted BCE + backward +
// Adam). Under S2A_TRACE this is what puts the nn.conv_backward /
// nn.deconv_backward spans on the timeline.
void BM_AePretrainStep(benchmark::State& state) {
  static HotPathFixtures& fx = *new HotPathFixtures(HotPathFixtures::make());
  for (auto _ : state)
    benchmark::DoNotOptimize(fx.ae.train_step(fx.ae_masked, fx.ae_target,
                                              fx.ae_opt));
}
BENCHMARK(BM_AePretrainStep);

// ---- Fleet report (S2A_BENCH_FLEET=<out.json>) ----
//
// Times the execution engines on a loop whose stages have honest edge
// latencies: the sensor models acquisition as a real blocking wait
// (sensing latency is I/O-like — the core is idle while the ADC/DMA
// fills the buffer), the processor burns CPU. The fleet's win is
// overlapping many loops' acquisition waits; the pipeline's win is
// hiding one loop's sensing latency behind its processing latency.
// Five sections:
//  * fleet:     64 loops, serial one-at-a-time baseline vs Fleet on a
//               4-slot pool.
//  * pipeline:  one loop, synchronous vs pipelined engine.
//  * chaos:     finite-deadline fleet with FaultPlan-driven fault
//               windows plus wall-clock stragglers — checks shedding
//               isolates the stragglers and no healthy loop stalls.
//  * batched:   64 loops serving one shared model vs private copies.
//  * admission: straggler waves against a healthy fleet — checks no
//               healthy member misses a deadline.

class BlockingSensor : public core::Sensor {
 public:
  explicit BlockingSensor(int acquire_us) : acquire_us_(acquire_us) {}
  core::Observation sense(double now, Rng& rng) override {
    std::this_thread::sleep_for(std::chrono::microseconds(acquire_us_));
    core::Observation obs;
    obs.data = {rng.normal(), rng.normal(), rng.normal(), rng.normal()};
    obs.timestamp = now;
    obs.energy_j = 1e-3;
    return obs;
  }

 private:
  int acquire_us_;
};

class SpinProcessor : public core::Processor {
 public:
  explicit SpinProcessor(int iters) : iters_(iters) {}
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    double acc = 0.0;
    for (int i = 0; i < iters_; ++i) acc += std::sin(i * 1e-3);
    std::vector<double> out = obs.data;
    out[0] += acc * 1e-12;
    return out;
  }
  double energy_per_call_j() const override { return 1e-4; }

 private:
  int iters_;
};

class WallStallProcessor : public core::Processor {
 public:
  explicit WallStallProcessor(int ms) : ms_(ms) {}
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return obs.data;
  }

 private:
  int ms_;
};

class SinkActuator : public core::Actuator {
 public:
  void actuate(const core::Action& action, Rng&) override {
    benchmark::DoNotOptimize(action.data.data());
  }
};

// Cheap occupancy-grid source for the model-serving (batched) section —
// no blocking, so the comparison isolates processor dispatch cost.
class GridSourceSensor : public core::Sensor {
 public:
  explicit GridSourceSensor(std::size_t numel) : numel_(numel) {}
  core::Observation sense(double now, Rng& rng) override {
    core::Observation obs;
    obs.data.resize(numel_);
    for (std::size_t i = 0; i < numel_; ++i)
      obs.data[i] = rng.bernoulli(0.2) ? 1.0 : 0.0;
    obs.timestamp = now;
    obs.energy_j = 1e-3;
    return obs;
  }

 private:
  std::size_t numel_;
};

// One self-contained loop stack for the fleet/pipeline sections.
struct EdgeLoop {
  BlockingSensor sensor;
  std::unique_ptr<fault::FaultySensor> faulty;
  std::unique_ptr<core::Processor> proc;
  SinkActuator act;
  core::PeriodicPolicy policy{1};
  std::unique_ptr<core::SensingActionLoop> loop;

  EdgeLoop(int acquire_us, std::unique_ptr<core::Processor> processor,
           fault::FaultPlan plan = {})
      : sensor(acquire_us), proc(std::move(processor)) {
    core::Sensor* s = &sensor;
    if (!plan.empty()) {
      faulty = std::make_unique<fault::FaultySensor>(sensor, plan);
      s = faulty.get();
    }
    core::LoopConfig cfg;
    cfg.resilience.max_sense_retries = 1;
    loop = std::make_unique<core::SensingActionLoop>(*s, *proc, act, policy,
                                                     cfg);
  }
};

int run_fleet_report(const char* out_path) {
  print_cpu_banner();
  // A 4-slot pool shards even on fewer hardware threads, where it times
  // oversubscription, so the fleet, pipeline and batched speedups are
  // then marked "speedup_measurable": false.
  constexpr int kFleetThreads = 4;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool measurable = static_cast<unsigned>(kFleetThreads) <= hw;
  if (!measurable)
    printf("warning: %d threads on %u hardware threads; speedups below "
           "measure oversubscription, not parallel speed\n",
           kFleetThreads, hw);
  const char* measurable_json = measurable ? "true" : "false";
  constexpr int kLoops = 64, kTicks = 20;
  constexpr int kAcquireUs = 400, kSpinIters = 4000;
  const auto make_proc = [&] {
    return std::make_unique<SpinProcessor>(kSpinIters);
  };
  const auto wall_of = [](const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // Serial baseline: the same 64 loops, one at a time, one thread.
  double serial_wall_s = 0.0;
  {
    util::ScopedGlobalThreads threads(1);
    std::vector<std::unique_ptr<EdgeLoop>> loops;
    for (int i = 0; i < kLoops; ++i)
      loops.push_back(std::make_unique<EdgeLoop>(kAcquireUs, make_proc()));
    serial_wall_s = wall_of([&] {
      for (int i = 0; i < kLoops; ++i) {
        Rng rng(1000 + i);
        loops[i]->loop->run(kTicks, rng);
      }
    });
  }
  const double serial_tps = kLoops * kTicks / serial_wall_s;

  // Fleet: same workload on a 4-slot pool (acquisition waits overlap).
  core::FleetStats fs;
  {
    util::ScopedGlobalThreads threads(kFleetThreads);
    std::vector<std::unique_ptr<EdgeLoop>> loops;
    core::Fleet fleet(core::FleetConfig{/*batch=*/4});
    for (int i = 0; i < kLoops; ++i) {
      loops.push_back(std::make_unique<EdgeLoop>(kAcquireUs, make_proc()));
      fleet.add(*loops.back()->loop, {kTicks}, /*seed=*/1000 + i);
    }
    fs = fleet.run();
  }
  double p50_sum = 0.0, p95_max = 0.0;
  for (const auto& ls : fs.loops) {
    p50_sum += ls.p50_tick_ms;
    p95_max = std::max(p95_max, ls.p95_tick_ms);
  }
  const double mean_p50_ms = p50_sum / fs.loops.size();
  const double fleet_speedup = fs.ticks_per_s / serial_tps;
  printf("fleet      %3d loops x %d ticks  serial %8.0f ticks/s | fleet(%d threads) %8.0f ticks/s | speedup %.2fx (mean p50 %.3f ms, max p95 %.3f ms)\n",
         kLoops, kTicks, serial_tps, kFleetThreads, fs.ticks_per_s,
         fleet_speedup, mean_p50_ms, p95_max);

  // Pipelined single loop: balanced stages so the overlap is visible —
  // the pipelined rate is bounded by max(sense, commit) instead of
  // their sum.
  double sync_wall_s = 0.0, pipe_wall_s = 0.0;
  constexpr int kPipeTicks = 300, kPipeSpin = 24000;
  {
    util::ScopedGlobalThreads threads(kFleetThreads);
    EdgeLoop sync_loop(kAcquireUs,
                       std::make_unique<SpinProcessor>(kPipeSpin));
    core::PipelinedRunner sync_runner(
        *sync_loop.loop, {core::PipelineMode::kSynchronous, 4});
    sync_wall_s =
        wall_of([&] { sync_runner.run(kPipeTicks, /*seed=*/42); });

    EdgeLoop pipe_loop(kAcquireUs,
                       std::make_unique<SpinProcessor>(kPipeSpin));
    core::PipelinedRunner pipe_runner(
        *pipe_loop.loop, {core::PipelineMode::kPipelined, 4});
    pipe_wall_s =
        wall_of([&] { pipe_runner.run(kPipeTicks, /*seed=*/42); });
  }
  const double pipe_speedup = sync_wall_s / pipe_wall_s;
  printf("pipeline   1 loop x %d ticks     sync %8.0f ticks/s | pipelined %17.0f ticks/s | speedup %.2fx\n",
         kPipeTicks, kPipeTicks / sync_wall_s, kPipeTicks / pipe_wall_s,
         pipe_speedup);

  // Chaos: finite deadlines, FaultPlan fault windows on every loop, and
  // four wall-clock stragglers. Healthy loops must complete every tick
  // with zero shedding (the fleet never stalls on a straggler);
  // stragglers must be shed, not waited on.
  constexpr int kChaosLoops = 32, kChaosTicks = 30, kStragglers = 4;
  core::FleetStats cs;
  {
    util::ScopedGlobalThreads threads(kFleetThreads);
    std::vector<std::unique_ptr<EdgeLoop>> loops;
    core::Fleet fleet(core::FleetConfig{/*batch=*/4});
    for (int i = 0; i < kChaosLoops; ++i) {
      const bool straggler = i < kStragglers;
      std::unique_ptr<core::Processor> proc =
          straggler ? std::unique_ptr<core::Processor>(
                          std::make_unique<WallStallProcessor>(20))
                    : std::unique_ptr<core::Processor>(
                          std::make_unique<SpinProcessor>(kSpinIters));
      loops.push_back(std::make_unique<EdgeLoop>(
          kAcquireUs, std::move(proc),
          fault::FaultPlan::random_component_plan(
              /*seed=*/7000 + i, /*horizon_s=*/kChaosTicks * 0.05,
              /*events=*/4, /*mean_duration_s=*/0.2)));
      core::FleetLoopConfig lc;
      lc.ticks = kChaosTicks;
      lc.deadline_s = straggler ? 2e-3 : 0.25;  // stragglers: hopeless
      lc.shed_slack = 4.0;
      fleet.add(*loops.back()->loop, lc, /*seed=*/3000 + i);
    }
    cs = fleet.run();
  }
  long straggler_shed = 0;
  bool healthy_complete = true, healthy_unshed = true;
  for (int i = 0; i < kChaosLoops; ++i) {
    if (i < kStragglers) {
      straggler_shed += cs.loops[i].shed;
    } else {
      healthy_complete &= cs.loops[i].executed == kChaosTicks;
      healthy_unshed &= cs.loops[i].shed == 0;
    }
  }
  const bool zero_stalls = healthy_complete && healthy_unshed;
  printf("chaos      %d loops (%d stragglers)  straggler shed %ld ticks | healthy complete %s | zero stalls %s\n",
         kChaosLoops, kStragglers, straggler_shed,
         healthy_complete ? "yes" : "NO", zero_stalls ? "yes" : "NO");

  // Batched inference: the same 64 loops all serving ONE small
  // perception model (multi-tenant shape). Per-loop dispatch must give
  // every member a private model copy (members run concurrently and the
  // conv stack is not thread-safe) and pays the full fixed cost of a
  // forward — packing, tensor/arena bookkeeping — per member tick. The
  // batched engine shares one model and fuses concurrently-ready
  // members into [B, ...] forwards, amortizing those fixed costs.
  constexpr int kBatchLoops = 64, kBatchTicks = 20, kGather = 16;
  lidar::AutoencoderConfig acfg;
  acfg.grid.nx = 8;
  acfg.grid.ny = 8;
  acfg.grid.nz = 2;
  acfg.c1 = 4;
  acfg.c2 = 4;
  const std::size_t grid_numel = static_cast<std::size_t>(acfg.grid.nx) *
                                 acfg.grid.ny * acfg.grid.nz;
  struct ModelLoop {
    GridSourceSensor sensor;
    SinkActuator act;
    core::PeriodicPolicy policy{1};
    std::unique_ptr<lidar::OccupancyAutoencoder> ae;  // per-loop mode only
    std::unique_ptr<lidar::BatchedReconstructionProcessor> own_proc;
    std::unique_ptr<core::BatchSlot> slot;
    std::unique_ptr<core::SensingActionLoop> loop;

    // Per-loop variant: a private identically-seeded model copy.
    ModelLoop(std::size_t numel, const lidar::AutoencoderConfig& cfg)
        : sensor(numel) {
      Rng wr(7);
      ae = std::make_unique<lidar::OccupancyAutoencoder>(cfg, wr);
      own_proc =
          std::make_unique<lidar::BatchedReconstructionProcessor>(*ae, 1e-4);
      loop = std::make_unique<core::SensingActionLoop>(sensor, *own_proc, act,
                                                       policy);
    }
    // Batched variant: a slot onto the one shared model.
    ModelLoop(std::size_t numel, core::BatchProcessor& shared)
        : sensor(numel) {
      slot = std::make_unique<core::BatchSlot>(shared);
      loop = std::make_unique<core::SensingActionLoop>(sensor, *slot, act,
                                                       policy);
    }
  };

  core::FleetStats per_loop_fs;
  {
    util::ScopedGlobalThreads threads(kFleetThreads);
    std::vector<std::unique_ptr<ModelLoop>> loops;
    core::Fleet fleet(core::FleetConfig{/*batch=*/4});
    for (int i = 0; i < kBatchLoops; ++i) {
      loops.push_back(std::make_unique<ModelLoop>(grid_numel, acfg));
      fleet.add(*loops.back()->loop, {kBatchTicks}, /*seed=*/5000 + i);
    }
    per_loop_fs = fleet.run();
  }

  core::FleetStats batched_fs;
  long batched_forwards = 0;
  {
    util::ScopedGlobalThreads threads(kFleetThreads);
    Rng wr(7);
    lidar::OccupancyAutoencoder shared_ae(acfg, wr);
    lidar::BatchedReconstructionProcessor shared(shared_ae, 1e-4);
    std::vector<std::unique_ptr<ModelLoop>> loops;
    core::BatchedFleetConfig bc;
    bc.gather = kGather;
    core::BatchedFleet fleet(shared, bc);
    for (int i = 0; i < kBatchLoops; ++i) {
      loops.push_back(std::make_unique<ModelLoop>(grid_numel, shared));
      fleet.add(*loops.back()->loop, *loops.back()->slot, {kBatchTicks},
                /*seed=*/5000 + i);
    }
    batched_fs = fleet.run();
    batched_forwards = fleet.batched_forwards();
  }
  const double batched_speedup =
      batched_fs.ticks_per_s / per_loop_fs.ticks_per_s;
  printf("batched    %3d loops x %d ticks  per-loop %8.0f ticks/s | batched(gather %d) %8.0f ticks/s | speedup %.2fx (%ld fused forwards)\n",
         kBatchLoops, kBatchTicks, per_loop_fs.ticks_per_s, kGather,
         batched_fs.ticks_per_s, batched_speedup, batched_forwards);

  // Admission control: a fleet serving healthy members with feasible
  // deadlines is hit by waves of hopeless stragglers. Wave 1 lands on a
  // cold window (admitted) and drives the miss/shed pressure up; wave 2
  // arrives under moderate pressure (degraded contracts); wave 3 under
  // saturation (rejected). Healthy members must never miss a deadline —
  // admission keeps the overload out instead of letting it in to shed.
  constexpr int kHealthy = 16, kHealthyTicks = 40;
  constexpr int kWave1 = 4, kWave2 = 12, kWaveTicks = 30;
  long healthy_misses = 0, healthy_shed = 0;
  long adm_admitted = 0, adm_degraded = 0, adm_rejected = 0;
  double adm_pressure = 0.0;
  bool wave2_degraded = false, wave3_rejected = false;
  {
    util::ScopedGlobalThreads threads(kFleetThreads);
    core::FleetConfig fc;
    fc.batch = 4;
    fc.admission.enabled = true;
    fc.admission.min_samples = 64;
    fc.admission.degrade_threshold = 0.05;
    fc.admission.reject_threshold = 0.25;
    core::Fleet fleet(fc);

    std::vector<std::unique_ptr<EdgeLoop>> loops;
    const auto add_healthy = [&](int n) {
      for (int i = 0; i < n; ++i) {
        loops.push_back(std::make_unique<EdgeLoop>(
            kAcquireUs, std::make_unique<SpinProcessor>(kSpinIters)));
        core::FleetLoopConfig lc;
        lc.ticks = kHealthyTicks;
        lc.deadline_s = 0.25;
        fleet.try_add(*loops.back()->loop, lc, /*seed=*/8000 + i);
      }
    };
    const auto add_stragglers = [&](int n, int base_seed) {
      core::AdmissionDecision worst = core::AdmissionDecision::kAdmitted;
      for (int i = 0; i < n; ++i) {
        loops.push_back(std::make_unique<EdgeLoop>(
            kAcquireUs, std::make_unique<WallStallProcessor>(20)));
        core::FleetLoopConfig lc;
        lc.ticks = kWaveTicks;
        lc.deadline_s = 2e-3;  // hopeless: the stall is 10x the budget
        lc.shed_slack = 4.0;
        const auto r =
            fleet.try_add(*loops.back()->loop, lc, /*seed=*/base_seed + i);
        worst = std::max(worst, r.decision);
      }
      return worst;
    };

    add_healthy(kHealthy);
    add_stragglers(kWave1, 8100);  // cold window: admitted
    const core::FleetStats s1 = fleet.run();

    wave2_degraded =
        add_stragglers(kWave2, 8200) == core::AdmissionDecision::kDegraded;
    const core::FleetStats s2 = fleet.run();

    wave3_rejected =
        add_stragglers(kWave1, 8300) == core::AdmissionDecision::kRejected;

    for (const core::FleetStats* s : {&s1, &s2}) {
      for (int i = 0; i < kHealthy; ++i) {
        healthy_misses += s->loops[static_cast<std::size_t>(i)].deadline_misses;
        healthy_shed += s->loops[static_cast<std::size_t>(i)].shed;
      }
    }
    adm_admitted = fleet.admission().admitted();
    adm_degraded = fleet.admission().degraded();
    adm_rejected = fleet.admission().rejected();
    adm_pressure = fleet.admission().pressure();
  }
  const bool zero_healthy_misses = healthy_misses == 0 && healthy_shed == 0;
  printf("admission  %d healthy + straggler waves  admitted %ld degraded %ld rejected %ld | pressure %.3f | healthy misses %ld shed %ld (%s)\n",
         kHealthy, adm_admitted, adm_degraded, adm_rejected, adm_pressure,
         healthy_misses, healthy_shed, zero_healthy_misses ? "ok" : "FAIL");

  std::ofstream out;
  if (!open_report(out, out_path)) return 1;
  out << ",\n  \"threads\": " << kFleetThreads
      << ",\n  \"fleet\": {\n    \"loops\": " << kLoops
      << ", \"ticks_per_loop\": " << kTicks
      << ",\n    \"serial_ticks_per_s\": " << serial_tps
      << ",\n    \"fleet_ticks_per_s\": " << fs.ticks_per_s
      << ",\n    \"speedup\": " << fleet_speedup
      << ", \"speedup_measurable\": " << measurable_json
      << ",\n    \"mean_p50_tick_ms\": " << mean_p50_ms
      << ", \"max_p95_tick_ms\": " << p95_max
      << ",\n    \"dispatches\": " << fs.dispatches
      << ", \"deadline_misses\": " << fs.deadline_misses
      << ", \"shed\": " << fs.shed << "\n  },\n"
      << "  \"pipeline\": {\n    \"ticks\": " << kPipeTicks
      << ",\n    \"sync_ticks_per_s\": " << kPipeTicks / sync_wall_s
      << ",\n    \"pipelined_ticks_per_s\": " << kPipeTicks / pipe_wall_s
      << ",\n    \"speedup\": " << pipe_speedup
      << ", \"speedup_measurable\": " << measurable_json << "\n  },\n"
      << "  \"chaos\": {\n    \"loops\": " << kChaosLoops
      << ", \"stragglers\": " << kStragglers
      << ",\n    \"straggler_shed_ticks\": " << straggler_shed
      << ",\n    \"healthy_complete\": "
      << (healthy_complete ? "true" : "false")
      << ",\n    \"zero_stalls\": " << (zero_stalls ? "true" : "false")
      << "\n  },\n"
      << "  \"batched\": {\n    \"loops\": " << kBatchLoops
      << ", \"ticks_per_loop\": " << kBatchTicks
      << ", \"gather\": " << kGather
      << ",\n    \"per_loop_ticks_per_s\": " << per_loop_fs.ticks_per_s
      << ",\n    \"batched_ticks_per_s\": " << batched_fs.ticks_per_s
      << ",\n    \"speedup\": " << batched_speedup
      << ", \"speedup_measurable\": " << measurable_json
      << ",\n    \"batched_forwards\": " << batched_forwards
      << "\n  },\n"
      << "  \"admission\": {\n    \"healthy_loops\": " << kHealthy
      << ", \"straggler_waves\": [" << kWave1 << ", " << kWave2 << ", "
      << kWave1 << "]"
      << ",\n    \"admitted\": " << adm_admitted
      << ", \"degraded\": " << adm_degraded
      << ", \"rejected\": " << adm_rejected
      << ",\n    \"pressure\": " << adm_pressure
      << ",\n    \"wave2_degraded\": " << (wave2_degraded ? "true" : "false")
      << ", \"wave3_rejected\": " << (wave3_rejected ? "true" : "false")
      << ",\n    \"healthy_deadline_misses\": " << healthy_misses
      << ", \"healthy_shed\": " << healthy_shed
      << ",\n    \"zero_healthy_misses\": "
      << (zero_healthy_misses ? "true" : "false") << "\n  }\n}\n";
  printf("Wrote fleet report to %s\n", out_path);
  // Gate on the correctness-shaped outcomes (stall/miss isolation), not
  // on the throughput ratio — speedups are machine-dependent.
  return (zero_stalls && zero_healthy_misses) ? 0 : 1;
}

// ---- Offload policy report (S2A_BENCH_OFFLOAD=<out.json>) ----
//
// Two sections, both gated (non-zero exit on violation):
//  1. Policy-value sweep: policy vs always-local vs always-remote across
//     a loss × base-latency grid, 400 virtual ticks each, ~40% of ticks
//     scripted uncertain. "Accuracy" is the fraction of ticks answered
//     adequately — a confident tick is adequate either way; an uncertain
//     tick is adequate only when the remote model served it. The gate:
//     at >= 1 sweep point the policy must meet the accuracy floor AND
//     beat every baseline that also meets it on expected latency.
//  2. Partition stall check: a fleet sharing one contended uplink loses
//     the link mid-run. Strict members must latch SAFE_STOP within their
//     hysteresis bound, healthy members must finish NOMINAL, and no
//     member may emit a non-finite actuation, miss a deadline, or shed a
//     tick — the link is virtual-time, so a dead cloud must never
//     wall-block a loop.

struct OffloadPoint {
  core::OffloadMode mode = core::OffloadMode::kPolicy;
  double loss = 0.0;
  double base_ms = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double accuracy = 0.0;
  double energy_j = 0.0;
  long remote_served = 0;
  long remote_failures = 0;
};

OffloadPoint run_offload_point(core::OffloadMode mode, double loss,
                               double base_ms) {
  constexpr int kTicks = 400;
  constexpr double kDt = 0.05;
  ScaleModel local{2.0, 5e-3};
  ScaleModel remote{10.0};
  TimestampGate gate;
  net::LinkConfig lc;
  lc.loss_prob = loss;
  lc.base_latency_s = base_ms * 1e-3;
  const core::OffloadConfig cfg = bench_offload_config(mode);
  core::OffloadExecutor exec(local, remote, net::LinkSim(lc, {}, /*seed=*/77),
                             cfg, &gate, /*seed=*/77);
  Rng rng(5);
  long adequate = 0;
  double energy = 0.0;
  std::vector<double> lat_ms;
  lat_ms.reserve(kTicks);
  for (int i = 0; i < kTicks; ++i) {
    const double now = kDt * static_cast<double>(i);
    const core::Observation obs = offload_obs(now);
    exec.process_at(now, obs, rng);
    if (exec.last_served_remote() || gate.score(obs) <= cfg.regret_gate)
      ++adequate;
    lat_ms.push_back(exec.last_latency_s() * 1e3);
    energy += exec.energy_per_call_j();
  }
  OffloadPoint p;
  p.mode = mode;
  p.loss = loss;
  p.base_ms = base_ms;
  p.mean_latency_ms = exec.metrics().total_latency_s / kTicks * 1e3;
  p.p95_latency_ms = percentiles(lat_ms).p95_ms;
  p.accuracy = static_cast<double>(adequate) / kTicks;
  p.energy_j = energy;
  p.remote_served = exec.metrics().remote_served;
  p.remote_failures = exec.metrics().remote_failures;
  return p;
}

// One offloading fleet member for the partition stall check: sensor →
// OffloadExecutor(local, remote, link) → finite-guarded actuator, with
// an always-uncertain gate so every tick exercises the remote path.
struct OffloadMember {
  struct SineSensor : core::Sensor {
    core::Observation sense(double now, Rng& rng) override {
      core::Observation obs;
      obs.data = {std::sin(now) + rng.normal(0.0, 0.05),
                  std::cos(now) + rng.normal(0.0, 0.05)};
      obs.timestamp = now;
      obs.energy_j = 1e-3;
      return obs;
    }
  };
  struct FiniteGuard : core::Actuator {
    void actuate(const core::Action& action, Rng&) override {
      saw_nonfinite = saw_nonfinite || !util::all_finite(action.data);
    }
    bool saw_nonfinite = false;
  };
  struct AlwaysUncertain : core::UncertaintySource {
    double score(const core::Observation&) override { return 2.0; }
  };

  SineSensor sensor;
  ScaleModel local{2.0, 5e-3};
  ScaleModel remote{10.0};
  AlwaysUncertain gate;
  FiniteGuard act;
  core::PeriodicPolicy policy{1};
  std::unique_ptr<core::OffloadExecutor> exec;
  std::unique_ptr<core::SensingActionLoop> loop;

  OffloadMember(net::LinkSim link, core::OffloadConfig ocfg,
                std::uint64_t seed) {
    core::LoopConfig lcfg;
    lcfg.resilience.degrade_after = 2;
    lcfg.resilience.recover_after = 2;
    lcfg.resilience.safe_stop_after = 3;
    exec = std::make_unique<core::OffloadExecutor>(local, remote,
                                                   std::move(link), ocfg,
                                                   &gate, seed);
    loop = std::make_unique<core::SensingActionLoop>(sensor, *exec, act,
                                                     policy, lcfg);
  }
};

int run_offload_report(const char* out_path) {
  constexpr double kAccuracyFloor = 0.9;
  constexpr int kSweepTicks = 400;
  const double kLosses[] = {0.0, 0.1, 0.3};
  const double kBaseMs[] = {2.0, 10.0};
  const core::OffloadMode kModes[] = {core::OffloadMode::kPolicy,
                                      core::OffloadMode::kAlwaysLocal,
                                      core::OffloadMode::kAlwaysRemote};
  print_cpu_banner();

  std::vector<OffloadPoint> sweep;
  bool policy_wins = false;
  int winning_points = 0;
  for (double loss : kLosses) {
    for (double base_ms : kBaseMs) {
      OffloadPoint pts[3];
      for (int m = 0; m < 3; ++m) {
        pts[m] = run_offload_point(kModes[m], loss, base_ms);
        sweep.push_back(pts[m]);
      }
      const OffloadPoint& pol = pts[0];
      const OffloadPoint& loc = pts[1];
      const OffloadPoint& rem = pts[2];
      // Beating a baseline: either it misses the accuracy floor outright
      // or the policy's expected latency is lower at the same floor.
      const bool beats_local = loc.accuracy < kAccuracyFloor ||
                               pol.mean_latency_ms < loc.mean_latency_ms;
      const bool beats_remote = rem.accuracy < kAccuracyFloor ||
                                pol.mean_latency_ms < rem.mean_latency_ms;
      const bool win =
          pol.accuracy >= kAccuracyFloor && beats_local && beats_remote;
      if (win) ++winning_points;
      policy_wins = policy_wins || win;
      printf("offload  loss %.2f base %4.0fms | policy %6.2fms acc %.2f | "
             "local %6.2fms acc %.2f | remote %6.2fms acc %.2f | %s\n",
             loss, base_ms, pol.mean_latency_ms, pol.accuracy,
             loc.mean_latency_ms, loc.accuracy, rem.mean_latency_ms,
             rem.accuracy, win ? "policy wins" : "no win");
    }
  }

  // Partition stall check: every third member runs strict over a
  // permanently partitioned link; the rest see a 1 s transient outage.
  // All 24 share one uplink (static fair share).
  constexpr int kMembers = 24, kPartTicks = 100;
  const net::LinkFaultSchedule transient(
      {{net::LinkFaultKind::kPartition, 1.0, 2.0, 0.0}});
  const net::LinkFaultSchedule permanent(
      {{net::LinkFaultKind::kPartition, 1.0, 1e6, 0.0}});
  net::LinkConfig shared_lc;
  shared_lc.sharers = kMembers;

  int strict_members = 0, safe_stops = 0, nominal = 0;
  bool nonfinite = false, hysteresis_ok = true, healthy_complete = true;
  long part_misses = 0, part_shed = 0;
  bool executed_ok = true;
  {
    core::Fleet fleet(core::FleetConfig{/*batch=*/4});
    std::vector<std::unique_ptr<OffloadMember>> members;
    for (int i = 0; i < kMembers; ++i) {
      const bool strict = i % 3 == 0;
      strict_members += strict ? 1 : 0;
      core::OffloadConfig ocfg =
          bench_offload_config(core::OffloadMode::kPolicy);
      ocfg.strict_uncertain = strict;
      members.push_back(std::make_unique<OffloadMember>(
          net::LinkSim(shared_lc, strict ? permanent : transient,
                       /*seed=*/31, static_cast<std::uint64_t>(i)),
          ocfg, /*seed=*/static_cast<std::uint64_t>(31 + i)));
      core::FleetLoopConfig lc;
      lc.ticks = kPartTicks;
      lc.deadline_s = 0.25;
      fleet.add(*members.back()->loop, lc, /*seed=*/700 + i);
    }
    const core::FleetStats stats = fleet.run();
    for (int i = 0; i < kMembers; ++i) {
      const bool strict = i % 3 == 0;
      const auto& m = *members[static_cast<std::size_t>(i)];
      nonfinite = nonfinite || m.act.saw_nonfinite;
      if (strict) {
        if (m.loop->state() == core::LoopState::kSafeStop) ++safe_stops;
        // Latched near the partition onset, not at the end of the run.
        hysteresis_ok = hysteresis_ok &&
                        m.loop->metrics().safe_stop_ticks >= kPartTicks - 35;
      } else {
        if (m.loop->state() == core::LoopState::kNominal) ++nominal;
        healthy_complete =
            healthy_complete && m.loop->metrics().actions == kPartTicks;
      }
      part_misses += stats.loops[static_cast<std::size_t>(i)].deadline_misses;
      part_shed += stats.loops[static_cast<std::size_t>(i)].shed;
      executed_ok = executed_ok &&
                    stats.loops[static_cast<std::size_t>(i)].executed ==
                        stats.loops[static_cast<std::size_t>(i)].requested;
    }
  }
  const bool partition_ok =
      safe_stops == strict_members && nominal == kMembers - strict_members &&
      !nonfinite && hysteresis_ok && healthy_complete && part_misses == 0 &&
      part_shed == 0 && executed_ok;
  printf("partition %d members (%d strict) | safe_stops %d/%d nominal %d/%d | "
         "misses %ld shed %ld nonfinite %s (%s)\n",
         kMembers, strict_members, safe_stops, strict_members, nominal,
         kMembers - strict_members, part_misses, part_shed,
         nonfinite ? "yes" : "no", partition_ok ? "ok" : "FAIL");

  std::ofstream out;
  if (!open_report(out, out_path)) return 1;
  out << ",\n  \"ticks_per_point\": " << kSweepTicks
      << ",\n  \"accuracy_floor\": " << kAccuracyFloor
      << ",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const OffloadPoint& p = sweep[i];
    out << "    {\"mode\": \"" << core::offload_mode_name(p.mode)
        << "\", \"loss\": " << p.loss
        << ", \"base_latency_ms\": " << p.base_ms
        << ", \"mean_latency_ms\": " << p.mean_latency_ms
        << ", \"p95_latency_ms\": " << p.p95_latency_ms
        << ", \"accuracy\": " << p.accuracy
        << ", \"energy_j\": " << p.energy_j
        << ", \"remote_served\": " << p.remote_served
        << ", \"remote_failures\": " << p.remote_failures << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"policy_wins\": " << (policy_wins ? "true" : "false")
      << ",\n  \"winning_points\": " << winning_points
      << ",\n  \"partition\": {\n    \"members\": " << kMembers
      << ", \"strict_members\": " << strict_members
      << ", \"ticks\": " << kPartTicks
      << ",\n    \"safe_stops\": " << safe_stops
      << ", \"nominal\": " << nominal
      << ",\n    \"deadline_misses\": " << part_misses
      << ", \"shed\": " << part_shed
      << ",\n    \"nonfinite_actuations\": " << (nonfinite ? 1 : 0)
      << ",\n    \"ok\": " << (partition_ok ? "true" : "false")
      << "\n  }\n}\n";
  printf("Wrote offload report to %s\n", out_path);
  if (!policy_wins)
    fprintf(stderr,
            "offload gate: policy beat no baseline pair at the accuracy "
            "floor\n");
  if (!partition_ok)
    fprintf(stderr, "offload gate: partition stall check failed\n");
  return (policy_wins && partition_ok) ? 0 : 1;
}

// ---- Fed-scale report (S2A_BENCH_FED_SCALE=<out.json>) ----
//
// Sweeps the hierarchical federated engine over {1k, 10k, 100k}
// simulated clients (S2A_FED_SCALE_CLIENTS=<n> narrows the sweep to a
// single point — CI uploads the 1k point this way). Per point it times
// one full-participation dense round and one sampled + top-k compressed
// round, then asserts the tentpole invariant: peak aggregator memory
// (chunk workspaces + per-level fixed-point accumulators, HierStats::
// peak_accumulator_bytes) must not exceed the smallest point's — the
// streaming reduction is O(levels + threads) model buffers, never
// O(clients). A violation exits non-zero after the JSON is written.

struct FedScalePoint {
  int clients = 0;
  int reps = 0;
  Percentiles dense_ms, sampled_ms;
  federated::HierResult dense, sampled;
};

int run_fed_scale_report(const char* out_path) {
  print_cpu_banner();
  std::vector<int> points = {1000, 10000, 100000};
  if (const char* env = std::getenv("S2A_FED_SCALE_CLIENTS")) {
    const int n = std::atoi(env);
    if (n < 1) {
      fprintf(stderr, "S2A_FED_SCALE_CLIENTS must be a positive integer\n");
      return 1;
    }
    points = {n};
  }

  std::vector<FedScalePoint> results;
  for (const int clients : points) {
    FedScalePoint pt;
    pt.clients = clients;
    // The dense round is O(clients) local trainings; keep the wall time
    // of the 100k point sane by shrinking reps as the sweep grows.
    pt.reps = clients <= 1000 ? 10 : clients <= 10000 ? 4 : 2;
    const FedScaleFixture fx = FedScaleFixture::make(clients);
    const federated::HierConfig sampled = fx.sampled_cfg();
    pt.dense_ms =
        percentiles(time_reps(pt.reps, [&] { pt.dense = fx.run(fx.cfg); }));
    pt.sampled_ms =
        percentiles(time_reps(pt.reps, [&] { pt.sampled = fx.run(sampled); }));
    printf(
        "%7d clients (%4d edges, %3d regions) | dense p50 %9.2f ms peak %8zu B"
        " | sampled p50 %8.2f ms peak %8zu B cohort %5ld ratio %.2fx\n",
        clients, pt.dense.hier.edges, pt.dense.hier.regions,
        pt.dense_ms.p50_ms, pt.dense.hier.peak_accumulator_bytes,
        pt.sampled_ms.p50_ms, pt.sampled.hier.peak_accumulator_bytes,
        pt.sampled.hier.sampled_client_rounds,
        pt.sampled.hier.compression_ratio());
    results.push_back(std::move(pt));
  }

  // The hard scale assertion: the streaming reduction's memory bound is
  // set by tree fanout and thread count, so a hundredfold client-count
  // increase must leave the high-water mark exactly where the smallest
  // point put it.
  int failures = 0;
  const auto& base = results.front();
  for (const FedScalePoint& pt : results) {
    for (const bool dense : {true, false}) {
      const std::size_t peak = (dense ? pt.dense : pt.sampled)
                                   .hier.peak_accumulator_bytes;
      const std::size_t limit = (dense ? base.dense : base.sampled)
                                    .hier.peak_accumulator_bytes;
      if (peak > limit) {
        fprintf(stderr,
                "fed-scale gate: %s peak aggregator memory grew with client "
                "count (%zu B at %d clients > %zu B at %d clients)\n",
                dense ? "dense" : "sampled", peak, pt.clients, limit,
                base.clients);
        ++failures;
      }
    }
  }

  std::ofstream out;
  if (!open_report(out, out_path)) return 1;
  out << ",\n  \"sampled_config\": {\"sample_fraction\": 0.05, "
         "\"topk_fraction\": 0.25, \"error_feedback\": true, "
         "\"bill_uplink\": true},\n  \"peak_memory_flat\": "
      << (failures == 0 ? "true" : "false") << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FedScalePoint& pt = results[i];
    const auto emit = [&](const char* key, const federated::HierResult& r,
                          const Percentiles& p, bool last) {
      out << "     \"" << key << "\": {\"p50_ms\": " << p.p50_ms
          << ", \"p95_ms\": " << p.p95_ms << ", \"peak_accumulator_bytes\": "
          << r.hier.peak_accumulator_bytes << ",\n       \"bytes_on_wire\": "
          << r.hier.bytes_on_wire << ", \"dense_bytes\": " << r.hier.dense_bytes
          << ", \"compression_ratio\": " << r.hier.compression_ratio()
          << ",\n       \"sampled_client_rounds\": "
          << r.hier.sampled_client_rounds << ", \"final_accuracy\": "
          << r.fl.final_accuracy << "}" << (last ? "" : ",") << "\n";
    };
    out << "    {\"clients\": " << pt.clients << ", \"edges\": "
        << pt.dense.hier.edges << ", \"regions\": " << pt.dense.hier.regions
        << ", \"reps\": " << pt.reps << ",\n";
    emit("dense", pt.dense, pt.dense_ms, false);
    emit("sampled", pt.sampled, pt.sampled_ms, true);
    out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  printf("Wrote fed-scale report to %s\n", out_path);
  if (failures > 0) {
    fprintf(stderr, "fed-scale gate: %d peak-memory violation(s)\n", failures);
    return 1;
  }
  printf("fed-scale gate: peak aggregator memory flat across the sweep\n");
  return 0;
}

// ---- Perf regression gate (S2A_BENCH_BUDGETS=<budgets.json>) ----
//
// Re-times every HotPathFixtures workload single-threaded and fails if
// any p95 exceeds its committed budget by more than the file's tolerance
// (default 1.25: a >25% p95 regression). It also fails, before timing
// anything, on a malformed or duplicate budget and on a budget or
// workload without its counterpart. scripts/check.sh runs this as
// its `perf` stage; S2A_SKIP_PERF=1 skips it there (e.g. on noisy
// shared runners).

struct Budget {
  std::string name;
  double p95_ms = 0.0;
};

// Purpose-built scanner for the committed BENCH_budgets.json — the file
// is machine-written with one "name"/"p95_ms" pair per budget entry, so
// a full JSON parser would be dead weight here. Returns why the text is
// malformed, or an empty string when it is not.
std::string parse_budgets(const std::string& text, double* tolerance,
                          std::vector<Budget>* budgets) {
  // The number after the next ':', accepted only when strtod consumed a
  // positive finite value (it turns garbage into 0).
  const auto number_after = [&](std::size_t pos, double* out) {
    pos = text.find(':', pos);
    if (pos == std::string::npos) return false;
    const char* begin = text.c_str() + pos + 1;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    return end != begin && std::isfinite(*out) && *out > 0.0;
  };
  const std::size_t tol_pos = text.find("\"tolerance\"");
  if (tol_pos == std::string::npos || !number_after(tol_pos, tolerance) ||
      *tolerance < 1.0)
    return "\"tolerance\" is not a number >= 1";
  std::size_t pos = text.find("\"budgets\"");
  if (pos == std::string::npos) return "no \"budgets\" list";
  while ((pos = text.find("\"name\"", pos)) != std::string::npos) {
    const std::size_t q0 = text.find('"', text.find(':', pos) + 1);
    const std::size_t q1 = text.find('"', q0 + 1);
    const std::size_t p95_pos = text.find("\"p95_ms\"", q1);
    if (q0 == std::string::npos || q1 == std::string::npos ||
        p95_pos == std::string::npos)
      return "a budget entry has no \"name\" or no \"p95_ms\"";
    Budget b;
    b.name = text.substr(q0 + 1, q1 - q0 - 1);
    if (!number_after(p95_pos, &b.p95_ms))
      return "the p95_ms of '" + b.name + "' is not a positive finite number";
    for (const Budget& seen : *budgets)
      if (seen.name == b.name) return "'" + b.name + "' is budgeted twice";
    budgets->push_back(std::move(b));
    pos = p95_pos;
  }
  return budgets->empty() ? "no budget entries" : "";
}

int run_budget_gate(const char* budgets_path) {
  std::ifstream in(budgets_path);
  if (!in) {
    fprintf(stderr, "cannot read budgets file %s\n", budgets_path);
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  double tolerance = 0.0;
  std::vector<Budget> budgets;
  const std::string malformed = parse_budgets(text, &tolerance, &budgets);
  if (!malformed.empty()) {
    fprintf(stderr, "malformed budgets file %s: %s\n", budgets_path,
            malformed.c_str());
    return 1;
  }

  HotPathFixtures fx = HotPathFixtures::make();
  const std::vector<Workload> workloads = fx.workloads();
  const auto find_workload = [&](const std::string& name) {
    return std::find_if(workloads.begin(), workloads.end(),
                        [&](const Workload& w) { return name == w.name; });
  };
  // The budgets and workloads() are one-to-one: a budget without a
  // workload is a typo, and a workload without a budget is timed by
  // nothing.
  int unmatched = 0;
  for (const Budget& b : budgets) {
    if (find_workload(b.name) == workloads.end()) {
      fprintf(stderr, "budget names unknown workload '%s'\n", b.name.c_str());
      ++unmatched;
    }
  }
  for (const Workload& w : workloads) {
    if (std::none_of(budgets.begin(), budgets.end(),
                     [&](const Budget& b) { return b.name == w.name; })) {
      fprintf(stderr, "workload '%s' has no budget in %s\n", w.name,
              budgets_path);
      ++unmatched;
    }
  }
  if (unmatched > 0) return 1;

  util::ScopedGlobalThreads threads(1);
  print_cpu_banner();
  int failures = 0;
  for (const Budget& b : budgets) {
    const Workload& wl = *find_workload(b.name);
    const Percentiles p = percentiles(time_reps(wl.reps, wl.fn));
    const double limit = b.p95_ms * tolerance;
    const bool ok = p.p95_ms <= limit;
    printf("%-22s p95 %8.3f ms  budget %8.3f ms x%.2f = %8.3f ms  %s\n",
           b.name.c_str(), p.p95_ms, b.p95_ms, tolerance, limit,
           ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }
  if (failures > 0) {
    fprintf(stderr, "perf gate: %d budget(s) exceeded (>%.0f%% p95 regression)\n",
            failures, (tolerance - 1.0) * 100.0);
    return 1;
  }
  printf("perf gate: all budgets within tolerance\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Report/gate modes replace the google-benchmark run entirely so every
  // configuration executes an identical call sequence.
  if (const char* out = std::getenv("S2A_BENCH_FLEET"))
    return run_fleet_report(out);
  if (const char* out = std::getenv("S2A_BENCH_OFFLOAD"))
    return run_offload_report(out);
  if (const char* out = std::getenv("S2A_BENCH_FED_SCALE"))
    return run_fed_scale_report(out);
  if (const char* budgets = std::getenv("S2A_BENCH_BUDGETS"))
    return run_budget_gate(budgets);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // S2A_TRACE=<path> traces the instrumented benchmark bodies (voxelize,
  // loop ticks, ...) and writes a Chrome trace on exit.
  s2a::obs::init_from_env();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (s2a::obs::dump_trace())
    printf("Wrote Chrome trace to %s\n", s2a::obs::trace_path().c_str());
  return 0;
}
