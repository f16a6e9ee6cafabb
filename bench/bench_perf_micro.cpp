// Google-benchmark microbenches of the hot paths: LiDAR ray casting,
// voxelization, dense forward and MLP forward+backward passes, LIF
// stepping, and the autoencoder pretrain step. These bound the per-tick
// budget of a real-time sensing-to-action loop on this substrate.
//
// The BM_Obs* series measures the observability layer itself — the cost
// of a TraceScope / histogram record when enabled, and the residual cost
// of instrumentation when disabled (the <2% overhead budget quoted in
// docs/OBSERVABILITY.md); BM_LoopTickObsOff/On time a loop tick of
// trivial components with it off and on. Run with S2A_TRACE=<path> to
// also write a Chrome trace of the instrumented benchmark bodies.
// With S2A_BENCH_BUDGETS=<budgets.json> it becomes the perf regression
// gate: re-times every HotPathFixtures workload and exits non-zero if any
// p95 exceeds its recorded budget by more than the file's tolerance. The
// gate prints the detected CPU features, the SIMD kernel the dispatcher
// selected, the host's core count and the pool size it times at.
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

#include "core/loop.hpp"
#include "core/offload.hpp"
#include "core/policies.hpp"
#include "federated/fedavg.hpp"
#include "federated/hardware.hpp"
#include "federated/hierarchy.hpp"
#include "lidar/autoencoder.hpp"
#include "lidar/detector.hpp"
#include "lidar/masking.hpp"
#include "lidar/voxel_grid.hpp"
#include "monitor/starnet.hpp"
#include "neuro/spiking.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "nn/sequential.hpp"
#include "util/cpu_features.hpp"
#include "util/scratch_arena.hpp"
#include "util/stats.hpp"
#include "obs/obs.hpp"
#include "sim/dataset.hpp"
#include "sim/lidar_sim.hpp"
#include "sim/scene.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace s2a;

// One-line hardware banner the budget gate prints before timing: the
// detected CPU features, the selected gemm kernel, the host's real core
// count and the pool size the workloads run at, so a gate log read on
// another host says what it measured.
void print_cpu_banner() {
  printf("cpu features: %s | gemm kernel: %s | hardware threads: %u | "
         "pool threads: %d\n",
         util::cpu_feature_string().c_str(), nn::gemm_kernel_name(),
         std::thread::hardware_concurrency(), util::global_pool().size());
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

// ---- Timing helpers for the budget gate ----
//
// The gate times fixed call sequences with steady_clock; google-benchmark
// stays out of the way so every run replays the same calls.

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

// core.offload_tick: one executor on a healthy link, driven for a block
// of virtual ticks per rep. The models scale the observation (compute
// cost is *modeled* via OffloadConfig, not burned) and the gate is
// scripted off the observation timestamp — ~40% of ticks uncertain, no
// RNG — so every rep replays the same decision sequence. All waiting is
// virtual time, so the workload measures the executor's own bookkeeping
// (gate, cost model, breaker, link arithmetic), which is what the budget
// bounds.
struct OffloadTickFixture {
  struct ScaleModel : core::Processor {
    double scale;
    double energy_j;
    ScaleModel(double s, double e) : scale(s), energy_j(e) {}
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

  static core::OffloadConfig config() {
    core::OffloadConfig cfg;
    cfg.mode = core::OffloadMode::kPolicy;
    cfg.deadline_s = 0.05;
    cfg.local_compute_s = 4e-3;
    cfg.remote_compute_s = 1e-3;
    cfg.max_retries = 2;
    cfg.tx_energy_j = 2e-3;
    return cfg;
  }

  ScaleModel local{2.0, 5e-3};
  ScaleModel remote{10.0, 0.0};
  TimestampGate gate;
  core::OffloadExecutor exec;
  Rng rng{5};
  long tick = 0;

  OffloadTickFixture()
      : exec(local, remote, net::LinkSim(net::LinkConfig{}, {}, /*seed=*/77),
             config(), &gate, /*seed=*/77) {}

  void run_block() {
    for (int i = 0; i < 256; ++i) {
      const double now = 0.05 * static_cast<double>(tick++);
      core::Observation obs;
      obs.data = {std::sin(now), std::cos(now), 0.5};
      obs.timestamp = now;
      benchmark::DoNotOptimize(exec.process_at(now, obs, rng));
    }
  }
};

// fed.hier_round_1k: one sampled + compressed hierarchical round over
// 1000 clients. A tiny MLP (12 features, 16 hidden, 4 classes — 276
// params) over synthetic cyclically-assigned 4-sample shards
// (dirichlet_partition degenerates into empty shards past a few hundred
// clients). Local training is deliberately trivial so the round cost is
// dominated by the engine's own sampling / streaming reduction /
// accounting. The configuration is the constrained uplink: 5% uniform
// cohort, top-25% deltas with error feedback, updates billed through
// the link model.
struct FedHierFixture {
  sim::ClassificationDataset train, test;
  std::vector<std::vector<int>> shards;
  std::vector<federated::HardwareProfile> fleet;
  federated::HierConfig cfg;

  FedHierFixture() {
    constexpr int kClients = 1000;
    Rng rng(21);
    train = sim::make_gaussian_classes(240, 12, 4, 3.0, rng);
    test = sim::make_gaussian_classes(120, 12, 4, 3.0, rng);
    const int n = static_cast<int>(train.labels.size());
    shards.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      auto& shard = shards[static_cast<std::size_t>(c)];
      for (int j = 0; j < 4; ++j) shard.push_back((c * 7 + j * 61 + 3) % n);
    }
    fleet = federated::make_heterogeneous_fleet(kClients, rng);
    cfg.fl.rounds = 1;
    cfg.fl.local_epochs = 1;
    cfg.fl.batch = 4;
    cfg.fl.hidden = 16;
    cfg.clients_per_edge = 64;
    cfg.edges_per_region = 32;
    cfg.sample_mode = federated::SampleMode::kUniform;
    cfg.sample_fraction = 0.05;
    cfg.topk_fraction = 0.25;
    cfg.error_feedback = true;
    cfg.bill_uplink = true;
  }

  federated::HierResult run() const {
    Rng round_rng(31);
    return federated::run_federated_hier(federated::FlStrategy::kStaticFl,
                                         train, test, shards, fleet, cfg,
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
  std::unique_ptr<lidar::OccupancyAutoencoder> ae;
  nn::Tensor bev;
  sim::ClassificationDataset train;
  sim::ClassificationDataset test;
  std::vector<std::vector<int>> shards;
  std::vector<federated::HardwareProfile> fleet;
  federated::FlConfig fc;
  // Training fixtures: a sparse occupancy target with a ~10% sensed
  // subset as input (the R-MAE masking regime), an optimizer attached to
  // `ae`, and a global MLP for one client update.
  nn::Tensor ae_masked, ae_target;
  nn::Adam ae_opt{1e-3};
  federated::MlpParams fed_global;
  std::vector<bool> fed_active;
  // Raw-GEMM fixture for nn.gemm_conv2 (the conv2 product shape,
  // 32x144x144).
  std::vector<double> gemm_a, gemm_b, gemm_c;
  util::ScratchArena gemm_arena;
  FedHierFixture fed_hier;
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
  // The constructor calls detect(background) twice, which adopts it as
  // the snapshot's reference input, so the timed calls recompute only
  // the sites the sensed voxels reach.
  std::unique_ptr<lidar::BevDetector> det_loop;
  nn::Tensor det_input;
  // lidar.ae_reconstruct_sensed_batch: one more float twin of `ae` on a
  // batch shaped like the fleet's (16 members sharing one autoencoder):
  // the sensed grids of 16 generated scenes, one R-MAE selective scan
  // each. The timer's warm-up calls build its snapshot for batches of 16.
  std::unique_ptr<lidar::OccupancyAutoencoder> ae_fleet;
  nn::Tensor fleet_batch;

  HotPathFixtures() {
    // lidar.voxelize: a 360x32 scan (11520 returns) is well above the
    // kMinParallelReturns threshold, so the sharded path actually
    // engages.
    sim::LidarConfig lc;
    lc.azimuth_steps = 360;
    lc.elevation_steps = 32;
    sim::LidarSimulator lidar(lc);
    Rng rng(7);
    const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
    pc = lidar.full_scan(scene, rng);

    // lidar.ae_reconstruct: default 48x48 grid keeps the conv/deconv
    // MACs above the inline threshold.
    Rng ae_int8_rng = rng;
    Rng ae_sensed_rng = rng;
    Rng ae_fleet_rng = rng;
    ae = std::make_unique<lidar::OccupancyAutoencoder>(ac, rng);
    bev = nn::Tensor::randn({1, ac.grid.nz, ac.grid.ny, ac.grid.nx}, rng);

    // fed.round: one round over five heterogeneous clients; a fresh Rng
    // with a fixed seed per rep keeps every rep (and both thread
    // counts) on the same arithmetic.
    Rng fed_rng(8);
    train = sim::make_gaussian_classes(300, 16, 10, 3.0, fed_rng);
    test = sim::make_gaussian_classes(150, 16, 10, 3.0, fed_rng);
    shards = sim::dirichlet_partition(train.labels, 5, 10, 0.5, fed_rng);
    fleet = federated::make_heterogeneous_fleet(5, fed_rng);
    fc.rounds = 1;

    // lidar.ae_pretrain_step: sparse occupancy target (~6% occupied),
    // masked input keeping ~10% of sensed voxels.
    ae_target = nn::Tensor({1, ac.grid.nz, ac.grid.ny, ac.grid.nx});
    ae_masked = ae_target;
    for (std::size_t i = 0; i < ae_target.numel(); ++i) {
      const double occ = rng.uniform(0.0, 1.0) < 0.06 ? 1.0 : 0.0;
      ae_target[i] = occ;
      ae_masked[i] = rng.uniform(0.0, 1.0) < 0.1 ? occ : 0.0;
    }
    ae_opt.attach(ae->params(), ae->grads());

    // fed.client_update: one client's local_train against the initial
    // global model (copied per rep so every rep trains the same weights).
    fed_global = federated::init_mlp(train.feature_dim, fc.hidden,
                                     train.num_classes, rng);
    fed_active.assign(static_cast<std::size_t>(fc.hidden), true);

    // nn.gemm_conv2: the conv2 GEMM shape timed through the public
    // nn::gemm entry (pack + blocked kernel), exactly as the budget gate
    // replays it.
    gemm_a.resize(32 * 144);
    gemm_b.resize(144 * 144);
    gemm_c.resize(32 * 144);
    for (auto& v : gemm_a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : gemm_b) v = rng.uniform(-1.0, 1.0);

    ae_int8 = std::make_unique<lidar::OccupancyAutoencoder>(ac, ae_int8_rng);
    ae_int8->quantize();

    ae_sensed =
        std::make_unique<lidar::OccupancyAutoencoder>(ac, ae_sensed_rng);
    const sim::LidarSimulator loop_lidar{sim::LidarConfig{}};
    const lidar::RadialMasker masker;
    for (int occupied = 0; occupied < 4 || occupied > 8;) {
      sensed = lidar::VoxelGrid::from_cloud(
                   loop_lidar.selective_scan(
                       scene, masker.beam_plan(loop_lidar.config(), rng), rng),
                   ac.grid)
                   .to_tensor();
      occupied = static_cast<int>(
          std::count_if(sensed.data(), sensed.data() + sensed.numel(),
                        [](double v) { return v != 0.0; }));
    }

    Rng det_rng(12);
    det_loop = std::make_unique<lidar::BevDetector>(lidar::DetectorConfig{},
                                                    det_rng);
    const nn::Tensor background = ae_sensed->reconstruct(
        nn::Tensor({1, ac.grid.nz, ac.grid.ny, ac.grid.nx}));
    det_input = background;
    for (std::size_t i = 0; i < det_input.numel(); ++i)
      det_input[i] = std::max(det_input[i], sensed[i]);
    det_loop->detect(background);
    det_loop->detect(background);

    ae_fleet = std::make_unique<lidar::OccupancyAutoencoder>(ac, ae_fleet_rng);
    Rng fleet_rng(14);
    fleet_batch = nn::Tensor({16, ac.grid.nz, ac.grid.ny, ac.grid.nx});
    const std::size_t grid_size = fleet_batch.numel() / 16;
    for (int i = 0; i < 16; ++i) {
      const sim::Scene member_scene =
          sim::generate_scene(sim::SceneConfig{}, fleet_rng);
      const nn::Tensor grid =
          lidar::VoxelGrid::from_cloud(
              loop_lidar.selective_scan(
                  member_scene,
                  masker.beam_plan(loop_lidar.config(), fleet_rng), fleet_rng),
              ac.grid)
              .to_tensor();
      std::copy_n(grid.data(), grid_size, fleet_batch.data() + i * grid_size);
    }

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
    starnet = std::make_unique<monitor::StarNet>(sc, star_rng);
    starnet->fit(clean, star_rng);
    starnet_embedding = clean.front();
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
                   benchmark::DoNotOptimize(ae->reconstruct(bev));
                 }});
    w.push_back({"fed.round", 15, [this] {
                   Rng round_rng(9);
                   benchmark::DoNotOptimize(federated::run_federated(
                       federated::FlStrategy::kStaticFl, train, test, shards,
                       fleet, fc, round_rng));
                 }});
    w.push_back({"lidar.ae_pretrain_step", 25, [this] {
                   benchmark::DoNotOptimize(
                       ae->train_step(ae_masked, ae_target, ae_opt));
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
    w.push_back({"lidar.ae_reconstruct_sensed_batch", 300, [this] {
                   benchmark::DoNotOptimize(ae_fleet->reconstruct(fleet_batch));
                 }});
    w.push_back({"lidar.detect_loop", 1000, [this] {
                   benchmark::DoNotOptimize(det_loop->detect(det_input));
                 }});
    w.push_back({"core.offload_tick", 60,
                 [fx = std::make_shared<OffloadTickFixture>()] {
                   fx->run_block();
                 }});
    w.push_back({"fed.hier_round_1k", 300, [this] {
                   benchmark::DoNotOptimize(fed_hier.run());
                 }});
    w.push_back({"monitor.starnet_score", 1000, [this] {
                   Rng score_rng(17);
                   benchmark::DoNotOptimize(
                       starnet->score(starnet_embedding, score_rng));
                 }});
    w.push_back({"nn.gemm_conv2", 400, [this] {
                   std::fill(gemm_c.begin(), gemm_c.end(), 0.0);
                   nn::gemm(32, 144, 144, gemm_a.data(), 144, gemm_b.data(),
                            144, gemm_c.data(), 144, gemm_arena);
                   benchmark::DoNotOptimize(gemm_c.data());
                   gemm_arena.reset();
                 }});
    return w;
  }
};

// Full autoencoder pretrain step (forward + weighted BCE + backward +
// Adam). Under S2A_TRACE this is what puts the nn.conv_backward /
// nn.deconv_backward spans on the timeline.
void BM_AePretrainStep(benchmark::State& state) {
  static HotPathFixtures& fx = *new HotPathFixtures();
  for (auto _ : state)
    benchmark::DoNotOptimize(fx.ae->train_step(fx.ae_masked, fx.ae_target,
                                               fx.ae_opt));
}
BENCHMARK(BM_AePretrainStep);

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

  HotPathFixtures fx;
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
    const double p95_ms = percentile(time_reps(wl.reps, wl.fn), 95.0);
    const double limit = b.p95_ms * tolerance;
    const bool ok = p95_ms <= limit;
    printf("%-22s p95 %8.3f ms  budget %8.3f ms x%.2f = %8.3f ms  %s\n",
           b.name.c_str(), p95_ms, b.p95_ms, tolerance, limit,
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
