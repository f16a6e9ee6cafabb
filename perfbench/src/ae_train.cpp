// ae_train: R-MAE pretraining of the occupancy autoencoder at one
// thread. One op draws a fresh radial voxel mask over a pre-voxelized
// full scan from a seeded scene pool and takes one train_step (forward,
// BCE, backward, Adam) toward the full scan.
//
// The write path of the conv stack loop_tick reads. Quality is read at
// a fixed step count, so it does not depend on how fast the host is:
// train_loss is the mean BCE of steps [kQualityStep - 100, kQualityStep),
// `quality` its inverse, and recon_iou the reconstruction IoU of active
// scans of fresh scenes at that step.
// Check: every loss is finite.
#include <cmath>
#include <memory>

#include "lidar/energy.hpp"
#include "nn/optimizer.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr int kPool = 96;  // training scans
constexpr long kQualityStep = 1000;
constexpr long kLossWindow = 100;

struct Scan {
  lidar::VoxelGrid grid;
  nn::Tensor target;
};

struct Setup {
  std::unique_ptr<World> world;
  std::vector<Scan> pool;
};

std::vector<Scan> make_scans(const World& w, int n, Rng& rng) {
  std::vector<Scan> out;
  for (int i = 0; i < n; ++i) {
    const sim::Scene scene = sim::generate_scene(w.scenes(), rng);
    Scan s;
    s.grid = lidar::VoxelGrid::from_cloud(w.lidar().full_scan(scene, rng),
                                          w.grid());
    s.target = s.grid.to_tensor();
    out.push_back(std::move(s));
  }
  return out;
}

enum Col { kMask, kForward, kBackwardOpt, kUnattributed, kCols };

}  // namespace

Result run_ae_train(const Options& o) {
  util::set_global_threads(1);
  Result r;
  Setup su = repeated_setup(r, 3, [&] {
    Setup s;
    s.world = std::make_unique<World>(0.0, o.seed);
    Rng rng(kModelSeed);  // fixed scans; the seed draws masks and order
    s.pool = make_scans(*s.world, kPool, rng);
    return s;
  });
  const World& world = *su.world;
  lidar::AutoencoderConfig ac;
  ac.grid = world.grid();

  {  // Untimed warm-up on a throwaway model.
    Rng wr(o.seed + 2);
    lidar::OccupancyAutoencoder warm(ac, wr);
    nn::Adam opt(3e-3);
    opt.attach(warm.params(), warm.grads());
    for (int i = 0; i < 30; ++i) {
      const Scan& s = su.pool[static_cast<std::size_t>(i) % su.pool.size()];
      warm.train_step(lidar::Masker::apply_mask(s.grid, world.masker().voxel_mask(s.grid, wr)),
                      s.target, opt);
    }
  }

  Rng init_rng(kModelSeed);
  lidar::OccupancyAutoencoder ae(ac, init_rng);
  nn::Adam opt(3e-3);
  opt.attach(ae.params(), ae.grads());
  Rng mask_rng(o.seed + 4);
  std::vector<std::size_t> order(su.pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  mask_rng.shuffle(order);
  long step = 0, nonfinite = 0;
  double loss_window_sum = 0.0, quality_iou = 0.0;

  SpanLog spans;
  LayerRows rows({"lidar.mask_us", "nn.forward_us", "nn.backward_opt_us",
                  "unattributed_us"});
  SpanLog* log = nullptr;

  auto op = [&](bool counted) {
    const Scan& s = su.pool[order[static_cast<std::size_t>(step) % order.size()]];
    double mask_s = 0.0, step_s = 0.0;
    SpanLog::set_op(step);
    const double t0 = now_s();
    nn::Tensor masked;
    {
      Timed t(log, &mask_s, "lidar.mask");
      masked = lidar::Masker::apply_mask(s.grid, world.masker().voxel_mask(s.grid, mask_rng));
    }
    double loss;
    {
      Timed t(log, &step_s, "nn.train_step");
      loss = ae.train_step(masked, s.target, opt);
    }
    const double t1 = now_s();
    ++step;
    if (!std::isfinite(loss)) ++nonfinite;
    if (counted) {
      ++r.attempted;
      if (!std::isfinite(loss)) count_failure(r, "nonfinite_loss");
    }
    if (step > kQualityStep - kLossWindow && step <= kQualityStep) loss_window_sum += loss;
    if (log != nullptr) {
      // The same input through the inference forward alone, outside the
      // op: the forward share of train_step.
      double fwd_s = 0.0;
      {
        Timed t(log, &fwd_s, "nn.forward");
        ae.reconstruct(masked);
      }
      std::vector<double> row(kCols, 0.0);
      row[kMask] = mask_s;
      row[kForward] = fwd_s;
      row[kBackwardOpt] = step_s - fwd_s;
      row[kUnattributed] = (t1 - t0) - mask_s - step_s;
      rows.add(row, (t1 - t0) * 1e3);
      spans.add("op", 0, t0, t1 - t0);
    }
    if (step == kQualityStep)  // outside the timed region
      quality_iou = reconstruction_iou(ae, world, 64, kModelSeed + 1);
    return (t1 - t0) * 1e3;
  };

  const Segments seg = Segments::of(o);
  auto quiet = std::make_unique<QuietCpu>();
  {
    Budget b{seg.untraced_s, seg.min_ops};
    while (b.more(static_cast<long>(r.op_ms.size()))) {
      quiet->between_ops();
      r.op_ms.push_back(op(true));
      r.op_end_s.push_back(now_s() - b.start_s);
    }
    r.wall_s = now_s() - b.start_s;
  }
  if (o.trace) {
    log = &spans;
    Budget b{seg.traced_s, seg.min_ops};
    while (b.more(static_cast<long>(r.traced_op_ms.size()))) {
      quiet->between_ops();
      r.traced_op_ms.push_back(op(true));
    }
    log = nullptr;
  }
  r.info.emplace_back("cpu_moves", std::to_string(quiet->moves()));
  quiet.reset();
  r.peak_rss_mb = peak_rss_mb();
  while (step < kQualityStep) op(false);  // slow hosts: finish the quality window

  // Modeled compute: forward + backward ≈ 3 forwards of MACs.
  r.energy_mj_per_op =
      3.0 * 2.0 * static_cast<double>(ae.macs_per_scan()) * lidar::kJoulesPerFlop * 1e3;
  const double train_loss = loss_window_sum / kLossWindow;
  r.quality = 1.0 / train_loss;
  r.named_quality = {{"train_loss", train_loss}, {"recon_iou", quality_iou}};
  r.checks.push_back({"ae_train.losses_finite", nonfinite == 0,
                      std::to_string(nonfinite) + " non-finite of " +
                          std::to_string(step) + " steps"});
  if (o.trace) {
    const auto means = rows.band_means();
    for (std::size_t c = 0; c < rows.width(); ++c) {
      r.layers.emplace_back(rows.column(c), means[c] * 1e6);
      r.self_layers.emplace_back(rows.column(c));
    }
    r.layers.emplace_back("nn.train_step_us",
                          (means[kForward] + means[kBackwardOpt]) * 1e6);
    spans.write_chrome_trace(o.out_dir + "/ae_train.trace.json");
  }
  r.info.emplace_back("pool_threads", "1");
  return r;
}

}  // namespace perfbench
