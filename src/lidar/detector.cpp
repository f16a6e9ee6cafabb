#include "lidar/detector.hpp"

#include <algorithm>
#include <functional>
#include <cmath>
#include <limits>
#include <utility>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace s2a::lidar {

namespace {
constexpr int kNumClasses = sim::kNumObjectClasses;

inline std::size_t idx_chw(int c, int y, int x, int h, int w) {
  return (static_cast<std::size_t>(c) * h + y) * w + x;
}

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

BevDetector::BevDetector(DetectorConfig config, Rng& rng)
    : cfg_(config), embed_({}), detect_({}) {
  S2A_CHECK(cfg_.grid.nx % 4 == 0 && cfg_.grid.ny % 4 == 0);
  h2_ = cfg_.grid.ny / 2;
  w2_ = cfg_.grid.nx / 2;

  conv1_ = &backbone_.emplace<nn::Conv2D>(cfg_.grid.nz, cfg_.c1, 3, 2, 1, rng);
  backbone_.emplace<nn::ReLU>();
  conv2_ = &backbone_.emplace<nn::Conv2D>(cfg_.c1, cfg_.c2, 3, 2, 1, rng);
  backbone_.emplace<nn::ReLU>();
  backbone_.emplace<nn::ConvTranspose2D>(cfg_.c2, cfg_.c1, 4, 2, 1, rng);
  backbone_.emplace<nn::ReLU>();

  cls_head_.emplace<nn::Conv2D>(cfg_.c1, kNumClasses, 1, 1, 0, rng);
  off_head_.emplace<nn::Conv2D>(cfg_.c1, 2, 1, 1, 0, rng);
  embed_ = nn::ActiveSiteStack({&backbone_.layer(0), &backbone_.layer(1),
                                &backbone_.layer(2), &backbone_.layer(3)});
  std::vector<nn::Layer*> backbone;
  for (std::size_t i = 0; i < backbone_.size(); ++i)
    backbone.push_back(&backbone_.layer(i));
  detect_ = nn::ActiveSiteStack(std::move(backbone),
                                {&cls_head_.layer(0), &off_head_.layer(0)},
                                nn::Reference::kRepeated);
}

void BevDetector::init_from_pretrained(OccupancyAutoencoder& ae) {
  // Copy, then renormalize each filter bank to the He-init scale: the
  // autoencoder's weighted BCE inflates weight norms, and ReLU stacks are
  // (per-layer) scale-equivariant, so rescaling preserves the pretrained
  // feature directions while keeping fine-tuning dynamics comparable to a
  // scratch initialization.
  auto copy = [](nn::Conv2D& dst, nn::Conv2D& src) {
    auto dp = dst.params();
    auto sp = src.params();
    S2A_CHECK(dp.size() == sp.size());
    for (std::size_t i = 0; i < dp.size(); ++i) {
      S2A_CHECK_MSG(dp[i]->same_shape(*sp[i]),
                    "pretrained weight shape mismatch — detector and "
                    "autoencoder architectures must agree");
      *dp[i] = *sp[i];
    }
    nn::Tensor& w = *dp[0];
    double mean = 0.0;
    for (std::size_t i = 0; i < w.numel(); ++i) mean += w[i];
    mean /= static_cast<double>(w.numel());
    double var = 0.0;
    for (std::size_t i = 0; i < w.numel(); ++i)
      var += (w[i] - mean) * (w[i] - mean);
    var /= static_cast<double>(w.numel());
    const double target = std::sqrt(
        2.0 / (dst.in_channels() * dst.kernel() * dst.kernel()));
    const double scale = target / std::max(1e-9, std::sqrt(var));
    for (std::size_t i = 0; i < w.numel(); ++i) w[i] *= scale;
    dp[1]->fill(0.0);  // biases restart at zero
  };
  copy(*conv1_, ae.encoder_conv1());
  copy(*conv2_, ae.encoder_conv2());
}

BevDetector::Forward BevDetector::forward(const nn::Tensor& grid) {
  last_neck_ = backbone_.forward(grid);
  Forward f;
  f.cls_logits = cls_head_.forward(last_neck_);
  f.offsets = off_head_.forward(last_neck_);
  return f;
}

void BevDetector::backward(const nn::Tensor& dcls, const nn::Tensor& doff) {
  nn::Tensor dneck = cls_head_.backward(dcls);
  dneck.add_scaled(off_head_.backward(doff), 1.0);
  backbone_.backward(dneck);
}

Vec3 BevDetector::cell_center(int cx, int cy) const {
  const double cell_w = 2.0 * cfg_.grid.extent / w2_;
  const double cell_h = 2.0 * cfg_.grid.extent / h2_;
  return {-cfg_.grid.extent + (cx + 0.5) * cell_w,
          -cfg_.grid.extent + (cy + 0.5) * cell_h, 0.0};
}

std::vector<Detection> BevDetector::detect(const nn::Tensor& grid) {
  S2A_TRACE_SCOPE_CAT("lidar.detect", "lidar");
  const nn::Tensor heads = detect_.infer(grid);
  const double* cls_logits = heads.data();
  const double* offsets =
      heads.data() + static_cast<std::size_t>(kNumClasses) * h2_ * w2_;
  const double cell_w = 2.0 * cfg_.grid.extent / w2_;
  const double cell_h = 2.0 * cfg_.grid.extent / h2_;
  // A logit this far below the threshold's scores below it however the
  // sigmoid rounds (it is monotone, and 1e-3 of logit moves a score in
  // [1e-6, 1 - 1e-6] by far more than its rounding), so the scan skips
  // its exp. Closer logits, NaN among them, take the exact test.
  const double thr = cfg_.score_threshold;
  const double skip_below = thr >= 1e-6 && thr <= 1.0 - 1e-6
                                ? std::log(thr / (1.0 - thr)) - 1e-3
                                : -std::numeric_limits<double>::infinity();

  std::vector<Detection> out;
  for (int c = 0; c < kNumClasses; ++c) {
    for (int y = 0; y < h2_; ++y)
      for (int x = 0; x < w2_; ++x) {
        const double logit = cls_logits[idx_chw(c, y, x, h2_, w2_)];
        if (logit < skip_below) continue;
        const double score = sigmoid(logit);
        if (score < thr) continue;
        // 3×3 same-class local maximum (greedy NMS on the heatmap).
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy)
          for (int dx = -1; dx <= 1; ++dx) {
            const int yy = y + dy, xx = x + dx;
            if (yy < 0 || yy >= h2_ || xx < 0 || xx >= w2_) continue;
            if (cls_logits[idx_chw(c, yy, xx, h2_, w2_)] > logit) {
              is_max = false;
              break;
            }
          }
        if (!is_max) continue;

        const double ox =
            std::clamp(offsets[idx_chw(0, y, x, h2_, w2_)], -0.5, 0.5);
        const double oy =
            std::clamp(offsets[idx_chw(1, y, x, h2_, w2_)], -0.5, 0.5);
        Detection d;
        d.cls = static_cast<sim::ObjectClass>(c);
        d.score = score;
        const Vec3 cc = cell_center(x, y);
        const Vec3 size = sim::class_archetype_size(d.cls);
        d.box.center = {cc.x + ox * cell_w, cc.y + oy * cell_h, size.z / 2.0};
        d.box.size = size;
        out.push_back(d);
      }
  }
  S2A_COUNTER_ADD("lidar.detections",
                  static_cast<std::int64_t>(out.size()));
  return out;
}

double BevDetector::train_step(const nn::Tensor& grid, const sim::Scene& gt,
                               nn::Optimizer& opt) {
  S2A_CHECK_MSG(!is_quantized(), "train_step on an int8-quantized detector");
  opt.zero_grad();
  const Forward f = forward(grid);
  const double cell_w = 2.0 * cfg_.grid.extent / w2_;
  const double cell_h = 2.0 * cfg_.grid.extent / h2_;

  // Build targets.
  nn::Tensor cls_target({1, kNumClasses, h2_, w2_});
  nn::Tensor off_target({1, 2, h2_, w2_});
  std::vector<bool> has_obj(static_cast<std::size_t>(h2_) * w2_, false);
  for (const auto& obj : gt.objects) {
    const double fx = (obj.box.center.x + cfg_.grid.extent) / cell_w;
    const double fy = (obj.box.center.y + cfg_.grid.extent) / cell_h;
    const int cx = static_cast<int>(fx), cy = static_cast<int>(fy);
    if (cx < 0 || cx >= w2_ || cy < 0 || cy >= h2_) continue;
    cls_target[idx_chw(static_cast<int>(obj.cls), cy, cx, h2_, w2_)] = 1.0;
    off_target[idx_chw(0, cy, cx, h2_, w2_)] = fx - cx - 0.5;
    off_target[idx_chw(1, cy, cx, h2_, w2_)] = fy - cy - 0.5;
    has_obj[static_cast<std::size_t>(cy) * w2_ + cx] = true;
  }

  // Weighted BCE on class heatmaps.
  auto cls_loss = nn::bce_with_logits(f.cls_logits, cls_target);
  double total = 0.0;
  for (std::size_t i = 0; i < cls_loss.grad.numel(); ++i) {
    if (cls_target[i] > 0.5) cls_loss.grad[i] *= cfg_.positive_weight;
  }
  total += cls_loss.value;

  // Offset MSE only at object cells.
  auto off_loss = nn::mse_loss(f.offsets, off_target);
  for (int ch = 0; ch < 2; ++ch)
    for (int y = 0; y < h2_; ++y)
      for (int x = 0; x < w2_; ++x)
        if (!has_obj[static_cast<std::size_t>(y) * w2_ + x])
          off_loss.grad[idx_chw(ch, y, x, h2_, w2_)] = 0.0;
  total += off_loss.value;

  backward(cls_loss.grad, off_loss.grad);
  opt.step();
  return total;
}

void BevDetector::quantize() {
  const std::vector<int> sample{cfg_.grid.nz, cfg_.grid.ny, cfg_.grid.nx};
  embed_.quantize(sample);
  detect_.quantize(sample);
}

std::vector<double> BevDetector::feature_embedding(const nn::Tensor& grid) {
  // Pool the stride-4 backbone features (after conv2+ReLU): run the first
  // four backbone layers only.
  const nn::Tensor h = embed_.infer(grid);
  const int c = h.dim(1), hh = h.dim(2), ww = h.dim(3);
  std::vector<double> e(static_cast<std::size_t>(c), 0.0);
  for (int ci = 0; ci < c; ++ci) {
    double s = 0.0;
    for (int i = 0; i < hh * ww; ++i)
      s += h[static_cast<std::size_t>(ci) * hh * ww + i];
    e[static_cast<std::size_t>(ci)] = s / (hh * ww);
  }
  return e;
}

std::vector<std::vector<double>> BevDetector::feature_embeddings(
    const nn::Tensor& grids) {
  // One backbone forward over the whole [B, nz, ny, nx] stack; the
  // batch-first conv kernels make row b's features bit-identical to a
  // B=1 forward, and the per-image pooling below repeats
  // feature_embedding's accumulation order exactly.
  const nn::Tensor h = embed_.infer(grids);
  const int n = h.dim(0), c = h.dim(1), hh = h.dim(2), ww = h.dim(3);
  const std::size_t plane = static_cast<std::size_t>(hh) * ww;
  std::vector<std::vector<double>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int b = 0; b < n; ++b) {
    const double* hb = h.data() + static_cast<std::size_t>(b) * c * plane;
    std::vector<double> e(static_cast<std::size_t>(c), 0.0);
    for (int ci = 0; ci < c; ++ci) {
      double s = 0.0;
      const double* row = hb + static_cast<std::size_t>(ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) s += row[i];
      e[static_cast<std::size_t>(ci)] = s / static_cast<double>(plane);
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<nn::Tensor*> BevDetector::params() {
  auto p = backbone_.params();
  for (auto* q : cls_head_.params()) p.push_back(q);
  for (auto* q : off_head_.params()) p.push_back(q);
  return p;
}

std::vector<nn::Tensor*> BevDetector::grads() {
  auto g = backbone_.grads();
  for (auto* q : cls_head_.grads()) g.push_back(q);
  for (auto* q : off_head_.grads()) g.push_back(q);
  return g;
}

std::size_t BevDetector::param_count() {
  return backbone_.param_count() + cls_head_.param_count() +
         off_head_.param_count();
}

TwoStageDetector::TwoStageDetector(DetectorConfig config, Rng& rng)
    : cfg_(config), rpn_(config, rng) {
  // 11 proposal features -> refinement score + center delta.
  refine_.emplace<nn::Dense>(11, 32, rng);
  refine_.emplace<nn::ReLU>();
  refine_.emplace<nn::Dense>(32, 3, rng);
}

std::vector<double> TwoStageDetector::proposal_features(
    const Detection& proposal, const sim::PointCloud& cloud) {
  Box3 roi = proposal.box;
  roi.size = roi.size * 1.5;  // enlarge to catch boundary points
  roi.size.z += 1.0;

  std::vector<Vec3> pts;
  for (const auto& r : cloud.returns)
    if (r.hit && roi.contains(r.point)) pts.push_back(r.point);

  std::vector<double> feat(11, 0.0);
  feat[0] = std::min(1.0, pts.size() / 50.0);
  if (!pts.empty()) {
    Vec3 lo = pts[0], hi = pts[0];
    RunningStat z_stat, range_stat;
    for (const auto& p : pts) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
      z_stat.add(p.z);
      range_stat.add(p.range_xy());
    }
    feat[1] = z_stat.mean();
    feat[2] = z_stat.stddev();
    feat[3] = (hi.x - lo.x) / 4.0;
    feat[4] = (hi.y - lo.y) / 2.0;
    feat[5] = (hi.z - lo.z) / 2.0;
    feat[6] = range_stat.mean() / 50.0;
  }
  feat[7] = proposal.score;
  feat[static_cast<std::size_t>(8 + static_cast<int>(proposal.cls))] = 1.0;
  return feat;
}

std::vector<Detection> TwoStageDetector::detect(const nn::Tensor& grid,
                                                const sim::PointCloud& cloud) {
  // Lower first-stage threshold: the refiner re-scores.
  const double saved = rpn_.cfg_.score_threshold;
  rpn_.cfg_.score_threshold = std::min(saved, 0.15);
  std::vector<Detection> proposals = rpn_.detect(grid);
  rpn_.cfg_.score_threshold = saved;

  const double cell =
      2.0 * cfg_.grid.extent / (cfg_.grid.nx / 2);
  std::vector<Detection> out;
  for (auto& p : proposals) {
    const auto feat = proposal_features(p, cloud);
    nn::Tensor x({1, 11}, std::vector<double>(feat.begin(), feat.end()));
    const nn::Tensor y = refine_.forward(x);
    Detection d = p;
    // Blend first-stage confidence with the refinement score: the refiner
    // re-ranks but a weak refiner cannot erase a confident proposal.
    d.score = 0.5 * (p.score + sigmoid(y[0]));
    d.box.center.x += std::clamp(y[1], -1.0, 1.0) * cell * 0.25;
    d.box.center.y += std::clamp(y[2], -1.0, 1.0) * cell * 0.25;
    if (d.score >= cfg_.score_threshold) out.push_back(d);
  }
  return out;
}

double TwoStageDetector::train_step(const nn::Tensor& grid,
                                    const sim::PointCloud& cloud,
                                    const sim::Scene& gt,
                                    nn::Optimizer& rpn_opt,
                                    nn::Optimizer& refine_opt) {
  double total = rpn_.train_step(grid, gt, rpn_opt);

  // Stage 2: label proposals against ground truth and regress deltas.
  const double saved = rpn_.cfg_.score_threshold;
  rpn_.cfg_.score_threshold = 0.15;
  std::vector<Detection> proposals = rpn_.detect(grid);
  rpn_.cfg_.score_threshold = saved;
  if (proposals.empty()) return total;

  const double cell = 2.0 * cfg_.grid.extent / (cfg_.grid.nx / 2);
  refine_opt.zero_grad();
  double stage2 = 0.0;
  for (const auto& p : proposals) {
    // Nearest same-class ground truth (center distance, matching the
    // nuScenes-style evaluation criterion at this grid resolution).
    double best_dist = std::numeric_limits<double>::infinity();
    Vec3 best_center = p.box.center;
    for (const auto& obj : gt.objects) {
      if (obj.cls != p.cls) continue;
      const double dx = p.box.center.x - obj.box.center.x;
      const double dy = p.box.center.y - obj.box.center.y;
      const double dist = std::sqrt(dx * dx + dy * dy);
      if (dist < best_dist) {
        best_dist = dist;
        best_center = obj.box.center;
      }
    }
    const double thr =
        cfg_.match_distance[static_cast<std::size_t>(static_cast<int>(p.cls))];
    const double label = best_dist <= thr ? 1.0 : 0.0;

    const auto feat = proposal_features(p, cloud);
    nn::Tensor x({1, 11}, std::vector<double>(feat.begin(), feat.end()));
    const nn::Tensor y = refine_.forward(x);

    nn::Tensor dy({1, 3});
    // Score BCE.
    const double s = sigmoid(y[0]);
    stage2 += -(label * std::log(std::max(s, 1e-12)) +
                (1 - label) * std::log(std::max(1 - s, 1e-12)));
    dy[0] = s - label;
    // Center delta regression (only for positives).
    if (label > 0.5) {
      const double tx =
          std::clamp((best_center.x - p.box.center.x) / (cell * 0.25), -1.0, 1.0);
      const double ty =
          std::clamp((best_center.y - p.box.center.y) / (cell * 0.25), -1.0, 1.0);
      stage2 += (y[1] - tx) * (y[1] - tx) + (y[2] - ty) * (y[2] - ty);
      dy[1] = 2.0 * (y[1] - tx);
      dy[2] = 2.0 * (y[2] - ty);
    }
    refine_.backward(dy);
  }
  refine_opt.step();
  return total + stage2 / proposals.size();
}

namespace {

// Shared matching + AP skeleton: `affinity` returns a match quality
// (higher is better) or a negative value for "cannot match".
double evaluate_ap_impl(
    const std::vector<std::vector<Detection>>& detections,
    const std::vector<sim::Scene>& scenes, sim::ObjectClass cls,
    const std::function<double(const Detection&, const Box3&)>& affinity) {
  S2A_CHECK(detections.size() == scenes.size());

  struct Tagged {
    double score;
    std::size_t scene;
    const Detection* det;
  };
  std::vector<Tagged> all;
  int num_gt = 0;
  for (std::size_t s = 0; s < scenes.size(); ++s) {
    for (const auto& obj : scenes[s].objects)
      if (obj.cls == cls) ++num_gt;
    for (const auto& d : detections[s])
      if (d.cls == cls) all.push_back({d.score, s, &d});
  }
  std::sort(all.begin(), all.end(),
            [](const Tagged& a, const Tagged& b) { return a.score > b.score; });

  std::vector<std::vector<bool>> gt_used(scenes.size());
  for (std::size_t s = 0; s < scenes.size(); ++s)
    gt_used[s].assign(scenes[s].objects.size(), false);

  std::vector<std::pair<double, bool>> scored;
  scored.reserve(all.size());
  for (const auto& t : all) {
    double best = -1.0;
    std::size_t best_gt = 0;
    const auto& objs = scenes[t.scene].objects;
    for (std::size_t g = 0; g < objs.size(); ++g) {
      if (objs[g].cls != cls || gt_used[t.scene][g]) continue;
      const double a = affinity(*t.det, objs[g].box);
      if (a > best) {
        best = a;
        best_gt = g;
      }
    }
    const bool matched = best >= 0.0;
    if (matched) gt_used[t.scene][best_gt] = true;
    scored.push_back({t.score, matched});
  }
  return average_precision(std::move(scored), num_gt);
}

}  // namespace

double evaluate_ap_distance(
    const std::vector<std::vector<Detection>>& detections,
    const std::vector<sim::Scene>& scenes, sim::ObjectClass cls,
    double max_distance) {
  return evaluate_ap_impl(
      detections, scenes, cls,
      [max_distance](const Detection& d, const Box3& gt) {
        const double dx = d.box.center.x - gt.center.x;
        const double dy = d.box.center.y - gt.center.y;
        const double dist = std::sqrt(dx * dx + dy * dy);
        return dist <= max_distance ? max_distance - dist : -1.0;
      });
}

double evaluate_ap(const std::vector<std::vector<Detection>>& detections,
                   const std::vector<sim::Scene>& scenes,
                   sim::ObjectClass cls, double iou_threshold) {
  // A pair below the threshold cannot match; among the rest the highest
  // IoU wins, the first of equals.
  return evaluate_ap_impl(
      detections, scenes, cls,
      [iou_threshold](const Detection& d, const Box3& gt) {
        const double iou = iou_bev(d.box, gt);
        return iou >= iou_threshold ? iou : -1.0;
      });
}

}  // namespace s2a::lidar
