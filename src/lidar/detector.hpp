// BEV object detectors over occupancy grids.
//
// Two architectures mirror the Table I detector families at in-process
// scale:
//  * BevDetector        — single-stage, anchor-free center heatmap +
//                         offset regression ("SECOND-lite").
//  * TwoStageDetector   — the same first stage plus point-feature proposal
//                         refinement ("PV-RCNN-lite").
//
// The pre-training experiment of Table I transfers the occupancy
// autoencoder's encoder weights into the detector backbone via
// init_from_pretrained().
#pragma once

#include <array>
#include <vector>

#include "lidar/autoencoder.hpp"
#include "lidar/voxel_grid.hpp"
#include "nn/conv2d.hpp"
#include "nn/frozen.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "sim/scene.hpp"

namespace s2a::lidar {

struct Detection {
  sim::ObjectClass cls = sim::ObjectClass::kCar;
  Box3 box;
  double score = 0.0;
};

struct DetectorConfig {
  VoxelGridConfig grid;
  int c1 = 16, c2 = 32;          ///< backbone widths (match the AE encoder)
  double score_threshold = 0.30;
  double positive_weight = 40.0; ///< BCE weight on (rare) positive cells
  /// BEV IoU required to count a detection as a match, per class
  /// (Car, Pedestrian, Cyclist). Looser than KITTI's 0.7/0.5/0.5 because
  /// boxes use archetype sizes (see DESIGN.md).
  std::array<double, 3> iou_thresholds{0.5, 0.25, 0.25};
  /// nuScenes-style matching radii (m): at this grid resolution (~2 m
  /// voxels) IoU matching is meaningless for sub-voxel classes like
  /// pedestrians, so the AP experiments match by BEV center distance —
  /// the same reason nuScenes' detection metric does.
  std::array<double, 3> match_distance{2.0, 1.5, 1.5};
};

/// Single-stage center-heatmap detector.
class BevDetector {
 public:
  BevDetector(DetectorConfig config, Rng& rng);

  /// Copies the autoencoder's encoder weights into the backbone (the
  /// "+pretraining" rows of Table I). Architectures must match.
  void init_from_pretrained(OccupancyAutoencoder& ae);

  /// Heatmap peaks above score_threshold. The backbone and heads run
  /// through active-site inference keyed to a repeated input (see
  /// nn::ActiveSiteStack, Reference::kRepeated): once two consecutive
  /// calls on the same weights see one grid bit for bit, a call
  /// recomputes only the sites where its grid differs from that one,
  /// bit-identical to the dense forward. A quantized detector runs its
  /// int8 snapshot on every site.
  std::vector<Detection> detect(const nn::Tensor& grid);
  /// One supervised step against scene ground truth; returns total loss.
  /// Fails S2A_CHECK on a quantized detector.
  double train_step(const nn::Tensor& grid, const sim::Scene& gt,
                    nn::Optimizer& opt);

  /// Spatially pooled backbone features — the embedding STARNet monitors.
  /// Recomputes only the sites a sensed voxel reaches, bit-identical to
  /// the dense backbone (see nn::ActiveSiteStack).
  std::vector<double> feature_embedding(const nn::Tensor& grid);
  /// Batched feature_embedding: one backbone forward over a
  /// [B, nz, ny, nx] stack (lidar/batched.hpp); row i is bit-identical
  /// to feature_embedding(grid_i).
  std::vector<std::vector<double>> feature_embeddings(const nn::Tensor& grids);
  int embedding_dim() const { return cfg_.c2; }

  std::vector<nn::Tensor*> params();
  std::vector<nn::Tensor*> grads();
  std::size_t param_count();
  const DetectorConfig& config() const { return cfg_; }

  /// Freezes backbone + heads into int8 snapshots for detect() and the
  /// embeddings (see OccupancyAutoencoder::quantize for the semantics).
  void quantize();
  bool is_quantized() const { return detect_.is_quantized(); }

 private:
  friend class TwoStageDetector;
  struct Forward {
    nn::Tensor cls_logits;  // [1, 3, ny/2, nx/2]
    nn::Tensor offsets;     // [1, 2, ny/2, nx/2]
  };
  /// Training forward: captures activations for backward().
  Forward forward(const nn::Tensor& grid);
  void backward(const nn::Tensor& dcls, const nn::Tensor& doff);
  /// Map cell (stride-2) center to sensor-frame x/y.
  Vec3 cell_center(int cx, int cy) const;

  DetectorConfig cfg_;
  int h2_, w2_;  // stride-2 map size
  nn::Sequential backbone_;  // conv1 ReLU conv2 ReLU deconv ReLU -> [c1, h2, w2]
  nn::Conv2D* conv1_ = nullptr;
  nn::Conv2D* conv2_ = nullptr;
  nn::Sequential cls_head_;   // 1x1 conv -> 3
  nn::Sequential off_head_;   // 1x1 conv -> 2
  nn::Tensor last_neck_;
  // The first four backbone layers (conv1 ReLU conv2 ReLU) the
  // embeddings pool, through active-site inference (nn/frozen.hpp).
  nn::ActiveSiteStack embed_;
  // detect()'s forward: the backbone, then both heads stacked on
  // channels ([1, 3 + 2, h2, w2]: class logits, then offsets).
  nn::ActiveSiteStack detect_;
};

/// Two-stage detector: BevDetector proposals + point-statistics refinement.
class TwoStageDetector {
 public:
  TwoStageDetector(DetectorConfig config, Rng& rng);

  void init_from_pretrained(OccupancyAutoencoder& ae) {
    rpn_.init_from_pretrained(ae);
  }

  std::vector<Detection> detect(const nn::Tensor& grid,
                                const sim::PointCloud& cloud);
  double train_step(const nn::Tensor& grid, const sim::PointCloud& cloud,
                    const sim::Scene& gt, nn::Optimizer& rpn_opt,
                    nn::Optimizer& refine_opt);

  BevDetector& rpn() { return rpn_; }
  std::vector<nn::Tensor*> refine_params() { return refine_.params(); }
  std::vector<nn::Tensor*> refine_grads() { return refine_.grads(); }
  std::size_t param_count() { return rpn_.param_count() + refine_.param_count(); }

  /// Point statistics inside an (enlarged) proposal box; exposed for tests.
  static std::vector<double> proposal_features(const Detection& proposal,
                                               const sim::PointCloud& cloud);

 private:
  DetectorConfig cfg_;
  BevDetector rpn_;
  nn::Sequential refine_;  // features -> [score_logit, dx, dy]
};

/// Greedy score-ordered matching + KITTI-style interpolated AP for one
/// class over a set of scenes, matching by BEV IoU.
double evaluate_ap(const std::vector<std::vector<Detection>>& detections,
                   const std::vector<sim::Scene>& scenes,
                   sim::ObjectClass cls, double iou_threshold);

/// Same AP computation with nuScenes-style BEV center-distance matching
/// (a detection matches an unmatched ground truth within `max_distance`
/// metres). Preferred at coarse grid resolutions.
double evaluate_ap_distance(const std::vector<std::vector<Detection>>& detections,
                            const std::vector<sim::Scene>& scenes,
                            sim::ObjectClass cls, double max_distance);

}  // namespace s2a::lidar
