// Occupancy autoencoder for generative sensing (Fig. 3): a convolutional
// encoder over the (masked) BEV occupancy grid and a deconvolutional
// occupancy decoder trained with binary cross-entropy, reconstructing the
// full scene from a <10% sensed subset.
//
// The paper's encoder is a 3-D spatially sparse convolution network; here
// the nz height slices are channels of a dense 2-D convolution, which
// preserves the encode-masked/decode-full structure at in-process scale
// (see DESIGN.md). Like the sparse original, inference skips the sites
// the input leaves untouched: reconstruct() and embedding() run through
// an nn::ActiveSiteStack, which recomputes only the BEV sites a sensed
// voxel can reach and takes every other site from the all-zero input's
// output, bit-identical to the dense forward (nn/frozen.hpp). The MAC
// count and the energy billed for it stay the dense ones
// (macs_per_scan, lidar/energy.hpp). quantize() deploys the model: both
// stacks freeze the weights into an int8 snapshot that serves every
// later call, and the training path (encode, decode, train_step) stays
// float.
#pragma once

#include <memory>
#include <vector>

#include "lidar/masking.hpp"
#include "lidar/voxel_grid.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/frozen.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace s2a::lidar {

/// Pre-training objective flavors (Table I rows):
///  kOccupancyFull   — reconstruct every voxel (R-MAE, OccMAE).
///  kSurfaceWeighted — loss concentrated on voxels near observed surfaces
///                     (ALSO-style occupancy self-supervision).
enum class PretrainObjective { kOccupancyFull, kSurfaceWeighted };

struct AutoencoderConfig {
  VoxelGridConfig grid;
  int c1 = 16;  ///< first encoder channel width (stride 2)
  int c2 = 32;  ///< latent channel width (stride 4 overall)
  /// BCE weight on occupied target voxels. Occupancy grids are sparse
  /// (<5% positive); without upweighting, the decoder collapses to the
  /// all-empty prediction.
  double pos_weight = 12.0;
};

class OccupancyAutoencoder {
 public:
  OccupancyAutoencoder(AutoencoderConfig config, Rng& rng);

  /// Latent features [1, c2, ny/4, nx/4] of a (masked) occupancy tensor,
  /// through the float training forward.
  nn::Tensor encode(const nn::Tensor& grid);
  /// The same latents ([B, c2, ny/4, nx/4] for a [B, nz, ny, nx] stack)
  /// through the inference path: nothing is captured for backward(),
  /// and only the sites a sensed voxel reaches are recomputed.
  nn::Tensor infer_latent(const nn::Tensor& grids);
  /// Occupancy logits [1, nz, ny, nx] from a latent tensor.
  nn::Tensor decode(const nn::Tensor& latent);
  /// Full forward pass returning occupancy probabilities in [0, 1].
  nn::Tensor reconstruct(const nn::Tensor& masked_grid);

  /// One optimization step on (masked input → full target); returns the
  /// BCE loss. The optimizer must be attached via attach_optimizer().
  /// Fails S2A_CHECK on a quantized model.
  double train_step(const nn::Tensor& masked, const nn::Tensor& target,
                    nn::Optimizer& opt,
                    PretrainObjective objective = PretrainObjective::kOccupancyFull);

  /// Pools the latent over space: a fixed-size scene embedding [c2] used
  /// by the reliability monitor (STARNet ingests task-network features).
  std::vector<double> embedding(const nn::Tensor& grid);

  std::vector<nn::Tensor*> params();
  std::vector<nn::Tensor*> grads();
  std::size_t param_count();
  /// Dense forward MACs for one scan of the configured grid (encoder +
  /// decoder), whatever the last call ran or skipped — the Table II
  /// "FLOPs per 360° scan" quantity is 2× this.
  std::size_t macs_per_scan() const;

  /// Freezes the encoder and decoder weights as they are now into int8
  /// snapshots (nn::ActiveSiteStack::quantize, nn/quant.hpp): from then
  /// on reconstruct(), infer_latent() and embedding() run the int8
  /// forward, whatever later happens to the weights. A quantized model
  /// is for deployment — train_step() fails S2A_CHECK — so train first,
  /// then quantize. Calling it again re-freezes the current weights.
  void quantize();
  bool is_quantized() const { return recon_.is_quantized(); }

  /// Encoder conv layers, exposed for weight transfer into detector
  /// backbones (the Table I pre-training experiment).
  nn::Conv2D& encoder_conv1() { return *conv1_; }
  nn::Conv2D& encoder_conv2() { return *conv2_; }
  const AutoencoderConfig& config() const { return cfg_; }

 private:
  AutoencoderConfig cfg_;
  nn::Sequential encoder_;
  nn::Sequential decoder_;
  nn::Conv2D* conv1_ = nullptr;
  nn::Conv2D* conv2_ = nullptr;
  nn::ConvTranspose2D* deconv1_ = nullptr;
  nn::ConvTranspose2D* deconv2_ = nullptr;
  // reconstruct()'s output activation; heap-held so the stacks' layer
  // pointers survive a move of the model.
  std::unique_ptr<nn::Sigmoid> sigmoid_;
  nn::ActiveSiteStack recon_;    // encoder, decoder, sigmoid
  nn::ActiveSiteStack encoder_stack_;  // encoder (embeddings)
};

/// Surface weighting for the ALSO-style objective: weight 1 for voxels
/// within one cell of an occupied voxel in `target`, `far_weight`
/// elsewhere. Exposed for tests.
std::vector<double> surface_weights(const nn::Tensor& target,
                                    const VoxelGridConfig& grid,
                                    double far_weight = 0.1);

}  // namespace s2a::lidar
