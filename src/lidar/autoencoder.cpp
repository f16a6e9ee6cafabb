#include "lidar/autoencoder.hpp"

#include <cmath>

#include "nn/activations.hpp"
#include "nn/loss.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::lidar {

namespace {

std::vector<nn::Layer*> layers_of(std::initializer_list<nn::Sequential*> nets) {
  std::vector<nn::Layer*> out;
  for (nn::Sequential* net : nets)
    for (std::size_t i = 0; i < net->size(); ++i) out.push_back(&net->layer(i));
  return out;
}

}  // namespace

OccupancyAutoencoder::OccupancyAutoencoder(AutoencoderConfig config, Rng& rng)
    : cfg_(config),
      sigmoid_(std::make_unique<nn::Sigmoid>()),
      recon_({}),
      encoder_stack_({}) {
  const int nz = cfg_.grid.nz;
  S2A_CHECK_MSG(cfg_.grid.nx % 4 == 0 && cfg_.grid.ny % 4 == 0,
                "grid must be divisible by the encoder stride (4)");
  conv1_ = &encoder_.emplace<nn::Conv2D>(nz, cfg_.c1, 3, 2, 1, rng);
  encoder_.emplace<nn::ReLU>();
  conv2_ = &encoder_.emplace<nn::Conv2D>(cfg_.c1, cfg_.c2, 3, 2, 1, rng);
  encoder_.emplace<nn::ReLU>();

  deconv1_ =
      &decoder_.emplace<nn::ConvTranspose2D>(cfg_.c2, cfg_.c1, 4, 2, 1, rng);
  decoder_.emplace<nn::ReLU>();
  deconv2_ = &decoder_.emplace<nn::ConvTranspose2D>(cfg_.c1, nz, 4, 2, 1, rng);

  std::vector<nn::Layer*> full = layers_of({&encoder_, &decoder_});
  full.push_back(sigmoid_.get());
  recon_ = nn::ActiveSiteStack(std::move(full));
  encoder_stack_ = nn::ActiveSiteStack(layers_of({&encoder_}));
}

nn::Tensor OccupancyAutoencoder::encode(const nn::Tensor& grid) {
  return encoder_.forward(grid);
}

nn::Tensor OccupancyAutoencoder::infer_latent(const nn::Tensor& grids) {
  return encoder_stack_.infer(grids);
}

nn::Tensor OccupancyAutoencoder::decode(const nn::Tensor& latent) {
  return decoder_.forward(latent);
}

nn::Tensor OccupancyAutoencoder::reconstruct(const nn::Tensor& masked_grid) {
  S2A_TRACE_SCOPE_CAT("lidar.ae_reconstruct", "lidar");
  // Inference only: nothing is captured for a backward pass. The
  // active-site stack recomputes only the sites the input reaches (or,
  // on weights it has not seen twice, runs each layer's infer()); both
  // are bit-exact at every thread count.
  return recon_.infer(masked_grid);
}

std::vector<double> surface_weights(const nn::Tensor& target,
                                    const VoxelGridConfig& g,
                                    double far_weight) {
  S2A_CHECK(target.shape() == (std::vector<int>{1, g.nz, g.ny, g.nx}));
  std::vector<double> w(target.numel(), far_weight);
  const auto idx = [&](int z, int y, int x) {
    return (static_cast<std::size_t>(z) * g.ny + y) * g.nx + x;
  };
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x) {
        if (target[idx(z, y, x)] <= 0.5) continue;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx) {
            const int yy = y + dy, xx = x + dx;
            if (yy < 0 || yy >= g.ny || xx < 0 || xx >= g.nx) continue;
            w[idx(z, yy, xx)] = 1.0;
          }
      }
  return w;
}

double OccupancyAutoencoder::train_step(const nn::Tensor& masked,
                                        const nn::Tensor& target,
                                        nn::Optimizer& opt,
                                        PretrainObjective objective) {
  S2A_TRACE_SCOPE_CAT("lidar.ae_train_step", "lidar");
  S2A_CHECK_MSG(!is_quantized(), "train_step on an int8-quantized autoencoder");
  opt.zero_grad();
  nn::Tensor logits = decode(encode(masked));
  auto loss = nn::bce_with_logits(logits, target);

  // Counteract occupancy sparsity (see AutoencoderConfig::pos_weight).
  // Per-element independent, so sharding it (like the backward kernels
  // it feeds) keeps the step bit-exact at every thread count; one call
  // per 4096-voxel chunk.
  double* grad = loss.grad.data();
  const double* tgt = target.data();
  const double pos_weight = cfg_.pos_weight;
  util::global_pool().parallel_for_chunks(
      0, loss.grad.numel(), 4096,
      [grad, tgt, pos_weight](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i)
          if (tgt[i] > 0.5) grad[i] *= pos_weight;
      });

  if (objective == PretrainObjective::kSurfaceWeighted) {
    // The reported loss stays the plain BCE; only the gradient is
    // reweighted.
    const auto w = surface_weights(target, cfg_.grid);
    double wsum = 0.0;
    for (std::size_t i = 0; i < loss.grad.numel(); ++i) {
      loss.grad[i] *= w[i];
      wsum += w[i];
    }
    // Rescale so the gradient magnitude is comparable across objectives.
    const double scale = static_cast<double>(loss.grad.numel()) / std::max(1.0, wsum);
    for (std::size_t i = 0; i < loss.grad.numel(); ++i) loss.grad[i] *= scale;
  }

  const nn::Tensor dlatent = decoder_.backward(loss.grad);
  encoder_.backward(dlatent);
  opt.step();
  return loss.value;
}

void OccupancyAutoencoder::quantize() {
  const std::vector<int> sample{cfg_.grid.nz, cfg_.grid.ny, cfg_.grid.nx};
  recon_.quantize(sample);
  encoder_stack_.quantize(sample);
}

std::vector<double> OccupancyAutoencoder::embedding(const nn::Tensor& grid) {
  // Inference only: nothing backpropagates through an embedding.
  const nn::Tensor z = infer_latent(grid);
  const int c = z.dim(1), h = z.dim(2), w = z.dim(3);
  std::vector<double> e(static_cast<std::size_t>(c), 0.0);
  for (int ci = 0; ci < c; ++ci) {
    double s = 0.0;
    for (int i = 0; i < h * w; ++i)
      s += z[static_cast<std::size_t>(ci) * h * w + i];
    e[static_cast<std::size_t>(ci)] = s / (h * w);
  }
  return e;
}

std::vector<nn::Tensor*> OccupancyAutoencoder::params() {
  auto p = encoder_.params();
  for (auto* q : decoder_.params()) p.push_back(q);
  return p;
}

std::vector<nn::Tensor*> OccupancyAutoencoder::grads() {
  auto g = encoder_.grads();
  for (auto* q : decoder_.grads()) g.push_back(q);
  return g;
}

std::size_t OccupancyAutoencoder::param_count() {
  return encoder_.param_count() + decoder_.param_count();
}

std::size_t OccupancyAutoencoder::macs_per_scan() const {
  const int h = cfg_.grid.ny, w = cfg_.grid.nx;
  return conv1_->macs_for(h, w) + conv2_->macs_for(h / 2, w / 2) +
         deconv1_->macs_for(h / 4, w / 4) + deconv2_->macs_for(h / 2, w / 2);
}

}  // namespace s2a::lidar
