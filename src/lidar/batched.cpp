#include "lidar/batched.hpp"

#include "nn/batch.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace s2a::lidar {

BatchedReconstructionProcessor::BatchedReconstructionProcessor(
    OccupancyAutoencoder& ae, double energy_per_call_j)
    : ae_(ae), energy_per_call_j_(energy_per_call_j) {
  const VoxelGridConfig& g = ae.config().grid;
  shape_ = {g.nz, g.ny, g.nx};
}

std::vector<double> BatchedReconstructionProcessor::process(
    const core::Observation& obs, Rng& /*rng*/) {
  // Serial path: the same arithmetic as a batch of one. Used by loops
  // running outside a batched dispatch (tick()/run()/per-loop Fleet).
  std::vector<const std::vector<double>*> one{&obs.data};
  nn::Tensor x = nn::stack_batch(one, shape_);
  return nn::unstack_batch(ae_.reconstruct(x)).front();
}

std::vector<std::vector<double>> BatchedReconstructionProcessor::process_batch(
    const std::vector<const core::Observation*>& obs) {
  S2A_CHECK(!obs.empty());
  S2A_TRACE_SCOPE_CAT("lidar.batched_reconstruct", "lidar");
  std::vector<const std::vector<double>*> samples;
  samples.reserve(obs.size());
  for (const core::Observation* o : obs) {
    S2A_CHECK(o != nullptr);
    samples.push_back(&o->data);
  }
  nn::Tensor x = nn::stack_batch(samples, shape_);
  return nn::unstack_batch(ae_.reconstruct(x));
}

std::vector<std::vector<double>> batched_embeddings(OccupancyAutoencoder& ae,
                                                    const nn::Tensor& grids) {
  S2A_CHECK(grids.shape().size() == 4);
  const nn::Tensor z = ae.infer_latent(grids);
  const int n = z.dim(0), c = z.dim(1), h = z.dim(2), w = z.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  std::vector<std::vector<double>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int b = 0; b < n; ++b) {
    std::vector<double> e(static_cast<std::size_t>(c), 0.0);
    const double* zb = z.data() + static_cast<std::size_t>(b) * c * plane;
    for (int ci = 0; ci < c; ++ci) {
      double s = 0.0;
      const double* row = zb + static_cast<std::size_t>(ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) s += row[i];
      e[static_cast<std::size_t>(ci)] = s / static_cast<double>(plane);
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace s2a::lidar
