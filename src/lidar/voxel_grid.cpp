#include "lidar/voxel_grid.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "obs/obs.hpp"

namespace s2a::lidar {

namespace {

// Bins cloud.returns[lo, hi) into `occ` (a [nz][ny][nx] bitmap). Shared
// by the serial path and the per-chunk parallel shards so both orders
// produce the identical voxel set.
void bin_returns(const sim::PointCloud& cloud, const VoxelGridConfig& cfg,
                 double ground_tolerance, std::size_t lo, std::size_t hi,
                 std::vector<bool>& occ) {
  for (std::size_t r_idx = lo; r_idx < hi; ++r_idx) {
    const auto& r = cloud.returns[r_idx];
    if (!r.hit) continue;
    if (r.point.z < cfg.z_min + ground_tolerance) continue;
    const int ix =
        static_cast<int>((r.point.x + cfg.extent) / (2.0 * cfg.extent) * cfg.nx);
    const int iy =
        static_cast<int>((r.point.y + cfg.extent) / (2.0 * cfg.extent) * cfg.ny);
    const int iz = static_cast<int>((r.point.z - cfg.z_min) /
                                    (cfg.z_max - cfg.z_min) * cfg.nz);
    if (ix < 0 || ix >= cfg.nx || iy < 0 || iy >= cfg.ny || iz < 0 ||
        iz >= cfg.nz)
      continue;
    occ[(static_cast<std::size_t>(iz) * cfg.ny + iy) * cfg.nx + ix] = true;
  }
}

// Same binning, but into a packed 64-bit word bitmap (bit i == voxel i).
// The parallel shards use this so the merge is a word-wide OR instead of
// a per-voxel vector<bool> walk per chunk.
void bin_returns_mask(const sim::PointCloud& cloud, const VoxelGridConfig& cfg,
                      double ground_tolerance, std::size_t lo, std::size_t hi,
                      std::uint64_t* mask) {
  for (std::size_t r_idx = lo; r_idx < hi; ++r_idx) {
    const auto& r = cloud.returns[r_idx];
    if (!r.hit) continue;
    if (r.point.z < cfg.z_min + ground_tolerance) continue;
    const int ix =
        static_cast<int>((r.point.x + cfg.extent) / (2.0 * cfg.extent) * cfg.nx);
    const int iy =
        static_cast<int>((r.point.y + cfg.extent) / (2.0 * cfg.extent) * cfg.ny);
    const int iz = static_cast<int>((r.point.z - cfg.z_min) /
                                    (cfg.z_max - cfg.z_min) * cfg.nz);
    if (ix < 0 || ix >= cfg.nx || iy < 0 || iy >= cfg.ny || iz < 0 ||
        iz >= cfg.nz)
      continue;
    const std::size_t idx =
        (static_cast<std::size_t>(iz) * cfg.ny + iy) * cfg.nx + ix;
    mask[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
}

// Below this many returns the pool dispatch + shard-bitmap merge costs
// more than just binning serially. Measured crossover on the dev box:
// binning runs at ~8 ns/return while a dispatch + word-OR merge round
// costs ~10 us, so a 2048-return cloud loses ~50% going parallel and the
// two paths meet at roughly 8k returns (above which the word-mask shards
// are at worst break-even even when the pool is oversubscribed).
constexpr std::size_t kMinParallelReturns = 8192;

}  // namespace

VoxelGrid::VoxelGrid(VoxelGridConfig config)
    : cfg_(config),
      occ_(static_cast<std::size_t>(config.nx) * config.ny * config.nz, false) {
  S2A_CHECK(config.nx > 0 && config.ny > 0 && config.nz > 0);
  S2A_CHECK(config.extent > 0.0 && config.z_max > config.z_min);
}

std::size_t VoxelGrid::index(int ix, int iy, int iz) const {
  S2A_DCHECK(ix >= 0 && ix < cfg_.nx);
  S2A_DCHECK(iy >= 0 && iy < cfg_.ny);
  S2A_DCHECK(iz >= 0 && iz < cfg_.nz);
  return (static_cast<std::size_t>(iz) * cfg_.ny + iy) * cfg_.nx + ix;
}

VoxelGrid VoxelGrid::from_cloud(const sim::PointCloud& cloud,
                                const VoxelGridConfig& cfg,
                                double ground_tolerance) {
  S2A_TRACE_SCOPE_CAT("lidar.voxelize", "lidar");
  VoxelGrid grid(cfg);
  const std::size_t n = cloud.returns.size();
  util::ThreadPool& pool = util::global_pool();
  if (pool.size() <= 1 || n < kMinParallelReturns) {
    bin_returns(cloud, cfg, ground_tolerance, 0, n, grid.occ_);
    return grid;
  }

  // Shard the cloud into one chunk per pool slot; each chunk bins into
  // its own local word bitmap, merged by bitwise OR afterwards. OR is
  // commutative and idempotent, so occupancy is bit-exact at every
  // thread count (merge order kept chunk-indexed anyway, for symmetry
  // with the float reductions elsewhere).
  const std::size_t grain =
      (n + static_cast<std::size_t>(pool.size()) - 1) /
      static_cast<std::size_t>(pool.size());
  const std::size_t chunks = util::ThreadPool::num_chunks(0, n, grain);
  const std::size_t words = (grid.occ_.size() + 63) / 64;
  std::vector<std::uint64_t> locals(chunks * words, 0);
  pool.parallel_for_chunks(
      0, n, grain, [&](std::size_t lo, std::size_t hi, std::size_t c) {
        S2A_TRACE_SCOPE_CAT("lidar.voxelize_shard", "lidar");
        bin_returns_mask(cloud, cfg, ground_tolerance, lo, hi,
                         locals.data() + c * words);
      });
  for (std::size_t c = 1; c < chunks; ++c)
    for (std::size_t i = 0; i < words; ++i) locals[i] |= locals[c * words + i];
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t word = locals[i];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      grid.occ_[i * 64 + static_cast<std::size_t>(bit)] = true;
      word &= word - 1;
    }
  }
  return grid;
}

bool VoxelGrid::occupied(int ix, int iy, int iz) const {
  return occ_[index(ix, iy, iz)];
}

void VoxelGrid::set(int ix, int iy, int iz, bool value) {
  occ_[index(ix, iy, iz)] = value;
}

std::size_t VoxelGrid::occupied_count() const {
  std::size_t n = 0;
  for (bool b : occ_)
    if (b) ++n;
  return n;
}

std::size_t VoxelGrid::voxel_count() const { return occ_.size(); }

Vec3 VoxelGrid::voxel_center(int ix, int iy, int iz) const {
  return {-cfg_.extent + (ix + 0.5) * cfg_.cell_x(),
          -cfg_.extent + (iy + 0.5) * cfg_.cell_y(),
          cfg_.z_min + (iz + 0.5) * cfg_.cell_z()};
}

double VoxelGrid::voxel_range(int ix, int iy) const {
  return voxel_center(ix, iy, 0).range_xy();
}

double VoxelGrid::voxel_azimuth(int ix, int iy) const {
  const Vec3 c = voxel_center(ix, iy, 0);
  double a = std::atan2(c.y, c.x);
  if (a < 0.0) a += 2.0 * std::numbers::pi;
  return a;
}

nn::Tensor VoxelGrid::to_tensor() const {
  nn::Tensor t({1, cfg_.nz, cfg_.ny, cfg_.nx});
  for (std::size_t i = 0; i < occ_.size(); ++i) t[i] = occ_[i] ? 1.0 : 0.0;
  return t;
}

VoxelGrid VoxelGrid::from_tensor(const nn::Tensor& t,
                                 const VoxelGridConfig& cfg) {
  S2A_CHECK(t.shape() ==
            (std::vector<int>{1, cfg.nz, cfg.ny, cfg.nx}));
  VoxelGrid grid(cfg);
  for (std::size_t i = 0; i < grid.occ_.size(); ++i) grid.occ_[i] = t[i] > 0.5;
  return grid;
}

double VoxelGrid::iou(const VoxelGrid& other) const {
  S2A_CHECK(occ_.size() == other.occ_.size());
  std::size_t inter = 0, uni = 0;
  for (std::size_t i = 0; i < occ_.size(); ++i) {
    if (occ_[i] && other.occ_[i]) ++inter;
    if (occ_[i] || other.occ_[i]) ++uni;
  }
  return uni > 0 ? static_cast<double>(inter) / uni : 1.0;
}

}  // namespace s2a::lidar
