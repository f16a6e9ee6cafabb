#include "nn/conv2d.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "nn/conv_rows.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {

using detail::LoweredWeights;
using detail::OutputRows;

namespace {

// Forward passes below this many MACs run inline: pool dispatch would
// cost more than the convolution itself.
constexpr std::size_t kMinParallelMacs = 1 << 15;

// Splits `total` units of independent work into chunks sized for the
// global pool (~4 chunks per slot hides worker imbalance) and runs
// fn(lo, hi, band_arena) over them, giving each chunk a private
// ScratchArena slot for its GEMM tile (passes that write straight into
// their output just ignore it). Falls back to one inline call (slot 0)
// when the pool has one slot or the work is too small to pay for
// dispatch. fn must write disjoint outputs per unit so results are
// bit-exact at every thread count.
void parallel_bands(
    std::size_t total, std::size_t macs, util::ScratchArena& arena,
    const std::function<void(std::size_t, std::size_t, util::ScratchArena&)>&
        fn) {
  util::ThreadPool& pool = util::global_pool();
  if (pool.size() <= 1 || macs < kMinParallelMacs || total <= 1) {
    arena.ensure_slots(1);
    fn(0, total, arena.slot(0));
    return;
  }
  const std::size_t grain = std::max<std::size_t>(
      1, total / (static_cast<std::size_t>(pool.size()) * 4));
  const std::size_t chunks = util::ThreadPool::num_chunks(0, total, grain);
  arena.ensure_slots(chunks);
  pool.parallel_for_chunks(0, total, grain,
                           [&fn, &arena](std::size_t lo, std::size_t hi,
                                         std::size_t c) {
                             fn(lo, hi, arena.slot(c));
                           });
}

int round_up(int v, int to) { return (v + to - 1) / to * to; }

// ---- The one lowering: a zero-padded copy of the input ----
//
// Every forward GEMM here (each phase of a conv or a deconv, and the
// deconv input gradient's adjoint conv) reads its B operand straight
// out of one zero-padded copy of its input, through a table of row
// offsets (gemm_packed_rows), instead of materializing a lowered
// matrix.
//
// For a stride-s conv the copy is s*s polyphase planes per channel:
// plane (c, ry, rx), row qy, column qx holds padded-input pixel
// (qy*s + ry, qx*s + rx), where the padded input is x shifted by `pad`
// with 0.0 outside the image. Tap (c, ky, kx) of output (oy, ox) then
// reads plane (c, ky%s, kx%s) at (oy + ky/s, ox + kx/s). A deconv reads
// one plane per channel (see lowered_forward). On a "wide" output grid
// of wq columns per phase row, phase output (yi, xi) is column
// yi*wq + xi, so every tap's B row over a band of rows is one
// contiguous span of one plane, starting at a shape-only offset. The
// GEMM computes all wq columns per row; only the phase's real columns
// of each row are stored. The other columns read neighbouring pixels,
// the next image's planes or the zeroed slack past the last image, and
// are never stored.
//
// A one-plane copy stores only the left padding of each row: a read
// past a row's end lands in the next row's left padding, or, past a
// plane's last row, in the next plane's top padding rows or the zeroed
// slack — the same zeros the right padding would hold. That trims
// `pad` columns off every wide row (the deconv phases' grids are that
// much narrower). Polyphase planes keep both paddings: the row after a
// plane's last one starts another phase's plane, which need not be
// padding.
//
// Bit-exactness: every stored element accumulates the caller's seed
// plus w*x over ascending taps, with x = 0.0 off the image — the same
// products in the same order as the lowered matrix the direct loops
// define (tests/nn_oracle.hpp).
struct PaddedInput {
  int s = 1;              // polyphase factor: the conv's stride
  int pad = 0;            // zero padding on every side of the image
  int hq = 0, wq = 0;     // rows and columns of one plane
  std::size_t plane = 0;  // hq * wq
  std::size_t image = 0;  // channels * s * s * plane: one image's planes
  const double* data = nullptr;    // n images back to back, then slack
  const std::int8_t* q = nullptr;  // int8 codes of data (int8 weights)
  const double* q_scale = nullptr;  // per image: the scale of its codes
  bool finite = true;  // false when a coded value had no int8 code
};

// The padded input lw reads for h x w images (ow output columns): s*s
// polyphase planes padded by `pad` for a conv, one plane padded by
// floor((k-1-pad)/s) for a deconv. The wide grid holds a phase's real
// columns.
PaddedInput padded_geometry(const detail::ConvLowering& lw, int h, int w,
                            int ow) {
  PaddedInput g;
  g.s = lw.transposed ? 1 : lw.s;
  g.pad = lw.transposed ? std::max(0, lw.k - 1 - lw.pad) / lw.s : lw.pad;
  const int valid = (ow + lw.grid() - 1) / lw.grid();
  g.hq = (h + 2 * g.pad + g.s - 1) / g.s;
  g.wq = g.s == 1 ? std::max(w + g.pad, valid)
                  : (w + 2 * g.pad + g.s - 1) / g.s;
  g.plane = static_cast<std::size_t>(g.hq) * g.wq;
  g.image = static_cast<std::size_t>(lw.cin) * g.s * g.s * g.plane;
  return g;
}

// Where each tap's B row starts in an image's padded planes, phase
// after phase in (py, px) order, each in the order of its rows table.
void tap_table(const detail::ConvLowering& lw, const PaddedInput& in,
               std::vector<std::ptrdiff_t>& boff) {
  boff.clear();
  const int s = lw.s;
  if (!lw.transposed) {
    for (int ic = 0; ic < lw.cin; ++ic)
      for (int ky = 0; ky < lw.k; ++ky)
        for (int kx = 0; kx < lw.k; ++kx)
          boff.push_back(static_cast<std::ptrdiff_t>(
              (static_cast<std::size_t>(ic * s + ky % s) * s + kx % s) *
                  in.plane +
              static_cast<std::size_t>(ky / s) * in.wq + kx / s));
    return;
  }
  // Phase (py, px)'s output row first(py) + yi*s reads input row
  // (first(py) + pad - ky)/s + yi for tap ky, and likewise for columns.
  for (int py = 0; py < s; ++py)
    for (int px = 0; px < s; ++px)
      for (int ic = 0; ic < lw.cin; ++ic)
        for (const int ky : lw.taps[static_cast<std::size_t>(py)])
          for (const int kx : lw.taps[static_cast<std::size_t>(px)])
            boff.push_back(static_cast<std::ptrdiff_t>(
                static_cast<std::size_t>(ic) * in.plane +
                static_cast<std::size_t>(in.pad +
                                         (lw.first(py) + lw.pad - ky) / s) *
                    in.wq +
                static_cast<std::size_t>(in.pad +
                                         (lw.first(px) + lw.pad - kx) / s)));
}

// For the int8 forwards: codes g.data's `size` values once, image b's
// planes against the activation scale of image b of x (x_image values
// each), so an image's outputs do not depend on the rest of its batch.
// These are the codes an explicit lowering's per-band panels get, and
// 0 -> 0 for the padding and the zeroed slack past the last image.
void code_int8(const double* x, int n, std::size_t x_image, std::size_t size,
               util::ScratchArena& arena, PaddedInput& g) {
  double* scales = arena.alloc(static_cast<std::size_t>(n));
  std::int8_t* q = alloc_int8(arena, size);
  g.finite = true;
  for (int b = 0; b < n; ++b) {
    scales[b] = activation_scale(x + static_cast<std::size_t>(b) * x_image,
                                 x_image);
    const std::size_t lo = static_cast<std::size_t>(b) * g.image;
    const std::size_t hi = b + 1 < n ? lo + g.image : size;
    const bool finite =
        quantize_values(g.data + lo, hi - lo, scales[b], q + lo);
    g.finite = g.finite && finite;
  }
  g.q_scale = scales;
  g.q = q;
}

// Fills g.data (geometry from padded_geometry) from x ([n, c, h, w]),
// padded by g.pad on every side, and codes it when `int8`. `reach` is
// how far past an image's base its bands read: the table's largest
// offset plus the widest rounded band. The buffer ends `reach` past the
// last image's base, and that slack is zeroed, so no read lands outside
// it and none reads an uninitialized value. One copy per (image,
// channel), sharded over the pool like the band pass. With a `cache`
// the buffer is the caller's (see detail::PaddedCache): built in full
// when its batch size changes, else rewritten on the listed rows only.
void build_padded(const double* x, int n, int c, int h, int w,
                  std::size_t reach, std::size_t macs, bool int8,
                  util::ScratchArena& arena, PaddedInput& g,
                  detail::PaddedCache* cache = nullptr) {
  S2A_CHECK_MSG(reach <= g.image + g.plane + kGemmMaxNR,
                "a band would read past its image's padded planes");
  S2A_CHECK(cache == nullptr || !int8);
  const std::size_t body = static_cast<std::size_t>(n) * g.image;
  const std::size_t size = body - g.image + std::max(g.image, reach);
  const int s = g.s, pad = g.pad;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  // Plane (channel u, ry, rx), row qy: input row qy*s + ry - pad, whose
  // columns qx*s + rx - pad for qx in [jlo, jhi) are in the image.
  const auto fill_row = [&](double* buf, std::size_t u, int ry, int rx,
                            int qy) {
    double* dst = buf + (u * s * s + static_cast<std::size_t>(ry) * s + rx) *
                            g.plane +
                  static_cast<std::size_t>(qy) * g.wq;
    const int iy = qy * s + ry - pad;
    if (iy < 0 || iy >= h) {
      std::fill_n(dst, g.wq, 0.0);
      return;
    }
    const int i0 = rx - pad;
    const int jlo = std::min(g.wq, i0 >= 0 ? 0 : (s - 1 - i0) / s);
    const int jhi = std::clamp(i0 < w ? (w - 1 - i0) / s + 1 : 0, jlo, g.wq);
    const double* srow =
        x + u * in_hw + static_cast<std::ptrdiff_t>(iy) * w + i0;
    std::fill(dst, dst + jlo, 0.0);
    if (s == 1)
      for (int j = jlo; j < jhi; ++j) dst[j] = srow[j];
    else
      for (int j = jlo; j < jhi; ++j)
        dst[j] = srow[static_cast<std::ptrdiff_t>(j) * s];
    std::fill(dst + jhi, dst + g.wq, 0.0);
  };

  if (cache != nullptr && cache->images == n && cache->buf.size() == size) {
    // Input column ix of a listed span is plane column (ix + pad) / s of
    // phase rx = (ix + pad) % s; the span is inside the image, so it
    // needs no padding.
    for (std::size_t r = 0; r < cache->count; ++r) {
      const detail::RowSpan& sp = cache->refresh[r];
      const std::size_t b = static_cast<std::size_t>(sp.unit / h);
      const int iy = sp.unit % h;
      const int ry = (iy + pad) % s, qy = (iy + pad) / s;
      for (int rx = 0; rx < s; ++rx) {
        // The span's first column in phase rx, and its plane column.
        const int ix0 = sp.x0 + ((rx - (sp.x0 + pad) % s) % s + s) % s;
        const int q0 = (ix0 + pad) / s;
        for (int ic = 0; ic < c; ++ic) {
          const double* src = x + (b * c + ic) * in_hw +
                              static_cast<std::size_t>(iy) * w + ix0;
          double* dst = cache->buf.data() +
                        ((b * c + ic) * s * s +
                         static_cast<std::size_t>(ry) * s + rx) *
                            g.plane +
                        static_cast<std::size_t>(qy) * g.wq + q0;
          for (int j = 0; j * s < sp.x1 - ix0; ++j) dst[j] = src[j * s];
        }
      }
    }
    g.data = cache->buf.data();
    return;
  }
  double* buf = nullptr;
  if (cache != nullptr) {
    cache->buf.resize(size);
    cache->images = n;
    buf = cache->buf.data();
  } else {
    buf = arena.alloc(size);
  }
  parallel_bands(static_cast<std::size_t>(n) * c, macs, arena,
                 [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                   for (std::size_t u = lo; u < hi; ++u)
                     for (int ry = 0; ry < s; ++ry)
                       for (int rx = 0; rx < s; ++rx)
                         for (int qy = 0; qy < g.hq; ++qy)
                           fill_row(buf, u, ry, rx, qy);
                 });
  std::fill(buf + body, buf + size, 0.0);
  g.data = buf;
  if (int8)
    code_int8(x, n, static_cast<std::size_t>(c) * in_hw, size, arena, g);
}

// tile[i][j] = seed_i + sum_kk A[i][kk] * B[kk][j] for j in [0, ncols),
// where B[kk][j] is in.data[base + boff[kk] + j] and seed_i is bias[i]
// (0.0 without a bias). tile has row stride ldt. The band reads image b
// (its int8 codes dequantize at that image's scale).
void band_gemm(const LoweredWeights& a, const PaddedInput& in, int b,
               const std::ptrdiff_t* boff, std::size_t base, int ncols,
               const double* bias, double* tile, std::size_t ldt) {
  for (int i = 0; i < a.m; ++i)
    std::fill_n(tile + static_cast<std::size_t>(i) * ldt, ncols,
                bias != nullptr ? bias[i] : 0.0);
  if (a.q == nullptr) {
    gemm_packed_rows(a.m, ncols, a.kdim, a.packed, in.data + base, boff, tile,
                     static_cast<int>(ldt));
    return;
  }
  gemm_int8_rows(*a.q, ncols, in.q + base, boff, in.q_scale[b], tile,
                 static_cast<int>(ldt));
  if (in.finite) return;
  // A non-finite value has no int8 code: a column with a tap on one is
  // NaN, non-finite exactly where the float GEMM's would be.
  for (int j = 0; j < ncols; ++j)
    for (int kk = 0; kk < a.kdim; ++kk) {
      if (std::isfinite(in.data[base + static_cast<std::size_t>(boff[kk]) + j]))
        continue;
      for (int i = 0; i < a.m; ++i)
        tile[static_cast<std::size_t>(i) * ldt + j] =
            std::numeric_limits<double>::quiet_NaN();
      break;
    }
}

// Columns of a gathered GEMM's B panel one gemm_packed call takes at
// most: a whole number of tiles of every kernel family, and a panel of
// up to 256 columns of every stage's taps stays in L2.
constexpr int kGatherCols = 256;

// Computes tiles [t0, t1) (nr columns each) of gathered GEMM g and
// scatters them to y (channel stride out_hw); returns the columns it
// computed. For each block of up to kGatherCols columns, row kk of the
// B panel holds tap kk's input for every site of the block, one
// contiguous copy per run out of the padded input, and zeros past the
// last site. Each tile column starts from the bias and accumulates its
// taps in ascending order: the chain a band gives the same site. `act`,
// if given, runs on the tile before it scatters.
std::size_t gather_tiles(const detail::GatherGemm& g,
                         const detail::ForwardScratch& scratch,
                         const PaddedInput& in, const double* bias,
                         detail::Activation act, std::size_t out_hw, int nr,
                         std::size_t t0, std::size_t t1,
                         util::ScratchArena& arena) {
  const int m = g.a.m, kdim = g.a.kdim;
  const detail::GatherRun* runs = scratch.runs.data();
  const std::ptrdiff_t* taps = scratch.boff.data() + g.tap;
  const std::size_t block = kGatherCols;
  const std::size_t widest = std::min(block, (t1 - t0) * nr);
  double* bp = arena.alloc(static_cast<std::size_t>(kdim) * widest);
  double* tile = arena.alloc(static_cast<std::size_t>(m) * widest);
  std::size_t done = 0;
  // The first run holding column c0: the last one starting at or
  // before it.
  std::size_t r0 =
      static_cast<std::size_t>(
          std::upper_bound(runs + g.run0, runs + g.run1, t0 * nr,
                           [](std::size_t c, const detail::GatherRun& r) {
                             return c < r.col;
                           }) -
          runs) -
      1;
  for (std::size_t c0 = t0 * nr; c0 < t1 * nr; c0 += block) {
    const std::size_t c1 = std::min(t1 * nr, c0 + block);
    const int ncols = static_cast<int>(c1 - c0);
    const std::size_t real = std::min(c1, g.cols);  // past it: padding
    while (runs[r0].col + static_cast<std::size_t>(runs[r0].len) <= c0) ++r0;
    std::size_t r1 = r0;  // one past the last run the block touches
    while (r1 < g.run1 && runs[r1].col < real) ++r1;
    // Row by row, the runs' parts of the block in column order: each B
    // row (and each tile row below) is written (read) front to back.
    for (int kk = 0; kk < kdim; ++kk) {
      double* brow = bp + static_cast<std::size_t>(kk) * ncols;
      for (std::size_t r = r0; r < r1; ++r) {
        const detail::GatherRun& run = runs[r];
        const std::size_t lo = std::max(c0, run.col);
        const std::size_t hi =
            std::min(real, run.col + static_cast<std::size_t>(run.len));
        const double* src = in.data + run.src + taps[kk] + (lo - run.col);
        double* dst = brow + (lo - c0);
        for (std::size_t j = 0; j < hi - lo; ++j) dst[j] = src[j];
      }
    }
    if (real < c1)
      for (int kk = 0; kk < kdim; ++kk)
        std::fill(bp + static_cast<std::size_t>(kk) * ncols + (real - c0),
                  bp + static_cast<std::size_t>(kk + 1) * ncols, 0.0);
    for (int i = 0; i < m; ++i)
      std::fill_n(tile + static_cast<std::size_t>(i) * ncols, ncols,
                  bias != nullptr ? bias[i] : 0.0);
    if (kdim > 0) {
      gemm_packed(m, ncols, kdim, g.a.packed, bp, ncols, tile, ncols);
      done += static_cast<std::size_t>(ncols);
    }
    if (act != nullptr) act(tile, static_cast<std::size_t>(m) * ncols);
    for (int oc = 0; oc < m; ++oc) {
      const double* trow = tile + static_cast<std::size_t>(oc) * ncols;
      for (std::size_t r = r0; r < r1; ++r) {
        const detail::GatherRun& run = runs[r];
        const std::size_t lo = std::max(c0, run.col);
        const std::size_t hi =
            std::min(real, run.col + static_cast<std::size_t>(run.len));
        const std::size_t step = static_cast<std::size_t>(run.step);
        const double* src = trow + (lo - c0);
        double* dst = run.dst + static_cast<std::size_t>(oc) * out_hw +
                      (lo - run.col) * step;
        for (std::size_t j = 0; j < hi - lo; ++j) dst[j * step] = src[j];
      }
    }
  }
  return done;
}

// Computes a forward's planned sites in one pass sharded by
// parallel_bands, and returns the GEMM columns it computed. The pass's
// units are scratch.full's rows, then the NR-wide tiles of every
// gathered GEMM in order. A chunk runs its full rows as
// band(b, oy_lo, oy_hi, band_arena) (which returns its columns), one
// band per run of consecutive rows of one image, and its tiles through
// gather_tiles (with `act`). `macs` is the MACs of all n * oh * ow
// sites; the planned share of it gates the sharding.
template <typename Band>
std::size_t run_sites(int n, int oh, int ow, std::size_t macs,
                      const detail::ForwardScratch& scratch,
                      const PaddedInput& in, const double* bias,
                      detail::Activation act, util::ScratchArena& arena,
                      Band&& band) {
  const int nr = gemm_nr();
  const std::size_t full = scratch.full.size();
  std::size_t tiles = 0, sites = full * static_cast<std::size_t>(ow);
  for (const detail::GatherGemm& g : scratch.gemms) {
    tiles += (g.cols + nr - 1) / nr;
    sites += g.cols;
  }
  const std::size_t all = static_cast<std::size_t>(n) * oh * ow;
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  std::atomic<std::size_t> columns{0};
  parallel_bands(
      full + tiles, all == 0 ? 0 : macs / all * sites, arena,
      [&](std::size_t lo, std::size_t hi, util::ScratchArena& band_arena) {
        band_arena.reset();
        std::size_t done = 0;
        const std::int32_t* units = scratch.full.data();
        for (std::size_t p = lo; p < std::min(hi, full);) {
          const int b = units[p] / oh, oy_lo = units[p] % oh;
          std::size_t q = p + 1;
          while (q < std::min(hi, full) &&
                 units[q] == units[p] + static_cast<std::int32_t>(q - p) &&
                 oy_lo + static_cast<int>(q - p) < oh)
            ++q;
          done += band(b, oy_lo, oy_lo + static_cast<int>(q - p), band_arena);
          p = q;
        }
        std::size_t t0 = 0;  // the first tile of gemm g in the pass
        for (const detail::GatherGemm& g : scratch.gemms) {
          const std::size_t n_tiles = (g.cols + nr - 1) / nr;
          const std::size_t first = std::max(lo, full + t0),
                            last = std::min(hi, full + t0 + n_tiles);
          if (first < last)
            done += gather_tiles(g, scratch, in, bias, act, out_hw, nr,
                                 first - full - t0, last - full - t0,
                                 band_arena);
          t0 += n_tiles;
        }
        columns.fetch_add(done, std::memory_order_relaxed);
      });
  return columns.load(std::memory_order_relaxed);
}

// Lists the full rows of `rows` (every row of the [n, oh] grid when it
// lists none) in scratch.full, and empties the gathered plan.
void plan_full_rows(detail::OutputRows rows, int n, int oh, int ow,
                    detail::ForwardScratch& scratch) {
  scratch.full.clear();
  scratch.runs.clear();
  scratch.gemms.clear();
  if (rows.spans == nullptr) {
    for (std::int32_t u = 0; u < n * oh; ++u) scratch.full.push_back(u);
    return;
  }
  for (std::size_t p = 0; p < rows.count; ++p)
    if (rows.spans[p].x0 == 0 && rows.spans[p].x1 == ow)
      scratch.full.push_back(rows.spans[p].unit);
}

}  // namespace

// Every conv forward runs through here: each layer's forward, every
// FrozenConv stage and ConvTranspose2D's input gradient.
//
// The band space is the flattened (image, output-row) grid — one
// parallel pass covers the whole batch, so a batched forward
// (nn/batch.hpp, the fleet's cross-loop inference path) shards across
// the batch axis instead of serializing per image. A band of full rows
// runs one GEMM per phase into a private [cout, round_up(ncols, NR)]
// tile, ncols the phase's stretch of the wide grid (rounded so every
// tile is a full micro-tile), and copies the real columns of each of
// the phase's rows into y, grid() apart. The listed partial rows run as
// one gathered GEMM per phase (gather_tiles) in the same pass. Bands
// and gathered sites are disjoint in y, so this is bit-exact across
// thread counts, batch compositions and row lists. A 1x1, stride-1,
// unpadded layer (the detector heads) needs no copy: its one plane is
// x itself, its wide grid is y's, and a band's GEMM writes y directly.
//
// For a deconv, output pixel (oy, ox) gathers x(iy, ix) * w(ic, oc, ky,
// kx) over the taps with oy = iy*s + ky - pad. Each phase's tap list
// (detail::ConvLowering) drops the structural zeros a full-k GEMM would
// multiply, which removes exact no-op additions from each element's
// chain, and walks the scattering inputs in the direct scatter loop's
// (ic, iy, ix) order, so the result stays bit-identical to it.
std::size_t detail::lowered_forward(const ConvLowering& lw, const double* x,
                                    int n, int h, int w,
                                    const LoweredWeights* a,
                                    const double* bias,
                                    ForwardScratch& scratch, double* y,
                                    util::ScratchArena& arena, OutputRows rows,
                                    PaddedCache* padded, Activation act) {
  const int oh = lw.out_size(h), ow = lw.out_size(w);
  const int s = lw.grid(), cout = lw.cout;  // s: the phases' output step
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t phases = lw.rows.size();
  const bool int8 = a[0].q != nullptr;  // every phase is int8, or none
  const bool direct = lw.k == 1 && lw.s == 1 && lw.pad == 0;
  const int nr = direct ? 1 : gemm_nr();
  PaddedInput in = padded_geometry(lw, h, w, ow);
  std::vector<std::ptrdiff_t>& boff = scratch.boff;
  tap_table(lw, in, boff);
  const std::size_t macs = static_cast<std::size_t>(n) * lw.macs_for(h, w);
  if (direct) {
    in.data = x;
    if (int8)
      code_int8(x, n, in.image, static_cast<std::size_t>(n) * in.image, arena,
                in);
  } else {
    // How far past an image's base a band reads: each phase's largest
    // offset plus its widest band.
    std::size_t reach = 0, seg = 0;
    for (std::size_t ph = 0; ph < phases; ++ph) {
      const std::size_t kdim = lw.rows[ph].size();
      if (kdim > 0)
        reach = std::max(
            reach,
            static_cast<std::size_t>(*std::max_element(
                boff.begin() + static_cast<std::ptrdiff_t>(seg),
                boff.begin() + static_cast<std::ptrdiff_t>(seg + kdim))) +
                static_cast<std::size_t>(lw.count(static_cast<int>(ph) / s,
                                                  oh)) *
                    in.wq +
                nr - 1);
      seg += kdim;
    }
    build_padded(x, n, lw.cin, h, w, reach, macs, int8, arena, in, padded);
  }

  // The partial rows, one gathered GEMM per phase: a span's sites in
  // phase (py, px) are one run along its phase row, output column
  // ox0 + xi*s at phase column xi.
  plan_full_rows(rows, n, oh, ow, scratch);
  std::size_t tap = 0;  // each phase's slice of boff
  for (std::size_t ph = 0; ph < phases && rows.spans != nullptr; ++ph) {
    const int py = static_cast<int>(ph) / s, px = static_cast<int>(ph) % s;
    GatherGemm g{a[ph], tap, scratch.runs.size(), 0, 0};
    tap += static_cast<std::size_t>(a[ph].kdim);
    const int ox0 = lw.first(px);
    for (std::size_t p = 0; p < rows.count; ++p) {
      const RowSpan& sp = rows.spans[p];
      const int oy = sp.unit % oh;
      if ((sp.x0 == 0 && sp.x1 == ow) || (oy + lw.pad) % s != py) continue;
      const int xi0 = sp.x0 > ox0 ? (sp.x0 - ox0 + s - 1) / s : 0;
      const int xi1 = std::min(lw.count(px, ow),
                               sp.x1 > ox0 ? (sp.x1 - ox0 + s - 1) / s : 0);
      if (xi1 <= xi0) continue;
      const std::size_t b = static_cast<std::size_t>(sp.unit / oh);
      scratch.runs.push_back(
          {b * in.image +
               static_cast<std::size_t>((oy - lw.first(py)) / s) * in.wq + xi0,
           g.cols,
           y + b * cout * out_hw + static_cast<std::size_t>(oy) * ow + ox0 +
               static_cast<std::size_t>(xi0) * s,
           xi1 - xi0, s});
      g.cols += static_cast<std::size_t>(xi1 - xi0);
    }
    g.run1 = scratch.runs.size();
    if (g.cols == 0) continue;
    S2A_CHECK_MSG(!int8, "partial output rows need float weights");
    scratch.gemms.push_back(g);
  }

  // One band of full rows of one image: every phase subgrid intersecting
  // output rows [oy_lo, oy_hi) of image b gets its GEMM. A band never
  // crosses an image boundary, so its GEMMs read the planes of one
  // image.
  return run_sites(
      n, oh, ow, macs, scratch, in, bias, act, arena,
      [&](int b, int oy_lo, int oy_hi,
          util::ScratchArena& band_arena) -> std::size_t {
        double* yb = y + static_cast<std::size_t>(b) * cout * out_hw;
        if (direct) {
          const int span = (oy_hi - oy_lo) * ow;
          yb += static_cast<std::size_t>(oy_lo) * ow;
          band_gemm(a[0], in, b, boff.data(),
                    static_cast<std::size_t>(b) * in.image +
                        static_cast<std::size_t>(oy_lo) * ow,
                    span, bias, yb, out_hw);
          for (int oc = 0; oc < cout && act != nullptr; ++oc)
            act(yb + static_cast<std::size_t>(oc) * out_hw,
                static_cast<std::size_t>(span));
          return static_cast<std::size_t>(span);
        }
        std::size_t done = 0;
        std::size_t seg = 0;  // this phase's slice of boff
        for (std::size_t ph = 0; ph < phases; ++ph) {
          const int py = static_cast<int>(ph) / s, px = static_cast<int>(ph) % s;
          const int kdim = a[ph].kdim;
          const std::ptrdiff_t* table = boff.data() + seg;
          seg += static_cast<std::size_t>(kdim);
          // This phase's output subgrid within the band: rows
          // oy0, oy0+s, ... and columns ox0, ox0+s, ...
          int oy0 = oy_lo;
          while (oy0 < oy_hi && (oy0 + lw.pad) % s != py) ++oy0;
          const int ny = oy0 < oy_hi ? (oy_hi - oy0 + s - 1) / s : 0;
          const int ox0 = lw.first(px);
          const int nx = lw.count(px, ow);
          if (ny == 0 || nx <= 0) continue;
          const auto yrow = [&](int oc, int yi) {
            return yb + static_cast<std::size_t>(oc) * out_hw +
                   static_cast<std::size_t>(oy0 + yi * s) * ow + ox0;
          };

          if (kdim == 0) {
            // No tap reaches this phase: those pixels are pure bias.
            for (int oc = 0; oc < cout; ++oc) {
              double v = bias != nullptr ? bias[oc] : 0.0;
              if (act != nullptr) act(&v, 1);
              for (int yi = 0; yi < ny; ++yi) {
                double* yr = yrow(oc, yi);
                for (int xi = 0; xi < nx; ++xi) yr[xi * s] = v;
              }
            }
            continue;
          }

          const std::size_t base =
              static_cast<std::size_t>(b) * in.image +
              static_cast<std::size_t>((oy0 - lw.first(py)) / s) * in.wq;
          const int ncols = round_up((ny - 1) * in.wq + nx, nr);
          double* tile =
              band_arena.alloc(static_cast<std::size_t>(cout) * ncols);
          band_gemm(a[ph], in, b, table, base, ncols, bias, tile,
                    static_cast<std::size_t>(ncols));
          if (act != nullptr) act(tile, static_cast<std::size_t>(cout) * ncols);
          done += static_cast<std::size_t>(ncols);
          for (int oc = 0; oc < cout; ++oc) {
            const double* trow = tile + static_cast<std::size_t>(oc) * ncols;
            for (int yi = 0; yi < ny; ++yi) {
              double* yr = yrow(oc, yi);
              const double* tsrc = trow + static_cast<std::size_t>(yi) * in.wq;
              if (s == 1)
                std::copy_n(tsrc, nx, yr);
              else
                for (int xi = 0; xi < nx; ++xi) yr[xi * s] = tsrc[xi];
            }
          }
        }
        return done;
      });
}

namespace {

// Bias gradient: one addend per output pixel of the channel,
// accumulated in (b, oy, ox) order onto gb.
void accumulate_bias_grad(const Tensor& grad_out, Tensor& gb) {
  const int n = grad_out.dim(0), cout = grad_out.dim(1);
  const std::size_t out_hw =
      static_cast<std::size_t>(grad_out.dim(2)) * grad_out.dim(3);
  for (int b = 0; b < n; ++b)
    for (int oc = 0; oc < cout; ++oc) {
      const double* g = grad_out.data() +
                        (static_cast<std::size_t>(b) * cout + oc) * out_hw;
      double acc = gb[static_cast<std::size_t>(oc)];
      for (std::size_t i = 0; i < out_hw; ++i) acc += g[i];
      gb[static_cast<std::size_t>(oc)] = acc;
    }
}

Tensor conv_weight_init(int c0, int c1, int k, Rng& rng) {
  const int fan_in = c1 * k * k;
  Tensor w({c0, c1, k, k});
  const double stddev = std::sqrt(2.0 / fan_in);
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = rng.normal(0.0, stddev);
  return w;
}

}  // namespace

// ---- ConvLowering ----

detail::ConvLowering detail::conv_lowering(int cin, int cout, int k, int s,
                                           int pad) {
  S2A_CHECK(k > 0 && s > 0 && pad >= 0);
  const std::size_t kdim = static_cast<std::size_t>(im2col_rows(cin, k));
  ConvLowering lw{cin, cout, k, s, pad, false, kdim, {{}}, {}};
  for (std::size_t r = 0; r < kdim; ++r) lw.rows[0].push_back(r);
  return lw;
}

detail::ConvLowering detail::deconv_lowering(int cin, int cout, int k, int s,
                                             int pad) {
  S2A_CHECK(k > 0 && s > 0 && pad >= 0);
  ConvLowering lw{cin, cout, k, s, pad, true,
                  static_cast<std::size_t>(k) * k, {}, {}};
  lw.taps.resize(static_cast<std::size_t>(s));
  for (int p = 0; p < s; ++p)
    for (int t = k - 1; t >= 0; --t)
      if (t % s == p) lw.taps[static_cast<std::size_t>(p)].push_back(t);
  for (int py = 0; py < s; ++py)
    for (int px = 0; px < s; ++px) {
      auto& rows = lw.rows.emplace_back();
      for (int ic = 0; ic < cin; ++ic)
        for (int ky : lw.taps[static_cast<std::size_t>(py)])
          for (int kx : lw.taps[static_cast<std::size_t>(px)])
            rows.push_back((static_cast<std::size_t>(ic) * cout * k + ky) * k +
                           kx);
    }
  return lw;
}

std::size_t detail::ConvLowering::macs_for(int h, int w) const {
  const std::size_t sites =
      transposed ? static_cast<std::size_t>(h) * w
                 : static_cast<std::size_t>(out_size(h)) * out_size(w);
  return static_cast<std::size_t>(cin) * cout * k * k * sites;
}

std::size_t detail::ConvLowering::packed_size() const {
  std::size_t total = 0;
  for (const auto& r : rows)
    total += packed_a_size(cout, static_cast<int>(r.size()));
  return total;
}

void detail::ConvLowering::pack(const double* w, double* out,
                                LoweredWeights* a) const {
  for (std::size_t ph = 0; ph < rows.size(); ++ph) {
    const int kdim = static_cast<int>(rows[ph].size());
    a[ph] = {cout, kdim, kdim > 0 ? out : nullptr, nullptr};
    pack_a_indexed(w, row_stride, rows[ph].data(), cout, kdim, out);
    out += packed_a_size(cout, kdim);
  }
}

std::vector<QuantizedMatrix> detail::ConvLowering::quantize(
    const double* w) const {
  std::vector<QuantizedMatrix> q;
  std::vector<double> m;
  for (const auto& r : rows) {
    const int kdim = static_cast<int>(r.size());
    m.resize(static_cast<std::size_t>(cout) * r.size());
    for (int oc = 0; oc < cout; ++oc)
      for (std::size_t j = 0; j < r.size(); ++j)
        m[static_cast<std::size_t>(oc) * r.size() + j] =
            w[static_cast<std::size_t>(oc) * row_stride + r[j]];
    q.push_back(quantize_rows(m.data(), kdim, cout, kdim));
  }
  return q;
}

// ---- ConvLayer ----

ConvLayer::ConvLayer(detail::ConvLowering lowering, int c0, int c1,
                     const char* backward_span, Rng& rng)
    : lowering_(std::move(lowering)),
      w_(conv_weight_init(c0, c1, lowering_.k, rng)),
      b_({lowering_.cout}),
      gw_({c0, c1, lowering_.k, lowering_.k}),
      gb_({lowering_.cout}),
      backward_span_(backward_span),
      a_(lowering_.rows.size()) {}

Tensor ConvLayer::forward(const Tensor& x) {
  last_x_ = x;
  return apply(x);
}

Tensor ConvLayer::infer(Tensor x) { return apply(x); }

// The weight panels are packed ONCE per call, covering every image:
// weights move between forwards during training, so the layer keeps no
// packed panel across calls (nn::FrozenConv keeps a content-keyed one)
// — O(cout * cin * k^2), noise next to the GEMM itself.
Tensor ConvLayer::apply(const Tensor& x) {
  S2A_CHECK_MSG(x.shape().size() == 4 && x.dim(1) == in_channels(),
                "conv layer expects [N," << in_channels() << ",H,W]");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK_MSG(oh > 0 && ow > 0, "conv output collapsed to zero");
  last_macs_ = macs_for(h, w);

  Tensor y({n, out_channels(), oh, ow});
  arena_.reset();
  double* wp = arena_.alloc(lowering_.packed_size());
  lowering_.pack(w_.data(), wp, a_.data());
  detail::lowered_forward(lowering_, x.data(), n, h, w, a_.data(), b_.data(),
                          scratch_, y.data(), arena_);
  return y;
}

Tensor ConvLayer::backward(const Tensor& grad_out) {
  S2A_TRACE_SCOPE_CAT(backward_span_, "nn");
  S2A_CHECK(!last_x_.empty());
  const int n = last_x_.dim(0), h = last_x_.dim(2), w = last_x_.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK(grad_out.shape().size() == 4 &&
            grad_out.dim(1) == out_channels() && grad_out.dim(2) == oh &&
            grad_out.dim(3) == ow);

  accumulate_bias_grad(grad_out, gb_);
  Tensor dx({n, in_channels(), h, w});
  backward_gemm(grad_out, dx, n, h, w, oh, ow);
  return dx;
}

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               int padding, Rng& rng)
    : ConvLayer(detail::conv_lowering(in_channels, out_channels, kernel,
                                      stride, padding),
                out_channels, in_channels, "nn.conv_backward", rng) {}

// GEMM backward. Per image, with colt = im2col_t(x_b), the patch
// matrix of x_b, transposed:
//   gW += G_b x colt           (reduction over output pixels, ascending)
//   dcol = Wᵀ x G_b ; dx_b = col2im_band(dcol)   (per-tap oc-sums,
//                                                 folded in (ky, kx) order)
// Sharding keeps every gradient element's complete reduction chain
// inside one task — im2col_t bands write disjoint rows, the gW/dcol
// GEMMs are striped over *columns* (never over the reduction axis), and
// col2im_band splits by input row — so results are bit-identical to
// the test oracle's direct loops at every thread count.
void Conv2D::backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h,
                           int w, int oh, int ow) {
  const int cin = in_channels(), cout = out_channels(), k = kernel();
  const int kdim = im2col_rows(cin, k);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  arena_.reset();
  // Root allocations happen on the calling thread before any parallel
  // section; tasks only read them (or write disjoint slices).
  double* wt = arena_.alloc(static_cast<std::size_t>(kdim) * cout);
  transpose(w_.data(), cout, kdim, wt);
  double* wtp = arena_.alloc(packed_a_size(kdim, cout));
  pack_a(wt, cout, kdim, cout, wtp);
  double* colt = arena_.alloc(out_hw * static_cast<std::size_t>(kdim));
  double* gpk = arena_.alloc(packed_a_size(cout, static_cast<int>(out_hw)));
  double* dcol = arena_.alloc(static_cast<std::size_t>(kdim) * out_hw);

  const std::size_t macs = static_cast<std::size_t>(cout) * kdim *
                           static_cast<std::size_t>(n) * out_hw;
  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin * in_hw;
    double* dxb = dx.data() + static_cast<std::size_t>(b) * cin * in_hw;

    // colt: bands of output rows write disjoint row ranges.
    parallel_bands(static_cast<std::size_t>(oh), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     im2col_t(xb, cin, h, w, k, stride(), padding(), ow,
                              static_cast<int>(lo), static_cast<int>(hi),
                              colt + lo * ow * kdim);
                   });

    // gW += G_b x colt, striped over gW columns: each element's whole
    // per-image reduction (ascending output pixels) runs in one stripe.
    pack_a(gb, static_cast<int>(out_hw), cout, static_cast<int>(out_hw),
           gpk);
    parallel_bands(static_cast<std::size_t>(kdim), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     gemm_packed(cout, static_cast<int>(hi - lo),
                                 static_cast<int>(out_hw), gpk, colt + lo,
                                 kdim, gw_.data() + lo, kdim);
                   });

    // dcol = Wᵀ x G_b, striped over output pixels (zero-init per stripe
    // so each element's oc-reduction starts from 0, the direct loop's
    // per-tap sub-chain).
    parallel_bands(out_hw, macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     for (int r = 0; r < kdim; ++r)
                       std::fill_n(
                           dcol + static_cast<std::size_t>(r) * out_hw + lo,
                           hi - lo, 0.0);
                     gemm_packed(kdim, static_cast<int>(hi - lo), cout, wtp,
                                 gb + lo, static_cast<int>(out_hw), dcol + lo,
                                 static_cast<int>(out_hw));
                   });

    // Fold dcol onto dx_b, banded over input rows: each dx element gets
    // all of its (ky, kx) addends inside one band.
    parallel_bands(static_cast<std::size_t>(h), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     col2im_band(dcol, cin, h, w, k, stride(), padding(), ow,
                                 static_cast<int>(lo), static_cast<int>(hi),
                                 dxb);
                   });
  }
}

ConvTranspose2D::ConvTranspose2D(int in_channels, int out_channels, int kernel,
                                 int stride, int padding, Rng& rng)
    : ConvLayer(detail::deconv_lowering(in_channels, out_channels, kernel,
                                        stride, padding),
                in_channels, out_channels, "nn.deconv_backward", rng),
      adjoint_(detail::conv_lowering(out_channels, in_channels, kernel, stride,
                                     padding)) {}

// GEMM backward. The deconv's backward-input pass is a *plain* strided
// convolution of grad_out with the un-flipped kernel (W viewed as
// [cin, cout*k*k]) and zero bias: the forward's scatter
// oy = iy*s + ky - pad becomes a gather, so no phase decomposition is
// needed — unlike the forward there are no structural zeros to skip.
//   gW += X_b x im2col_t(G_b)  (per image; reduction over input pixels,
//                               ascending)
//   dx = adjoint_'s forward on G (the whole batch, banded over input
//                               rows like Conv2D's forward; each
//                               element's chain starts from 0 like the
//                               direct loop's acc)
// Same sharding rules as Conv2D::backward_gemm, so bit-identical to the
// direct loops at every thread count.
void ConvTranspose2D::backward_gemm(const Tensor& grad_out, Tensor& dx,
                                    int n, int h, int w, int oh, int ow) {
  const int cin = in_channels(), cout = out_channels(), k = kernel();
  const int kdim = im2col_rows(cout, k);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  arena_.reset();
  // w_ is [Cin, Cout, k, k] row-major — already the [cin, kdim] A matrix
  // of the adjoint convolution; no transpose needed.
  double* wp = arena_.alloc(adjoint_.packed_size());
  detail::LoweredWeights a;
  adjoint_.pack(w_.data(), wp, &a);
  double* colt = arena_.alloc(in_hw * static_cast<std::size_t>(kdim));
  double* xpk = arena_.alloc(packed_a_size(cin, static_cast<int>(in_hw)));

  const std::size_t macs = static_cast<std::size_t>(cin) * kdim *
                           static_cast<std::size_t>(n) * in_hw;
  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin * in_hw;

    // im2col_t(G_b) over the adjoint-conv geometry: its "output" pixels
    // are the deconv's input pixels, so bands split input rows.
    parallel_bands(static_cast<std::size_t>(h), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     im2col_t(gb, cout, oh, ow, k, stride(), padding(), w,
                              static_cast<int>(lo), static_cast<int>(hi),
                              colt + lo * w * kdim);
                   });

    // gW += X_b x colt, striped over gW columns.
    pack_a(xb, static_cast<int>(in_hw), cin, static_cast<int>(in_hw), xpk);
    parallel_bands(static_cast<std::size_t>(kdim), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     gemm_packed(cin, static_cast<int>(hi - lo),
                                 static_cast<int>(in_hw), xpk, colt + lo,
                                 kdim, gw_.data() + lo, kdim);
                   });
  }

  detail::lowered_forward(adjoint_, grad_out.data(), n, oh, ow, &a, nullptr,
                          scratch_, dx.data(), arena_);
}

}  // namespace s2a::nn
