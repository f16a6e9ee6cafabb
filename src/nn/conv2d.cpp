#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {

namespace {

// Forward passes below this many MACs run inline: pool dispatch would
// cost more than the convolution itself.
constexpr std::size_t kMinParallelMacs = 1 << 15;

// Splits `total` units of independent work into chunks sized for the
// global pool (~4 chunks per slot hides worker imbalance) and runs
// fn(lo, hi, band_arena) over them, giving each chunk a private
// ScratchArena slot for its im2col panel (backward's row stripes just
// ignore it). Falls back to one inline call (slot 0) when the pool has
// one slot or the work is too small to pay for dispatch. fn must write
// disjoint outputs per unit so results are bit-exact at every thread
// count.
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

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               int padding, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      w_(conv_weight_init(out_channels, in_channels, kernel, rng)),
      b_({out_channels}),
      gw_({out_channels, in_channels, kernel, kernel}),
      gb_({out_channels}) {
  S2A_CHECK(kernel > 0 && stride > 0 && padding >= 0);
}

Tensor Conv2D::forward(const Tensor& x) {
  last_x_ = x;
  return apply(x);
}

Tensor Conv2D::infer(Tensor x) { return apply(x); }

Tensor Conv2D::apply(const Tensor& x) {
  S2A_CHECK_MSG(x.shape().size() == 4 && x.dim(1) == cin_,
                "Conv2D expects [N," << cin_ << ",H,W]");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK_MSG(oh > 0 && ow > 0, "conv output collapsed to zero");
  last_out_hw_ = static_cast<std::size_t>(oh) * ow;

  Tensor y({n, cout_, oh, ow});
  forward_gemm(x, y, n, h, w, oh, ow);
  return y;
}

// im2col + blocked-GEMM path. The band space is the flattened
// (image, output-row) grid — one parallel pass covers the whole batch,
// so a batched forward (nn/batch.hpp, the fleet's cross-loop inference
// path) shards across the batch axis instead of serializing per image.
// Each band of output rows lowers its input patches into a private
// column panel (band arena) and multiplies the packed weight panel —
// packed ONCE per call, covering every image — against it, writing the
// band's slice of y directly. Bands are disjoint in y and the GEMM
// accumulates every element in ascending (ic, ky, kx) order — the direct
// loop's order — so this is bit-exact vs. the test oracle, across thread
// counts, and across batch compositions (the band split only changes
// which elements go together).
void Conv2D::forward_gemm(const Tensor& x, Tensor& y, int n, int h, int w,
                          int oh, int ow) {
  const int kdim = im2col_rows(cin_, k_);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  arena_.reset();
  // Int8 path (after quantize()): same lowering, but each band's column
  // panel is quantized against ONE per-tensor activation scale —
  // computed over the whole input, so the band split cannot change the
  // quantization grid — and multiplied by the int8 weight snapshot.
  // Integer accumulation is order-exact, so this path is deterministic
  // across thread counts too.
  const bool int8 = quantized_;
  const double xs = int8 ? activation_scale(x.data(), x.numel()) : 0.0;
  double* wp = nullptr;
  if (!int8) {
    // Weights move between forwards during training, so repack per call —
    // O(cout*cin*k^2), noise next to the GEMM itself.
    wp = arena_.alloc(packed_a_size(cout_, kdim));
    pack_a(w_.data(), kdim, cout_, kdim, wp);
  }

  const std::size_t macs = static_cast<std::size_t>(cout_) * kdim *
                           static_cast<std::size_t>(n) * out_hw;
  parallel_bands(
      static_cast<std::size_t>(n) * oh, macs, arena_,
      [&](std::size_t lo, std::size_t hi, util::ScratchArena& band_arena) {
        band_arena.reset();
        // A chunk may span image boundaries; split it at each one so the
        // im2col/GEMM below always sees rows of a single image.
        for (std::size_t u = lo; u < hi;) {
          const int b = static_cast<int>(u / static_cast<std::size_t>(oh));
          const int oy_lo = static_cast<int>(u % static_cast<std::size_t>(oh));
          const int oy_hi = static_cast<int>(
              std::min<std::size_t>(static_cast<std::size_t>(oh),
                                    static_cast<std::size_t>(oy_lo) + (hi - u)));
          const double* xb =
              x.data() + static_cast<std::size_t>(b) * cin_ * h * w;
          double* yb = y.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
          const int width = (oy_hi - oy_lo) * ow;
          double* col =
              band_arena.alloc(static_cast<std::size_t>(kdim) * width);
          im2col(xb, cin_, h, w, k_, stride_, pad_, ow, oy_lo, oy_hi, col);
          double* cband = yb + static_cast<std::size_t>(oy_lo) * ow;
          for (int oc = 0; oc < cout_; ++oc)
            std::fill_n(cband + static_cast<std::size_t>(oc) * out_hw, width,
                        b_[static_cast<std::size_t>(oc)]);
          if (int8) {
            gemm_int8_panel(qw_, width, col, xs, band_arena, cband,
                            static_cast<int>(out_hw));
          } else {
            gemm_packed(cout_, width, kdim, wp, col, width, cband,
                        static_cast<int>(out_hw));
          }
          u += static_cast<std::size_t>(oy_hi - oy_lo);
        }
      });
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  S2A_TRACE_SCOPE_CAT("nn.conv_backward", "nn");
  S2A_CHECK(!last_x_.empty());
  S2A_CHECK_MSG(!quantized_, "backward through an int8-quantized Conv2D");
  const int n = last_x_.dim(0), h = last_x_.dim(2), w = last_x_.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK(grad_out.shape().size() == 4 && grad_out.dim(1) == cout_ &&
            grad_out.dim(2) == oh && grad_out.dim(3) == ow);

  accumulate_bias_grad(grad_out, gb_);
  Tensor dx({n, cin_, h, w});
  backward_gemm(grad_out, dx, n, h, w, oh, ow);
  return dx;
}

// GEMM backward. Per image:
//   gW += G_b x im2col(x_b)ᵀ   (reduction over output pixels, ascending)
//   dcol = Wᵀ x G_b ; dx_b = col2im(dcol)   (per-tap oc-sums, folded in
//                                            (ky, kx) order)
// Sharding keeps every gradient element's complete reduction chain
// inside one task — im2col_t bands write disjoint rows, the gW/dcol
// GEMMs are striped over *columns* (never over the reduction axis), and
// col2im_band splits by input row — so results are bit-identical to
// the test oracle's direct loops at every thread count.
void Conv2D::backward_gemm(const Tensor& grad_out, Tensor& dx, int n, int h,
                           int w, int oh, int ow) {
  const int kdim = im2col_rows(cin_, k_);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  arena_.reset();
  // Root allocations happen on the calling thread before any parallel
  // section; tasks only read them (or write disjoint slices).
  double* wt = arena_.alloc(static_cast<std::size_t>(kdim) * cout_);
  transpose(w_.data(), cout_, kdim, wt);
  double* wtp = arena_.alloc(packed_a_size(kdim, cout_));
  pack_a(wt, cout_, kdim, cout_, wtp);
  double* colt = arena_.alloc(out_hw * static_cast<std::size_t>(kdim));
  double* gpk = arena_.alloc(packed_a_size(cout_, static_cast<int>(out_hw)));
  double* dcol = arena_.alloc(static_cast<std::size_t>(kdim) * out_hw);

  const std::size_t macs = static_cast<std::size_t>(cout_) * kdim *
                           static_cast<std::size_t>(n) * out_hw;
  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin_ * in_hw;
    double* dxb = dx.data() + static_cast<std::size_t>(b) * cin_ * in_hw;

    // im2col(x_b)ᵀ: bands of output rows write disjoint row ranges.
    parallel_bands(static_cast<std::size_t>(oh), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     im2col_t(xb, cin_, h, w, k_, stride_, pad_, ow,
                              static_cast<int>(lo), static_cast<int>(hi),
                              colt + lo * ow * kdim);
                   });

    // gW += G_b x colt, striped over gW columns: each element's whole
    // per-image reduction (ascending output pixels) runs in one stripe.
    pack_a(gb, static_cast<int>(out_hw), cout_, static_cast<int>(out_hw),
           gpk);
    parallel_bands(static_cast<std::size_t>(kdim), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     gemm_packed(cout_, static_cast<int>(hi - lo),
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
                     gemm_packed(kdim, static_cast<int>(hi - lo), cout_, wtp,
                                 gb + lo, static_cast<int>(out_hw), dcol + lo,
                                 static_cast<int>(out_hw));
                   });

    // Fold dcol onto dx_b, banded over input rows: each dx element gets
    // all of its (ky, kx) addends inside one band.
    parallel_bands(static_cast<std::size_t>(h), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     col2im_band(dcol, cin_, h, w, k_, stride_, pad_, ow,
                                 static_cast<int>(lo), static_cast<int>(hi),
                                 dxb);
                   });
  }
}

std::size_t Conv2D::macs_per_sample() const {
  return static_cast<std::size_t>(cout_) * cin_ * k_ * k_ * last_out_hw_;
}

void Conv2D::quantize() {
  // One row per output channel over the (ic, ky, kx) reduction — w_ is
  // [Cout, Cin, k, k] row-major, so each row is already contiguous.
  const int kdim = im2col_rows(cin_, k_);
  qw_ = quantize_rows(w_.data(), kdim, cout_, kdim);
  quantized_ = true;
}

ConvTranspose2D::ConvTranspose2D(int in_channels, int out_channels, int kernel,
                                 int stride, int padding, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      w_(conv_weight_init(in_channels, out_channels, kernel, rng)),
      b_({out_channels}),
      gw_({in_channels, out_channels, kernel, kernel}),
      gb_({out_channels}) {
  S2A_CHECK(kernel > 0 && stride > 0 && padding >= 0);
  // Phase p reads the kernel offsets t with t % s == p. Each list is
  // descending, so ascending list order is ascending source row (or
  // column) — the direct scatter's order.
  const int s = stride_;
  taps_.resize(static_cast<std::size_t>(s));
  for (int p = 0; p < s; ++p)
    for (int t = k_ - 1; t >= 0; --t)
      if (t % s == p) taps_[static_cast<std::size_t>(p)].push_back(t);
  phase_rows_.resize(static_cast<std::size_t>(s) * s);
  for (int py = 0; py < s; ++py)
    for (int px = 0; px < s; ++px) {
      auto& rows = phase_rows_[static_cast<std::size_t>(py) * s + px];
      for (int ic = 0; ic < cin_; ++ic) {
        const std::size_t plane =
            static_cast<std::size_t>(ic) * cout_ * k_ * k_;
        for (int ky : taps_[static_cast<std::size_t>(py)])
          for (int kx : taps_[static_cast<std::size_t>(px)])
            rows.push_back(plane + static_cast<std::size_t>(ky) * k_ + kx);
      }
    }
}

Tensor ConvTranspose2D::forward(const Tensor& x) {
  last_x_ = x;
  return apply(x);
}

Tensor ConvTranspose2D::infer(Tensor x) { return apply(x); }

Tensor ConvTranspose2D::apply(const Tensor& x) {
  S2A_CHECK(x.shape().size() == 4 && x.dim(1) == cin_);
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK(oh > 0 && ow > 0);
  last_in_hw_ = static_cast<std::size_t>(h) * w;

  Tensor y({n, cout_, oh, ow});
  forward_gemm(x, y, n, h, w, oh, ow);
  return y;
}

// Deconv as flipped-kernel im2col with sub-pixel phase decomposition.
//
// Gathering output pixel (oy, ox) over flipped taps visits the
// scattering inputs in exactly the direct scatter loop's (ic, iy, ix)
// order (iy/ix ascend as the flipped taps ascend), so the GEMM chain
// matches the scatter per element.
//
// For stride s > 1 only taps with ky % s == (oy+pad) % s (and likewise
// for x) pass the phase gate — a full-K GEMM would spend (s*s-1)/(s*s)
// of its MACs multiplying structural zeros. So the output is split into
// its s*s sub-pixel phase grids, each with a dense tap list and its own
// weight panel (packed per call through the constructor's phase_rows_
// table), and each phase runs a compact GEMM into a scratch tile that
// is scattered onto y. Stride 1 is the one-phase case. Dropping the
// structural zeros removes exact no-op additions from each element's
// chain, so the result stays bit-identical to the direct scatter.
void ConvTranspose2D::forward_gemm(const Tensor& x, Tensor& y, int n, int h,
                                   int w, int oh, int ow) {
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t kk2 = static_cast<std::size_t>(k_) * k_;
  const int s = stride_;
  arena_.reset();
  // Int8 path: the per-phase weight matrices were snapshotted by
  // quantize(); each phase's column panel is quantized against the one
  // whole-input activation scale (band-invariant) before its compact
  // int8 GEMM.
  const bool int8 = quantized_;
  const double xs = int8 ? activation_scale(x.data(), x.numel()) : 0.0;

  // Packed weight panel per (py, px) phase: one indexed copy of w_,
  // rows (ic, jy, jx) matching the phase column matrix below.
  std::vector<double*> wp(phase_rows_.size(), nullptr);
  if (!int8)
    for (std::size_t ph = 0; ph < phase_rows_.size(); ++ph) {
      const auto& rows = phase_rows_[ph];
      if (rows.empty()) continue;
      const int kdim = static_cast<int>(rows.size());
      wp[ph] = arena_.alloc(packed_a_size(cout_, kdim));
      pack_a_indexed(w_.data(), kk2, rows.data(), cout_, kdim, wp[ph]);
    }

  // One band of one image: every phase subgrid intersecting output rows
  // [oy_lo, oy_hi) of image b gets its compact GEMM. Extracted so the
  // cross-image band pass below can split a chunk at image boundaries.
  const auto run_band = [&](int b, int oy_lo, int oy_hi,
                            util::ScratchArena& band_arena) {
    const double* xb = x.data() + static_cast<std::size_t>(b) * cin_ * h * w;
    double* yb = y.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    for (int py = 0; py < s; ++py)
      for (int px = 0; px < s; ++px) {
        // This phase's output subgrid within the band: rows
        // oy0, oy0+s, ... and columns ox0, ox0+s, ...
        int oy0 = oy_lo;
        while (oy0 < oy_hi && (oy0 + pad_) % s != py) ++oy0;
        const int ny = oy0 < oy_hi ? (oy_hi - oy0 + s - 1) / s : 0;
        const int ox0_raw = (px - pad_) % s;
        const int ox0 = ox0_raw < 0 ? ox0_raw + s : ox0_raw;
        const int nx = ox0 < ow ? (ow - ox0 + s - 1) / s : 0;
        if (ny == 0 || nx == 0) continue;

        const std::size_t ph = static_cast<std::size_t>(py) * s + px;
        const int kdim = static_cast<int>(phase_rows_[ph].size());
        const int nph = ny * nx;
        if (kdim == 0) {
          // No tap reaches this phase (kernel shorter than the stride):
          // those pixels are pure bias.
          for (int oc = 0; oc < cout_; ++oc)
            for (int yi = 0; yi < ny; ++yi) {
              double* yrow = yb + static_cast<std::size_t>(oc) * out_hw +
                             static_cast<std::size_t>(oy0 + yi * s) * ow;
              for (int xi = 0; xi < nx; ++xi)
                yrow[ox0 + xi * s] = b_[static_cast<std::size_t>(oc)];
            }
          continue;
        }

        // Phase membership makes s divide oy0 + pad - ky for every tap
        // ky of this phase, so phase row yi reads input row iy0 + yi
        // with iy0 = (oy0 + pad - ky) / s (likewise ix0 + xi for
        // columns): each lowered row is one contiguous span of an input
        // row with zero-filled edges, clamped once per (tap, row).
        double* col = band_arena.alloc(static_cast<std::size_t>(kdim) * nph);
        double* row = col;
        for (int ic = 0; ic < cin_; ++ic) {
          const double* plane = xb + static_cast<std::size_t>(ic) * h * w;
          for (const int ky : taps_[static_cast<std::size_t>(py)]) {
            const int iy0 = (oy0 + pad_ - ky) / s;
            for (const int kx : taps_[static_cast<std::size_t>(px)]) {
              const int ix0 = (ox0 + pad_ - kx) / s;
              for (int yi = 0; yi < ny; ++yi) {
                double* dst = row + static_cast<std::size_t>(yi) * nx;
                const int iy = iy0 + yi;
                if (iy < 0 || iy >= h)
                  std::fill_n(dst, nx, 0.0);
                else
                  gather_row(plane + static_cast<std::size_t>(iy) * w, ix0,
                             1, w, nx, dst);
              }
              row += static_cast<std::size_t>(nph);
            }
          }
        }

        double* tile = band_arena.alloc(static_cast<std::size_t>(cout_) * nph);
        for (int oc = 0; oc < cout_; ++oc)
          std::fill_n(tile + static_cast<std::size_t>(oc) * nph, nph,
                      b_[static_cast<std::size_t>(oc)]);
        if (int8)
          gemm_int8_panel(qw_ph_[ph], nph, col, xs, band_arena, tile, nph);
        else
          gemm_packed(cout_, nph, kdim, wp[ph], col, nph, tile, nph);
        for (int oc = 0; oc < cout_; ++oc) {
          const double* trow = tile + static_cast<std::size_t>(oc) * nph;
          for (int yi = 0; yi < ny; ++yi) {
            double* yrow = yb + static_cast<std::size_t>(oc) * out_hw +
                           static_cast<std::size_t>(oy0 + yi * s) * ow;
            const double* tsrc = trow + static_cast<std::size_t>(yi) * nx;
            for (int xi = 0; xi < nx; ++xi) yrow[ox0 + xi * s] = tsrc[xi];
          }
        }
      }
  };

  // Band space is the flattened (image, output-row) grid, so a batched
  // forward shards across the batch axis in one pass (see
  // Conv2D::forward_gemm for the bit-exactness argument).
  const std::size_t macs = static_cast<std::size_t>(cin_) * cout_ * k_ * k_ *
                           static_cast<std::size_t>(n) * h * w;
  parallel_bands(
      static_cast<std::size_t>(n) * oh, macs, arena_,
      [&](std::size_t lo, std::size_t hi, util::ScratchArena& band_arena) {
        band_arena.reset();
        for (std::size_t u = lo; u < hi;) {
          const int b = static_cast<int>(u / static_cast<std::size_t>(oh));
          const int oy_lo = static_cast<int>(u % static_cast<std::size_t>(oh));
          const int oy_hi = static_cast<int>(
              std::min<std::size_t>(static_cast<std::size_t>(oh),
                                    static_cast<std::size_t>(oy_lo) + (hi - u)));
          run_band(b, oy_lo, oy_hi, band_arena);
          u += static_cast<std::size_t>(oy_hi - oy_lo);
        }
      });
}

Tensor ConvTranspose2D::backward(const Tensor& grad_out) {
  S2A_TRACE_SCOPE_CAT("nn.deconv_backward", "nn");
  S2A_CHECK(!last_x_.empty());
  S2A_CHECK_MSG(!quantized_,
                "backward through an int8-quantized ConvTranspose2D");
  const int n = last_x_.dim(0), h = last_x_.dim(2), w = last_x_.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  S2A_CHECK(grad_out.shape().size() == 4 && grad_out.dim(1) == cout_ &&
            grad_out.dim(2) == oh && grad_out.dim(3) == ow);

  accumulate_bias_grad(grad_out, gb_);
  Tensor dx({n, cin_, h, w});
  backward_gemm(grad_out, dx, n, h, w, oh, ow);
  return dx;
}

// GEMM backward. The deconv's backward-input pass is a *plain* strided
// convolution of grad_out with the un-flipped kernel (W viewed as
// [cin, cout*k*k]): the forward's scatter oy = iy*s + ky - pad becomes
// a gather with the stride folded into the im2col addressing, so no
// phase decomposition is needed — unlike the forward there are no
// structural zeros to skip. Per image:
//   gW += X_b x im2col(G_b)ᵀ   (reduction over input pixels, ascending)
//   dx_b = W x im2col(G_b)      (banded over input rows, like a forward)
// Same sharding rules as Conv2D::backward_gemm, so bit-identical to the
// direct loops at every thread count.
void ConvTranspose2D::backward_gemm(const Tensor& grad_out, Tensor& dx,
                                    int n, int h, int w, int oh, int ow) {
  const int kdim = im2col_rows(cout_, k_);
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_hw = static_cast<std::size_t>(h) * w;
  arena_.reset();
  // w_ is [Cin, Cout, k, k] row-major — already the [cin, kdim] A matrix
  // of the adjoint convolution; no transpose needed.
  double* wp = arena_.alloc(packed_a_size(cin_, kdim));
  pack_a(w_.data(), kdim, cin_, kdim, wp);
  double* colt = arena_.alloc(in_hw * static_cast<std::size_t>(kdim));
  double* xpk = arena_.alloc(packed_a_size(cin_, static_cast<int>(in_hw)));

  const std::size_t macs = static_cast<std::size_t>(cin_) * kdim *
                           static_cast<std::size_t>(n) * in_hw;
  for (int b = 0; b < n; ++b) {
    const double* gb =
        grad_out.data() + static_cast<std::size_t>(b) * cout_ * out_hw;
    const double* xb =
        last_x_.data() + static_cast<std::size_t>(b) * cin_ * in_hw;
    double* dxb = dx.data() + static_cast<std::size_t>(b) * cin_ * in_hw;

    // im2col(G_b)ᵀ over the adjoint-conv geometry: its "output" pixels
    // are the deconv's input pixels, so bands split input rows.
    parallel_bands(static_cast<std::size_t>(h), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     im2col_t(gb, cout_, oh, ow, k_, stride_, pad_, w,
                              static_cast<int>(lo), static_cast<int>(hi),
                              colt + lo * w * kdim);
                   });

    // gW += X_b x colt, striped over gW columns.
    pack_a(xb, static_cast<int>(in_hw), cin_, static_cast<int>(in_hw), xpk);
    parallel_bands(static_cast<std::size_t>(kdim), macs, arena_,
                   [&](std::size_t lo, std::size_t hi, util::ScratchArena&) {
                     gemm_packed(cin_, static_cast<int>(hi - lo),
                                 static_cast<int>(in_hw), xpk, colt + lo,
                                 kdim, gw_.data() + lo, kdim);
                   });

    // dx_b = W x im2col(G_b), banded over input rows with per-band
    // column panels (mirrors Conv2D::forward_gemm; dx is zero-init so
    // each element's chain starts from 0 like the direct loop's acc).
    parallel_bands(
        static_cast<std::size_t>(h), macs, arena_,
        [&](std::size_t lo, std::size_t hi, util::ScratchArena& band_arena) {
          const int iy_lo = static_cast<int>(lo), iy_hi = static_cast<int>(hi);
          const int width = (iy_hi - iy_lo) * w;
          band_arena.reset();
          double* col =
              band_arena.alloc(static_cast<std::size_t>(kdim) * width);
          im2col(gb, cout_, oh, ow, k_, stride_, pad_, w, iy_lo, iy_hi, col);
          gemm_packed(cin_, width, kdim, wp, col, width,
                      dxb + static_cast<std::size_t>(iy_lo) * w,
                      static_cast<int>(in_hw));
        });
  }
}

void ConvTranspose2D::quantize() {
  // Snapshot each phase's dense [Cout, kdim] weight matrix — the panel
  // the float forward packs per call, read through the same table — one
  // QuantizedMatrix per (py, px) phase.
  const std::size_t kk2 = static_cast<std::size_t>(k_) * k_;
  qw_ph_.assign(phase_rows_.size(), QuantizedMatrix{});
  std::vector<double> wph;
  for (std::size_t ph = 0; ph < phase_rows_.size(); ++ph) {
    const auto& rows = phase_rows_[ph];
    const std::size_t kdim = rows.size();
    if (kdim == 0) continue;
    wph.resize(static_cast<std::size_t>(cout_) * kdim);
    for (int oc = 0; oc < cout_; ++oc)
      for (std::size_t r = 0; r < kdim; ++r)
        wph[static_cast<std::size_t>(oc) * kdim + r] = w_[rows[r] + oc * kk2];
    qw_ph_[ph] = quantize_rows(wph.data(), static_cast<int>(kdim), cout_,
                               static_cast<int>(kdim));
  }
  quantized_ = true;
}

std::size_t ConvTranspose2D::macs_per_sample() const {
  return static_cast<std::size_t>(cin_) * cout_ * k_ * k_ * last_in_hw_;
}

}  // namespace s2a::nn
