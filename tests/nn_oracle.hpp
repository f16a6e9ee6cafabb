// Direct-loop reference implementations of the conv, deconv and dense
// layers, for the kernel equivalence tests (nn_kernels_test.cpp).
//
// The library runs every layer as a blocked GEMM — the conv forwards
// read a zero-padded input through a row table, the backwards lower
// with im2col_t/col2im_band; these are the original nested loops,
// written in the GEMM chain order so the two agree bit-for-bit (the
// tests compare with ==, no tolerance). They are serial: each output
// element has exactly one accumulation chain, so sharding would not
// change its bits. Each takes the layer's input, its weights and bias
// (layer.params()), and the stride and padding; the kernel size and
// channel counts come from the weight shape.
//
// im2col and col2im, the explicit lowering (the library builds none),
// are here too: the int8 conv oracle multiplies an im2col matrix with
// gemm_int8, and the lowering tests pin im2col_t and col2im_band
// against them.
//
// ScopedSimd, the nn tests' one way to run a scope under a chosen
// kernel family, is here too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/im2col.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "util/cpu_features.hpp"

namespace s2a::nn::oracle {

/// Selects a kernel family for the scope and restores the one active
/// before it (which may come from S2A_SIMD).
class ScopedSimd {
 public:
  explicit ScopedSimd(util::SimdIsa isa) : saved_(util::active_simd_isa()) {
    util::set_simd_isa(isa);
  }
  ~ScopedSimd() { util::set_simd_isa(saved_); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  util::SimdIsa saved_;
};

/// Writes the im2col matrix for output rows [oy_lo, oy_hi) of a direct
/// convolution over x (one image, [cin, h, w] row-major): col is
/// [cin*k*k, (oy_hi-oy_lo)*ow] row-major. Column j holds every input
/// tap output pixel j reads, and row r walks the taps in (ic, ky, kx)
/// order — the direct loops' accumulation order; out-of-bounds taps
/// are 0.0.
inline void im2col(const double* x, int cin, int h, int w, int k, int stride,
                   int pad, int ow, int oy_lo, int oy_hi, double* col) {
  const int band = oy_hi - oy_lo;
  double* out = col;
  for (int ic = 0; ic < cin; ++ic) {
    const double* plane = x + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        // One lowered row: tap (ic, ky, kx) for every output pixel in
        // the band, in (oy, ox) order; output row oy reads input row
        // iy at columns ox*stride + kx - pad.
        for (int oy = oy_lo; oy < oy_hi; ++oy) {
          double* row = out + static_cast<std::size_t>(oy - oy_lo) * ow;
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) {
            std::fill_n(row, ow, 0.0);
            continue;
          }
          gather_row(plane + static_cast<std::size_t>(iy) * w, kx - pad,
                     stride, w, ow, row);
        }
        out += static_cast<std::size_t>(band) * ow;
      }
  }
}

/// Adjoint of im2col: scatters col (layout as above) back onto x,
/// *accumulating* into it — each input pixel receives one addend per
/// output pixel that reads it. col2im(im2col(x)) therefore multiplies
/// every pixel by its read count.
inline void col2im(const double* col, int cin, int h, int w, int k,
                   int stride, int pad, int ow, int oy_lo, int oy_hi,
                   double* x) {
  const int band = oy_hi - oy_lo;
  const double* in = col;
  for (int ic = 0; ic < cin; ++ic) {
    double* plane = x + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        for (int oy = oy_lo; oy < oy_hi; ++oy) {
          const double* row = in + static_cast<std::size_t>(oy - oy_lo) * ow;
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          double* dst = plane + static_cast<std::size_t>(iy) * w;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride + kx - pad;
            if (ix < 0 || ix >= w) continue;
            dst[ix] += row[ox];
          }
        }
        in += static_cast<std::size_t>(band) * ow;
      }
  }
}

/// Gradients of one backward pass, accumulated from zero.
struct Grads {
  Tensor dx, gw, gb;
};

inline std::size_t idx4(int a, int b, int c, int d, int db, int dc, int dd) {
  return ((static_cast<std::size_t>(a) * db + b) * dc + c) * dd + d;
}

/// Conv2D forward. x: [N, Cin, H, W], w: [Cout, Cin, k, k], b: [Cout].
inline Tensor conv2d_forward(const Tensor& x, const Tensor& w,
                             const Tensor& b, int stride, int pad) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(0), k = w.dim(2);
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (wd + 2 * pad - k) / stride + 1;
  Tensor y({n, cout, oh, ow});
  for (int bi = 0; bi < n; ++bi)
    for (int oc = 0; oc < cout; ++oc)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          double acc = b[static_cast<std::size_t>(oc)];
          for (int ic = 0; ic < cin; ++ic)
            for (int ky = 0; ky < k; ++ky) {
              const int iy = oy * stride + ky - pad;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < k; ++kx) {
                const int ix = ox * stride + kx - pad;
                if (ix < 0 || ix >= wd) continue;
                acc += x[idx4(bi, ic, iy, ix, cin, h, wd)] *
                       w[idx4(oc, ic, ky, kx, cin, k, k)];
              }
            }
          y[idx4(bi, oc, oy, ox, cout, oh, ow)] = acc;
        }
  return y;
}

/// Conv2D backward for upstream gradient g: [N, Cout, OH, OW].
///  - each gW element sums g*x over (b; oy, ox) ascending,
///  - each dx element sums per-tap (ky, kx ascending) sub-chains, each
///    sub-chain reducing over out-channels from zero first.
/// Out-of-range taps are skipped here and zero-filled in the lowered
/// matrices; adding a*0.0 to a finite accumulator is exact, so both
/// treatments leave identical bits.
inline Grads conv2d_backward(const Tensor& x, const Tensor& w,
                             const Tensor& g, int stride, int pad) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(0), k = w.dim(2);
  const int oh = g.dim(2), ow = g.dim(3);
  Grads r{Tensor({n, cin, h, wd}), Tensor({cout, cin, k, k}), Tensor({cout})};
  for (int bi = 0; bi < n; ++bi)
    for (int oc = 0; oc < cout; ++oc) {
      double acc = r.gb[static_cast<std::size_t>(oc)];
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox)
          acc += g[idx4(bi, oc, oy, ox, cout, oh, ow)];
      r.gb[static_cast<std::size_t>(oc)] = acc;
    }
  for (int bi = 0; bi < n; ++bi) {
    for (int oc = 0; oc < cout; ++oc)
      for (int ic = 0; ic < cin; ++ic)
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx) {
            double acc = r.gw[idx4(oc, ic, ky, kx, cin, k, k)];
            for (int oy = 0; oy < oh; ++oy) {
              const int iy = oy * stride + ky - pad;
              if (iy < 0 || iy >= h) continue;
              for (int ox = 0; ox < ow; ++ox) {
                const int ix = ox * stride + kx - pad;
                if (ix < 0 || ix >= wd) continue;
                acc += g[idx4(bi, oc, oy, ox, cout, oh, ow)] *
                       x[idx4(bi, ic, iy, ix, cin, h, wd)];
              }
            }
            r.gw[idx4(oc, ic, ky, kx, cin, k, k)] = acc;
          }
    for (int ic = 0; ic < cin; ++ic)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < wd; ++ix) {
          double acc = 0.0;
          for (int ky = 0; ky < k; ++ky) {
            const int num_y = iy + pad - ky;
            if (num_y < 0 || num_y % stride != 0) continue;
            const int oy = num_y / stride;
            if (oy >= oh) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int num_x = ix + pad - kx;
              if (num_x < 0 || num_x % stride != 0) continue;
              const int ox = num_x / stride;
              if (ox >= ow) continue;
              double t = 0.0;
              for (int oc = 0; oc < cout; ++oc)
                t += g[idx4(bi, oc, oy, ox, cout, oh, ow)] *
                     w[idx4(oc, ic, ky, kx, cin, k, k)];
              acc += t;
            }
          }
          r.dx[idx4(bi, ic, iy, ix, cin, h, wd)] = acc;
        }
  }
  return r;
}

/// ConvTranspose2D forward as the direct scatter: each output element
/// starts at its bias and receives v*w in (b, ic, iy, ix) order.
/// x: [N, Cin, H, W], w: [Cin, Cout, k, k], b: [Cout].
inline Tensor conv_transpose2d_forward(const Tensor& x, const Tensor& w,
                                       const Tensor& b, int stride, int pad) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(1), k = w.dim(2);
  const int oh = (h - 1) * stride - 2 * pad + k;
  const int ow = (wd - 1) * stride - 2 * pad + k;
  Tensor y({n, cout, oh, ow});
  for (int bi = 0; bi < n; ++bi)
    for (int oc = 0; oc < cout; ++oc)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox)
          y[idx4(bi, oc, oy, ox, cout, oh, ow)] =
              b[static_cast<std::size_t>(oc)];
  for (int bi = 0; bi < n; ++bi)
    for (int ic = 0; ic < cin; ++ic)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < wd; ++ix) {
          const double v = x[idx4(bi, ic, iy, ix, cin, h, wd)];
          if (v == 0.0) continue;
          for (int oc = 0; oc < cout; ++oc)
            for (int ky = 0; ky < k; ++ky) {
              const int oy = iy * stride + ky - pad;
              if (oy < 0 || oy >= oh) continue;
              for (int kx = 0; kx < k; ++kx) {
                const int ox = ix * stride + kx - pad;
                if (ox < 0 || ox >= ow) continue;
                y[idx4(bi, oc, oy, ox, cout, oh, ow)] +=
                    v * w[idx4(ic, oc, ky, kx, cout, k, k)];
              }
            }
        }
  return y;
}

/// ConvTranspose2D backward: the direct gather loops, whose per-element
/// chains already match the GEMM lowering — gW elements sum g*x over
/// (b; iy, ix) ascending, dx elements sum g*w over (oc, ky, kx)
/// ascending.
inline Grads conv_transpose2d_backward(const Tensor& x, const Tensor& w,
                                       const Tensor& g, int stride,
                                       int pad) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(1), k = w.dim(2);
  const int oh = g.dim(2), ow = g.dim(3);
  Grads r{Tensor({n, cin, h, wd}), Tensor({cin, cout, k, k}), Tensor({cout})};
  for (int bi = 0; bi < n; ++bi)
    for (int oc = 0; oc < cout; ++oc) {
      double acc = r.gb[static_cast<std::size_t>(oc)];
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox)
          acc += g[idx4(bi, oc, oy, ox, cout, oh, ow)];
      r.gb[static_cast<std::size_t>(oc)] = acc;
    }
  for (int bi = 0; bi < n; ++bi)
    for (int ic = 0; ic < cin; ++ic)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < wd; ++ix) {
          const double v = x[idx4(bi, ic, iy, ix, cin, h, wd)];
          double acc = 0.0;
          for (int oc = 0; oc < cout; ++oc)
            for (int ky = 0; ky < k; ++ky) {
              const int oy = iy * stride + ky - pad;
              if (oy < 0 || oy >= oh) continue;
              for (int kx = 0; kx < k; ++kx) {
                const int ox = ix * stride + kx - pad;
                if (ox < 0 || ox >= ow) continue;
                const double gv = g[idx4(bi, oc, oy, ox, cout, oh, ow)];
                acc += gv * w[idx4(ic, oc, ky, kx, cout, k, k)];
                r.gw[idx4(ic, oc, ky, kx, cout, k, k)] += gv * v;
              }
            }
          r.dx[idx4(bi, ic, iy, ix, cin, h, wd)] = acc;
        }
  return r;
}

/// The int8 step on an explicit lowered matrix: y[i][j] = bias[i] +
/// gemm_int8(qw, codes of col) for col ([qw.cols, ncols], row-major),
/// coded against scale xs; a column holding a non-finite value is NaN.
/// y has row stride ldy.
inline void int8_lowered(const QuantizedMatrix& qw, const double* bias,
                         const std::vector<double>& col, int ncols, double xs,
                         double* y, int ldy) {
  std::vector<std::int8_t> codes(col.size());
  quantize_values(col.data(), col.size(), xs, codes.data());
  for (int i = 0; i < qw.rows; ++i)
    std::fill_n(y + static_cast<std::size_t>(i) * ldy, ncols,
                bias[static_cast<std::size_t>(i)]);
  gemm_int8(qw, ncols, codes.data(), ncols, xs, y, ldy);
  for (int j = 0; j < ncols; ++j)
    for (int r = 0; r < qw.cols; ++r)
      if (!std::isfinite(col[static_cast<std::size_t>(r) * ncols + j])) {
        for (int i = 0; i < qw.rows; ++i)
          y[static_cast<std::size_t>(i) * ldy + j] =
              std::numeric_limits<double>::quiet_NaN();
        break;
      }
}

/// Conv2D's int8 forward (after quantize()) on the explicit lowering:
/// per-output-channel weight codes, one activation scale per image (over
/// that whole image), and im2col of each image multiplied by gemm_int8.
inline Tensor conv2d_forward_int8(const Tensor& x, const Tensor& w,
                                  const Tensor& b, int stride, int pad) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(0), k = w.dim(2);
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (wd + 2 * pad - k) / stride + 1;
  const int kdim = cin * k * k, npix = oh * ow;
  const QuantizedMatrix qw = quantize_rows(w.data(), kdim, cout, kdim);
  const std::size_t image = static_cast<std::size_t>(cin) * h * wd;
  Tensor y({n, cout, oh, ow});
  std::vector<double> col(static_cast<std::size_t>(kdim) * npix);
  for (int bi = 0; bi < n; ++bi) {
    const double* xb = x.data() + static_cast<std::size_t>(bi) * image;
    im2col(xb, cin, h, wd, k, stride, pad, ow, 0, oh, col.data());
    int8_lowered(qw, b.data(), col, npix, activation_scale(xb, image),
                 y.data() + static_cast<std::size_t>(bi) * cout * npix, npix);
  }
  return y;
}

/// ConvTranspose2D's int8 forward on an explicit lowering: each
/// sub-pixel phase (py, px) — the output pixels with (oy + pad) % s ==
/// py and likewise for x — gathers the input behind its taps (ky % s ==
/// py, descending, so the inputs ascend) into a dense matrix with rows
/// (ic, ky, kx), and multiplies the int8 codes of the matching weight
/// rows by it, each image coded at its own activation scale.
inline Tensor conv_transpose2d_forward_int8(const Tensor& x, const Tensor& w,
                                            const Tensor& b, int stride,
                                            int pad) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(1), k = w.dim(2), s = stride;
  const int oh = (h - 1) * s - 2 * pad + k;
  const int ow = (wd - 1) * s - 2 * pad + k;
  const std::size_t image = static_cast<std::size_t>(cin) * h * wd;
  Tensor y({n, cout, oh, ow});
  for (int i = 0; i < n * cout; ++i)
    std::fill_n(y.data() + static_cast<std::size_t>(i) * oh * ow, oh * ow,
                b[static_cast<std::size_t>(i % cout)]);
  for (int py = 0; py < s; ++py)
    for (int px = 0; px < s; ++px) {
      std::vector<int> ty, tx, oys, oxs;
      for (int t = k - 1; t >= 0; --t) {
        if (t % s == py) ty.push_back(t);
        if (t % s == px) tx.push_back(t);
      }
      for (int oy = 0; oy < oh; ++oy)
        if ((oy + pad) % s == py) oys.push_back(oy);
      for (int ox = 0; ox < ow; ++ox)
        if ((ox + pad) % s == px) oxs.push_back(ox);
      const int kdim = cin * static_cast<int>(ty.size() * tx.size());
      const int npix = static_cast<int>(oys.size() * oxs.size());
      if (kdim == 0 || npix == 0) continue;
      std::vector<double> wph(static_cast<std::size_t>(cout) * kdim);
      for (int oc = 0; oc < cout; ++oc) {
        int r = 0;
        for (int ic = 0; ic < cin; ++ic)
          for (int ky : ty)
            for (int kx : tx)
              wph[static_cast<std::size_t>(oc) * kdim + r++] =
                  w[idx4(ic, oc, ky, kx, cout, k, k)];
      }
      const QuantizedMatrix qw = quantize_rows(wph.data(), kdim, cout, kdim);
      std::vector<double> col(static_cast<std::size_t>(kdim) * npix);
      std::vector<double> tile(static_cast<std::size_t>(cout) * npix);
      for (int bi = 0; bi < n; ++bi) {
        int r = 0;
        for (int ic = 0; ic < cin; ++ic)
          for (int ky : ty)
            for (int kx : tx) {
              int j = 0;
              for (int oy : oys)
                for (int ox : oxs) {
                  const int ny = oy + pad - ky, nx = ox + pad - kx;
                  const int iy = ny / s, ix = nx / s;
                  const bool in = ny >= 0 && nx >= 0 && iy < h && ix < wd;
                  col[static_cast<std::size_t>(r) * npix + j++] =
                      in ? x[idx4(bi, ic, iy, ix, cin, h, wd)] : 0.0;
                }
              ++r;
            }
        const double* xb = x.data() + static_cast<std::size_t>(bi) * image;
        int8_lowered(qw, b.data(), col, npix, activation_scale(xb, image),
                     tile.data(), npix);
        for (int oc = 0; oc < cout; ++oc) {
          int j = 0;
          for (int oy : oys)
            for (int ox : oxs)
              y[idx4(bi, oc, oy, ox, cout, oh, ow)] =
                  tile[static_cast<std::size_t>(oc) * npix + j++];
        }
      }
    }
  return y;
}

/// Dense forward: y = x·Wᵀ, then the bias added per element.
/// x: [N, in], w: [out, in], b: [out].
inline Tensor dense_forward(const Tensor& x, const Tensor& w,
                            const Tensor& b) {
  Tensor y = matmul_nt(x, w);
  const int n = y.dim(0), out = y.dim(1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < out; ++j)
      y[static_cast<std::size_t>(i) * out + j] += b[static_cast<std::size_t>(j)];
  return y;
}

/// Dense backward: dx = g·W, gW = gᵀ·x, gb = column sums of g.
inline Grads dense_backward(const Tensor& x, const Tensor& w,
                            const Tensor& g) {
  const int n = g.dim(0), out = g.dim(1);
  Grads r{matmul(g, w), matmul_tn(g, x), Tensor({out})};
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < out; ++j)
      r.gb[static_cast<std::size_t>(j)] +=
          g[static_cast<std::size_t>(i) * out + j];
  return r;
}

}  // namespace s2a::nn::oracle
