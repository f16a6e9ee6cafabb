// Direct-loop reference implementations of the conv, deconv and dense
// layers, for the kernel equivalence tests (nn_kernels_test.cpp).
//
// The library runs every layer as im2col + blocked GEMM; these are the
// original nested loops, written in the GEMM chain order so the two agree
// bit-for-bit (the tests compare with ==, no tolerance). They are serial:
// each output element has exactly one accumulation chain, so sharding
// would not change its bits. Each takes the layer's input, its weights
// and bias (layer.params()), and the stride and padding; the kernel size
// and channel counts come from the weight shape.
#pragma once

#include <cstddef>

#include "nn/tensor.hpp"

namespace s2a::nn::oracle {

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
