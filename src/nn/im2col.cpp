#include "nn/im2col.hpp"

#include <algorithm>

namespace s2a::nn {

void im2col_t(const double* x, int cin, int h, int w, int k, int stride,
              int pad, int ow, int oy_lo, int oy_hi, double* colt) {
  double* row = colt;
  for (int oy = oy_lo; oy < oy_hi; ++oy)
    for (int ox = 0; ox < ow; ++ox) {
      // One lowered row: every tap output pixel (oy, ox) reads, walked
      // in the naive accumulation order (ic, ky, kx). The k taps of one
      // (ic, ky) read input columns ix0 + kx; the in-range ones form the
      // span [kx_lo, kx_hi), the same for every (ic, ky) of the pixel.
      const int ix0 = ox * stride - pad;
      const int kx_lo = std::min(k, std::max(0, -ix0));
      const int kx_hi = std::clamp(w - ix0, kx_lo, k);
      double* out = row;
      for (int ic = 0; ic < cin; ++ic) {
        const double* plane = x + static_cast<std::size_t>(ic) * h * w;
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) {
            std::fill_n(out, k, 0.0);
          } else {
            const double* src = plane + static_cast<std::size_t>(iy) * w;
            for (int kx = 0; kx < kx_lo; ++kx) out[kx] = 0.0;
            for (int kx = kx_lo; kx < kx_hi; ++kx) out[kx] = src[ix0 + kx];
            for (int kx = kx_hi; kx < k; ++kx) out[kx] = 0.0;
          }
          out += k;
        }
      }
      row += static_cast<std::size_t>(cin) * k * k;
    }
}

void col2im_band(const double* col, int cin, int h, int w, int k, int stride,
                 int pad, int ow, int iy_lo, int iy_hi, double* x) {
  const int oh = (h + 2 * pad - k) / stride + 1;
  const double* in = col;
  for (int ic = 0; ic < cin; ++ic) {
    double* plane = x + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        // Output rows whose tap (ky, kx) lands inside [iy_lo, iy_hi):
        // iy = oy*stride + ky - pad, so oy spans a contiguous range.
        const int num_lo = iy_lo + pad - ky;
        const int oy_begin = num_lo > 0 ? (num_lo + stride - 1) / stride : 0;
        const int num_hi = iy_hi - 1 + pad - ky;
        const int oy_end = num_hi >= 0 ? std::min(oh - 1, num_hi / stride) : -1;
        for (int oy = oy_begin; oy <= oy_end; ++oy) {
          const double* row = in + static_cast<std::size_t>(oy) * ow;
          const int iy = oy * stride + ky - pad;
          double* dst = plane + static_cast<std::size_t>(iy) * w;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride + kx - pad;
            if (ix < 0 || ix >= w) continue;
            dst[ix] += row[ox];
          }
        }
        in += static_cast<std::size_t>(oh) * ow;
      }
  }
}

}  // namespace s2a::nn
