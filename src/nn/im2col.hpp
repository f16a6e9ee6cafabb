// Patch lowering for the conv backward GEMMs, and the span gather the
// forward's padded-input copy is built from.
//
// The forwards never build a lowered matrix: they read every B row
// straight out of one zero-padded copy of the input through a table of
// row offsets (nn/conv2d.cpp, gemm_packed_rows in nn/gemm.hpp). The
// backward passes still lower: im2col_t writes the transposed patch
// matrix the weight-gradient GEMMs consume, and col2im_band folds the
// input-gradient columns of Conv2D back onto the image. Their rows walk
// the kernel taps in the order (in-channel, ky, kx) — the *same* order
// the direct loops accumulate in, so the GEMMs reproduce those loops
// bit-for-bit (out-of-bounds taps become 0.0, an exact no-op on the
// accumulation chain). See docs/ARCHITECTURE.md. The plain im2col and
// col2im, which have no library caller, live in the test tree with the
// other oracles (tests/nn_oracle.hpp).
//
// Both functions operate on a band of rows: the pool-sharded backward
// passes give each task its own band.
#pragma once

#include <algorithm>
#include <cstddef>

namespace s2a::nn {

/// Lowered-matrix row count for a (cin, k) convolution.
inline int im2col_rows(int cin, int k) { return cin * k * k; }

/// One lowered row: row[j] = src[i0 + j*step] where that index lies in
/// [0, extent), else 0.0, for j in [0, n). The in-range j form one span
/// [lo, hi), computed once, so the row is a zero fill, a (strided) copy
/// and a zero fill with no per-element bounds test. The conv layers'
/// padded-input copy builds each plane row with it.
inline void gather_row(const double* src, int i0, int step, int extent, int n,
                       double* row) {
  const int lo = std::min(n, i0 >= 0 ? 0 : (step - 1 - i0) / step);
  const int hi =
      std::clamp(i0 < extent ? (extent - 1 - i0) / step + 1 : 0, lo, n);
  // The edge tests skip library calls on the (common) unclamped rows.
  if (lo > 0) std::fill(row, row + lo, 0.0);
  if (step == 1) {
    if (hi > lo) std::copy(src + (i0 + lo), src + (i0 + hi), row + lo);
  } else {
    for (int j = lo; j < hi; ++j)
      row[j] = src[static_cast<std::ptrdiff_t>(i0) +
                   static_cast<std::ptrdiff_t>(j) * step];
  }
  if (hi < n) std::fill(row + hi, row + n, 0.0);
}

/// Transposed im2col for the weight-gradient GEMMs: writes the band's
/// rows of the transposed patch matrix (the test tree's im2col,
/// transposed) — row j is output pixel j's taps in (ic, ky, kx) order,
/// so colt is [(oy_hi-oy_lo)*ow, cin*k*k] row-major. Used as the B
/// operand of gW += grad_out × colt, whose reduction then runs over
/// output pixels in ascending (oy, ox) order — the naive accumulation
/// order. Bands write disjoint row ranges of the full
/// matrix (pass colt + oy_lo*ow*cin*k*k when assembling one).
void im2col_t(const double* x, int cin, int h, int w, int k, int stride,
              int pad, int ow, int oy_lo, int oy_hi, double* colt);

/// Band-restricted col2im for the pool-sharded input-gradient scatter:
/// col is the FULL [cin*k*k, oh*ow] matrix, but only input rows
/// [iy_lo, iy_hi) of x are accumulated into — each (ky, kx) row visits
/// just the output rows that land in the band. Covering [0, h) with
/// disjoint bands reproduces the whole-image col2im bit-for-bit:
/// each x element's addends arrive in the same (ic, ky, kx, oy, ox)
/// order, the bands merely split *which elements* each call touches.
/// (col2im, the whole-image adjoint of im2col, is in the test tree.)
void col2im_band(const double* col, int cin, int h, int w, int k, int stride,
                 int pad, int ow, int iy_lo, int iy_hi, double* x);

}  // namespace s2a::nn
