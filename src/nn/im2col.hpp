// Patch lowering for the conv/deconv GEMM path.
//
// im2col turns a convolution into a dense matrix product: column j of
// the lowered matrix holds every input tap that output pixel j reads,
// and row r walks the kernel taps in the order (in-channel, ky, kx) —
// the *same* order the naive Conv2D loops accumulate in, so
// W[cout, cin*k*k] x col[cin*k*k, oh*ow] reproduces the naive forward
// bit-for-bit (out-of-bounds taps become 0.0, which is an exact no-op
// on the accumulation chain). See docs/ARCHITECTURE.md.
//
// The transposed convolution uses the same idea with the kernel flipped
// and the taps phase-split by stride; that lowering is specialised
// enough (dense per-phase tap lists, compact output tiles) that it
// lives with its only caller in conv2d.cpp rather than here.
//
// Both functions operate on a horizontal band of output rows
// [oy_lo, oy_hi): the pool-sharded conv forwards give each task its own
// band (and its own ScratchArena slot to hold it).
#pragma once

#include <algorithm>
#include <cstddef>

namespace s2a::nn {

/// Lowered-matrix row count for a (cin, k) convolution.
inline int im2col_rows(int cin, int k) { return cin * k * k; }

/// One lowered row: row[j] = src[i0 + j*step] where that index lies in
/// [0, extent), else 0.0, for j in [0, n). The in-range j form one span
/// [lo, hi), computed once, so the row is a zero fill, a (strided) copy
/// and a zero fill with no per-element bounds test. im2col and the
/// deconv phase gather build their rows with it.
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

/// Writes the im2col matrix for output rows [oy_lo, oy_hi) of a direct
/// convolution over x (one image, [cin, h, w] row-major): col is
/// [cin*k*k, (oy_hi-oy_lo)*ow] row-major.
void im2col(const double* x, int cin, int h, int w, int k, int stride,
            int pad, int ow, int oy_lo, int oy_hi, double* col);

/// Adjoint of im2col: scatters col (layout as above) back onto x,
/// *accumulating* into it — each input pixel receives one addend per
/// output pixel that reads it. col2im(im2col(x)) therefore multiplies
/// every pixel by its read count; the kernel tests rely on that
/// identity, and conv backward can use it to fold gradient columns.
void col2im(const double* col, int cin, int h, int w, int k, int stride,
            int pad, int ow, int oy_lo, int oy_hi, double* x);

/// Transposed im2col for the weight-gradient GEMMs: writes the band's
/// rows of im2col(x)ᵀ — row j is output pixel j's taps in (ic, ky, kx)
/// order, so colt is [(oy_hi-oy_lo)*ow, cin*k*k] row-major. Used as the
/// B operand of gW += grad_out × im2col(x)ᵀ, whose reduction then runs
/// over output pixels in ascending (oy, ox) order — the naive
/// accumulation order. Bands write disjoint row ranges of the full
/// matrix (pass colt + oy_lo*ow*cin*k*k when assembling one).
void im2col_t(const double* x, int cin, int h, int w, int k, int stride,
              int pad, int ow, int oy_lo, int oy_hi, double* colt);

/// Band-restricted col2im for the pool-sharded input-gradient scatter:
/// col is the FULL [cin*k*k, oh*ow] matrix, but only input rows
/// [iy_lo, iy_hi) of x are accumulated into — each (ky, kx) row visits
/// just the output rows that land in the band. Covering [0, h) with
/// disjoint bands reproduces col2im(col, ..., 0, oh, x) bit-for-bit:
/// each x element's addends arrive in the same (ic, ky, kx, oy, ox)
/// order, the bands merely split *which elements* each call touches.
void col2im_band(const double* col, int cin, int h, int w, int k, int stride,
                 int pad, int ow, int iy_lo, int iy_hi, double* x);

}  // namespace s2a::nn
