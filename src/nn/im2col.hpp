// Patch lowering for the conv backward GEMMs.
//
// The forwards never build a lowered matrix: they read every B row
// straight out of one zero-padded copy of the input through a table of
// row offsets (detail::lowered_forward in nn/conv2d.cpp, which fills
// that copy row by row itself; gemm_packed_rows in nn/gemm.hpp). The
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

#include <cstddef>

namespace s2a::nn {

/// Lowered-matrix row count for a (cin, k) convolution.
inline int im2col_rows(int cin, int k) { return cin * k * k; }

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
