#include "nn/gemm.hpp"

#include <algorithm>

#include "nn/gemm_kernels.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"

namespace s2a::nn {

namespace {

using detail::GemmMicroKernel;

// Scalar full tile with compile-time loop bounds so the compiler
// unrolls the register block. The accumulators are loaded from C, swept
// over the k panel in ascending order, and stored back — one contiguous
// slice of each C element's accumulation chain. Always compiled; this
// is the bit-exactness oracle the vector kernels are diffed against.
void micro_full(int kc, const double* ap, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc) {
  double acc[kGemmMR][kGemmNR];
  for (int i = 0; i < kGemmMR; ++i)
    for (int j = 0; j < kGemmNR; ++j)
      acc[i][j] = c[static_cast<std::size_t>(i) * ldc + j];
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    const double* acol = ap + static_cast<std::size_t>(kk) * kGemmMR;
    for (int i = 0; i < kGemmMR; ++i) {
      const double a = acol[i];
      for (int j = 0; j < kGemmNR; ++j) acc[i][j] += a * brow[j];
    }
  }
  for (int i = 0; i < kGemmMR; ++i)
    for (int j = 0; j < kGemmNR; ++j)
      c[static_cast<std::size_t>(i) * ldc + j] = acc[i][j];
}

// Remainder tile (mr < MR and/or nr < NR) for any kernel family: reads
// the packed A panel at the family's row stride `astride`. Same
// per-element arithmetic — `acc += a*b` in ascending k — so edge tiles
// stay bit-identical to what the full kernel would have produced.
void micro_tail(int kc, const double* ap, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc, int mr, int nr,
                int astride) {
  double acc[kGemmMaxMR][kGemmMaxNR] = {};
  for (int i = 0; i < mr; ++i)
    for (int j = 0; j < nr; ++j)
      acc[i][j] = c[static_cast<std::size_t>(i) * ldc + j];
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    const double* acol = ap + static_cast<std::size_t>(kk) * astride;
    for (int i = 0; i < mr; ++i) {
      const double a = acol[i];
      for (int j = 0; j < nr; ++j) acc[i][j] += a * brow[j];
    }
  }
  for (int i = 0; i < mr; ++i)
    for (int j = 0; j < nr; ++j)
      c[static_cast<std::size_t>(i) * ldc + j] = acc[i][j];
}

// One-column strip (see GemmMicroKernel::col): kColPanels panels of
// kGemmMR rows (8 accumulators, within the 16 SSE2 xmm registers) are
// live at once, so their add chains overlap. The fixed-bound row loops
// let the compiler keep every accumulator in a register; rows past
// `rows` are the packed panel's zero padding and are never stored.
constexpr int kColPanels = 4;

template <int P>
void col_panels(int kc, const double* ap, std::size_t ps, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc,
                int last_rows) {
  constexpr int R = P * kGemmMR;
  const int rows = R - kGemmMR + last_rows;
  double acc[R];
#pragma GCC unroll 16
  for (int i = 0; i < R; ++i)
    acc[i] = i < rows ? c[static_cast<std::size_t>(i) * ldc] : 0.0;
  for (int kk = 0; kk < kc; ++kk) {
    const double bv = b[boff[kk]];
    const double* acol = ap + static_cast<std::size_t>(kk) * kGemmMR;
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p)
      for (int i = 0; i < kGemmMR; ++i)
        acc[p * kGemmMR + i] += acol[p * ps + i] * bv;
  }
#pragma GCC unroll 16
  for (int i = 0; i < R; ++i)
    if (i < rows) c[static_cast<std::size_t>(i) * ldc] = acc[i];
}

void micro_col(int m, int kc, const double* ap, std::size_t ps,
               const double* b, const std::ptrdiff_t* boff, double* c,
               int ldc) {
  detail::for_each_col_group<kGemmMR, kColPanels>(
      m, ap, ps, c, ldc, [&](auto n, const double* a, double* ci, int last) {
        col_panels<decltype(n)::value>(kc, a, ps, b, boff, ci, ldc, last);
      });
}

const GemmMicroKernel& scalar_kernel() {
  static const GemmMicroKernel k{"scalar", kGemmMR, kGemmNR, micro_full,
                                 nullptr, micro_col};
  return k;
}

const GemmMicroKernel& kernel_for(util::SimdIsa isa) {
  switch (isa) {
#if defined(__x86_64__) || defined(_M_X64)
    case util::SimdIsa::kAvx2:
      return detail::gemm_kernel_avx2();
    case util::SimdIsa::kAvx512:
      return detail::gemm_kernel_avx512();
#endif
#if defined(__aarch64__)
    case util::SimdIsa::kNeon:
      return detail::gemm_kernel_neon();
#endif
    default:
      return scalar_kernel();
  }
}

const GemmMicroKernel& active_kernel() {
  return kernel_for(util::active_simd_isa());
}

// One k panel's view of B: column block jc starts at `b`, and row kk of
// the panel at b + boff[kk].
struct Panel {
  const double* b;
  const std::ptrdiff_t* boff;
};

// The blocked driver both entry points share. panel_of(jc, pc, kc)
// returns the B view of column block jc, k panel [pc, pc+kc); it is
// called once per (jc, pc), in ascending pc within each jc.
template <typename PanelOf>
void blocked(int m, int n, int k, const double* a_packed, double* c, int ldc,
             PanelOf&& panel_of) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const GemmMicroKernel& K = active_kernel();
  const int MR = K.mr;
  const int NR = K.nr;
  const std::size_t panel_stride =
      static_cast<std::size_t>(k) * MR;  // one MR row-panel, all of k
  for (int jc = 0; jc < n; jc += kGemmNC) {
    const int nc = std::min(kGemmNC, n - jc);
    // k panels ascend so each C element's chain stays in k order.
    for (int pc = 0; pc < k; pc += kGemmKC) {
      const int kc = std::min(kGemmKC, k - pc);
      const Panel bp = panel_of(jc, pc, kc);
      // jr outer / ic inner: one kc x nr B strip is reused across every
      // row panel while still hot in L1. B rows sit at table offsets
      // (KiB apart for conv taps), so a cold strip is latency-bound —
      // the reuse plus the kernels' software prefetch is what closes
      // the gap to the hot-loop peak.
      for (int jr = 0; jr < nc; jr += NR) {
        const int nr = std::min(NR, nc - jr);
        const double* bj = bp.b + jr;
        double* cj = c + jc + jr;
        const double* ak = a_packed + static_cast<std::size_t>(pc) * MR;
        // A one-column strip (n = 1, or the last column of n = NR + 1)
        // takes every row panel in one call.
        if (nr == 1) {
          K.col(m, kc, ak, panel_stride, bj, bp.boff, cj, ldc);
          continue;
        }
        for (int ic = 0; ic < m; ic += MR) {
          const int mr = std::min(MR, m - ic);
          const double* ap =
              ak + static_cast<std::size_t>(ic / MR) * panel_stride;
          double* ctile = cj + static_cast<std::size_t>(ic) * ldc;
          if (mr == MR && nr == NR)
            K.full(kc, ap, bj, bp.boff, ctile, ldc);
          else if (2 * mr == MR && nr == NR && K.half != nullptr)
            K.half(kc, ap, bj, bp.boff, ctile, ldc);
          else
            micro_tail(kc, ap, bj, bp.boff, ctile, ldc, mr, nr, MR);
        }
      }
    }
  }
}

}  // namespace

int gemm_mr() { return active_kernel().mr; }
int gemm_nr() { return active_kernel().nr; }
const char* gemm_kernel_name() { return active_kernel().name; }

std::size_t packed_a_size(int m, int k) {
  const int mr = active_kernel().mr;
  const std::size_t panels = (static_cast<std::size_t>(m) + mr - 1) / mr;
  return panels * static_cast<std::size_t>(mr) * static_cast<std::size_t>(k);
}

void pack_a(const double* a, int lda, int m, int k, double* out) {
  const int mr = active_kernel().mr;
  for (int i0 = 0; i0 < m; i0 += mr) {
    const int rows = std::min(mr, m - i0);
    for (int kk = 0; kk < k; ++kk) {
      for (int i = 0; i < rows; ++i)
        out[i] = a[static_cast<std::size_t>(i0 + i) * lda + kk];
      for (int i = rows; i < mr; ++i) out[i] = 0.0;
      out += mr;
    }
  }
}

void pack_a_indexed(const double* a, std::size_t row_stride,
                    const std::size_t* col_off, int m, int k, double* out) {
  const int mr = active_kernel().mr;
  for (int i0 = 0; i0 < m; i0 += mr) {
    const int rows = std::min(mr, m - i0);
    const double* panel = a + static_cast<std::size_t>(i0) * row_stride;
    for (int kk = 0; kk < k; ++kk) {
      const double* src = panel + col_off[kk];
      for (int i = 0; i < rows; ++i)
        out[i] = src[static_cast<std::size_t>(i) * row_stride];
      for (int i = rows; i < mr; ++i) out[i] = 0.0;
      out += mr;
    }
  }
}

void gemm_packed_rows(int m, int n, int k, const double* a_packed,
                      const double* b, const std::ptrdiff_t* boff, double* c,
                      int ldc) {
  blocked(m, n, k, a_packed, c, ldc, [b, boff](int jc, int pc, int) {
    return Panel{b + jc, boff + pc};
  });
}

void gemm_packed(int m, int n, int k, const double* a_packed,
                 const double* b, int ldb, double* c, int ldc) {
  // The strided form is a row table of multiples of ldb, filled per k
  // panel on the stack (the rows of one panel are all the kernels read).
  std::ptrdiff_t boff[kGemmKC];
  blocked(m, n, k, a_packed, c, ldc, [b, ldb, &boff](int jc, int pc, int kc) {
    for (int kk = 0; kk < kc; ++kk)
      boff[kk] = static_cast<std::ptrdiff_t>(pc + kk) * ldb;
    return Panel{b + jc, boff};
  });
}

void gemm(int m, int n, int k, const double* a, int lda, const double* b,
          int ldb, double* c, int ldc, util::ScratchArena& arena) {
  S2A_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0 || k == 0) return;
  double* ap = arena.alloc(packed_a_size(m, k));
  pack_a(a, lda, m, k, ap);
  gemm_packed(m, n, k, ap, b, ldb, c, ldc);
}

void transpose(const double* a, int rows, int cols, double* out) {
  for (int i = 0; i < rows; ++i) {
    const double* src = a + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j)
      out[static_cast<std::size_t>(j) * rows + i] = src[j];
  }
}

}  // namespace s2a::nn
