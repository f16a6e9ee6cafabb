// AVX-512F GEMM micro-kernels (x86-64). Compiled with
// -mavx512f -ffp-contract=off — see gemm_kernels.hpp for why the
// contraction flag matters.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "nn/gemm_kernels.hpp"

namespace s2a::nn::detail {

namespace {

// 8 rows x 16 columns: 16 __m512d accumulators + 2 B vectors + 1 A
// broadcast = 19 of the 32 zmm registers. The wide M halves how many
// passes the (table-addressed, prefetcher-hostile) B strip takes, and
// the software prefetch pulls the row 8 k steps ahead (inside the
// table) for the cold first pass. The 4-row half tile below covers
// m-tail panels of exactly 4 rows — the stride-2 deconv phase GEMMs
// are m=4 — at full vector width; A keeps the 8-row packed stride in
// both.
void micro_8x16(int kc, const double* ap, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc) {
  __m512d acc[8][2];
  for (int i = 0; i < 8; ++i) {
    acc[i][0] = _mm512_loadu_pd(c + static_cast<std::size_t>(i) * ldc);
    acc[i][1] = _mm512_loadu_pd(c + static_cast<std::size_t>(i) * ldc + 8);
  }
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    if (kk + 8 < kc) {
      __builtin_prefetch(b + boff[kk + 8]);
      __builtin_prefetch(b + boff[kk + 8] + 8);
    }
    const __m512d b0 = _mm512_loadu_pd(brow);
    const __m512d b1 = _mm512_loadu_pd(brow + 8);
    const double* acol = ap + static_cast<std::size_t>(kk) * 8;
    for (int i = 0; i < 8; ++i) {
      const __m512d a = _mm512_set1_pd(acol[i]);
      acc[i][0] = _mm512_add_pd(acc[i][0], _mm512_mul_pd(a, b0));
      acc[i][1] = _mm512_add_pd(acc[i][1], _mm512_mul_pd(a, b1));
    }
  }
  for (int i = 0; i < 8; ++i) {
    _mm512_storeu_pd(c + static_cast<std::size_t>(i) * ldc, acc[i][0]);
    _mm512_storeu_pd(c + static_cast<std::size_t>(i) * ldc + 8, acc[i][1]);
  }
}

void micro_4x16(int kc, const double* ap, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc) {
  __m512d acc[4][2];
  for (int i = 0; i < 4; ++i) {
    acc[i][0] = _mm512_loadu_pd(c + static_cast<std::size_t>(i) * ldc);
    acc[i][1] = _mm512_loadu_pd(c + static_cast<std::size_t>(i) * ldc + 8);
  }
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    if (kk + 8 < kc) {
      __builtin_prefetch(b + boff[kk + 8]);
      __builtin_prefetch(b + boff[kk + 8] + 8);
    }
    const __m512d b0 = _mm512_loadu_pd(brow);
    const __m512d b1 = _mm512_loadu_pd(brow + 8);
    // A row stride is the full kernel's 8 even in the half tile.
    const double* acol = ap + static_cast<std::size_t>(kk) * 8;
    for (int i = 0; i < 4; ++i) {
      const __m512d a = _mm512_set1_pd(acol[i]);
      acc[i][0] = _mm512_add_pd(acc[i][0], _mm512_mul_pd(a, b0));
      acc[i][1] = _mm512_add_pd(acc[i][1], _mm512_mul_pd(a, b1));
    }
  }
  for (int i = 0; i < 4; ++i) {
    _mm512_storeu_pd(c + static_cast<std::size_t>(i) * ldc, acc[i][0]);
    _mm512_storeu_pd(c + static_cast<std::size_t>(i) * ldc + 8, acc[i][1]);
  }
}

// One-column strip (see GemmMicroKernel::col): each 8-row panel is one
// zmm accumulator, and kColPanels of them (32 rows) are live at once so
// their four-cycle add chains overlap; each k step broadcasts the B
// value once for all of them. A contiguous C column (ldc == 1, every
// batch-1 Dense forward) is loaded and stored under a row mask; a
// strided one goes through a stack copy, whose scalar stores followed by
// one vector load defeat store-to-load forwarding (the copy alone cost
// the STARNet decoder's GEMMs about half again). Rows past the mask are
// pack_a's zero padding; they are computed, not stored.
constexpr int kColPanels = 4;

__m512d load_col(const double* c, int ldc, int rows) {
  if (ldc == 1)
    return _mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << rows) - 1u), c);
  double cv[8] = {};
  for (int i = 0; i < rows; ++i) cv[i] = c[static_cast<std::size_t>(i) * ldc];
  return _mm512_loadu_pd(cv);
}

void store_col(double* c, int ldc, int rows, __m512d v) {
  if (ldc == 1) {
    _mm512_mask_storeu_pd(c, static_cast<__mmask8>((1u << rows) - 1u), v);
    return;
  }
  double cv[8];
  _mm512_storeu_pd(cv, v);
  for (int i = 0; i < rows; ++i) c[static_cast<std::size_t>(i) * ldc] = cv[i];
}

template <int P>
void col_panels(int kc, const double* ap, std::size_t ps, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc,
                int last_rows) {
  __m512d acc[P];
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p)
    acc[p] = load_col(c + static_cast<std::size_t>(8 * p) * ldc, ldc,
                      p + 1 < P ? 8 : last_rows);
  for (int kk = 0; kk < kc; ++kk) {
    const __m512d bv = _mm512_set1_pd(b[boff[kk]]);
    const double* acol = ap + static_cast<std::size_t>(kk) * 8;
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p)
      acc[p] = _mm512_add_pd(
          acc[p], _mm512_mul_pd(_mm512_loadu_pd(acol + p * ps), bv));
  }
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p)
    store_col(c + static_cast<std::size_t>(8 * p) * ldc, ldc,
              p + 1 < P ? 8 : last_rows, acc[p]);
}

void col_strip(int m, int kc, const double* ap, std::size_t ps,
               const double* b, const std::ptrdiff_t* boff, double* c,
               int ldc) {
  for_each_col_group<8, kColPanels>(
      m, ap, ps, c, ldc, [&](auto n, const double* a, double* ci, int last) {
        col_panels<decltype(n)::value>(kc, a, ps, b, boff, ci, ldc, last);
      });
}

}  // namespace

const GemmMicroKernel& gemm_kernel_avx512() {
  static const GemmMicroKernel k{"avx512", 8, 16, micro_8x16, micro_4x16,
                                 col_strip};
  return k;
}

}  // namespace s2a::nn::detail

#endif  // x86-64
