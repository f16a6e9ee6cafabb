// AVX2 GEMM micro-kernels (x86-64). Compiled with
// -mavx2 -ffp-contract=off — see gemm_kernels.hpp for why the
// contraction flag matters.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "nn/gemm_kernels.hpp"

namespace s2a::nn::detail {

namespace {

// 4 rows x 8 columns: 8 __m256d accumulators + 2 B vectors + 1 A
// broadcast = 11 of the 16 ymm registers. Per k step: two B loads
// shared across four A broadcasts. The prefetch pulls the B row 8 k
// steps ahead — B rows come from the caller's row table (for a conv, a
// tap jumps a whole input plane), which defeats the hardware stride
// prefetchers, and the first pass over a B strip is otherwise
// latency-bound. The table ends at kc, hence the guard.
void micro_4x8(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc) {
  __m256d acc00 = _mm256_loadu_pd(c);
  __m256d acc01 = _mm256_loadu_pd(c + 4);
  __m256d acc10 = _mm256_loadu_pd(c + static_cast<std::size_t>(ldc));
  __m256d acc11 = _mm256_loadu_pd(c + static_cast<std::size_t>(ldc) + 4);
  __m256d acc20 = _mm256_loadu_pd(c + 2 * static_cast<std::size_t>(ldc));
  __m256d acc21 = _mm256_loadu_pd(c + 2 * static_cast<std::size_t>(ldc) + 4);
  __m256d acc30 = _mm256_loadu_pd(c + 3 * static_cast<std::size_t>(ldc));
  __m256d acc31 = _mm256_loadu_pd(c + 3 * static_cast<std::size_t>(ldc) + 4);
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    if (kk + 8 < kc) __builtin_prefetch(b + boff[kk + 8]);
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const double* acol = ap + static_cast<std::size_t>(kk) * 4;
    const __m256d a0 = _mm256_broadcast_sd(acol);
    const __m256d a1 = _mm256_broadcast_sd(acol + 1);
    const __m256d a2 = _mm256_broadcast_sd(acol + 2);
    const __m256d a3 = _mm256_broadcast_sd(acol + 3);
    acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
    acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
    acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
    acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
    acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(a2, b0));
    acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(a2, b1));
    acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(a3, b0));
    acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(a3, b1));
  }
  _mm256_storeu_pd(c, acc00);
  _mm256_storeu_pd(c + 4, acc01);
  _mm256_storeu_pd(c + static_cast<std::size_t>(ldc), acc10);
  _mm256_storeu_pd(c + static_cast<std::size_t>(ldc) + 4, acc11);
  _mm256_storeu_pd(c + 2 * static_cast<std::size_t>(ldc), acc20);
  _mm256_storeu_pd(c + 2 * static_cast<std::size_t>(ldc) + 4, acc21);
  _mm256_storeu_pd(c + 3 * static_cast<std::size_t>(ldc), acc30);
  _mm256_storeu_pd(c + 3 * static_cast<std::size_t>(ldc) + 4, acc31);
}

// 2-row half tile against the 4-row packing (A row stride stays 4).
void micro_2x8(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc) {
  __m256d acc00 = _mm256_loadu_pd(c);
  __m256d acc01 = _mm256_loadu_pd(c + 4);
  __m256d acc10 = _mm256_loadu_pd(c + static_cast<std::size_t>(ldc));
  __m256d acc11 = _mm256_loadu_pd(c + static_cast<std::size_t>(ldc) + 4);
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    if (kk + 8 < kc) __builtin_prefetch(b + boff[kk + 8]);
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const double* acol = ap + static_cast<std::size_t>(kk) * 4;
    const __m256d a0 = _mm256_broadcast_sd(acol);
    const __m256d a1 = _mm256_broadcast_sd(acol + 1);
    acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
    acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
    acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
    acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
  }
  _mm256_storeu_pd(c, acc00);
  _mm256_storeu_pd(c + 4, acc01);
  _mm256_storeu_pd(c + static_cast<std::size_t>(ldc), acc10);
  _mm256_storeu_pd(c + static_cast<std::size_t>(ldc) + 4, acc11);
}

// One-column strip (see GemmMicroKernel::col): each 4-row panel is one
// ymm accumulator, and kColPanels of them (16 rows) are live at once so
// their add chains overlap; each k step broadcasts the B value once for
// all of them. A contiguous C column (ldc == 1, every batch-1 Dense
// forward) is loaded and stored under a row mask; a strided one goes
// through a stack copy, whose scalar stores followed by one vector load
// defeat store-to-load forwarding (the copy alone cost the STARNet
// decoder's GEMMs about half again). Rows past the mask are pack_a's
// zero padding; they are computed, not stored.
constexpr int kColPanels = 4;

__m256i row_mask(int rows) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(rows),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

__m256d load_col(const double* c, int ldc, int rows) {
  if (ldc == 1) return _mm256_maskload_pd(c, row_mask(rows));
  double cv[4] = {};
  for (int i = 0; i < rows; ++i) cv[i] = c[static_cast<std::size_t>(i) * ldc];
  return _mm256_loadu_pd(cv);
}

void store_col(double* c, int ldc, int rows, __m256d v) {
  if (ldc == 1) {
    _mm256_maskstore_pd(c, row_mask(rows), v);
    return;
  }
  double cv[4];
  _mm256_storeu_pd(cv, v);
  for (int i = 0; i < rows; ++i) c[static_cast<std::size_t>(i) * ldc] = cv[i];
}

template <int P>
void col_panels(int kc, const double* ap, std::size_t ps, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc,
                int last_rows) {
  __m256d acc[P];
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p)
    acc[p] = load_col(c + static_cast<std::size_t>(4 * p) * ldc, ldc,
                      p + 1 < P ? 4 : last_rows);
  for (int kk = 0; kk < kc; ++kk) {
    const __m256d bv = _mm256_broadcast_sd(b + boff[kk]);
    const double* acol = ap + static_cast<std::size_t>(kk) * 4;
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p)
      acc[p] = _mm256_add_pd(
          acc[p], _mm256_mul_pd(_mm256_loadu_pd(acol + p * ps), bv));
  }
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p)
    store_col(c + static_cast<std::size_t>(4 * p) * ldc, ldc,
              p + 1 < P ? 4 : last_rows, acc[p]);
}

void col_strip(int m, int kc, const double* ap, std::size_t ps,
               const double* b, const std::ptrdiff_t* boff, double* c,
               int ldc) {
  for_each_col_group<4, kColPanels>(
      m, ap, ps, c, ldc, [&](auto n, const double* a, double* ci, int last) {
        col_panels<decltype(n)::value>(kc, a, ps, b, boff, ci, ldc, last);
      });
}

}  // namespace

const GemmMicroKernel& gemm_kernel_avx2() {
  static const GemmMicroKernel k{"avx2", 4, 8, micro_4x8, micro_2x8,
                                 col_strip};
  return k;
}

}  // namespace s2a::nn::detail

#endif  // x86-64
