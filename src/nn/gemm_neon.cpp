// NEON (AArch64 Advanced SIMD) GEMM micro-kernel. Compiled with
// -ffp-contract=off: GCC on AArch64 fuses mul+add pairs into fmla by
// default, which would silently break the bit-exactness contract — see
// gemm_kernels.hpp. No fused variant is shipped for NEON yet; add one
// only with an explicit opt-in name, never under "neon".
#if defined(__aarch64__)

#include <arm_neon.h>

#include "nn/gemm_kernels.hpp"

namespace s2a::nn::detail {

namespace {

// 4 rows x 8 columns: 16 float64x2_t accumulators + 4 B vectors + 1 A
// broadcast = 21 of the 32 NEON registers.
void micro_4x8(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc) {
  float64x2_t acc[4][4];
  for (int i = 0; i < 4; ++i)
    for (int v = 0; v < 4; ++v)
      acc[i][v] = vld1q_f64(c + static_cast<std::size_t>(i) * ldc + 2 * v);
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    if (kk + 8 < kc) __builtin_prefetch(b + boff[kk + 8]);
    float64x2_t bv[4];
    for (int v = 0; v < 4; ++v) bv[v] = vld1q_f64(brow + 2 * v);
    const double* acol = ap + static_cast<std::size_t>(kk) * 4;
    for (int i = 0; i < 4; ++i) {
      const float64x2_t a = vdupq_n_f64(acol[i]);
      for (int v = 0; v < 4; ++v)
        acc[i][v] = vaddq_f64(acc[i][v], vmulq_f64(a, bv[v]));
    }
  }
  for (int i = 0; i < 4; ++i)
    for (int v = 0; v < 4; ++v)
      vst1q_f64(c + static_cast<std::size_t>(i) * ldc + 2 * v, acc[i][v]);
}

// 2-row half tile against the 4-row packing (A row stride stays 4).
void micro_2x8(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc) {
  float64x2_t acc[2][4];
  for (int i = 0; i < 2; ++i)
    for (int v = 0; v < 4; ++v)
      acc[i][v] = vld1q_f64(c + static_cast<std::size_t>(i) * ldc + 2 * v);
  for (int kk = 0; kk < kc; ++kk) {
    const double* brow = b + boff[kk];
    if (kk + 8 < kc) __builtin_prefetch(b + boff[kk + 8]);
    float64x2_t bv[4];
    for (int v = 0; v < 4; ++v) bv[v] = vld1q_f64(brow + 2 * v);
    const double* acol = ap + static_cast<std::size_t>(kk) * 4;
    for (int i = 0; i < 2; ++i) {
      const float64x2_t a = vdupq_n_f64(acol[i]);
      for (int v = 0; v < 4; ++v)
        acc[i][v] = vaddq_f64(acc[i][v], vmulq_f64(a, bv[v]));
    }
  }
  for (int i = 0; i < 2; ++i)
    for (int v = 0; v < 4; ++v)
      vst1q_f64(c + static_cast<std::size_t>(i) * ldc + 2 * v, acc[i][v]);
}

// One-column strip (see GemmMicroKernel::col): each 4-row panel is two
// float64x2 accumulators, and kColPanels panels (16 rows, 8
// accumulators) are live at once so their add chains overlap; each k
// step broadcasts the B value once for all of them. The panel count
// follows AVX2's 4-row tile and is unmeasured on NEON hardware. C goes
// through a stack copy, so rows past `rows` (pack_a's zero padding) are
// computed, not stored.
constexpr int kColPanels = 4;

void load_col(const double* c, int ldc, int rows, float64x2_t* v) {
  double cv[4] = {};
  for (int i = 0; i < rows; ++i) cv[i] = c[static_cast<std::size_t>(i) * ldc];
  v[0] = vld1q_f64(cv);
  v[1] = vld1q_f64(cv + 2);
}

void store_col(double* c, int ldc, int rows, const float64x2_t* v) {
  double cv[4];
  vst1q_f64(cv, v[0]);
  vst1q_f64(cv + 2, v[1]);
  for (int i = 0; i < rows; ++i) c[static_cast<std::size_t>(i) * ldc] = cv[i];
}

template <int P>
void col_panels(int kc, const double* ap, std::size_t ps, const double* b,
                const std::ptrdiff_t* boff, double* c, int ldc,
                int last_rows) {
  float64x2_t acc[P][2];
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p)
    load_col(c + static_cast<std::size_t>(4 * p) * ldc, ldc,
             p + 1 < P ? 4 : last_rows, acc[p]);
  for (int kk = 0; kk < kc; ++kk) {
    const float64x2_t bv = vdupq_n_f64(b[boff[kk]]);
    const double* acol = ap + static_cast<std::size_t>(kk) * 4;
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p) {
      const double* a = acol + p * ps;
      acc[p][0] = vaddq_f64(acc[p][0], vmulq_f64(vld1q_f64(a), bv));
      acc[p][1] = vaddq_f64(acc[p][1], vmulq_f64(vld1q_f64(a + 2), bv));
    }
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

const GemmMicroKernel& gemm_kernel_neon() {
  static const GemmMicroKernel k{"neon", 4, 8, micro_4x8, micro_2x8,
                                 col_strip};
  return k;
}

}  // namespace s2a::nn::detail

#endif  // __aarch64__
