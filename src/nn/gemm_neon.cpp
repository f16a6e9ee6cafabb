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

// One-column tile: the 4 panel rows are two float64x2 accumulators, and
// each k step multiplies the packed A column by the broadcast B value.
// Rows past `rows` are pack_a's zero padding; computed, not stored.
void micro_4x1(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc, int rows) {
  double cv[4] = {};
  for (int i = 0; i < rows; ++i) cv[i] = c[static_cast<std::size_t>(i) * ldc];
  float64x2_t acc0 = vld1q_f64(cv);
  float64x2_t acc1 = vld1q_f64(cv + 2);
  for (int kk = 0; kk < kc; ++kk) {
    const float64x2_t bv = vdupq_n_f64(b[boff[kk]]);
    const double* acol = ap + static_cast<std::size_t>(kk) * 4;
    acc0 = vaddq_f64(acc0, vmulq_f64(vld1q_f64(acol), bv));
    acc1 = vaddq_f64(acc1, vmulq_f64(vld1q_f64(acol + 2), bv));
  }
  vst1q_f64(cv, acc0);
  vst1q_f64(cv + 2, acc1);
  for (int i = 0; i < rows; ++i) c[static_cast<std::size_t>(i) * ldc] = cv[i];
}

}  // namespace

const GemmMicroKernel& gemm_kernel_neon() {
  static const GemmMicroKernel k{"neon", 4, 8, micro_4x8, micro_2x8,
                                 micro_4x1};
  return k;
}

}  // namespace s2a::nn::detail

#endif  // __aarch64__
