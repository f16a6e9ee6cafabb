#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/cpu_features.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace s2a::nn {

namespace {

// A non-finite value has no int8 code and maps to 0 (std::lround(NaN)
// is LONG_MIN, which the clamp would turn into -127); callers track it.
std::int8_t quantize_one(double x, double inv_scale) {
  const double r = x * inv_scale;
  if (!std::isfinite(r)) return 0;
  const long q = std::lround(r);
  if (q > 127) return 127;
  if (q < -127) return -127;
  return static_cast<std::int8_t>(q);
}

// The row table of a plain row-major B with row stride ldb.
std::vector<std::ptrdiff_t> stride_rows(int k, int ldb) {
  std::vector<std::ptrdiff_t> boff(static_cast<std::size_t>(k));
  for (int kk = 0; kk < k; ++kk)
    boff[static_cast<std::size_t>(kk)] = static_cast<std::ptrdiff_t>(kk) * ldb;
  return boff;
}

}  // namespace

QuantizedMatrix quantize_rows(const double* a, int lda, int rows, int cols) {
  S2A_CHECK(rows >= 0 && cols >= 0);
  QuantizedMatrix q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(static_cast<std::size_t>(rows) * cols);
  q.scales.resize(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    const double* row = a + static_cast<std::size_t>(i) * lda;
    double amax = 0.0;
    bool finite = true;
    for (int j = 0; j < cols; ++j) {
      amax = std::max(amax, std::fabs(row[j]));
      finite &= std::isfinite(row[j]);
    }
    // A non-finite weight poisons every output of its row, as in float.
    const double scale = !finite     ? std::numeric_limits<double>::quiet_NaN()
                         : amax > 0.0 ? amax / 127.0
                                      : 1.0;
    q.scales[static_cast<std::size_t>(i)] = scale;
    const double inv = 1.0 / scale;
    std::int8_t* out = q.data.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) out[j] = quantize_one(row[j], inv);
  }
  return q;
}

double activation_scale(const double* x, std::size_t n) {
  double amax = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    if (std::isfinite(x[i])) amax = std::max(amax, std::fabs(x[i]));
  const double scale = amax / 127.0;
  return std::isfinite(1.0 / scale) ? scale : 1.0;
}

bool quantize_values(const double* x, std::size_t n, double scale,
                     std::int8_t* out) {
  S2A_CHECK(scale > 0.0 && std::isfinite(scale));
  const double inv = 1.0 / scale;
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    finite &= std::isfinite(x[i]);
    out[i] = quantize_one(x[i], inv);
  }
  return finite;
}

std::int8_t* alloc_int8(util::ScratchArena& arena, std::size_t count) {
  return reinterpret_cast<std::int8_t*>(arena.alloc((count + 7) / 8));
}

namespace detail {

void gemm_int8_scalar(int m, int n, int k, const std::int8_t* a,
                      const double* a_scales, const std::int8_t* b,
                      const std::ptrdiff_t* boff, double b_scale, double* c,
                      int ldc) {
  for (int i = 0; i < m; ++i) {
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * k;
    double* crow = c + static_cast<std::size_t>(i) * ldc;
    const double deq = a_scales[i] * b_scale;
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<std::int32_t>(arow[kk]) *
               static_cast<std::int32_t>(b[boff[kk] + j]);
      crow[j] += deq * static_cast<double>(acc);
    }
  }
}

void gemm_int8_scalar(int m, int n, int k, const std::int8_t* a,
                      const double* a_scales, const std::int8_t* b, int ldb,
                      double b_scale, double* c, int ldc) {
  gemm_int8_scalar(m, n, k, a, a_scales, b, stride_rows(k, ldb).data(),
                   b_scale, c, ldc);
}

#if defined(__x86_64__) || defined(_M_X64)

// Widened-int16 vpmaddwd kernel: per (i, j-octet), two consecutive B
// rows are byte-interleaved, sign-extended to int16, and multiplied
// against the pair [a[kk], a[kk+1]] replicated in each int32 lane —
// one vpmaddwd does both k steps for 8 columns. int32 accumulation is
// exact, so the result matches gemm_int8_scalar bit for bit.
__attribute__((target("avx2"))) void gemm_int8_avx2(
    int m, int n, int k, const std::int8_t* a, const double* a_scales,
    const std::int8_t* b, const std::ptrdiff_t* boff, double b_scale,
    double* c, int ldc) {
  const int n8 = n - (n % 8);
  const int k2 = k - (k % 2);
  for (int i = 0; i < m; ++i) {
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * k;
    double* crow = c + static_cast<std::size_t>(i) * ldc;
    const double deq = a_scales[i] * b_scale;
    for (int j = 0; j < n8; j += 8) {
      __m256i acc = _mm256_setzero_si256();
      for (int kk = 0; kk < k2; kk += 2) {
        const std::int8_t* b0 = b + boff[kk] + j;
        const std::int8_t* b1 = b + boff[kk + 1] + j;
        // [b0[0],b1[0],b0[1],b1[1],...] as 16 int8, widened to int16.
        const __m128i lo = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(b0));
        const __m128i hi = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(b1));
        const __m256i pairs =
            _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(lo, hi));
        const std::uint16_t a0 =
            static_cast<std::uint16_t>(static_cast<std::int16_t>(arow[kk]));
        const std::uint16_t a1 = static_cast<std::uint16_t>(
            static_cast<std::int16_t>(arow[kk + 1]));
        const __m256i avec = _mm256_set1_epi32(
            static_cast<std::int32_t>(static_cast<std::uint32_t>(a0) |
                                      (static_cast<std::uint32_t>(a1) << 16)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, avec));
      }
      alignas(32) std::int32_t lanes[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      if (k2 < k) {  // odd-k tail: one scalar k step for these columns
        const std::int8_t* brow = b + boff[k2] + j;
        const std::int32_t av = arow[k2];
        for (int v = 0; v < 8; ++v)
          lanes[v] += av * static_cast<std::int32_t>(brow[v]);
      }
      for (int v = 0; v < 8; ++v)
        crow[j + v] += deq * static_cast<double>(lanes[v]);
    }
    for (int j = n8; j < n; ++j) {  // column tail
      std::int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<std::int32_t>(arow[kk]) *
               static_cast<std::int32_t>(b[boff[kk] + j]);
      crow[j] += deq * static_cast<double>(acc);
    }
  }
}

void gemm_int8_avx2(int m, int n, int k, const std::int8_t* a,
                    const double* a_scales, const std::int8_t* b, int ldb,
                    double b_scale, double* c, int ldc) {
  gemm_int8_avx2(m, n, k, a, a_scales, b, stride_rows(k, ldb).data(), b_scale,
                 c, ldc);
}

#endif  // x86-64

}  // namespace detail

void gemm_int8_rows(const QuantizedMatrix& a, int n, const std::int8_t* b,
                    const std::ptrdiff_t* boff, double b_scale, double* c,
                    int ldc) {
  S2A_CHECK(n >= 0);
  if (a.rows == 0 || a.cols == 0 || n == 0) return;
#if defined(__x86_64__) || defined(_M_X64)
  if (util::cpu_features().avx2 &&
      util::active_simd_isa() != util::SimdIsa::kScalar) {
    detail::gemm_int8_avx2(a.rows, n, a.cols, a.data.data(), a.scales.data(),
                           b, boff, b_scale, c, ldc);
    return;
  }
#endif
  detail::gemm_int8_scalar(a.rows, n, a.cols, a.data.data(), a.scales.data(),
                           b, boff, b_scale, c, ldc);
}

void gemm_int8(const QuantizedMatrix& a, int n, const std::int8_t* b, int ldb,
               double b_scale, double* c, int ldc) {
  gemm_int8_rows(a, n, b, stride_rows(a.cols, ldb).data(), b_scale, c, ldc);
}

}  // namespace s2a::nn
