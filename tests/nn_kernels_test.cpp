// Equivalence and memory-contract tests for the blocked-GEMM conv path:
// the padded-input forwards, the im2col_t/col2im_band backwards and the
// GEMM itself (nn/gemm.hpp, nn/conv2d.hpp, nn/im2col.hpp,
// util/scratch_arena.hpp).
//
// The load-bearing property is the determinism contract from
// docs/ARCHITECTURE.md: the GEMM path must reproduce the direct loops
// (the oracle in nn_oracle.hpp) bit-for-bit (EXPECT_EQ on doubles, no
// tolerance) for every shape, stride, padding, and thread count,
// because the ParallelEquivalence suites lean on it.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/frozen.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"
#include "nn/quant.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"
#include "nn_oracle.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"
#include "util/scratch_arena.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {
namespace {

// Reference GEMM: the naive triple loop with the same per-element
// accumulation chain the blocked kernel promises (init from C, then
// ascending-k `acc += a*b`).
void naive_gemm(int m, int n, int k, const std::vector<double>& a,
                const std::vector<double>& b, std::vector<double>& c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = c[static_cast<std::size_t>(i) * n + j];
      for (int kk = 0; kk < k; ++kk)
        acc += a[static_cast<std::size_t>(i) * k + kk] *
               b[static_cast<std::size_t>(kk) * n + j];
      c[static_cast<std::size_t>(i) * n + j] = acc;
    }
}

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

struct GemmShape {
  int m, n, k;
};

TEST(Gemm, MatchesNaiveTripleLoopBitExact) {
  // Shapes chosen to hit k=1, single elements, non-square panels, and
  // remainder tiles in every dimension (m % MR, n % NR, k % KC).
  const GemmShape shapes[] = {
      {1, 1, 1},     {1, 8, 1},    {4, 8, 1},    {3, 5, 7},
      {4, 16, 36},   {16, 24, 36}, {17, 31, 130}, {5, 9, 257},
      {32, 144, 144}, {4, 300, 513}, {12, 1, 40},
      // One-column tiles (batch-1 Dense): m a multiple of 2, 4 and 8 and
      // a partial panel, with k straddling kGemmKC.
      {8, 1, 257},   {16, 1, 300}, {24, 1, 513}, {13, 1, 300},
  };
  Rng rng(1234);
  for (const auto& s : shapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    // Non-zero init: the contract starts each chain from C's prior value.
    auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    auto c_gemm = c_ref;
    naive_gemm(s.m, s.n, s.k, a, b, c_ref);
    util::ScratchArena arena;
    gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_gemm.data(), s.n,
         arena);
    for (std::size_t i = 0; i < c_ref.size(); ++i)
      ASSERT_EQ(c_ref[i], c_gemm[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
  }
}

TEST(Gemm, PackedASizeCoversPadding) {
  // The panel height follows the active kernel's MR (scalar 2, avx2 4,
  // avx512 8, ...), so test against the accessor, not a constant.
  const auto mr = static_cast<std::size_t>(gemm_mr());
  EXPECT_EQ(packed_a_size(1, 5), mr * 5);
  EXPECT_EQ(packed_a_size(static_cast<int>(mr), 3), mr * 3);
  EXPECT_EQ(packed_a_size(static_cast<int>(mr) + 1, 2), 2 * mr * 2);
}

std::size_t diff_count(const Tensor& a, const Tensor& b);
std::size_t value_diff_count(const Tensor& a, const Tensor& b);
oracle::Grads run_backward(Layer& layer, const Tensor& x,
                           const Tensor& grad_out);

using oracle::ScopedSimd;

TEST(SimdDispatch, ProbeAndSelectionAreConsistent) {
  // Scalar is always available; auto never stays unresolved; every ISA
  // the probe reports supported has a distinct stable name.
  EXPECT_TRUE(util::simd_isa_supported(util::SimdIsa::kScalar));
  EXPECT_NE(util::active_simd_isa(), util::SimdIsa::kAuto);
  const auto isas = util::supported_simd_isas();
  ASSERT_FALSE(isas.empty());
  for (std::size_t i = 0; i < isas.size(); ++i) {
    EXPECT_TRUE(util::simd_isa_supported(isas[i]));
    for (std::size_t j = i + 1; j < isas.size(); ++j)
      EXPECT_STRNE(util::simd_isa_name(isas[i]), util::simd_isa_name(isas[j]));
  }
  // The active kernel's reported geometry backs the packing layout.
  EXPECT_GE(gemm_mr(), 1);
  EXPECT_LE(gemm_mr(), kGemmMaxMR);
  EXPECT_LE(gemm_nr(), kGemmMaxNR);
  {
    ScopedSimd scoped(util::SimdIsa::kScalar);
    EXPECT_EQ(gemm_mr(), kGemmMR);
    EXPECT_EQ(gemm_nr(), kGemmNR);
    EXPECT_STREQ(gemm_kernel_name(), "scalar");
  }
}

// Bitwise equality, except that a NaN only has to meet a NaN: IEEE 754
// leaves which NaN an add of two NaNs returns to the hardware and the
// operand order, which the naive loop and the kernels need not share.
bool same_value(double got, double want) {
  if (std::isnan(got) || std::isnan(want))
    return std::isnan(got) && std::isnan(want);
  return std::bit_cast<std::uint64_t>(got) ==
         std::bit_cast<std::uint64_t>(want);
}

TEST(SimdDispatch, EveryKernelHandlesEdgeShapes) {
  // Degenerate and tail-heavy shapes — m/n/k of 1, [1,1,k], partial
  // MR/NR panels around every compiled-in tile size (2, 4, 8 rows;
  // 4, 8, 16 columns), and KC straddles — against every supported
  // kernel family, each of which must match the naive loop bit for bit.
  const GemmShape shapes[] = {
      {1, 1, 1},   {1, 1, 37},  {1, 1, 300}, {1, 16, 5},  {16, 1, 5},
      {2, 4, 1},   {3, 5, 2},   {4, 8, 9},   {5, 9, 11},  {7, 15, 13},
      {8, 16, 17}, {9, 17, 29}, {15, 31, 64}, {4, 576, 64}, {17, 33, 257},
      // One-column strips: full and partial panels of every family's
      // MR, and m running every panel count of a row group in a first
      // and a later group (groups of 4 panels: 8 rows on scalar, 16 on
      // AVX2 and NEON, 32 on AVX-512; 60 is one full AVX-512 group plus
      // four panels), the STARNet VAE's Dense shapes, and k straddling
      // kGemmKC.
      {8, 1, 257}, {16, 1, 300}, {24, 1, 513}, {6, 1, 300}, {13, 1, 40},
      {8, 1, 37},  {9, 1, 37},   {16, 1, 37},  {17, 1, 37}, {27, 1, 37},
      {31, 1, 37}, {32, 1, 37},  {33, 1, 37},  {43, 1, 37}, {60, 1, 37},
      {48, 1, 6},  {32, 1, 48},  {48, 1, 32},  {12, 1, 48}, {33, 1, 257},
      {43, 1, 513},
  };
  Rng rng(99);
  const auto check = [](const char* what, const GemmShape& s,
                        const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::vector<double>& c0) {
    auto c_ref = c0;
    auto c_gemm = c0;
    naive_gemm(s.m, s.n, s.k, a, b, c_ref);
    util::ScratchArena arena;
    gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_gemm.data(), s.n,
         arena);
    for (std::size_t i = 0; i < c_ref.size(); ++i)
      ASSERT_TRUE(same_value(c_gemm[i], c_ref[i]))
          << gemm_kernel_name() << " " << what << " m=" << s.m
          << " n=" << s.n << " k=" << s.k << " at " << i << ": "
          << c_gemm[i] << " vs " << c_ref[i];
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    for (const auto& s : shapes) {
      const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
      const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
      const auto c = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
      check("random", s, a, b, c);
    }
    // A one-column strip inside a wider C (n = NR + 1: the last column
    // is strided by ldc), then NaN, ±inf and -0.0 planted in A, B and
    // the initial C, on one- and NR+1-column shapes.
    const int nr = gemm_nr();
    for (const GemmShape s :
         {GemmShape{43, nr + 1, 37}, GemmShape{33, nr + 1, 300},
          GemmShape{43, 1, 37}, GemmShape{33, 1, 300}}) {
      const std::size_t mk = static_cast<std::size_t>(s.m) * s.k;
      const std::size_t kn = static_cast<std::size_t>(s.k) * s.n;
      const std::size_t mn = static_cast<std::size_t>(s.m) * s.n;
      const auto a = random_vec(mk, rng);
      auto b = random_vec(kn, rng);
      const auto c = random_vec(mn, rng);
      check("random", s, a, b, c);
      auto a_bad = a;  // rows 5, 9 and 10 of every column go non-finite
      a_bad[5 * static_cast<std::size_t>(s.k) + 7] = nan;
      a_bad[9 * static_cast<std::size_t>(s.k)] = inf;
      a_bad[10 * static_cast<std::size_t>(s.k) + 3] = -inf;
      check("A specials", s, a_bad, b, c);
      auto b_bad = b;  // poisons one column each, the last one strided
      b_bad[3 * static_cast<std::size_t>(s.n) + s.n - 1] = nan;
      if (s.n > 1) b_bad[5 * static_cast<std::size_t>(s.n)] = inf;
      check("B specials", s, a, b_bad, c);
      auto c_bad = c;
      for (int j = 0; j < s.n; ++j) {
        c_bad[2 * static_cast<std::size_t>(s.n) + j] = nan;
        c_bad[8 * static_cast<std::size_t>(s.n) + j] = -inf;
        c_bad[static_cast<std::size_t>(s.m - 1) * s.n + j] = inf;
      }
      check("C specials", s, a, b, c_bad);
      // -0.0 survives a chain only if it starts from the caller's C:
      // -0.0 + (-0.0) = -0.0, but a chain wrongly started from +0.0
      // ends at +0.0. Rows 0, 31, 32 and m-1 (first and last row of a
      // row group, and the last panel's tail) are all -0.0.
      for (auto& v : b) v = std::fabs(v);
      auto a_neg = a;
      auto c_neg = c;
      for (const int row : {0, 31, 32, s.m - 1}) {
        for (int kk = 0; kk < s.k; ++kk)
          a_neg[static_cast<std::size_t>(row) * s.k + kk] = -0.0;
        for (int j = 0; j < s.n; ++j)
          c_neg[static_cast<std::size_t>(row) * s.n + j] = -0.0;
      }
      check("-0.0 rows", s, a_neg, b, c_neg);
    }
  }
}

TEST(SimdDispatch, RowTableGemmMatchesNaiveUnderEveryKernel) {
  // gemm_packed_rows reads B row kk at b + boff[kk]. The conv layers'
  // tables jump between planes, repeat a span (a 1x1 tap grid), go
  // backwards and overlap, so the tables here are irregular: random
  // offsets into one small buffer, some rows repeated. Shapes cover m
  // tails and the half tile (m = MR/2 of every family), n < NR, n = 1,
  // and k > kGemmKC so the table is sliced per k panel.
  const GemmShape shapes[] = {
      {1, 1, 1},   {2, 1, 300}, {4, 1, 257}, {8, 1, 513}, {13, 1, 40},
      {2, 3, 7},   {3, 5, 9},   {4, 16, 20}, {8, 16, 33}, {4, 33, 300},
      {7, 15, 13}, {9, 17, 29}, {16, 40, 260}, {17, 31, 513}, {32, 64, 144},
  };
  Rng rng(101);
  for (const auto isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    for (const auto& s : shapes) {
      const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
      const auto buf = random_vec(static_cast<std::size_t>(3 * s.n + 40), rng);
      std::vector<std::ptrdiff_t> boff(static_cast<std::size_t>(s.k));
      for (int kk = 0; kk < s.k; ++kk)
        boff[static_cast<std::size_t>(kk)] =
            kk > 0 && kk % 5 == 0 ? boff[static_cast<std::size_t>(kk - 1)]
                                  : rng.uniform_int(0, 2 * s.n + 40);
      auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
      auto c_rows = c_ref;
      for (int i = 0; i < s.m; ++i)
        for (int j = 0; j < s.n; ++j) {
          double acc = c_ref[static_cast<std::size_t>(i) * s.n + j];
          for (int kk = 0; kk < s.k; ++kk)
            acc += a[static_cast<std::size_t>(i) * s.k + kk] *
                   buf[static_cast<std::size_t>(
                       boff[static_cast<std::size_t>(kk)] + j)];
          c_ref[static_cast<std::size_t>(i) * s.n + j] = acc;
        }
      std::vector<double> ap(packed_a_size(s.m, s.k));
      pack_a(a.data(), s.k, s.m, s.k, ap.data());
      gemm_packed_rows(s.m, s.n, s.k, ap.data(), buf.data(), boff.data(),
                       c_rows.data(), s.n);
      for (std::size_t i = 0; i < c_ref.size(); ++i)
        ASSERT_EQ(c_ref[i], c_rows[i])
            << util::simd_isa_name(isa) << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " at " << i;
    }
  }
}

TEST(SimdDispatch, VectorConvMatchesScalarAcrossThreadCounts) {
  // The full conv forward (pack + band split + gemm) must produce the
  // scalar kernel's bits under every kernel family at every thread
  // count — the vector kernels change speed, never the chain.
  Rng rng(45);
  Conv2D conv(4, 16, 3, 2, 1, rng);
  ConvTranspose2D deconv(16, 4, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 4, 24, 24}, rng);
  const Tensor z = Tensor::randn({1, 16, 12, 12}, rng);

  Tensor conv_ref, deconv_ref;
  {
    ScopedSimd scalar(util::SimdIsa::kScalar);
    util::ScopedGlobalThreads threads(1);
    conv_ref = conv.forward(x);
    deconv_ref = deconv.forward(z);
  }
  for (const auto isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    for (int threads : {1, 2, 4}) {
      util::ScopedGlobalThreads scoped_threads(threads);
      EXPECT_EQ(diff_count(conv_ref, conv.forward(x)), 0u)
          << util::simd_isa_name(isa) << " " << threads << " threads";
      EXPECT_EQ(diff_count(deconv_ref, deconv.forward(z)), 0u)
          << util::simd_isa_name(isa) << " " << threads << " threads";
    }
  }
}

TEST(Quant, RowQuantizationRoundTripsWithinOneStep) {
  // Symmetric per-row scales: every value must round-trip within half a
  // quantization step, and the extreme of each row must hit ±127.
  Rng rng(7);
  const int rows = 6, cols = 40;
  const auto a = random_vec(static_cast<std::size_t>(rows) * cols, rng);
  const QuantizedMatrix q = quantize_rows(a.data(), cols, rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  for (int i = 0; i < rows; ++i) {
    const double scale = q.scales[static_cast<std::size_t>(i)];
    ASSERT_GT(scale, 0.0);
    std::int8_t amax = 0;
    for (int j = 0; j < cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * cols + j;
      EXPECT_NEAR(static_cast<double>(q.data[idx]) * scale, a[idx],
                  0.5 * scale + 1e-15);
      amax = std::max<std::int8_t>(
          amax, static_cast<std::int8_t>(std::abs(q.data[idx])));
    }
    EXPECT_EQ(amax, 127) << "row " << i;
  }
  // All-zero rows quantize to zeros with a benign scale.
  const std::vector<double> zeros(16, 0.0);
  const QuantizedMatrix qz = quantize_rows(zeros.data(), 16, 1, 16);
  EXPECT_EQ(qz.scales[0], 1.0);
  for (const auto v : qz.data) EXPECT_EQ(v, 0);
}

TEST(Quant, ActivationScaleIsBandInvariant) {
  // The scale is computed over the whole tensor, so any band split the
  // conv layers apply sees the same quantization grid.
  Rng rng(8);
  const auto x = random_vec(333, rng);
  const double whole = activation_scale(x.data(), x.size());
  double banded_max = 0.0;
  for (std::size_t start = 0; start < x.size(); start += 100)
    banded_max = std::max(
        banded_max, activation_scale(x.data() + start,
                                     std::min<std::size_t>(100, x.size() -
                                                                    start)));
  EXPECT_EQ(whole, banded_max);
}

// The int8 forward of one conv or deconv layer: its int8 snapshot.
Tensor int8_forward(Layer& layer, const Tensor& x) {
  return FrozenConv::quantized({&layer}, x.shape())->infer(x);
}

TEST(Quant, TinyActivationsTakeTheUnitScale) {
  // Below max|x| of about 7.1e-307 the scale max|x| / 127 has no finite
  // reciprocal (and below about 3.2e-322 it is 0). Every such value
  // codes to 0 at any scale, so the scale falls back to 1, the value an
  // all-zero input gets, and the int8 forward gives the bias alone.
  for (const double tiny : {1e-322, 4.9e-324, 1e-310, 7e-307}) {
    const std::vector<double> x = {0.0, -tiny, tiny / 2};
    EXPECT_EQ(activation_scale(x.data(), x.size()), 1.0) << tiny;
  }
  const std::vector<double> small = {1e-300};
  EXPECT_EQ(activation_scale(small.data(), 1), 1e-300 / 127.0);

  Rng rng(28);
  Conv2D conv(1, 2, 3, 1, 1, rng);
  Tensor& bias = *conv.params()[1];
  bias[0] = 0.25;
  bias[1] = -0.5;
  Tensor x({1, 1, 4, 4});
  x[5] = 1e-322;
  const Tensor y = int8_forward(conv, x);
  for (std::size_t i = 0; i < y.numel(); ++i)
    EXPECT_EQ(y[i], i < 16 ? 0.25 : -0.5) << i;
}

TEST(Quant, Int8GemmMatchesInt32Reference) {
  // gemm_int8 must equal the naive int32 loop EXACTLY (integer
  // accumulation has no rounding), including the bias-seeded C start.
  Rng rng(21);
  const GemmShape shapes[] = {
      {1, 1, 1}, {3, 5, 7}, {4, 16, 36}, {16, 24, 144}, {5, 33, 257},
  };
  for (const auto& s : shapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const QuantizedMatrix qa = quantize_rows(a.data(), s.k, s.m, s.k);
    const auto xf = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const double xs = activation_scale(xf.data(), xf.size());
    std::vector<std::int8_t> xq(xf.size());
    quantize_values(xf.data(), xf.size(), xs, xq.data());
    auto c_ref = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    auto c_int8 = c_ref;
    for (int i = 0; i < s.m; ++i)
      for (int j = 0; j < s.n; ++j) {
        std::int32_t acc = 0;
        for (int kk = 0; kk < s.k; ++kk)
          acc += static_cast<std::int32_t>(
                     qa.data[static_cast<std::size_t>(i) * s.k + kk]) *
                 static_cast<std::int32_t>(
                     xq[static_cast<std::size_t>(kk) * s.n + j]);
        c_ref[static_cast<std::size_t>(i) * s.n + j] +=
            qa.scales[static_cast<std::size_t>(i)] * xs *
            static_cast<double>(acc);
      }
    gemm_int8(qa, s.n, xq.data(), s.n, xs, c_int8.data(), s.n);
    for (std::size_t i = 0; i < c_ref.size(); ++i)
      ASSERT_EQ(c_ref[i], c_int8[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
  }
}

#if defined(__x86_64__) || defined(_M_X64)
TEST(Quant, ScalarAndAvx2Int8KernelsExactlyEqual) {
  if (!util::cpu_features().avx2) GTEST_SKIP() << "no AVX2 on this CPU";
  Rng rng(22);
  const GemmShape shapes[] = {
      {1, 1, 1}, {2, 7, 3}, {4, 9, 36}, {16, 40, 143}, {7, 65, 256},
  };
  for (const auto& s : shapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const QuantizedMatrix qa = quantize_rows(a.data(), s.k, s.m, s.k);
    const auto xf = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const double xs = activation_scale(xf.data(), xf.size());
    std::vector<std::int8_t> xq(xf.size());
    quantize_values(xf.data(), xf.size(), xs, xq.data());
    auto c_scalar = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    auto c_avx2 = c_scalar;
    detail::gemm_int8_scalar(s.m, s.n, s.k, qa.data.data(), qa.scales.data(),
                             xq.data(), s.n, xs, c_scalar.data(), s.n);
    detail::gemm_int8_avx2(s.m, s.n, s.k, qa.data.data(), qa.scales.data(),
                           xq.data(), s.n, xs, c_avx2.data(), s.n);
    for (std::size_t i = 0; i < c_scalar.size(); ++i)
      ASSERT_EQ(c_scalar[i], c_avx2[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
  }
}
#endif

// Indices of the non-finite elements of t.
std::vector<std::size_t> nonfinite_at(const Tensor& t) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (!std::isfinite(t[i])) idx.push_back(i);
  return idx;
}

TEST(Quant, NonFiniteActivationsStayNonFiniteInInt8) {
  // A NaN or inf activation has no int8 code. The int8 forward must
  // still report non-finite exactly where the float forward does, or
  // the loop's non-finite quarantine never sees the fault.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Rng rng(23);
    Conv2D conv(1, 2, 3, 1, 1, rng);
    Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
    x[5] = bad;
    const auto expect = nonfinite_at(conv.forward(x));
    EXPECT_EQ(expect.size(), 18u);
    EXPECT_EQ(nonfinite_at(int8_forward(conv, x)), expect) << "Conv2D " << bad;

    Rng drng(24);
    ConvTranspose2D deconv(2, 3, 4, 2, 1, drng);
    Tensor z = Tensor::randn({2, 2, 5, 5}, rng);
    z[7] = bad;
    const auto expect_d = nonfinite_at(deconv.forward(z));
    EXPECT_FALSE(expect_d.empty());
    EXPECT_EQ(nonfinite_at(int8_forward(deconv, z)), expect_d)
        << "ConvTranspose2D " << bad;
  }
}

TEST(Quant, Int8ConvForwardsMatchLoweredOracle) {
  // The int8 snapshot codes each layer's padded input once and reads it
  // through the tap table; the oracle codes an explicit lowering (im2col, and a
  // per-phase gather for the deconv) against the same per-image scales
  // and multiplies it with gemm_int8. Same codes, same integer sums,
  // same dequantization: the outputs are equal, non-finite inputs
  // included, at every thread count.
  struct Case {
    bool deconv;
    int cin, cout, k, stride, pad, h, w;
  };
  const Case cases[] = {
      {false, 4, 16, 3, 2, 1, 24, 24}, {false, 3, 5, 3, 1, 1, 9, 7},
      {false, 2, 3, 5, 3, 2, 11, 10},  {false, 5, 3, 1, 1, 0, 6, 7},
      {true, 8, 4, 4, 2, 1, 12, 12},   {true, 3, 2, 3, 1, 1, 6, 5},
      {true, 2, 3, 5, 3, 1, 4, 5},
  };
  Rng rng(27);
  for (const double bad : {0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const auto& c : cases) {
      SCOPED_TRACE(testing::Message()
                   << (c.deconv ? "deconv" : "conv") << " k=" << c.k
                   << " stride=" << c.stride << " pad=" << c.pad
                   << " bad=" << bad);
      Tensor x = Tensor::randn({2, c.cin, c.h, c.w}, rng);
      if (bad != 0.0) x[static_cast<std::size_t>(c.cin) * c.h * c.w + 3] = bad;
      Tensor expect;
      std::unique_ptr<Layer> layer;
      if (c.deconv) {
        auto d = std::make_unique<ConvTranspose2D>(c.cin, c.cout, c.k,
                                                   c.stride, c.pad, rng);
        expect = oracle::conv_transpose2d_forward_int8(
            x, *d->params()[0], *d->params()[1], c.stride, c.pad);
        layer = std::move(d);
      } else {
        auto v = std::make_unique<Conv2D>(c.cin, c.cout, c.k, c.stride,
                                          c.pad, rng);
        expect = oracle::conv2d_forward_int8(x, *v->params()[0],
                                             *v->params()[1], c.stride, c.pad);
        layer = std::move(v);
      }
      const auto snap = FrozenConv::quantized({layer.get()}, x.shape());
      for (int threads : {1, 4}) {
        util::ScopedGlobalThreads scoped(threads);
        EXPECT_EQ(value_diff_count(expect, snap->infer(x)), 0u)
            << threads << " threads";
      }
    }
  }
}

TEST(Quant, NonFiniteWeightPoisonsItsRow) {
  // quantize_rows cannot encode a NaN weight either: its row gets a NaN
  // scale, so every output of that row is NaN, as in float.
  std::vector<double> a = {0.5, -1.0, 2.0, 0.25, 1.0, -0.5};
  a[4] = std::numeric_limits<double>::quiet_NaN();
  const QuantizedMatrix q = quantize_rows(a.data(), 3, 2, 3);
  EXPECT_GT(q.scales[0], 0.0);
  EXPECT_TRUE(std::isnan(q.scales[1]));
  const std::vector<std::int8_t> b = {1, 2, 3, 4, 5, 6};
  std::vector<double> c(4, 0.0);
  gemm_int8(q, 2, b.data(), 2, 0.1, c.data(), 2);
  EXPECT_TRUE(std::isfinite(c[0]) && std::isfinite(c[1]));
  EXPECT_TRUE(std::isnan(c[2]) && std::isnan(c[3]));
}

TEST(Im2Col, RoundTripScalesByReadCount) {
  // col2im(im2col(x)) multiplies each pixel by the number of output
  // pixels reading it. Integer-valued inputs keep the repeated sums
  // exact, so the identity can be checked with EXPECT_EQ.
  const int cin = 3, h = 9, w = 7, k = 3, pad = 1;
  for (int stride : {1, 2, 3}) {
    const int oh = (h + 2 * pad - k) / stride + 1;
    const int ow = (w + 2 * pad - k) / stride + 1;
    Rng rng(77);
    std::vector<double> x(static_cast<std::size_t>(cin) * h * w);
    for (double& v : x)
      v = static_cast<double>(rng.uniform_int(0, 9));
    std::vector<double> ones(x.size(), 1.0);

    const std::size_t cols =
        static_cast<std::size_t>(im2col_rows(cin, k)) * oh * ow;
    std::vector<double> col(cols), col_ones(cols);
    oracle::im2col(x.data(), cin, h, w, k, stride, pad, ow, 0, oh,
                   col.data());
    oracle::im2col(ones.data(), cin, h, w, k, stride, pad, ow, 0, oh,
                   col_ones.data());

    std::vector<double> back(x.size(), 0.0), counts(x.size(), 0.0);
    oracle::col2im(col.data(), cin, h, w, k, stride, pad, ow, 0, oh,
                   back.data());
    oracle::col2im(col_ones.data(), cin, h, w, k, stride, pad, ow, 0, oh,
                   counts.data());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(back[i], x[i] * counts[i]) << "stride=" << stride << " i=" << i;
  }
}

TEST(Im2Col, BandDecompositionMatchesFullLowering) {
  // Lowering [0, oh) in one shot must equal lowering bands and
  // concatenating the column slices — the property the pool sharding
  // relies on. Every case clamps the row span at both edges: the
  // padding cuts taps off the left, and the last output column's
  // taps run past the right edge.
  struct Case {
    int cin, h, w, k, stride, pad;
  };
  const Case cases[] = {
      {2, 11, 8, 4, 2, 1}, {3, 9, 7, 5, 2, 2}, {2, 10, 10, 5, 3, 2},
  };
  Rng rng(78);
  for (const auto& c : cases) {
    const int oh = (c.h + 2 * c.pad - c.k) / c.stride + 1;
    const int ow = (c.w + 2 * c.pad - c.k) / c.stride + 1;
    ASSERT_GE((ow - 1) * c.stride + c.k - 1 - c.pad, c.w) << "no right clamp";
    const auto x = random_vec(static_cast<std::size_t>(c.cin) * c.h * c.w, rng);
    const int rows = im2col_rows(c.cin, c.k);

    std::vector<double> full(static_cast<std::size_t>(rows) * oh * ow);
    oracle::im2col(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, ow, 0,
                   oh, full.data());

    for (int split = 1; split < oh; ++split) {
      std::vector<double> lo_band(static_cast<std::size_t>(rows) * split * ow);
      std::vector<double> hi_band(static_cast<std::size_t>(rows) *
                                  (oh - split) * ow);
      oracle::im2col(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, ow, 0,
                     split, lo_band.data());
      oracle::im2col(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, ow,
                     split, oh, hi_band.data());
      for (int r = 0; r < rows; ++r) {
        for (int j = 0; j < split * ow; ++j)
          ASSERT_EQ(full[static_cast<std::size_t>(r) * oh * ow + j],
                    lo_band[static_cast<std::size_t>(r) * split * ow + j]);
        for (int j = 0; j < (oh - split) * ow; ++j)
          ASSERT_EQ(
              full[static_cast<std::size_t>(r) * oh * ow + split * ow + j],
              hi_band[static_cast<std::size_t>(r) * (oh - split) * ow + j]);
      }
    }
  }
}

// ---- Conv forward: GEMM path vs. direct-loop oracle ----

std::size_t diff_count(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return a.numel() + b.numel();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) ++bad;
  return bad;
}

TEST(ConvBackendEquivalence, Conv2DBitExactAcrossShapes) {
  Rng rng(42);
  struct Case {
    int cin, cout, k, stride, pad, h, w;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 0, 5, 5},   {2, 3, 3, 1, 1, 7, 5},
      {3, 4, 3, 2, 1, 9, 11},  {4, 16, 3, 2, 1, 48, 48},
      {2, 5, 5, 3, 2, 13, 17}, {1, 2, 4, 2, 1, 10, 6},
      {6, 4, 3, 1, 0, 9, 9},
  };
  for (const auto& c : cases) {
    Conv2D conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({2, c.cin, c.h, c.w}, rng);
    const Tensor naive = oracle::conv2d_forward(
        x, *conv.params()[0], *conv.params()[1], c.stride, c.pad);
    EXPECT_EQ(diff_count(naive, conv.forward(x)), 0u)
        << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w;
  }
}

TEST(ConvBackendEquivalence, ConvTranspose2DBitExactAcrossShapes) {
  Rng rng(43);
  struct Case {
    int cin, cout, k, stride, pad, h, w, n = 2;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 0, 5, 5},  {3, 2, 3, 1, 1, 7, 5},
      {2, 3, 4, 2, 1, 9, 11}, {32, 16, 4, 2, 1, 12, 12},
      {2, 2, 5, 3, 2, 6, 7},  {4, 1, 3, 2, 0, 5, 9},
      // Span-clamp edges of the phase gather: k < s (an empty phase, so
      // pure-bias pixels), pad = k-1 (most taps land off the input), a
      // one-row input, stride 4, and a batch of 3.
      {3, 2, 2, 3, 0, 4, 5},  {2, 3, 3, 2, 2, 3, 6},
      {2, 3, 3, 2, 1, 1, 6},  {2, 2, 6, 4, 3, 5, 3},
      {3, 4, 4, 2, 1, 7, 6, 3},
  };
  for (const auto& c : cases) {
    ConvTranspose2D deconv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    const Tensor naive = oracle::conv_transpose2d_forward(
        x, *deconv.params()[0], *deconv.params()[1], c.stride, c.pad);
    EXPECT_EQ(diff_count(naive, deconv.forward(x)), 0u)
        << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
        << " w=" << c.w;
  }
}

// Elements that differ, with NaN matching NaN: a NaN input pixel must
// turn exactly the outputs that read it into NaN.
std::size_t value_diff_count(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return a.numel() + b.numel();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (!(a[i] == b[i] || (std::isnan(a[i]) && std::isnan(b[i])))) ++bad;
  return bad;
}

struct GeometryCase {
  int cin, cout, k, stride, pad, h, w;
};

// A batch of 3 with a NaN pixel in the middle image: the wide-grid
// columns of image 0 that run past its planes read image 1's, and
// those of the last image read the slack, so a leak of either shows up
// as a NaN (or a changed value) the oracle does not have.
Tensor geometry_input(const GeometryCase& c, Rng& rng) {
  Tensor x = Tensor::randn({3, c.cin, c.h, c.w}, rng);
  x[static_cast<std::size_t>(c.cin) * c.h * c.w + 1] =
      std::numeric_limits<double>::quiet_NaN();
  return x;
}

TEST(ConvBackendEquivalence, Conv2DPaddingGeometryAcrossThreadCounts) {
  // The padded-input lowering's edges: strides 3 and 4 (9 and 16
  // polyphase planes), inputs narrower than the kernel, wide grids
  // whose rows*wq is no multiple of any NR, a pad wider than the
  // kernel (the wide grid is then the output row), the 1x1 case that
  // reads x itself, and shapes big enough to shard.
  const GeometryCase cases[] = {
      {2, 3, 3, 3, 1, 10, 11}, {3, 2, 5, 4, 2, 13, 9},  {2, 3, 5, 1, 2, 6, 3},
      {1, 2, 4, 2, 1, 7, 3},   {3, 4, 3, 1, 1, 7, 5},   {4, 9, 3, 2, 1, 30, 29},
      {5, 3, 1, 1, 0, 7, 9},   {3, 4, 1, 2, 0, 9, 8},   {2, 3, 2, 1, 2, 5, 4},
      {3, 5, 4, 3, 0, 4, 14},
  };
  Rng rng(49);
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
                 << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
                 << " w=" << c.w);
    Conv2D conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = geometry_input(c, rng);
    const Tensor naive = oracle::conv2d_forward(
        x, *conv.params()[0], *conv.params()[1], c.stride, c.pad);
    for (int threads : {1, 2, 3, 4, 7}) {
      util::ScopedGlobalThreads scoped(threads);
      EXPECT_EQ(value_diff_count(naive, conv.forward(x)), 0u)
          << threads << " threads";
    }
  }
}

TEST(ConvBackendEquivalence, ConvTranspose2DPaddingGeometryAcrossThreadCounts) {
  // The same edges for the deconv's phase convolutions over one padded
  // input (strides 3 and 4, inputs narrower than the kernel, k == s, a
  // pad wider than k-1 so the input needs none, stride 1, and input
  // paddings (k-1-pad)/s that round down), plus its
  // input gradient, which is a strided conv of grad_out through the
  // same lowering.
  const GeometryCase cases[] = {
      {2, 3, 5, 3, 1, 4, 5},  {3, 2, 6, 4, 1, 3, 4},  {2, 3, 4, 2, 1, 5, 3},
      {2, 2, 3, 3, 0, 4, 2},  {3, 4, 4, 2, 1, 9, 7},  {8, 6, 4, 2, 1, 12, 11},
      {2, 3, 2, 2, 2, 5, 6},  {3, 2, 3, 1, 1, 6, 5},  {2, 3, 7, 4, 2, 3, 2},
      {2, 3, 5, 2, 1, 4, 6},
  };
  Rng rng(50);
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
                 << " stride=" << c.stride << " pad=" << c.pad << " h=" << c.h
                 << " w=" << c.w);
    ConvTranspose2D deconv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = geometry_input(c, rng);
    const Tensor naive = oracle::conv_transpose2d_forward(
        x, *deconv.params()[0], *deconv.params()[1], c.stride, c.pad);
    const Tensor xf = Tensor::randn({3, c.cin, c.h, c.w}, rng);
    const Tensor g = Tensor::randn(
        {3, c.cout, deconv.out_size(c.h), deconv.out_size(c.w)}, rng);
    const auto grads = oracle::conv_transpose2d_backward(
        xf, *deconv.params()[0], g, c.stride, c.pad);
    for (int threads : {1, 2, 3, 4, 7}) {
      util::ScopedGlobalThreads scoped(threads);
      EXPECT_EQ(value_diff_count(naive, deconv.forward(x)), 0u)
          << threads << " threads";
      EXPECT_EQ(diff_count(grads.dx, run_backward(deconv, xf, g).dx), 0u)
          << "dx, " << threads << " threads";
    }
  }
}

TEST(ConvBackendEquivalence, GemmPathBitExactAcrossThreadCounts) {
  // The band split changes with the thread count; the per-element
  // accumulation chain must not — on the float path, and on the int8
  // path of an int8 snapshot of the same layers. The pool size alone
  // decides sharding, so this shards on any host (and genuinely
  // exercises arena slots under TSan; see ShardsOnAnyHost below).
  Rng rng(44);
  Conv2D conv(4, 16, 3, 2, 1, rng);
  ConvTranspose2D deconv(16, 4, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 4, 48, 48}, rng);
  const Tensor z = Tensor::randn({1, 16, 24, 24}, rng);
  const auto qconv = FrozenConv::quantized({&conv}, x.shape());
  const auto qdeconv = FrozenConv::quantized({&deconv}, z.shape());

  Tensor conv_serial, deconv_serial, qconv_serial, qdeconv_serial;
  {
    util::ScopedGlobalThreads threads(1);
    conv_serial = conv.forward(x);
    deconv_serial = deconv.forward(z);
    qconv_serial = qconv->infer(x);
    qdeconv_serial = qdeconv->infer(z);
  }
  // The snapshots really ran int8.
  EXPECT_GT(diff_count(conv_serial, qconv_serial), 0u);
  EXPECT_GT(diff_count(deconv_serial, qdeconv_serial), 0u);
  for (int threads : {1, 2, 3, 4, 7}) {
    util::ScopedGlobalThreads scoped(threads);
    EXPECT_EQ(diff_count(conv_serial, conv.forward(x)), 0u)
        << threads << " threads";
    EXPECT_EQ(diff_count(deconv_serial, deconv.forward(z)), 0u)
        << threads << " threads";
    EXPECT_EQ(diff_count(qconv_serial, qconv->infer(x)), 0u)
        << "int8 conv, " << threads << " threads";
    EXPECT_EQ(diff_count(qdeconv_serial, qdeconv->infer(z)), 0u)
        << "int8 deconv, " << threads << " threads";
  }
}

TEST(ConvBackendEquivalence, ShardsOnAnyHost) {
  // The pool size alone decides sharding: a 4-slot pool must split a
  // forward above the parallel-MAC threshold into several bands, each
  // with its own arena slot, whatever the host's core count. Without
  // this the thread-count sweeps above could pass without sharding.
  util::ScopedGlobalThreads threads(4);
  Rng rng(44);
  Conv2D conv(4, 16, 3, 2, 1, rng);  // 16*36*24*24 MACs >> 2^15
  conv.forward(Tensor::randn({1, 4, 48, 48}, rng));
  EXPECT_GT(conv.scratch()->slots(), 1u);
}

TEST(Im2Col, TransposedGatherMatchesIm2Col) {
  // im2col_t is the transposed gather the weight-gradient GEMMs consume:
  // row per output pixel, taps in (ic, ky, kx) order — exactly im2col's
  // column. Both are pure copies, so the match is bitwise.
  struct Case {
    int cin, h, w, k, stride, pad;
  };
  const Case cases[] = {
      {1, 5, 5, 1, 1, 0}, {2, 9, 7, 3, 1, 1}, {3, 11, 8, 4, 2, 1},
      {2, 6, 7, 5, 3, 2},
      // Stride 2 and 3 with the tap span clamped at both row edges.
      {3, 9, 7, 5, 2, 2}, {2, 10, 10, 5, 3, 2},
  };
  Rng rng(79);
  for (const auto& c : cases) {
    const int oh = (c.h + 2 * c.pad - c.k) / c.stride + 1;
    const int ow = (c.w + 2 * c.pad - c.k) / c.stride + 1;
    const int kdim = im2col_rows(c.cin, c.k);
    const auto x = random_vec(static_cast<std::size_t>(c.cin) * c.h * c.w, rng);

    std::vector<double> col(static_cast<std::size_t>(kdim) * oh * ow);
    oracle::im2col(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, ow, 0,
                   oh, col.data());
    std::vector<double> colt(static_cast<std::size_t>(oh) * ow * kdim);
    im2col_t(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, ow, 0, oh,
             colt.data());
    for (int p = 0; p < oh * ow; ++p)
      for (int r = 0; r < kdim; ++r)
        ASSERT_EQ(colt[static_cast<std::size_t>(p) * kdim + r],
                  col[static_cast<std::size_t>(r) * oh * ow + p])
            << "p=" << p << " r=" << r;

    // Band decomposition: rows [lo, hi) written at the band's base
    // pointer must equal the same rows of the full lowering.
    for (int split = 1; split < oh; ++split) {
      std::vector<double> band(static_cast<std::size_t>(oh - split) * ow *
                               kdim);
      im2col_t(x.data(), c.cin, c.h, c.w, c.k, c.stride, c.pad, ow, split, oh,
               band.data());
      for (std::size_t i = 0; i < band.size(); ++i)
        ASSERT_EQ(band[i],
                  colt[static_cast<std::size_t>(split) * ow * kdim + i]);
    }
  }
}

TEST(Im2Col, Col2ImBandDecompositionMatchesFullScatter) {
  // col2im_band restricted to input rows [iy_lo, iy_hi) must reproduce
  // the full col2im bitwise on those rows: each destination element's
  // terms arrive in the same (ic,ky,kx; oy asc) order, the band bounds
  // only skip terms that land outside the band.
  const int cin = 2, h = 11, w = 8, k = 4, stride = 2, pad = 1;
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (w + 2 * pad - k) / stride + 1;
  const int kdim = im2col_rows(cin, k);
  Rng rng(80);
  const auto col =
      random_vec(static_cast<std::size_t>(kdim) * oh * ow, rng);

  std::vector<double> full(static_cast<std::size_t>(cin) * h * w, 0.0);
  oracle::col2im(col.data(), cin, h, w, k, stride, pad, ow, 0, oh,
                 full.data());

  for (int split = 1; split < h; ++split) {
    std::vector<double> banded(full.size(), 0.0);
    col2im_band(col.data(), cin, h, w, k, stride, pad, ow, 0, split,
                banded.data());
    col2im_band(col.data(), cin, h, w, k, stride, pad, ow, split, h,
                banded.data());
    for (std::size_t i = 0; i < full.size(); ++i)
      ASSERT_EQ(banded[i], full[i]) << "split=" << split << " i=" << i;
  }
}

// ---- Backward: GEMM path vs. direct-loop oracle ----

// One zero_grad + forward + backward; returns dx and copies of the
// accumulated parameter gradients.
oracle::Grads run_backward(Layer& layer, const Tensor& x,
                           const Tensor& grad_out) {
  layer.zero_grad();
  layer.forward(x);
  oracle::Grads r;
  r.dx = layer.backward(grad_out);
  r.gw = *layer.grads()[0];
  r.gb = *layer.grads()[1];
  return r;
}

TEST(ConvBackendEquivalence, Conv2DBackwardBitExactAcrossShapes) {
  Rng rng(45);
  struct Case {
    int cin, cout, k, stride, pad, h, w;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 0, 5, 5},   {2, 3, 3, 1, 1, 7, 5},
      {3, 4, 3, 2, 1, 9, 11},  {4, 16, 3, 2, 1, 48, 48},
      {2, 5, 5, 3, 2, 13, 17}, {1, 2, 4, 2, 1, 10, 6},
      {6, 4, 3, 1, 0, 9, 9},
  };
  for (const auto& c : cases) {
    Conv2D conv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({2, c.cin, c.h, c.w}, rng);
    const Tensor g = Tensor::randn(
        {2, c.cout, conv.out_size(c.h), conv.out_size(c.w)}, rng);
    const auto naive = oracle::conv2d_backward(x, *conv.params()[0], g,
                                               c.stride, c.pad);
    const auto fast = run_backward(conv, x, g);
    EXPECT_EQ(diff_count(naive.dx, fast.dx), 0u)
        << "dx: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad;
    EXPECT_EQ(diff_count(naive.gw, fast.gw), 0u)
        << "gw: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad;
    EXPECT_EQ(diff_count(naive.gb, fast.gb), 0u) << "gb";
  }
}

TEST(ConvBackendEquivalence, ConvTranspose2DBackwardBitExactAcrossShapes) {
  Rng rng(46);
  struct Case {
    int cin, cout, k, stride, pad, h, w, n = 2;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 0, 5, 5},  {3, 2, 3, 1, 1, 7, 5},
      {2, 3, 4, 2, 1, 9, 11}, {32, 16, 4, 2, 1, 12, 12},
      {2, 2, 5, 3, 2, 6, 7},  {4, 1, 3, 2, 0, 5, 9},
      // Span-clamp edges of the phase gather: k < s (an empty phase, so
      // pure-bias pixels), pad = k-1 (most taps land off the input), a
      // one-row input, stride 4, and a batch of 3.
      {3, 2, 2, 3, 0, 4, 5},  {2, 3, 3, 2, 2, 3, 6},
      {2, 3, 3, 2, 1, 1, 6},  {2, 2, 6, 4, 3, 5, 3},
      {3, 4, 4, 2, 1, 7, 6, 3},
  };
  for (const auto& c : cases) {
    ConvTranspose2D deconv(c.cin, c.cout, c.k, c.stride, c.pad, rng);
    const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    const Tensor g = Tensor::randn(
        {c.n, c.cout, deconv.out_size(c.h), deconv.out_size(c.w)}, rng);
    const auto naive = oracle::conv_transpose2d_backward(
        x, *deconv.params()[0], g, c.stride, c.pad);
    const auto fast = run_backward(deconv, x, g);
    EXPECT_EQ(diff_count(naive.dx, fast.dx), 0u)
        << "dx: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad;
    EXPECT_EQ(diff_count(naive.gw, fast.gw), 0u)
        << "gw: cin=" << c.cin << " cout=" << c.cout << " k=" << c.k
        << " stride=" << c.stride << " pad=" << c.pad;
    EXPECT_EQ(diff_count(naive.gb, fast.gb), 0u) << "gb";
  }
}

TEST(ConvBackendEquivalence, DenseBitExactBothDirections) {
  Rng rng(47);
  struct Case {
    int in, out, n;
  };
  const Case cases[] = {{1, 1, 1}, {3, 4, 2}, {17, 9, 5}, {64, 48, 16},
                        {5, 130, 3}};
  for (const auto& c : cases) {
    Dense dense(c.in, c.out, rng);
    const Tensor x = Tensor::randn({c.n, c.in}, rng);
    const Tensor y_naive =
        oracle::dense_forward(x, dense.weight(), dense.bias());
    EXPECT_EQ(diff_count(y_naive, dense.forward(x)), 0u)
        << "forward: in=" << c.in << " out=" << c.out << " n=" << c.n;

    const Tensor g = Tensor::randn({c.n, c.out}, rng);
    const auto naive = oracle::dense_backward(x, dense.weight(), g);
    const auto fast = run_backward(dense, x, g);
    EXPECT_EQ(diff_count(naive.dx, fast.dx), 0u)
        << "dx: in=" << c.in << " out=" << c.out << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gw, fast.gw), 0u)
        << "gw: in=" << c.in << " out=" << c.out << " n=" << c.n;
    EXPECT_EQ(diff_count(naive.gb, fast.gb), 0u) << "gb";
  }
}

TEST(ConvBackendEquivalence, BackwardBitExactAcrossThreadCounts) {
  // Sharding stripes gw over columns and dx over bands — never over a
  // reduction axis — so every gradient element's complete chain runs in
  // one task and the bits cannot depend on the thread count. The
  // (serial) direct-loop oracle anchors the comparison at each count.
  Rng rng(48);
  Conv2D conv(4, 16, 3, 2, 1, rng);
  ConvTranspose2D deconv(16, 4, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 4, 48, 48}, rng);
  const Tensor gx = Tensor::randn({1, 16, 24, 24}, rng);
  const Tensor z = Tensor::randn({1, 16, 24, 24}, rng);
  const Tensor gz = Tensor::randn({1, 4, 48, 48}, rng);

  const auto conv_oracle =
      oracle::conv2d_backward(x, *conv.params()[0], gx, 2, 1);
  const auto deconv_oracle =
      oracle::conv_transpose2d_backward(z, *deconv.params()[0], gz, 2, 1);
  for (int threads : {1, 2, 4}) {
    util::ScopedGlobalThreads scoped(threads);
    const auto c = run_backward(conv, x, gx);
    EXPECT_EQ(diff_count(conv_oracle.dx, c.dx), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(conv_oracle.gw, c.gw), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(conv_oracle.gb, c.gb), 0u) << threads << " threads";
    const auto d = run_backward(deconv, z, gz);
    EXPECT_EQ(diff_count(deconv_oracle.dx, d.dx), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(deconv_oracle.gw, d.gw), 0u) << threads << " threads";
    EXPECT_EQ(diff_count(deconv_oracle.gb, d.gb), 0u) << threads << " threads";
  }
}

// ---- Backward: finite-difference gradient checks ----

// L = 0.5*||y||^2 so dL/dy = y (non-uniform output gradients), matching
// the nn_test.cpp convention. Checks the GEMM path's dL/d(input) and
// dL/d(params) by central differences; the equivalence tests above pin
// the oracle to it with ==, so this covers the oracle's arithmetic too.
void check_gradients(Layer& layer, const Tensor& x, double eps = 1e-5,
                     double tol = 1e-6) {
  layer.zero_grad();
  const Tensor y = layer.forward(x);
  const Tensor dx = layer.backward(y);

  Tensor xm = x;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    xm[i] = x[i] + eps;
    const double lp = 0.5 * layer.forward(xm).squared_norm();
    xm[i] = x[i] - eps;
    const double lm = 0.5 * layer.forward(xm).squared_norm();
    xm[i] = x[i];
    const double num = (lp - lm) / (2 * eps);
    ASSERT_NEAR(dx[i], num, tol * std::max(1.0, std::abs(num)))
        << "input grad mismatch at " << i;
  }

  auto params = layer.params();
  auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    const Tensor& g = *grads[pi];
    for (std::size_t i = 0; i < p.numel(); ++i) {
      const double orig = p[i];
      p[i] = orig + eps;
      const double lp = 0.5 * layer.forward(x).squared_norm();
      p[i] = orig - eps;
      const double lm = 0.5 * layer.forward(x).squared_norm();
      p[i] = orig;
      const double num = (lp - lm) / (2 * eps);
      ASSERT_NEAR(g[i], num, tol * std::max(1.0, std::abs(num)))
          << "param " << pi << " grad mismatch at " << i;
    }
  }
}

TEST(BackwardGradientCheck, Conv2DBothBackends) {
  Rng rng(90);
  Conv2D conv(2, 3, 3, 2, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  check_gradients(conv, x);
}

TEST(BackwardGradientCheck, ConvTranspose2DBothBackends) {
  Rng rng(91);
  ConvTranspose2D deconv(3, 2, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  check_gradients(deconv, x);
}

TEST(BackwardGradientCheck, DenseBothBackends) {
  Rng rng(92);
  Dense dense(3, 4, rng);
  const Tensor x = Tensor::randn({2, 3}, rng);
  check_gradients(dense, x);
}

// ---- ScratchArena ----

TEST(ScratchArena, AllocationsAreAligned) {
  util::ScratchArena arena;
  for (std::size_t count : {1u, 3u, 64u, 1000u, 5000u}) {
    double* p = arena.alloc(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  util::ScratchArena::kAlignment,
              0u)
        << "count=" << count;
  }
}

TEST(ScratchArena, FrameAllocationsDoNotOverlap) {
  util::ScratchArena arena;
  double* a = arena.alloc(100);
  double* b = arena.alloc(50);
  double* c = arena.alloc(7000);  // forces a second block mid-frame
  for (int i = 0; i < 100; ++i) a[i] = 1.0;
  for (int i = 0; i < 50; ++i) b[i] = 2.0;
  for (int i = 0; i < 7000; ++i) c[i] = 3.0;
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a[i], 1.0);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(b[i], 2.0);
  EXPECT_GE(arena.used(), 7150u);
}

TEST(ScratchArena, GrowOnlyReuseAfterReset) {
  util::ScratchArena arena;
  arena.alloc(3000);
  arena.alloc(3000);
  const std::size_t cap = arena.capacity();
  EXPECT_GE(cap, 6000u);
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  // Same demand again: capacity must not grow (grow-only, but
  // converged), and the first allocation must come from the coalesced
  // block's base — i.e. no allocator traffic in steady state.
  double* p1 = arena.alloc(3000);
  arena.alloc(3000);
  EXPECT_EQ(arena.capacity(), cap);
  arena.reset();
  EXPECT_EQ(arena.alloc(3000), p1);
}

TEST(ScratchArena, SlotsAreIndependentUnderPoolTasks) {
  util::ScopedGlobalThreads threads(4);
  util::ScratchArena arena;
  const std::size_t kSlots = 8;
  arena.ensure_slots(kSlots);
  EXPECT_EQ(arena.slots(), kSlots);
  // Each task hammers its own slot; any cross-slot sharing of the bump
  // pointer or backing blocks shows up as corrupted sums (and as a race
  // under TSan).
  std::vector<double> sums(kSlots, 0.0);
  util::global_pool().parallel_for_chunks(
      0, kSlots, 1, [&](std::size_t lo, std::size_t, std::size_t c) {
        util::ScratchArena& slot = arena.slot(c);
        for (int rep = 0; rep < 50; ++rep) {
          slot.reset();
          double* buf = slot.alloc(512);
          for (int i = 0; i < 512; ++i)
            buf[i] = static_cast<double>(lo + 1);
          double s = 0.0;
          for (int i = 0; i < 512; ++i) s += buf[i];
          sums[c] = s;
        }
      });
  for (std::size_t i = 0; i < kSlots; ++i)
    EXPECT_EQ(sums[i], 512.0 * static_cast<double>(i + 1));
}

TEST(ScratchArena, EnsureSlotsNeverShrinks) {
  util::ScratchArena arena;
  arena.ensure_slots(4);
  arena.slot(3).alloc(100);
  const std::size_t cap = arena.slot(3).capacity();
  arena.ensure_slots(2);
  EXPECT_EQ(arena.slots(), 4u);
  EXPECT_EQ(arena.slot(3).capacity(), cap);
}

TEST(ScratchArena, ForwardFootprintBelowTheLoweredPanels) {
  // The forwards keep one padded copy of the input plus per-band output
  // tiles, not a lowered matrix that copies each input value once per
  // tap reading it. On the occupancy autoencoder's layers at B = 1 each
  // deconv's whole scratch is below the size of its phase-lowered
  // panels, and the four-layer stack's is below all four lowered
  // matrices. (A conv layer alone sits near its lowered size: the
  // padded input plus the arena's 4096-double minimum block.)
  util::ScopedGlobalThreads threads(1);
  Rng rng(94);
  Conv2D conv1(4, 16, 3, 2, 1, rng);
  Conv2D conv2(16, 32, 3, 2, 1, rng);
  ConvTranspose2D deconv1(32, 16, 4, 2, 1, rng);
  ConvTranspose2D deconv2(16, 4, 4, 2, 1, rng);
  Tensor h = Tensor::randn({1, 4, 48, 48}, rng);
  for (Layer* l : {static_cast<Layer*>(&conv1), static_cast<Layer*>(&conv2),
                   static_cast<Layer*>(&deconv1),
                   static_cast<Layer*>(&deconv2)})
    h = l->infer(std::move(h));
  // Lowered rows x output pixels: Cin*k*k x OH*OW for a conv; for a
  // stride-2 k=4 deconv, 4 phases of Cin*2*2 x (OH/2)*(OW/2).
  const std::size_t panels[] = {36u * 24 * 24, 144u * 12 * 12,
                                4u * 128 * 12 * 12, 4u * 64 * 24 * 24};
  const Layer* layers[] = {&conv1, &conv2, &deconv1, &deconv2};
  std::size_t total = 0, total_panels = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t cap = layers[i]->scratch()->total_capacity();
    if (i >= 2) {
      EXPECT_LT(cap, panels[i]) << "layer " << i;
    }
    total += cap;
    total_panels += panels[i];
  }
  EXPECT_LT(total, total_panels);
}

TEST(ScratchArena, TrainingStepsStopGrowingAfterWarmup) {
  // The zero-steady-state-allocation invariant: after the first two full
  // forward+backward steps (the second lets reset() coalesce multi-block
  // chains into one backing block, which itself counts as a growth),
  // further steps must perform zero arena growth and leave capacity
  // untouched. A 4-slot pool shards on any host, so the slot
  // sub-arenas are exercised too.
  util::ScopedGlobalThreads threads(4);
  Rng rng(93);
  Conv2D conv(3, 8, 3, 2, 1, rng);
  ConvTranspose2D deconv(8, 3, 4, 2, 1, rng);
  Dense dense(32, 16, rng);

  const Tensor xc = Tensor::randn({1, 3, 16, 16}, rng);
  const Tensor xd = Tensor::randn({1, 8, 8, 8}, rng);
  const Tensor xf = Tensor::randn({4, 32}, rng);
  const auto step = [&] {
    for (Layer* l : {static_cast<Layer*>(&conv), static_cast<Layer*>(&deconv),
                     static_cast<Layer*>(&dense)}) {
      l->zero_grad();
    }
    conv.backward(conv.forward(xc));
    deconv.backward(deconv.forward(xd));
    dense.backward(dense.forward(xf));
  };

  step();
  step();
  std::size_t growth = 0, capacity = 0;
  for (const Layer* l : {static_cast<const Layer*>(&conv),
                         static_cast<const Layer*>(&deconv),
                         static_cast<const Layer*>(&dense)}) {
    growth += l->scratch()->total_growth_count();
    capacity += l->scratch()->total_capacity();
  }
  EXPECT_GT(growth, 0u);
  EXPECT_GT(capacity, 0u);

  for (int rep = 0; rep < 5; ++rep) step();
  std::size_t growth_after = 0, capacity_after = 0;
  for (const Layer* l : {static_cast<const Layer*>(&conv),
                         static_cast<const Layer*>(&deconv),
                         static_cast<const Layer*>(&dense)}) {
    growth_after += l->scratch()->total_growth_count();
    capacity_after += l->scratch()->total_capacity();
  }
  EXPECT_EQ(growth_after, growth);
  EXPECT_EQ(capacity_after, capacity);
}


// ---- Inference path: Layer::infer vs. forward ----

// Elements whose bit patterns differ: unlike diff_count, -0.0 vs 0.0
// counts and NaN matches NaN.
std::size_t bit_diff_count(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return a.numel() + b.numel();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0) ++bad;
  return bad;
}

// dx plus every accumulated parameter gradient of one backward.
std::vector<Tensor> backward_grads(Layer& layer, const Tensor& grad_out) {
  std::vector<Tensor> out{layer.backward(grad_out)};
  for (Tensor* g : layer.grads()) out.push_back(*g);
  return out;
}

TEST(InferPath, MatchesForwardBitExact) {
  // infer() is forward()'s kernel call minus the capture, so the
  // outputs are identical — batch 1 and 3, serial and sharded (a 4-slot
  // pool shards these shapes on any host).
  Rng rng(60);
  Conv2D conv(4, 8, 3, 2, 1, rng);
  ConvTranspose2D deconv(8, 4, 4, 2, 1, rng);
  ReLU relu;
  Tanh tanh;
  Sequential net;
  net.emplace<Conv2D>(4, 8, 3, 2, 1, rng);
  net.emplace<ReLU>();
  net.emplace<ConvTranspose2D>(8, 4, 4, 2, 1, rng);
  net.emplace<ReLU>();

  for (int batch : {1, 3}) {
    const Tensor x = Tensor::randn({batch, 4, 24, 24}, rng);
    const Tensor z = Tensor::randn({batch, 8, 12, 12}, rng);
    // ReLU's edge values: -0.0 and NaN pass through, -inf clamps.
    Tensor r = x;
    r[0] = -0.0;
    r[1] = std::numeric_limits<double>::quiet_NaN();
    r[2] = -std::numeric_limits<double>::infinity();
    r[3] = 0.0;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "batch " << batch << ", "
                                      << threads << " threads");
      util::ScopedGlobalThreads scoped(threads);
      EXPECT_EQ(bit_diff_count(conv.forward(x), conv.infer(x)), 0u);
      EXPECT_EQ(bit_diff_count(deconv.forward(z), deconv.infer(z)), 0u);
      const Tensor rr = relu.infer(r);
      EXPECT_EQ(bit_diff_count(relu.forward(r), rr), 0u);
      EXPECT_TRUE(rr[0] == 0.0 && std::signbit(rr[0]));  // -0.0 kept
      EXPECT_TRUE(std::isnan(rr[1]));
      EXPECT_TRUE(rr[2] == 0.0 && !std::signbit(rr[2]));
      // Tanh: the same kernel in place; -0.0, NaN and -inf included.
      EXPECT_EQ(bit_diff_count(tanh.forward(x), tanh.infer(x)), 0u);
      const Tensor tr = tanh.infer(r);
      EXPECT_EQ(bit_diff_count(tanh.forward(r), tr), 0u);
      EXPECT_TRUE(tr[0] == 0.0 && std::signbit(tr[0]));
      EXPECT_TRUE(std::isnan(tr[1]));
      EXPECT_EQ(tr[2], -1.0);
      EXPECT_EQ(bit_diff_count(net.forward(x), net.infer(x)), 0u);
    }
  }
}

TEST(InferPath, BackwardStillSeesTheLastForward) {
  // forward(a), then infer(b), then backward(g) must give exactly the
  // gradients of forward(a) alone: infer() captures nothing.
  util::ScopedGlobalThreads threads(4);
  Rng rng(62);
  Conv2D conv(3, 6, 3, 2, 1, rng);
  ConvTranspose2D deconv(6, 3, 4, 2, 1, rng);
  ReLU relu;
  Tanh tanh;
  Sequential net;
  net.emplace<Conv2D>(3, 6, 3, 2, 1, rng);
  net.emplace<ReLU>();
  net.emplace<ConvTranspose2D>(6, 3, 4, 2, 1, rng);
  struct Case {
    Layer* layer;
    Tensor a, b, g;
  };
  const Tensor xa = Tensor::randn({1, 3, 16, 16}, rng);
  const Tensor xb = Tensor::randn({1, 3, 16, 16}, rng);
  const Tensor za = Tensor::randn({1, 6, 8, 8}, rng);
  const Tensor zb = Tensor::randn({1, 6, 8, 8}, rng);
  Case cases[] = {
      {&conv, xa, xb, Tensor::randn({1, 6, 8, 8}, rng)},
      {&deconv, za, zb, Tensor::randn({1, 3, 16, 16}, rng)},
      {&relu, xa, xb, Tensor::randn({1, 3, 16, 16}, rng)},
      {&tanh, xa, xb, Tensor::randn({1, 3, 16, 16}, rng)},
      {&net, xa, xb, Tensor::randn({1, 3, 16, 16}, rng)},
  };
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    SCOPED_TRACE(c);
    Layer& l = *cases[c].layer;
    l.zero_grad();
    l.forward(cases[c].a);
    const auto alone = backward_grads(l, cases[c].g);
    l.zero_grad();
    l.forward(cases[c].a);
    l.infer(cases[c].b);
    const auto after_infer = backward_grads(l, cases[c].g);
    ASSERT_EQ(alone.size(), after_infer.size());
    for (std::size_t i = 0; i < alone.size(); ++i)
      EXPECT_EQ(bit_diff_count(alone[i], after_infer[i]), 0u) << "tensor " << i;
  }
}

}  // namespace
}  // namespace s2a::nn
