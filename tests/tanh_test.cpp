// Bit-exactness tests for nn::tanh_inplace (nn/activations.hpp,
// nn/tanh_kernels.hpp): glibc's tanh algorithm, ported so that every
// compiled family — the scalar port, the AVX2+FMA kernel and the
// AVX-512F kernel — gives the same bits on every input.
//
// Two oracles. The scalar port (tanh_inplace under S2A_SIMD scalar) is
// the reference every vector family is diffed against, on edge values,
// on inputs either side of each internal expm1 boundary, on a 10^7
// random sweep, and at every length 0..65 from every alignment. The
// known-answer table pins the port itself, and so every family, to the
// bits std::tanh gave where it was recorded (tanh_known_answers.inc).
// Comparisons are of bit patterns: -0.0 differs from +0.0, and NaNs
// must agree in sign and payload.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn_oracle.hpp"
#include "util/cpu_features.hpp"

namespace s2a::nn {
namespace {

struct KnownAnswer {
  std::uint64_t x, tanh;
};

constexpr KnownAnswer kKnownAnswers[] = {
#include "tanh_known_answers.inc"
};

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

using oracle::ScopedSimd;

std::vector<double> tanh_under(util::SimdIsa isa, std::vector<double> x) {
  ScopedSimd scoped(isa);
  tanh_inplace(x.data(), x.size());
  return x;
}

// The scalar port's bits for x.
std::vector<double> scalar_port(const std::vector<double>& x) {
  return tanh_under(util::SimdIsa::kScalar, x);
}

// Counts the elements whose bits differ and reports the first few.
std::size_t bit_mismatches(const std::vector<double>& x,
                           const std::vector<double>& want,
                           const std::vector<double>& got) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (bits(want[i]) == bits(got[i])) continue;
    if (++bad <= 5)
      ADD_FAILURE() << std::hexfloat << "tanh(" << x[i] << ") [0x" << std::hex
                    << bits(x[i]) << "]: want 0x" << bits(want[i])
                    << ", got 0x" << bits(got[i]);
  }
  return bad;
}

// Every family against the scalar port on x.
void expect_families_match_scalar(const std::vector<double>& x) {
  const std::vector<double> want = scalar_port(x);
  for (util::SimdIsa isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    SCOPED_TRACE(std::string(util::simd_isa_name(isa)) + " runs " +
                 tanh_kernel_name());
    std::vector<double> got = x;
    tanh_inplace(got.data(), got.size());
    EXPECT_EQ(bit_mismatches(x, want, got), 0u);
  }
}

// The edge table, both signs.
std::vector<double> edge_values() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {
      0.0,
      from_bits(1),                    // smallest subnormal
      from_bits(0x000fffffffffffff),   // largest subnormal
      from_bits(0x0004000000000001),
      std::numeric_limits<double>::min(),
      std::ldexp(1.0, -60),
      std::nextafter(std::ldexp(1.0, -55), 0.0),
      std::ldexp(1.0, -55),
      std::nextafter(std::ldexp(1.0, -55), 1.0),
      std::ldexp(1.0, -54),
      0.25,
      std::nextafter(1.0, 0.0),
      1.0,
      std::nextafter(1.0, 2.0),
      19.0615,
      std::nextafter(22.0, 0.0),
      22.0,
      std::nextafter(22.0, 23.0),
      44.0,
      710.0,
      std::numeric_limits<double>::max(),
      inf,
      std::numeric_limits<double>::quiet_NaN(),
      from_bits(0x7ff8000000000123),   // quiet NaN with a payload
      from_bits(0x7ff0000000000001),   // signalling NaNs with payloads
      from_bits(0x7ff4000000abcdef),
      from_bits(0x7fffffffffffffff),
  };
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) v.push_back(-v[i]);
  return v;
}

// expm1's k for a tanh input 0 < |x| < 22, as the port reduces
// u = 2|x| (|x| >= 1) or -2|x|: 0 and -1 in their high-word bands, else
// trunc(u/ln2 + 0.5 sign(u)).
int expm1_k(double x) {
  const double ax = std::fabs(x);
  const double u = ax >= 1.0 ? 2.0 * ax : -2.0 * ax;
  const std::uint32_t hu = static_cast<std::uint32_t>(bits(std::fabs(u)) >> 32);
  if (hu <= 0x3fd62e42) return 0;
  if (hu < 0x3ff0a2b2) return -1;
  return static_cast<int>(std::fma(0x1.71547652b82fep0, u, u < 0 ? -0.5 : 0.5));
}

// 64 inputs either side of x0 (x0 the first above), both signs.
void add_neighbours(double x0, std::vector<double>& out) {
  double x = x0;
  for (int i = 0; i < 64; ++i) x = std::nextafter(x, 0.0);
  for (int i = 0; i < 128; ++i, x = std::nextafter(x, 30.0)) {
    out.push_back(x);
    out.push_back(-x);
  }
}

// The first double above lo whose k differs from lo's, by bisection on
// (lo, hi]; hi's k must differ.
double k_step(double lo, double hi) {
  const int k_lo = expm1_k(lo);
  EXPECT_NE(expm1_k(hi), k_lo) << lo << " " << hi;
  while (std::nextafter(lo, hi) < hi) {
    double mid = lo + (hi - lo) / 2;
    if (mid <= lo || mid >= hi) mid = std::nextafter(lo, hi);
    (expm1_k(mid) == k_lo ? lo : hi) = mid;
  }
  return hi;
}

TEST(TanhKernels, ActiveKernelFollowsTheSimdFamily) {
  // Each family that has a tanh kernel runs it, so the comparisons
  // below never diff the scalar port against itself by accident.
  for (util::SimdIsa isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    const std::string name = tanh_kernel_name();
    switch (isa) {
      case util::SimdIsa::kAvx512:
        EXPECT_EQ(name, "avx512");
        break;
      case util::SimdIsa::kAvx2:
        EXPECT_EQ(name, util::cpu_features().fma ? "avx2" : "scalar");
        break;
      default:  // scalar; NEON runs the scalar port
        EXPECT_EQ(name, "scalar") << util::simd_isa_name(isa);
    }
  }
}

TEST(TanhKernels, KnownAnswersFromGlibc) {
  std::vector<double> x, want;
  for (const KnownAnswer& ka : kKnownAnswers) {
    x.push_back(from_bits(ka.x));
    want.push_back(from_bits(ka.tanh));
  }
  ASSERT_GE(x.size(), 512u);
  for (util::SimdIsa isa : util::supported_simd_isas()) {
    SCOPED_TRACE(util::simd_isa_name(isa));
    EXPECT_EQ(bit_mismatches(x, want, tanh_under(isa, x)), 0u);
  }
}

TEST(TanhKernels, EdgeValues) {
  const std::vector<double> x = edge_values();
  expect_families_match_scalar(x);
  // What the port must be, independent of the table: tanh keeps +-0,
  // x itself below 2^-55, +-1 from 22 up, and a NaN's sign and payload
  // (quietened).
  const std::vector<double> y = scalar_port(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ax = std::fabs(x[i]);
    if (std::isnan(x[i])) {
      EXPECT_EQ(bits(y[i]), bits(x[i]) | 0x0008000000000000) << i;
    } else if (ax < std::ldexp(1.0, -55)) {
      EXPECT_EQ(bits(y[i]), bits(x[i])) << i;
    } else if (ax >= 22.0) {
      EXPECT_EQ(y[i], std::copysign(1.0, x[i])) << i;
    }
  }
}

TEST(TanhKernels, Expm1Boundaries) {
  // Inputs either side of every internal boundary tanh reaches: the
  // high words 0x3fd62e42 and 0x3ff0a2b2 of u (the k = 0 band | the
  // k = -1 band | the general reduction), the |x| = 1 switch between
  // u = -2|x| and 2|x|, and each step of k: -1 | -2 | -3 below |x| = 1,
  // then 3 | 4 up to 62 | 63. 19 | 20 and 56 | 57 switch expm1's
  // exponent path; k = 2 is unreachable (u = 2|x| >= 2 gives k >= 3).
  const double band_k0 = from_bits(0x3fc62e4300000000);  // u: 0x3fd62e43
  const double band_reduce = from_bits(0x3fe0a2b200000000);  // u: 0x3ff0a2b2
  EXPECT_EQ(expm1_k(std::nextafter(band_k0, 0.0)), 0);
  EXPECT_EQ(expm1_k(band_k0), -1);
  std::vector<double> x;
  add_neighbours(band_k0, x);
  add_neighbours(band_reduce, x);
  // The two band tests compare high words, so also sample the whole high
  // word on each side of each: 4096 random low words apiece.
  std::mt19937_64 gen(31);
  for (const double band : {band_k0, band_reduce})
    for (const std::uint64_t high : {bits(band) - (std::uint64_t{1} << 32), bits(band)})
      for (int i = 0; i < 4096; ++i) {
        x.push_back(from_bits(high | (gen() & 0xffffffff)));
        x.push_back(-x.back());
      }
  add_neighbours(1.0, x);
  const double km2 = k_step(band_reduce, 0.8);
  const double km3 = k_step(0.8, std::nextafter(1.0, 0.0));
  EXPECT_EQ(expm1_k(km2), -2);
  EXPECT_EQ(expm1_k(km3), -3);
  EXPECT_EQ(expm1_k(1.0), 3);
  add_neighbours(km2, x);
  add_neighbours(km3, x);
  for (int k = 4; k <= 63; ++k) {
    const double at = (k - 0.5) * std::log(2.0) / 2;  // u/ln2 + 0.5 = k
    const double step = k_step(at * 0.999, at * 1.001);
    EXPECT_EQ(expm1_k(step), k);
    add_neighbours(step, x);
  }
  expect_families_match_scalar(x);
}

TEST(TanhKernels, RandomSweep) {
  // 10^7 inputs: half random bit patterns (every exponent, NaNs and
  // infinities included), half uniform on [-25, 25].
  constexpr std::size_t kHalf = 5'000'000;
  std::mt19937_64 gen(20240);
  std::uniform_real_distribution<double> wide(-25.0, 25.0);
  std::vector<double> x(2 * kHalf);
  for (std::size_t i = 0; i < kHalf; ++i) {
    x[2 * i] = from_bits(gen());
    x[2 * i + 1] = wide(gen);
  }
  expect_families_match_scalar(x);
}

TEST(TanhKernels, EveryLengthAndAlignment) {
  // Lengths 0..65 from offsets 0..7 of a buffer: the tail lanes of each
  // family are computed, and nothing outside [offset, offset + n) is
  // written.
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<double> src(80);
  for (double& v : src) v = dist(gen);
  const std::vector<double> want = scalar_port(src);
  const double guard = from_bits(0x7ff8dead0000beef);
  for (util::SimdIsa isa : util::supported_simd_isas()) {
    ScopedSimd scoped(isa);
    SCOPED_TRACE(util::simd_isa_name(isa));
    for (std::size_t off = 0; off < 8; ++off)
      for (std::size_t n = 0; n <= 65; ++n) {
        std::vector<double> buf(src.size() + 1, guard);
        std::memcpy(buf.data() + off, src.data() + off, n * sizeof(double));
        tanh_inplace(buf.data() + off, n);
        for (std::size_t i = 0; i < buf.size(); ++i) {
          const bool inside = i >= off && i < off + n;
          ASSERT_EQ(bits(buf[i]), bits(inside ? want[i] : guard))
              << "offset " << off << ", length " << n << ", element " << i;
        }
      }
  }
}

}  // namespace
}  // namespace s2a::nn
