// nn::tanh_inplace: the scalar port of glibc's tanh and the dispatch to
// its vector kernels (tanh_kernels.hpp). Compiled with
// -ffp-contract=off, so the only fused operations are the std::fma
// calls below.
#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/activations.hpp"
#include "nn/tanh_kernels.hpp"
#include "util/cpu_features.hpp"

namespace s2a::nn {

namespace {

using namespace detail;

std::uint32_t high_word(double d) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(d) >> 32);
}

// d times 2^k by adding k to its exponent field, as s_expm1.c's
// SET_HIGH_WORD(y, high + (k << 20)) does (no overflow on this range).
double add_exponent(double d, int k) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(d) +
                               (static_cast<std::uint64_t>(k) << 52));
}

// glibc's __expm1 on tanh's arguments (see tanh_kernels.hpp for the
// range and the branches left out). Each std::fma is one of the FMA
// build's contractions.
double expm1_for_tanh(double x) {
  const std::uint32_t hx = high_word(x) & 0x7fffffff;
  int k = 0;
  double c = 0.0;
  if (hx > kExpm1HalfLn2Hi) {  // |x| > ln2/2
    double hi, lo;
    if (hx < kExpm1ThreeHalvesLn2Hi) {  // and < 1.5 ln2: x < 0 here
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<int>(std::fma(kInvLn2, x, x < 0.0 ? -0.5 : 0.5));
      const double t = k;
      hi = std::fma(-t, kLn2Hi, x);  // t*ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  }
  // x is now in the primary range; Estrin form of the rational kernel.
  const double hfx = 0.5 * x;
  const double hxs = x * hfx;
  const double r1a = std::fma(hxs, kQ1, 1.0), h2 = hxs * hxs;
  const double r2 = std::fma(hxs, kQ3, kQ2), h4 = h2 * h2;
  const double r3 = std::fma(hxs, kQ5, kQ4);
  const double r1 = std::fma(h4, r3, std::fma(h2, r2, r1a));
  const double t = std::fma(-r1, hfx, 3.0);
  double e = hxs * ((r1 - t) / std::fma(-x, t, 6.0));
  if (k == 0) return x - std::fma(x, e, -hxs);
  e = std::fma(x, e - c, -c);
  e -= hxs;
  if (k == -1) return std::fma(0.5, x - e, -0.5);
  if (k <= -2 || k > 56) return add_exponent(1.0 - (e - x), k) - 1.0;
  if (k < 20) {
    const double one_minus = 1.0 - std::bit_cast<double>(
                                       static_cast<std::uint64_t>(0x3ff - k) << 52);
    return add_exponent(one_minus - (e - x), k);  // 1 - 2^-k, exact
  }
  const double two_mk =
      std::bit_cast<double>(static_cast<std::uint64_t>(0x3ff - k) << 52);
  return add_exponent((x - (e + two_mk)) + 1.0, k);
}

// s_tanh.c: the scalar and NEON families.
double tanh_scalar(double x) {
  const std::uint32_t jx = high_word(x);
  const std::uint32_t ix = jx & 0x7fffffff;
  const bool negative = (jx >> 31) != 0;
  if (ix >= 0x7ff00000)  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0 / x - 1.0 : 1.0 / x + 1.0;
  double z;
  if (ix < kTanhBigHi) {
    // |x| < 2^-55, +-0 included: x*(1+x) is x itself.
    if (ix < kTanhTinyHi) return x * (1.0 + x);
    if (ix >= kTanhOneHi) {
      const double t = expm1_for_tanh(2.0 * std::fabs(x));
      z = 1.0 - 2.0 / (t + 2.0);
    } else {
      const double t = expm1_for_tanh(-2.0 * std::fabs(x));
      z = -t / (t + 2.0);
    }
  } else {
    z = 1.0;  // s_tanh.c's one - tiny, which rounds to 1
  }
  return negative ? -z : z;
}

void tanh_scalar_loop(double* d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] = tanh_scalar(d[i]);
}

struct TanhKernel {
  const char* name;
  void (*run)(double* d, std::size_t n);
};

TanhKernel active_tanh_kernel() {
  switch (util::active_simd_isa()) {
#if defined(__x86_64__) || defined(_M_X64)
    case util::SimdIsa::kAvx512:
      return {"avx512", tanh_avx512};
    case util::SimdIsa::kAvx2:
      // Its fused operations need FMA, which AVX2 does not imply.
      if (util::cpu_features().fma) return {"avx2", tanh_avx2};
      break;
#endif
    default:
      break;
  }
  // NEON runs the scalar port too: no NEON kernel could be measured or
  // run on any hardware this library is tested on.
  return {"scalar", tanh_scalar_loop};
}

}  // namespace

void tanh_inplace(double* d, std::size_t n) { active_tanh_kernel().run(d, n); }

const char* tanh_kernel_name() { return active_tanh_kernel().name; }

}  // namespace s2a::nn
