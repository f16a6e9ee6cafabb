// AVX-512F tanh kernel (x86-64), 8 lanes. Compiled with
// -mavx512f -ffp-contract=off; see tanh_kernels.hpp. Every lane runs
// every path of the scalar port and the range masks pick the result,
// so each step below is the scalar port's operation on that path. Only
// AVX-512F instructions: k is truncated with roundscale and converted
// through epi32 (cvttpd_epi64 would need AVX-512DQ), and the sign
// logic uses the integer and/xor.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "nn/tanh_kernels.hpp"

namespace s2a::nn::detail {

namespace {

constexpr __mmask8 kAll = 0xff;

__m512d set1(double v) { return _mm512_set1_pd(v); }

__m512d bits_and(__m512d a, __m512i m) {
  return _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(a), m));
}

__m512d bits_xor(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}

template <std::uint32_t Hi>
__mmask8 at_least(__m512d a) {
  return _mm512_cmp_pd_mask(a, set1(high_word_bound(Hi)), _CMP_GE_OQ);
}

// d times 2^k, k given as k << 52 per lane.
__m512d add_exponent(__m512d d, __m512i k52) {
  return _mm512_castsi512_pd(_mm512_add_epi64(_mm512_castpd_si512(d), k52));
}

// expm1_for_tanh on 8 lanes.
__m512d expm1_for_tanh(__m512d u) {
  const __m512d au = bits_and(u, _mm512_set1_epi64(0x7fffffffffffffff));
  const __mmask8 reduce = at_least<kExpm1HalfLn2Hi + 1>(au);
  const __mmask8 general = at_least<kExpm1ThreeHalvesLn2Hi>(au);
  const __mmask8 negative = _mm512_cmp_pd_mask(u, set1(0.0), _CMP_LT_OQ);

  // General band: k = trunc(u/ln2 +- 0.5), hi = u - k*ln2_hi, lo = k*ln2_lo.
  const __m512d half = _mm512_mask_blend_pd(negative, set1(0.5), set1(-0.5));
  // The all-lanes maskz forms here and for k52 are the same instructions
  // as the plain ones, whose undefined pass-through operand GCC 12 flags
  // with -Wmaybe-uninitialized.
  const __m512d kd = _mm512_maskz_roundscale_pd(
      kAll, _mm512_fmadd_pd(set1(kInvLn2), u, half),
      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  // The k = -1 band: hi = u + ln2_hi, lo = -ln2_lo.
  const __m512d hi = _mm512_mask_blend_pd(
      general, _mm512_add_pd(u, set1(kLn2Hi)),
      _mm512_fnmadd_pd(kd, set1(kLn2Hi), u));
  const __m512d lo = _mm512_mask_blend_pd(general, set1(-kLn2Lo),
                                          _mm512_mul_pd(kd, set1(kLn2Lo)));
  const __m512d reduced = _mm512_sub_pd(hi, lo);
  const __m512d c = _mm512_sub_pd(_mm512_sub_pd(hi, reduced), lo);
  const __m512d x = _mm512_mask_blend_pd(reduce, u, reduced);
  // k per lane, as a double (0 and -1 in their bands) and as k << 52.
  const __m512d k = _mm512_mask_blend_pd(
      reduce, set1(0.0), _mm512_mask_blend_pd(general, set1(-1.0), kd));
  const __m512i k52 = _mm512_maskz_slli_epi64(
      kAll,
      _mm512_maskz_cvtepi32_epi64(kAll, _mm512_maskz_cvttpd_epi32(kAll, k)),
      52);

  const __m512d hfx = _mm512_mul_pd(set1(0.5), x);
  const __m512d hxs = _mm512_mul_pd(x, hfx);
  const __m512d r1a = _mm512_fmadd_pd(hxs, set1(kQ1), set1(1.0));
  const __m512d h2 = _mm512_mul_pd(hxs, hxs);
  const __m512d r2 = _mm512_fmadd_pd(hxs, set1(kQ3), set1(kQ2));
  const __m512d h4 = _mm512_mul_pd(h2, h2);
  const __m512d r3 = _mm512_fmadd_pd(hxs, set1(kQ5), set1(kQ4));
  const __m512d r1 = _mm512_fmadd_pd(h4, r3, _mm512_fmadd_pd(h2, r2, r1a));
  const __m512d t = _mm512_fnmadd_pd(r1, hfx, set1(3.0));
  const __m512d e0 = _mm512_mul_pd(
      hxs, _mm512_div_pd(_mm512_sub_pd(r1, t),
                         _mm512_fnmadd_pd(x, t, set1(6.0))));
  const __m512d k0 = _mm512_sub_pd(x, _mm512_fmsub_pd(x, e0, hxs));
  const __m512d e = _mm512_sub_pd(
      _mm512_fmsub_pd(x, _mm512_sub_pd(e0, c), c), hxs);
  const __m512d km1 =
      _mm512_fmsub_pd(set1(0.5), _mm512_sub_pd(x, e), set1(0.5));
  const __m512d e_minus_x = _mm512_sub_pd(e, x);
  // k <= -2 or k > 56.
  const __m512d far = _mm512_sub_pd(
      add_exponent(_mm512_sub_pd(set1(1.0), e_minus_x), k52), set1(1.0));
  // 2^-k for 3 <= k <= 56.
  const __m512d two_mk = _mm512_castsi512_pd(
      _mm512_sub_epi64(_mm512_set1_epi64(0x3ff0000000000000), k52));
  const __m512d small_k = add_exponent(
      _mm512_sub_pd(_mm512_sub_pd(set1(1.0), two_mk), e_minus_x), k52);
  const __m512d mid_k = add_exponent(
      _mm512_add_pd(_mm512_sub_pd(x, _mm512_add_pd(e, two_mk)), set1(1.0)),
      k52);

  const __mmask8 is_far =
      _mm512_cmp_pd_mask(k, set1(-2.0), _CMP_LE_OQ) |
      _mm512_cmp_pd_mask(k, set1(56.0), _CMP_GT_OQ);
  const __mmask8 is_small_k = _mm512_cmp_pd_mask(k, set1(20.0), _CMP_LT_OQ);
  __m512d r = _mm512_mask_blend_pd(is_small_k, mid_k, small_k);
  r = _mm512_mask_blend_pd(is_far, r, far);
  r = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(k, set1(-1.0), _CMP_EQ_OQ), r, km1);
  return _mm512_mask_blend_pd(reduce, k0, r);
}

__m512d tanh8(__m512d x) {
  const __m512d sign = set1(-0.0);
  const __m512d sx = bits_and(x, _mm512_castpd_si512(sign));
  const __m512d ax = bits_xor(x, sx);
  const __mmask8 ge_one = at_least<kTanhOneHi>(ax);

  // u = 2|x| for |x| >= 1, else -2|x|.
  const __m512d two_ax = _mm512_mul_pd(set1(2.0), ax);
  const __m512d u = _mm512_mask_blend_pd(ge_one, bits_xor(two_ax, sign), two_ax);
  const __m512d t = expm1_for_tanh(u);
  const __m512d num = _mm512_mask_blend_pd(ge_one, bits_xor(t, sign), set1(2.0));
  const __m512d q = _mm512_div_pd(num, _mm512_add_pd(t, set1(2.0)));
  __m512d z = _mm512_mask_blend_pd(ge_one, q, _mm512_sub_pd(set1(1.0), q));
  z = _mm512_mask_blend_pd(at_least<kTanhBigHi>(ax), z, set1(1.0));
  __m512d r = bits_xor(z, sx);

  const __mmask8 tiny = _mm512_cmp_pd_mask(
      ax, set1(high_word_bound(kTanhTinyHi)), _CMP_LT_OQ);
  r = _mm512_mask_blend_pd(
      tiny, r, _mm512_mul_pd(x, _mm512_add_pd(set1(1.0), x)));
  // +-inf and NaN: 1/x + 1, or 1/x - 1 when the sign bit is set.
  const __mmask8 nonfinite =
      _mm512_cmp_pd_mask(ax, set1(high_word_bound(0x7ff00000)), _CMP_NLT_UQ);
  const __m512d recip = _mm512_div_pd(set1(1.0), x);
  const __m512d one_signed = bits_xor(set1(1.0), sx);
  return _mm512_mask_blend_pd(nonfinite, r,
                              _mm512_add_pd(recip, one_signed));
}

}  // namespace

void tanh_avx512(double* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(d + i, tanh8(_mm512_loadu_pd(d + i)));
  if (i < n) {  // the tail, under a lane mask; the idle lanes compute tanh(0)
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1);
    _mm512_mask_storeu_pd(d + i, tail, tanh8(_mm512_maskz_loadu_pd(tail, d + i)));
  }
}

}  // namespace s2a::nn::detail

#endif  // x86-64
