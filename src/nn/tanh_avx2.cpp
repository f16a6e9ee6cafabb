// AVX2+FMA tanh kernel (x86-64), 4 lanes. Compiled with
// -mavx2 -mfma -ffp-contract=off; see tanh_kernels.hpp. The same
// operations as the AVX-512 kernel, with vector masks and blendv in
// place of mask registers. tanh_inplace selects it only when the CPU
// reports FMA as well as AVX2.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "nn/tanh_kernels.hpp"

namespace s2a::nn::detail {

namespace {

__m256d set1(double v) { return _mm256_set1_pd(v); }

// b where the mask lane is set, else a.
__m256d pick(__m256d mask, __m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, mask);
}

template <std::uint32_t Hi>
__m256d at_least(__m256d a) {
  return _mm256_cmp_pd(a, set1(high_word_bound(Hi)), _CMP_GE_OQ);
}

// d times 2^k, k given as k << 52 per lane.
__m256d add_exponent(__m256d d, __m256i k52) {
  return _mm256_castsi256_pd(_mm256_add_epi64(_mm256_castpd_si256(d), k52));
}

// expm1_for_tanh on 4 lanes.
__m256d expm1_for_tanh(__m256d u) {
  const __m256d au = _mm256_andnot_pd(set1(-0.0), u);
  const __m256d reduce = at_least<kExpm1HalfLn2Hi + 1>(au);
  const __m256d general = at_least<kExpm1ThreeHalvesLn2Hi>(au);
  const __m256d negative = _mm256_cmp_pd(u, set1(0.0), _CMP_LT_OQ);

  // General band: k = trunc(u/ln2 +- 0.5), hi = u - k*ln2_hi, lo = k*ln2_lo.
  const __m256d half = pick(negative, set1(0.5), set1(-0.5));
  const __m256d kd =
      _mm256_round_pd(_mm256_fmadd_pd(set1(kInvLn2), u, half),
                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  // The k = -1 band: hi = u + ln2_hi, lo = -ln2_lo.
  const __m256d hi = pick(general, _mm256_add_pd(u, set1(kLn2Hi)),
                          _mm256_fnmadd_pd(kd, set1(kLn2Hi), u));
  const __m256d lo =
      pick(general, set1(-kLn2Lo), _mm256_mul_pd(kd, set1(kLn2Lo)));
  const __m256d reduced = _mm256_sub_pd(hi, lo);
  const __m256d c = _mm256_sub_pd(_mm256_sub_pd(hi, reduced), lo);
  const __m256d x = pick(reduce, u, reduced);
  // k per lane, as a double (0 and -1 in their bands) and as k << 52.
  const __m256d k = pick(reduce, set1(0.0), pick(general, set1(-1.0), kd));
  const __m256i k52 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(k)), 52);

  const __m256d hfx = _mm256_mul_pd(set1(0.5), x);
  const __m256d hxs = _mm256_mul_pd(x, hfx);
  const __m256d r1a = _mm256_fmadd_pd(hxs, set1(kQ1), set1(1.0));
  const __m256d h2 = _mm256_mul_pd(hxs, hxs);
  const __m256d r2 = _mm256_fmadd_pd(hxs, set1(kQ3), set1(kQ2));
  const __m256d h4 = _mm256_mul_pd(h2, h2);
  const __m256d r3 = _mm256_fmadd_pd(hxs, set1(kQ5), set1(kQ4));
  const __m256d r1 = _mm256_fmadd_pd(h4, r3, _mm256_fmadd_pd(h2, r2, r1a));
  const __m256d t = _mm256_fnmadd_pd(r1, hfx, set1(3.0));
  const __m256d e0 = _mm256_mul_pd(
      hxs, _mm256_div_pd(_mm256_sub_pd(r1, t),
                         _mm256_fnmadd_pd(x, t, set1(6.0))));
  const __m256d k0 = _mm256_sub_pd(x, _mm256_fmsub_pd(x, e0, hxs));
  const __m256d e = _mm256_sub_pd(
      _mm256_fmsub_pd(x, _mm256_sub_pd(e0, c), c), hxs);
  const __m256d km1 =
      _mm256_fmsub_pd(set1(0.5), _mm256_sub_pd(x, e), set1(0.5));
  const __m256d e_minus_x = _mm256_sub_pd(e, x);
  // k <= -2 or k > 56.
  const __m256d far = _mm256_sub_pd(
      add_exponent(_mm256_sub_pd(set1(1.0), e_minus_x), k52), set1(1.0));
  // 2^-k for 3 <= k <= 56.
  const __m256d two_mk = _mm256_castsi256_pd(
      _mm256_sub_epi64(_mm256_set1_epi64x(0x3ff0000000000000), k52));
  const __m256d small_k = add_exponent(
      _mm256_sub_pd(_mm256_sub_pd(set1(1.0), two_mk), e_minus_x), k52);
  const __m256d mid_k = add_exponent(
      _mm256_add_pd(_mm256_sub_pd(x, _mm256_add_pd(e, two_mk)), set1(1.0)),
      k52);

  const __m256d is_far =
      _mm256_or_pd(_mm256_cmp_pd(k, set1(-2.0), _CMP_LE_OQ),
                   _mm256_cmp_pd(k, set1(56.0), _CMP_GT_OQ));
  __m256d r = pick(_mm256_cmp_pd(k, set1(20.0), _CMP_LT_OQ), mid_k, small_k);
  r = pick(is_far, r, far);
  r = pick(_mm256_cmp_pd(k, set1(-1.0), _CMP_EQ_OQ), r, km1);
  return pick(reduce, k0, r);
}

__m256d tanh4(__m256d x) {
  const __m256d sign = set1(-0.0);
  const __m256d sx = _mm256_and_pd(x, sign);
  const __m256d ax = _mm256_xor_pd(x, sx);
  const __m256d ge_one = at_least<kTanhOneHi>(ax);

  // u = 2|x| for |x| >= 1, else -2|x|.
  const __m256d two_ax = _mm256_mul_pd(set1(2.0), ax);
  const __m256d u = pick(ge_one, _mm256_xor_pd(two_ax, sign), two_ax);
  const __m256d t = expm1_for_tanh(u);
  const __m256d num = pick(ge_one, _mm256_xor_pd(t, sign), set1(2.0));
  const __m256d q = _mm256_div_pd(num, _mm256_add_pd(t, set1(2.0)));
  __m256d z = pick(ge_one, q, _mm256_sub_pd(set1(1.0), q));
  z = pick(at_least<kTanhBigHi>(ax), z, set1(1.0));
  __m256d r = _mm256_xor_pd(z, sx);

  const __m256d tiny =
      _mm256_cmp_pd(ax, set1(high_word_bound(kTanhTinyHi)), _CMP_LT_OQ);
  r = pick(tiny, r, _mm256_mul_pd(x, _mm256_add_pd(set1(1.0), x)));
  // +-inf and NaN: 1/x + 1, or 1/x - 1 when the sign bit is set.
  const __m256d nonfinite =
      _mm256_cmp_pd(ax, set1(high_word_bound(0x7ff00000)), _CMP_NLT_UQ);
  const __m256d recip = _mm256_div_pd(set1(1.0), x);
  return pick(nonfinite, r,
              _mm256_add_pd(recip, _mm256_xor_pd(set1(1.0), sx)));
}

}  // namespace

void tanh_avx2(double* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(d + i, tanh4(_mm256_loadu_pd(d + i)));
  if (i < n) {  // the tail, under a lane mask; the idle lanes compute tanh(0)
    const __m256i tail =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n - i)),
                           _mm256_setr_epi64x(0, 1, 2, 3));
    _mm256_maskstore_pd(d + i, tail, tanh4(_mm256_maskload_pd(d + i, tail)));
  }
}

}  // namespace s2a::nn::detail

#endif  // x86-64
