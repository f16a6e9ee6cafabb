// Internal: the library-owned tanh behind nn::tanh_inplace.
//
// The algorithm is glibc 2.36's double tanh: fdlibm's s_tanh.c over the
// x86-64 FMA build of s_expm1.c, which the dynamic loader picks on FMA
// hosts. GCC contracts twelve multiply-adds of that build into fused
// operations; the port writes each one as an explicit fma and every
// other operation unfused, so it reproduces that libm's std::tanh bit
// for bit on every input — and, unlike std::tanh, gives the same bits
// on every host, FMA or not.
//
// tanh only calls expm1 on u = 2|x| for 1 <= |x| < 22 and u = -2|x| for
// 2^-55 <= |x| < 1, so u lies in (-2, -2^-54] or [2, 44). The port
// keeps only the expm1 paths that range reaches: k = 0 (|u| <= ln2/2),
// k = -1 (u < 0 and |u| < 1.5 ln2), and the general reduction
// k = trunc(u/ln2 + 0.5 sign(u)), which gives k = -3 or -2 for u < 0
// and 3..63 for u > 0. The overflow, non-finite, |u| < 2^-54 and k = 1
// branches are unreachable and left out.
//
// Three forms produce the same bits: the scalar port (tanh.cpp, with
// std::fma), which serves the scalar and NEON families, and AVX2+FMA
// and AVX-512F kernels that run every path on every lane and blend by
// mask. Each vector kernel lives in its own TU compiled with exactly
// its ISA flags plus -ffp-contract=off, so the compiler can neither
// fuse the unfused operations nor split the fused ones. tanh.cpp owns
// the dispatch; nothing else should include this header.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace s2a::nn::detail {

// s_expm1.c's constants.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3fe62e42 fee00000
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3dea39ef 35793c76
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;  // 0x3ff71547 652b82fe
inline constexpr double kQ1 = -3.33333333333331316428e-02;
inline constexpr double kQ2 = 1.58730158725481460165e-03;
inline constexpr double kQ3 = -7.93650757867487942473e-05;
inline constexpr double kQ4 = 4.00821782732936239552e-06;
inline constexpr double kQ5 = -2.01099218183624371326e-07;

// The range tests on the high word of |x| (tanh) or |u| (expm1).
inline constexpr std::uint32_t kTanhTinyHi = 0x3c800000;  // 2^-55
inline constexpr std::uint32_t kTanhOneHi = 0x3ff00000;   // 1
inline constexpr std::uint32_t kTanhBigHi = 0x40360000;   // 22
inline constexpr std::uint32_t kExpm1HalfLn2Hi = 0x3fd62e42;  // k = 0 up to here
inline constexpr std::uint32_t kExpm1ThreeHalvesLn2Hi = 0x3ff0a2b2;  // k = -1 below

/// The double whose high word is `hi` and low word zero. For a
/// non-negative, non-NaN a, high_word(a) >= hi exactly when a >= this
/// value, so the vector kernels test ranges with floating-point
/// compares. consteval: no out-of-line copy compiled under an ISA flag
/// can exist for the linker to keep.
consteval double high_word_bound(std::uint32_t hi) {
  return std::bit_cast<double>(std::uint64_t{hi} << 32);
}

#if defined(__x86_64__) || defined(_M_X64)
// In place over n values, any n: the last n % lanes values run as one
// vector under a lane mask (the scalar port's std::fma is a libm call
// on a baseline x86-64 build, about 39 ns a value, so a tail never
// falls back to it).
void tanh_avx2(double* d, std::size_t n);    // 4 lanes; needs AVX2 and FMA
void tanh_avx512(double* d, std::size_t n);  // 8 lanes; AVX-512F only
#endif

}  // namespace s2a::nn::detail
