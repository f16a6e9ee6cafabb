// Int8 quantized inference path for the forward-only hot loops.
//
// Scheme: per-output-row symmetric weight scales (scale_i =
// max|row_i| / 127, so every weight maps to [-127, 127] with zero
// exactly representable) and one symmetric activation scale per image.
// The int8 GEMM accumulates w_q * x_q products in int32 — integer
// addition is associative, so unlike the float path the accumulation
// order is free and the scalar and AVX2 int8 kernels are *exactly*
// equal, at every thread count. The int32 sum is dequantized in one
// step, `c[i][j] += scales[i] * x_scale * acc`, on top of the caller's
// bias-seeded C, mirroring the float GEMM's contract.
//
// Overflow headroom: each product is at most 127*127 < 2^14, so the
// int32 accumulator is safe for k < 2^31 / 2^14 ≈ 131000 — orders of
// magnitude above the conv reduction depths here (k ≤ ~600).
//
// Routing: the training layers are float only. The int8 model is a
// frozen value, nn::FrozenConv::quantized() (nn/frozen.hpp), which
// codes every GEMM phase of each conv's lowering with quantize_rows
// (detail::ConvLowering::quantize) and runs them through the one conv
// forward (nn/conv_rows.hpp). A model
// holding one refuses train_step(). Non-finite weights and activations
// have no int8 code, so they turn the outputs that read them into NaN —
// non-finite exactly where the float path is, which keeps the loop's
// non-finite quarantine working.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/scratch_arena.hpp"

namespace s2a::nn {

/// A row-major int8 matrix with one symmetric scale per row. For a
/// conv weight this is [out_channels, reduction], so the per-row scale
/// is the per-output-channel scale.
struct QuantizedMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<std::int8_t> data;  // row-major [rows, cols]
  std::vector<double> scales;     // scales[i] dequantizes row i
};

/// Quantizes row-major a ([rows, cols], row stride lda) with per-row
/// symmetric scales. An all-zero row gets scale 1 (quantizes to zeros);
/// a row holding a non-finite value gets a NaN scale.
QuantizedMatrix quantize_rows(const double* a, int lda, int rows, int cols);

/// Per-tensor symmetric scale: max|x| / 127 over the finite values (1
/// when none is non-zero, or when that scale is so small that its
/// reciprocal overflows, max|x| below about 7.1e-307: every value then
/// codes to 0 at either scale). The conv forwards take one per image,
/// over the whole image, so neither their banding/sharding nor the rest
/// of the batch can change an image's quantization grid.
double activation_scale(const double* x, std::size_t n);

/// out[i] = clamp(round(x[i] / scale), -127, 127). Round-half-away
/// (std::lround), deterministic across platforms in practice for the
/// magnitudes here. A non-finite x[i] has no code and writes 0; returns
/// false when that happened.
bool quantize_values(const double* x, std::size_t n, double scale,
                     std::int8_t* out);

/// Carves an int8 buffer out of a double arena (8 int8 per slot,
/// rounded up). Lifetime follows the arena's reset() like any other
/// scratch allocation.
std::int8_t* alloc_int8(util::ScratchArena& arena, std::size_t count);

/// C += diag(a.scales) * (a_q * b_q) * b_scale, with int32 accumulate.
/// b: row-major int8 [a.cols, n] with row stride ldb; c: row-major
/// [a.rows, n] with row stride ldc, pre-initialized (bias-seeded).
/// Dispatches to the AVX2 kernel when the CPU has it and S2A_SIMD is
/// not forcing scalar; both kernels return identical results.
void gemm_int8(const QuantizedMatrix& a, int n, const std::int8_t* b, int ldb,
               double b_scale, double* c, int ldc);

/// gemm_int8 with B reached through a row table, as gemm_packed_rows
/// (nn/gemm.hpp): B[kk][j] is b[boff[kk] + j]. The conv band loop reads
/// its int8-coded padded input this way; gemm_int8 is this with
/// boff[kk] = kk*ldb.
void gemm_int8_rows(const QuantizedMatrix& a, int n, const std::int8_t* b,
                    const std::ptrdiff_t* boff, double b_scale, double* c,
                    int ldc);

namespace detail {

/// Reference int8 GEMM. B row kk starts at b + boff[kk]; the ldb
/// overload is the table kk*ldb.
void gemm_int8_scalar(int m, int n, int k, const std::int8_t* a,
                      const double* a_scales, const std::int8_t* b,
                      const std::ptrdiff_t* boff, double b_scale, double* c,
                      int ldc);
void gemm_int8_scalar(int m, int n, int k, const std::int8_t* a,
                      const double* a_scales, const std::int8_t* b, int ldb,
                      double b_scale, double* c, int ldc);

#if defined(__x86_64__) || defined(_M_X64)
/// AVX2 int8 GEMM (vpmaddwd over widened int16 pairs). Exactly equal to
/// the scalar kernel — exposed for the differential tests. B addressing
/// as gemm_int8_scalar.
void gemm_int8_avx2(int m, int n, int k, const std::int8_t* a,
                    const double* a_scales, const std::int8_t* b,
                    const std::ptrdiff_t* boff, double b_scale, double* c,
                    int ldc);
void gemm_int8_avx2(int m, int n, int k, const std::int8_t* a,
                    const double* a_scales, const std::int8_t* b, int ldb,
                    double b_scale, double* c, int ldc);
#endif

}  // namespace detail

}  // namespace s2a::nn
