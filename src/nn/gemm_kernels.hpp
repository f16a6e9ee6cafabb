// Internal: per-ISA GEMM micro-kernel descriptors.
//
// Each kernel family lives in its own translation unit compiled with
// exactly the instruction-set flags it needs plus -ffp-contract=off
// (src/nn/CMakeLists.txt). The contraction flag is load-bearing: the
// vector kernels issue an explicit multiply followed by an explicit add
// so every C element keeps the scalar chain's per-step rounding, and
// the compiler must not re-fuse that pair into an FMA behind our back.
//
// gemm.cpp owns the one dispatch table that maps util::SimdIsa to these
// descriptors; nothing else should include this header.
#pragma once

#include <cstddef>

namespace s2a::nn::detail {

/// One micro-kernel family. `full` computes an mr x nr C tile;
/// `half` (optional) computes an (mr/2) x nr tile against a packed A
/// panel that still has row stride mr — it serves m-tail panels of
/// exactly mr/2 rows (e.g. the m=4 stride-2 deconv phase GEMMs under
/// the 8-row AVX-512 packing) without dropping to the scalar tail.
/// Both take kc (panel depth), the packed A panel slice, a B panel
/// whose row kk starts at b + boff[kk] (boff is the k panel's slice of
/// the caller's row table; the nr columns of a row are contiguous) and
/// the C tile (row-major, stride ldc), and accumulate in ascending-k
/// order per element.
///
/// `col` computes a one-column tile — the whole of a batch-1 Dense
/// forward, where B is a single column. It sweeps all mr rows of the
/// packed panel as one fixed-width vector per k step (A values times the
/// broadcast B value) but loads and stores only the first `rows` C rows:
/// the rest of the panel is pack_a's zero padding, computed and dropped.
struct GemmMicroKernel {
  const char* name;
  int mr;
  int nr;
  void (*full)(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc);
  void (*half)(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc);
  void (*col)(int kc, const double* ap, const double* b,
              const std::ptrdiff_t* boff, double* c, int ldc, int rows);
};

#if defined(__x86_64__) || defined(_M_X64)
const GemmMicroKernel& gemm_kernel_avx2();    // 4x8 + 2x8 half + 4x1 column
const GemmMicroKernel& gemm_kernel_avx512();  // 8x16 + 4x16 half + 8x1 column
#endif
#if defined(__aarch64__)
const GemmMicroKernel& gemm_kernel_neon();  // 4x8 + 2x8 half + 4x1 column
#endif

}  // namespace s2a::nn::detail
