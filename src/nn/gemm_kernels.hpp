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
#include <type_traits>

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
/// `col` computes a one-column strip — the whole of a batch-1 Dense
/// forward, where B is a single column — for every row panel of the
/// strip in one call: C rows [0, m) of one column (stride ldc) against
/// one k panel. `ap` is panel 0's slice of that k panel; panel p's slice
/// starts panel_stride doubles further on. B row kk is the single value
/// b[boff[kk]]. Each family keeps four panels' accumulators live at once
/// (32 rows on AVX-512, 16 on AVX2 and NEON), so their independent add
/// chains overlap instead of running back to back; a panel sweeps all
/// mr rows as one fixed-width vector per k step, but only the first m
/// rows are loaded and stored — the rest of the last panel is pack_a's
/// zero padding, computed and dropped. Every row is still one chain of
/// `acc + a*b` in ascending k, started from the caller's C.
struct GemmMicroKernel {
  const char* name;
  int mr;
  int nr;
  void (*full)(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc);
  void (*half)(int kc, const double* ap, const double* b,
               const std::ptrdiff_t* boff, double* c, int ldc);
  void (*col)(int m, int kc, const double* ap, std::size_t panel_stride,
              const double* b, const std::ptrdiff_t* boff, double* c,
              int ldc);
};

/// Calls f(std::integral_constant<int, n>{}) for a runtime n in [1, P],
/// so a family's column tile can keep a compile-time panel count.
template <int P, typename F>
inline void with_panel_count(int n, F&& f) {
  if constexpr (P > 1) {
    if (n < P) return with_panel_count<P - 1>(n, f);
  }
  f(std::integral_constant<int, P>{});
}

/// The row walk every family's `col` shares: splits C rows [0, m) into
/// groups of up to P panels of MR rows and runs
/// tile(integral_constant<int, n>, a, c, last_rows) on each — n panels
/// whose packed slices start at `a` (panel_stride apart) and whose C
/// rows start at `c`, the last panel holding last_rows (1..MR) real rows.
template <int MR, int P, typename Tile>
inline void for_each_col_group(int m, const double* ap,
                               std::size_t panel_stride, double* c, int ldc,
                               Tile&& tile) {
  // Plain ternaries, not std::min: this header is compiled into the ISA
  // TUs, and an out-of-line std::min<int> emitted there under -mavx512f
  // could be the copy the linker keeps for every caller.
  for (int i0 = 0; i0 < m; i0 += MR * P) {
    const int left = (m - i0 + MR - 1) / MR;
    const int panels = left < P ? left : P;
    const int tail = m - i0 - MR * (panels - 1);
    const int last_rows = tail < MR ? tail : MR;
    const double* a = ap + static_cast<std::size_t>(i0 / MR) * panel_stride;
    double* ci = c + static_cast<std::size_t>(i0) * ldc;
    with_panel_count<P>(panels, [&](auto n) { tile(n, a, ci, last_rows); });
  }
}

#if defined(__x86_64__) || defined(_M_X64)
const GemmMicroKernel& gemm_kernel_avx2();    // 4x8 + 2x8 half + column
const GemmMicroKernel& gemm_kernel_avx512();  // 8x16 + 4x16 half + column
#endif
#if defined(__aarch64__)
const GemmMicroKernel& gemm_kernel_neon();  // 4x8 + 2x8 half + column
#endif

}  // namespace s2a::nn::detail
