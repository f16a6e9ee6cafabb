// Cache-blocked double-precision GEMM for the conv/deconv hot path,
// with runtime-dispatched SIMD micro-kernels.
//
// Computes C += A * B where A is [m,k], B is [k,n] and C is [m,n]
// (row-major, strided). C must be pre-initialized by the caller — the
// conv layers seed it with the bias so the whole bias-plus-dot-product
// chain is a single accumulation stream.
//
// B addressing: the kernels read B row kk at b + boff[kk] through a
// table of row offsets, and the n columns of a row are contiguous.
// gemm_packed_rows takes that table from the caller; gemm_packed (the
// plain row stride ldb) fills a kGemmKC-entry table of kk*ldb on the
// stack per k panel and runs the same driver. The conv layers use the
// table to read every B row straight out of one zero-padded input
// buffer (nn/conv2d.cpp): a row is one contiguous span of an input
// plane, the table holds where each tap's span starts, and the forwards
// build no lowered matrix. Offsets may repeat, overlap and go in any
// order; they only have to keep every read inside the caller's
// buffer.
//
// Determinism contract (load-bearing — see docs/ARCHITECTURE.md):
// every C element accumulates its k products in ascending-k order, as
// one chain of rounded `c += a*b` updates starting from the caller's
// initial value. Cache blocking (KC panels), register tiling (MR x NR
// micro-kernel) and any column partitioning the caller layers on top
// only regroup *which elements* are computed together, never the order
// of additions within an element — so results are bit-identical to the
// naive triple loop and invariant under thread-count, tile-size, or
// kernel-ISA changes. The row table changes where a B value is read,
// never which value or in which order it is used, so both entry points
// obey the same contract. k panels are visited in ascending order and the
// micro-kernel reloads C between panels, which keeps the per-element
// chain unbroken. The vector kernels keep the contract by issuing an
// explicit multiply then an explicit add per k step (their TUs are
// compiled with -ffp-contract=off so the pair is never re-fused).
//
// Micro-tile geometry is per ISA, picked so the accumulator block plus
// the broadcast A value and the B row fit the register file with room
// to spare:
//   scalar  2x4   8 accumulators — fits the 16 SSE2 xmm registers of
//                 baseline x86-64; bigger scalar tiles spill.
//   avx2    4x8   8 ymm accumulators + 2 B + 1 A = 11 of 16 ymm.
//   avx512  8x16  16 zmm accumulators + 2 B + 1 A = 19 of 32 zmm; the
//                 tall M halves the passes over the (table-addressed,
//                 prefetcher-hostile) B strip, and a 4x16 half tile
//                 keeps 4-row panels (the deconv phase GEMMs) on the
//                 vector path.
//   neon    4x8   16 float64x2 accumulators + 4 B + 1 A = 21 of 32.
// The scalar kernel is always compiled and is the bit-exactness oracle
// every other kernel is diffed against; util::active_simd_isa()
// (S2A_SIMD={auto,scalar,avx2,avx512,neon}) decides
// which family runs.
//
// A is consumed in packed form: pack_a() lays the matrix out as
// row-panels of gemm_mr() rows, k-major within the panel, zero-padding
// the final partial panel. The panel height follows the ACTIVE kernel,
// so never switch kernels between a pack_a() and the gemm_packed()
// consuming it. For the conv layers A is the weight matrix, so the
// packed form is the "repacked weight panel" that lives in the layer's
// ScratchArena and is rebuilt once per forward: weights move between
// forwards (optimizers, loads and federated updates all write them
// through params()), and a layer keeps no packed value across calls.
// A packed panel outlives its call only inside a content-keyed
// snapshot (nn/frozen.hpp): nn::FrozenConv keeps a bitwise copy of the
// weights it packed and the kernel it packed them for, and serves a
// call only when both memcmp-equal the live weights and the active
// kernel, so no writer has to invalidate it. nn::Frozen (Dense stacks)
// is built per call and dropped on return.
// Every conv layer packs its panels with pack_a_indexed(): one indexed
// copy out of the kernel tensor per GEMM phase, through the shape-only
// column table of the layer's lowering (detail::ConvLowering, built in
// its constructor; identity columns for a Conv2D, one tap list per
// sub-pixel phase for a ConvTranspose2D).
//
// A batch-1 Dense forward has n = 1: its one column strip goes to the
// family's `col` tile once per k panel, for every row panel at once. The
// tile keeps four panels' accumulators live (32 rows on AVX-512, 16 on
// AVX2 and NEON, 8 on scalar), so their dependent add chains overlap where
// one call per panel ran them back to back, and broadcasts each B value
// once for all of them. Each element is still one ascending-k chain
// started from its C value, so the bits do not change.
#pragma once

#include <cstddef>

#include "util/scratch_arena.hpp"

namespace s2a::nn {

/// Scalar micro-tile (the always-available fallback kernel and
/// bit-exactness oracle). Vector kernels use larger per-ISA tiles —
/// see gemm_mr()/gemm_nr() for the active geometry.
inline constexpr int kGemmMR = 2;
inline constexpr int kGemmNR = 4;
/// Upper bounds over every compiled-in kernel family; sizes the scalar
/// tail kernel's accumulator block.
inline constexpr int kGemmMaxMR = 8;
inline constexpr int kGemmMaxNR = 16;
/// k-panel depth: one MR-strip of packed A plus the touched B rows stay
/// cache-resident per panel.
inline constexpr int kGemmKC = 256;
/// Column block: bounds the B working set of a panel sweep to
/// kGemmKC * kGemmNC doubles (2 MiB worst case; real conv stripes are
/// far narrower).
inline constexpr int kGemmNC = 1024;

/// The active kernel's packed-panel row height / column tile width.
int gemm_mr();
int gemm_nr();
/// The active kernel family's name ("scalar", "avx2", "avx512", ...)
/// for bench headers and report payloads.
const char* gemm_kernel_name();

/// Doubles needed by pack_a for an [m,k] matrix (includes padding of the
/// last partial panel). Follows the active kernel's panel height.
std::size_t packed_a_size(int m, int k);

/// Packs row-major A ([m,k], row stride lda) into gemm_mr() row-panels:
/// panel p holds rows [p*MR, p*MR+MR), stored k-major so the micro-kernel
/// reads MR contiguous values per k step. Rows beyond m are zero-filled.
void pack_a(const double* a, int lda, int m, int k, double* out);

/// pack_a for an A reached through a column table: element (i, kk) is
/// a[i*row_stride + col_off[kk]]. detail::ConvLowering::pack packs each
/// conv phase's weight panel straight out of its kernel tensor this way.
void pack_a_indexed(const double* a, std::size_t row_stride,
                    const std::size_t* col_off, int m, int k, double* out);

/// C += A_packed * B with the determinism contract above.
/// B: row-major [k,n] with row stride ldb; C: row-major [m,n] with row
/// stride ldc, pre-initialized.
void gemm_packed(int m, int n, int k, const double* a_packed,
                 const double* b, int ldb, double* c, int ldc);

/// gemm_packed with B reached through a row table: B[kk][j] is
/// b[boff[kk] + j], for kk in [0, k) and j in [0, n). Same contract and
/// same bits as gemm_packed on the materialized matrix.
void gemm_packed_rows(int m, int n, int k, const double* a_packed,
                      const double* b, const std::ptrdiff_t* boff, double* c,
                      int ldc);

/// Convenience wrapper: packs A into `arena` (one alloc, freed by the
/// caller's next arena.reset()) and runs gemm_packed.
void gemm(int m, int n, int k, const double* a, int lda, const double* b,
          int ldb, double* c, int ldc, util::ScratchArena& arena);

/// out[j*rows + i] = a[i*cols + j]: materializes Aᵀ so the backward
/// kernels can feed gemm_packed operands whose reduction axis is
/// contiguous (e.g. Wᵀ for input gradients, xᵀ/gᵀ for Dense). A plain
/// copy — transposition changes element addresses, never values, so it
/// is exact.
void transpose(const double* a, int rows, int cols, double* out);

}  // namespace s2a::nn
