// Sparse top-k delta compression with error feedback (the uplink side of
// hierarchical federated scaling, docs/ARCHITECTURE.md).
//
// A participating client ships only the k largest-magnitude entries of
// its (flattened) model delta; everything it did not ship is carried in
// a per-client residual accumulator and added back the next time the
// client participates, so the compression error is fed back instead of
// lost ("error feedback" / EF-SGD). Selection is deterministic — ties
// break on the lower flat index — so compressed runs are bit-identical
// at every thread count. The selection sorts nothing: a threshold on
// integer magnitude keys, then one pass in index order (topk_compress).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace s2a::federated {

/// One surviving entry of a compressed delta.
struct SparseEntry {
  std::uint32_t index = 0;  ///< flat position in the w1|b1|w2|b2 layout
  double value = 0.0;
};

/// A compressed client delta: entries sorted by ascending index.
struct SparseDelta {
  std::vector<SparseEntry> entries;
  std::size_t dense_numel = 0;  ///< size of the dense vector it came from
};

/// Modeled wire cost of a compressed delta: 16-byte header plus a
/// 4-byte index and 8-byte value per surviving entry.
std::size_t sparse_wire_bytes(const SparseDelta& delta);
/// Modeled wire cost of the dense alternative: 16-byte header plus
/// 8 bytes per parameter.
std::size_t dense_wire_bytes(std::size_t numel);

/// Number of entries kept at `k_fraction` of an `eligible_count`-entry
/// delta: ceil(fraction * eligible), at least 1 when anything is
/// eligible.
std::size_t topk_keep_count(std::size_t eligible_count, double k_fraction);

/// Magnitude top-k compression of `delta` (modified in place), with
/// optional error feedback and an optional eligibility mask. The
/// compressed delta is written to `out` (its previous entries are
/// discarded); `keys` is selection scratch. Both are caller-owned and
/// only ever grow, so a caller that keeps them across calls (one pair
/// per worker, as the hierarchical engine's work slots do) allocates
/// nothing in steady state once `keys` holds delta.size() entries and
/// `out.entries` one more than the eligible count.
///
///  * If `residual` is non-null it must be empty or sized like `delta`;
///    it is added into `delta` on eligible positions before selection
///    (an empty residual is grown to size, zero-filled), and afterwards
///    holds exactly the part of the corrected delta that was NOT
///    shipped — so shipped + residual' == delta_in + residual_in,
///    position-exact.
///  * If `eligible` is non-null it must be sized like `delta`; only
///    positions with a nonzero flag participate (DC-NAS clients never
///    ship — or carry residual for — the hidden units they did not
///    train this round).
///  * Selection keeps the topk_keep_count() largest |value| entries,
///    ties broken toward the lower index; exact zeros (±0.0) are never
///    shipped. k_fraction must be in (0, 1]; 1.0 ships every eligible
///    nonzero entry, so a residual (if present) drains to zero on the
///    eligible positions.
///
/// Method: each value's magnitude is ranked by its integer key — the
/// IEEE-754 bits with the sign cleared, whose unsigned order is the
/// order of |value| (±0.0 is key 0). A most-significant-digit radix
/// select over the nonzero eligible keys finds the keep-th largest key
/// T (on 276-entry client deltas: 1.0–1.4 µs, against 2.9–3.4 µs for
/// nth_element on the same keys, 4-vCPU AVX-512 host); one pass in index
/// order then ships every key above T plus the first keep − #(key > T)
/// keys equal to T, which is exactly the lower-index tie-break. The
/// entries therefore come out sorted by ascending index by
/// construction, and the same pass writes the residual.
///
/// Non-finite values are ranked by the same key, so the order is total
/// and defined: +/-inf ranks above every finite magnitude, and NaN
/// above inf (NaNs among themselves by payload bits), ties toward the
/// lower index as usual. A shipped NaN/inf travels as is — callers that
/// must not ship one (the hierarchical engine) quarantine non-finite
/// deltas before compressing.
void topk_compress(std::vector<double>& delta, double k_fraction,
                   std::vector<double>* residual,
                   const std::vector<unsigned char>* eligible,
                   SparseDelta& out, std::vector<std::uint64_t>& keys);

/// The same selection into a fresh SparseDelta, with its own scratch.
SparseDelta topk_compress(std::vector<double>& delta, double k_fraction,
                          std::vector<double>* residual,
                          const std::vector<unsigned char>* eligible);

}  // namespace s2a::federated
