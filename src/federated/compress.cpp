#include "federated/compress.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace s2a::federated {

std::size_t sparse_wire_bytes(const SparseDelta& delta) {
  return 16 + delta.entries.size() * (sizeof(std::uint32_t) + sizeof(double));
}

std::size_t dense_wire_bytes(std::size_t numel) {
  return 16 + numel * sizeof(double);
}

std::size_t topk_keep_count(std::size_t eligible_count, double k_fraction) {
  S2A_CHECK(k_fraction > 0.0 && k_fraction <= 1.0);
  if (eligible_count == 0) return 0;
  const double raw = std::ceil(k_fraction * static_cast<double>(eligible_count));
  return std::max<std::size_t>(1, static_cast<std::size_t>(raw));
}

namespace {

/// |v| as an order-preserving integer: the IEEE-754 bits with the sign
/// cleared. Unsigned order is magnitude order (inf above every finite
/// value, NaN above inf), and ±0.0 is key 0.
inline std::uint64_t magnitude_key(double v) {
  return std::bit_cast<std::uint64_t>(v) & 0x7fffffffffffffffULL;
}

/// The rank-th largest of keys[0, m) (1 <= rank <= m), by most-
/// significant-digit radix select: each round histograms the 8 bits
/// below the prefix every remaining key shares, keeps only the bucket
/// holding the wanted rank (compacted to the front, so keys is
/// permuted) and stops when the remaining keys are all equal. On return
/// `rank` is how many keys equal to the result lie in the top rank: the
/// skipped buckets above it hold every larger key.
std::uint64_t radix_select(std::uint64_t* keys, std::size_t m,
                           std::size_t& rank) {
  std::uint32_t hist[256];
  while (true) {
    std::uint64_t any = 0, all = ~0ULL;
    for (std::size_t i = 0; i < m; ++i) {
      any |= keys[i];
      all &= keys[i];
    }
    const std::uint64_t differ = any ^ all;
    if (differ == 0) return keys[0];
    const int shift = std::max(0, static_cast<int>(std::bit_width(differ)) - 8);
    std::fill(hist, hist + 256, 0u);
    for (std::size_t i = 0; i < m; ++i) ++hist[(keys[i] >> shift) & 0xff];
    std::uint64_t bucket = 256;
    while (rank > hist[--bucket]) rank -= hist[bucket];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t k = keys[i];
      keys[kept] = k;
      kept += ((k >> shift) & 0xff) == bucket;
    }
    m = kept;
  }
}

}  // namespace

void topk_compress(std::vector<double>& delta, double k_fraction,
                   std::vector<double>* residual,
                   const std::vector<unsigned char>* eligible,
                   SparseDelta& out, std::vector<std::uint64_t>& keys) {
  S2A_CHECK(k_fraction > 0.0 && k_fraction <= 1.0);
  const std::size_t n = delta.size();
  if (eligible != nullptr) S2A_CHECK(eligible->size() == n);
  if (residual != nullptr) {
    S2A_CHECK(residual->empty() || residual->size() == n);
    if (residual->empty()) residual->assign(n, 0.0);
  }
  double* d = delta.data();
  double* r = residual != nullptr ? residual->data() : nullptr;
  const unsigned char* el = eligible != nullptr ? eligible->data() : nullptr;

  // Fold the carried residual into the delta on eligible positions (the
  // ineligible ones keep their residual untouched for a later round in
  // which the client trains those units again), and gather the nonzero
  // eligible keys — the candidates — without a branch per position.
  if (keys.size() < n) keys.resize(n);
  std::uint64_t* kb = keys.data();
  std::size_t eligible_count = 0;
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool on = el == nullptr || el[i] != 0;
    if (r != nullptr && on) d[i] += r[i];
    const std::uint64_t k = magnitude_key(d[i]);
    eligible_count += on;
    kb[candidates] = k;
    candidates += on & (k != 0);
  }

  // The threshold: the keep-th largest candidate key T, and how many
  // keys equal to T still ship once every key above T has. With no more
  // candidates than keep, T = 0 ships every nonzero eligible entry.
  const std::size_t keep = topk_keep_count(eligible_count, k_fraction);
  std::uint64_t threshold = 0;
  std::size_t ties = 0;
  if (candidates > keep) {
    ties = keep;
    threshold = radix_select(kb, candidates, ties);
  }
  const std::size_t shipped = std::min(keep, candidates);

  // One pass in index order: ship above-threshold keys and the first
  // `ties` keys equal to it, discharge shipped positions from the
  // residual and carry every other eligible one. Every entry is written
  // to the next free slot (entries holds one spare) and the slot only
  // advances when it ships, so the pass has no data-dependent branch.
  out.dense_numel = n;
  out.entries.resize(shipped + 1);
  SparseEntry* e = out.entries.data();
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool on = el == nullptr || el[i] != 0;
    const double v = d[i];
    const std::uint64_t k = magnitude_key(v);
    const bool tie = on & (k == threshold) & (ties != 0);
    const bool ship = (on & (k > threshold)) | tie;
    ties -= tie;
    e[w] = {static_cast<std::uint32_t>(i), v};
    w += ship;
    // Carry v, or discharge to +0.0 when shipped: a bit mask rather than
    // a select, which compilers turn into a mispredicted branch.
    if (r != nullptr && on)
      r[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) &
                                   (std::uint64_t{0} - !ship));
  }
  S2A_CHECK(w == shipped);
  out.entries.resize(shipped);
}

SparseDelta topk_compress(std::vector<double>& delta, double k_fraction,
                          std::vector<double>* residual,
                          const std::vector<unsigned char>* eligible) {
  SparseDelta out;
  std::vector<std::uint64_t> keys;
  topk_compress(delta, k_fraction, residual, eligible, out, keys);
  return out;
}

}  // namespace s2a::federated
