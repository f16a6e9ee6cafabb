// Reference implementation of top-k delta compression, for the
// differential tests (federated_hier_test.cpp).
//
// The library selects on integer magnitude keys with a threshold and one
// pass in index order (src/federated/compress.cpp); this is the original
// comparator selection: an index list ordered by |value| descending,
// index ascending on ties, cut with nth_element and sorted back into
// index order. Both must agree bit-for-bit on entries, residual and the
// updated delta (the tests compare with ==, no tolerance). Finite inputs
// only: with a NaN present the comparator is not a strict weak order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "federated/compress.hpp"

namespace s2a::federated::oracle {

inline SparseDelta topk_compress(std::vector<double>& delta, double k_fraction,
                                 std::vector<double>* residual,
                                 const std::vector<unsigned char>* eligible) {
  const std::size_t n = delta.size();
  if (residual != nullptr && residual->empty()) residual->assign(n, 0.0);

  const auto is_eligible = [&](std::size_t i) {
    return eligible == nullptr || (*eligible)[i] != 0;
  };

  std::size_t eligible_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_eligible(i)) continue;
    ++eligible_count;
    if (residual != nullptr) delta[i] += (*residual)[i];
  }

  const std::size_t keep = topk_keep_count(eligible_count, k_fraction);

  std::vector<std::uint32_t> order;
  order.reserve(eligible_count);
  for (std::size_t i = 0; i < n; ++i)
    if (is_eligible(i) && delta[i] != 0.0)
      order.push_back(static_cast<std::uint32_t>(i));
  const auto better = [&](std::uint32_t a, std::uint32_t b) {
    const double ma = std::abs(delta[a]);
    const double mb = std::abs(delta[b]);
    if (ma != mb) return ma > mb;
    return a < b;
  };
  if (order.size() > keep) {
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(keep),
                     order.end(), better);
    order.resize(keep);
  }
  std::sort(order.begin(), order.end());

  SparseDelta out;
  out.dense_numel = n;
  out.entries.reserve(order.size());
  for (std::uint32_t idx : order) out.entries.push_back({idx, delta[idx]});

  if (residual != nullptr) {
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_eligible(i)) continue;
      const bool shipped =
          next < order.size() && order[next] == static_cast<std::uint32_t>(i);
      if (shipped) {
        (*residual)[i] = 0.0;
        ++next;
      } else {
        (*residual)[i] = delta[i];
      }
    }
  }
  return out;
}

}  // namespace s2a::federated::oracle
