#include "nn/frozen.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "util/check.hpp"

namespace s2a::nn {

Frozen::Frozen(const Sequential& net) {
  S2A_CHECK_MSG(net.size() > 0, "Frozen needs at least one layer");
  int width = -1;  // activation width flowing into the next layer
  std::size_t widest = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Layer& l = net.layer(i);
    S2A_CHECK_MSG(!l.is_quantized(), "Frozen of an int8-quantized layer");
    Op op;
    if (const auto* d = dynamic_cast<const Dense*>(&l)) {
      S2A_CHECK_MSG(width < 0 || width == d->in_features(),
                    "Frozen: layer " << i << " width mismatch");
      op.in = d->in_features();
      op.out = d->out_features();
      op.has_bias = d->has_bias();
      op.packed.resize(packed_a_size(op.out, op.in));
      pack_a(d->weight().data(), op.in, op.out, op.in, op.packed.data());
      if (op.has_bias)
        op.bias.assign(d->bias().data(), d->bias().data() + op.out);
      if (width < 0) in_ = op.in;
      width = op.out;
    } else {
      S2A_CHECK_MSG(dynamic_cast<const Tanh*>(&l) != nullptr,
                    "Frozen supports Dense and Tanh layers only");
      S2A_CHECK_MSG(width > 0, "Frozen: leading Tanh has no known width");
      op.tanh = true;
    }
    widest = std::max(widest, static_cast<std::size_t>(width));
    ops_.push_back(std::move(op));
  }
  out_ = width;
  buf_[0].resize(widest);
  buf_[1].resize(widest);
}

const double* Frozen::forward(const double* x) {
  const double* in = x;
  double* y = nullptr;  // the newest activation, always in buf_
  int width = in_;
  for (const Op& op : ops_) {
    if (op.tanh) {
      // The constructor rejects a leading Tanh, so y is a Dense output
      // and the tanh runs in place.
      for (int j = 0; j < width; ++j) y[j] = std::tanh(y[j]);
      continue;
    }
    y = buf_[y == buf_[0].data() ? 1 : 0].data();
    std::fill_n(y, op.out, 0.0);
    gemm_packed(op.out, 1, op.in, op.packed.data(), in, 1, y, 1);
    if (op.has_bias)
      for (int j = 0; j < op.out; ++j) y[j] += op.bias[static_cast<std::size_t>(j)];
    in = y;
    width = op.out;
  }
  return in;
}

}  // namespace s2a::nn
