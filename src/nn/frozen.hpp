// Frozen inference snapshot of a trained Dense/Tanh MLP.
//
// A training Dense repacks its weight panel, allocates its output and
// copies its input for backward() on every forward. A caller that runs
// many batch-1 evaluations against weights nobody writes in between
// (likelihood regret's ~180 decoder evaluations per STARNet score)
// builds one Frozen instead: it copies each weight matrix and packs it
// once (pack_a), then evaluates one sample at a time with no allocation.
//
// The snapshot reproduces Dense::forward's arithmetic exactly — a
// zero-filled output tile, gemm_packed with n = 1, the bias added after
// the product, then std::tanh — so its output is bit-identical to
// Sequential::forward on the same weights (nn_test asserts ==).
//
// Lifetime is the caller's business and must stay short: the packed
// panels follow the gemm kernel active at construction (never switch
// S2A_SIMD between building a snapshot and evaluating it), and the copy
// does not see later writes to the source network's weights. The one
// user builds a fresh snapshot per call and drops it on return, so no
// packed value outlives the call that packed it (see nn/gemm.hpp).
#pragma once

#include <vector>

#include "nn/sequential.hpp"

namespace s2a::nn {

class Frozen {
 public:
  /// Snapshots `net`, which must hold only Dense and Tanh layers with
  /// no int8 snapshot (S2A_CHECK-fails otherwise).
  explicit Frozen(const Sequential& net);

  int in_features() const { return in_; }
  int out_features() const { return out_; }

  /// Evaluates one sample: `x` points at in_features() values. Returns
  /// out_features() values, valid until the next call.
  const double* forward(const double* x);

 private:
  struct Op {
    bool tanh = false;  // elementwise tanh in place; else a Dense stage
    int in = 0, out = 0;
    bool has_bias = false;
    std::vector<double> packed;  // pack_a of the [out, in] weight
    std::vector<double> bias;
  };

  int in_ = 0, out_ = 0;
  std::vector<Op> ops_;
  std::vector<double> buf_[2];  // ping-pong activations, widest layer
};

}  // namespace s2a::nn
