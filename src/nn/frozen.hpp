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
// the product — then runs Tanh's own nn::tanh_inplace, so its output is
// bit-identical to Sequential::forward on the same weights (nn_test
// asserts ==).
//
// Lifetime is the caller's business and must stay short: the packed
// panels follow the gemm kernel active at construction (never switch
// S2A_SIMD between building a snapshot and evaluating it), and the copy
// does not see later writes to the source network's weights. The one
// user builds a fresh snapshot per call and drops it on return.
//
// FrozenConv is the same idea for a Conv2D/ConvTranspose2D stack, each
// conv optionally followed by a ReLU or Sigmoid, and optionally ending
// in a group of heads (Conv2Ds that all read the stack's output, run as
// one stage whose panel stacks their rows): active-site inference. It
// holds a bitwise copy of every weight and bias (its key), the packed A
// panels, the identity of the gemm kernel they were packed for, one
// sample of its keyed geometry as the reference input R (all zeros
// unless the caller gives one), and each stage's background: its output
// for R, border effects included. infer() plans from the input. The
// changed set is every input element whose bits differ from R's (so
// against the all-zero R a NaN, an inf and a -0.0 all count as
// changed), kept per (image, row) as the maximal runs of columns where
// some channel changed, found one image per pool task. Each stage
// dilates every changed span by its footprint, in rows and in columns,
// and takes the union per output row as its candidate sites (several
// spans per row: two far-apart voxels stay two spans). It recomputes
// only those through the layers' forward loop (nn/conv_rows.hpp), whose
// partial rows run as one gathered GEMM per stage (per deconv phase) for
// the whole batch, so a stage costs per candidate site, not per row. It
// takes every other site from the background and keeps as changed the
// runs of each candidate span whose bits differ from the background's.
// Each stage keeps its padded input across calls and rewrites only the
// spans that hold changed values now or held them at the last call
// (every other site already holds R's values). A stage other than the
// last also keeps its output buffer, which holds the background except
// on the spans that differed at its last run; those get the background
// back before the next run, and only a new batch size refills it. A
// dense input runs the same loop with every full row a candidate; an
// input equal to R copies the last background. gemm_columns() counts
// the work of the last call.
// The result is bit-identical to the layers' infer():
// an output outside the candidates reads only R's values and zero
// padding, through the same reduction chain as the background, so it
// is the background bit for bit (tests/active_site_test.cpp diffs the
// two). Stacking the heads' rows changes no element's chain either: the
// GEMM's chain per element does not depend on the panel it sits in
// (nn/gemm.hpp). As in the dense path across thread counts, the one
// thing the tiling decides is which NaN an add of two NaNs returns; NaN
// positions are exact.
//
// FrozenConv::quantized() builds the int8 form of the same snapshot:
// the deployed int8 model (nn/quant.hpp). It takes the same layer and
// head lists and the same bitwise copy of the weights, and its first
// infer() codes each stage with quantize_rows (one matrix per conv,
// one per deconv phase) in place of packing panels. It runs every
// stage on every site through the same band loop: an image's activation
// scale spans its whole layer input, so a change anywhere can move all
// of its outputs. It keeps no reference, background or padded input. It is
// a value: later writes to the layers' weights do not reach it.
//
// ActiveSiteStack decides per call whether a FrozenConv may serve. The
// key is checked against the live weights on every call, so the
// snapshot cannot go stale and the weight writers (optimizers, loads,
// federated updates, copies between models) need not know it exists.
// It also picks R, by one of two rules. Reference::kZero keeps the
// all-zero R, which is right for a stack fed sensed occupancy (most of
// it is empty). Reference::kRepeated adopts as R a batch-1 input that
// two consecutive calls on the same weights saw bit for bit; that suits
// a stack whose input is some other stage's output (the detector reads
// a reconstruction, whose empty-scene value is far from zero but recurs
// whenever nothing is sensed). Both need only the calls themselves: no
// threshold and no setting. ActiveSiteStack::quantize() replaces all of
// that with an int8 snapshot of the weights it sees, which then serves
// every call.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/conv_rows.hpp"
#include "nn/sequential.hpp"
#include "util/scratch_arena.hpp"

namespace s2a::nn {

class Frozen {
 public:
  /// Snapshots `net`, which must hold only Dense and Tanh layers
  /// (S2A_CHECK-fails otherwise).
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

class FrozenConv {
 public:
  /// Keys a snapshot of `layers` (borrowed; they must outlive it), then
  /// `heads`, for inputs whose sample shape is `sample` ([C, H, W], or a
  /// full [N, C, H, W] whose N is ignored). Each Conv2D or
  /// ConvTranspose2D may be followed by one ReLU or Sigmoid; any other
  /// layer or a leading activation fails S2A_CHECK. The heads are
  /// Conv2Ds of one geometry that all read the output of `layers`; the
  /// snapshot's output stacks theirs along channels, in order.
  /// `reference` is one sample of the keyed shape, R (null: all zeros).
  /// Copies only the key and R: the first infer() packs the panels and
  /// computes the backgrounds.
  FrozenConv(const std::vector<Layer*>& layers, const std::vector<int>& sample,
             const std::vector<Layer*>& heads = {},
             const double* reference = nullptr);
  ~FrozenConv();

  /// The int8 form of the snapshot (see above) of `layers` and `heads`,
  /// taken from their weights as they are now, for inputs of sample
  /// shape `sample`.
  static std::unique_ptr<FrozenConv> quantized(
      const std::vector<Layer*>& layers, const std::vector<int>& sample,
      const std::vector<Layer*>& heads = {});
  bool int8() const { return int8_; }

  /// True when this snapshot may serve x: x has the keyed sample shape,
  /// the active gemm kernel is the keyed one, and every live weight and
  /// bias memcmp-equals the key.
  bool matches(const Tensor& x) const;

  /// True when x is one sample whose bits equal R's.
  bool is_reference(const Tensor& x) const;
  /// Makes x (one sample of the keyed shape) the reference; the next
  /// infer() recomputes the backgrounds.
  void set_reference(const Tensor& x);

  /// The stack's output for x ([N, C, H, W] of the keyed sample shape),
  /// bit-identical to running each layer's infer() on the keyed
  /// weights (and each head's on the last layer's output, stacked). The
  /// int8 form's output is the int8 forward of those weights.
  Tensor infer(const Tensor& x);

  /// The GEMM columns the last infer() computed over all its stages,
  /// the tiles' NR padding included: a count of its work that depends
  /// only on the input, the snapshot and the active kernel's NR (and,
  /// for runs of full rows, on where the pool's chunks split them).
  std::size_t gemm_columns() const { return gemm_columns_; }

 private:
  struct Stage;
  void prepare();
  // Lists image b's changed sites of x in scans_[b].
  void scan_image(const double* x, std::size_t b);
  // n copies of the last stage's background.
  Tensor backgrounds(int n) const;
  // Runs stage st over n images of x into y on the listed sites (conv
  // or deconv, then the activation on those sites), reading the padded
  // input from `padded` when given.
  void run(const Stage& st, const double* x, int n, double* y,
           detail::OutputRows rows, detail::PaddedCache* padded);

  const char* kernel_;
  int c_ = 0, h_ = 0, w_ = 0;  // keyed sample shape
  std::vector<Stage> stages_;
  bool int8_ = false;  // quantized(): int8 matrices, every site computed
  bool packed_ = false, prepared_ = false;
  // R, one [c_, h_, w_] sample; empty for all zeros, when zero_row_
  // (w_ zeros) stands in for each of its rows.
  std::vector<double> reference_, zero_row_;
  // Per-call plan: the current changed sites and the candidates, as
  // disjoint column spans in ascending (unit, x0) order. scans_ holds
  // each image's changed input spans and scan_flags_ its per-column
  // flags; mask_ marks a stage's candidate columns per output unit and
  // marked_ the units it touched, both all zero between calls.
  std::vector<detail::RowSpan> changed_, candidates_, refresh_;
  std::vector<std::vector<detail::RowSpan>> scans_;
  std::vector<std::uint8_t> scan_flags_, mask_, marked_;
  detail::ForwardScratch scratch_;
  util::ScratchArena arena_;
  std::size_t gemm_columns_ = 0;
};

/// Which input a stack's backgrounds are computed for (see above).
enum class Reference { kZero, kRepeated };

/// A borrowed conv stack (with optional stacked heads, as FrozenConv)
/// that runs through a FrozenConv when one matches the live weights and
/// its reference is adopted, and through each layer's infer()
/// otherwise; after quantize(), through its int8 snapshot. A call that
/// misses re-keys the snapshot to the weights it saw. With
/// Reference::kZero the snapshot serves from the second consecutive
/// call that sees the same weights: a caller that trains between calls
/// pays the dense forward plus the key check. With
/// Reference::kRepeated each dense batch-1 call also makes its input
/// the candidate R, and the snapshot serves from the call that repeats
/// the candidate on the same weights, for as long as they stay; a
/// caller whose inputs never repeat stays dense.
class ActiveSiteStack {
 public:
  explicit ActiveSiteStack(std::vector<Layer*> layers,
                           std::vector<Layer*> heads = {},
                           Reference reference = Reference::kZero);
  ActiveSiteStack(ActiveSiteStack&&) noexcept;
  ActiveSiteStack& operator=(ActiveSiteStack&&) noexcept;
  ~ActiveSiteStack();

  Tensor infer(const Tensor& x);
  /// True when the next call, on unchanged weights, kernel and sample
  /// shape, runs through the snapshot whatever its input.
  bool serving() const { return snap_ != nullptr && adopted_; }

  /// Freezes the stack's weights as they are now into an int8 snapshot
  /// (FrozenConv::quantized) for inputs of sample shape `sample`; every
  /// later call runs it, whatever the weights do. Calling it again
  /// re-freezes.
  void quantize(const std::vector<int>& sample);
  bool is_quantized() const { return snap_ != nullptr && snap_->int8(); }

 private:
  Tensor dense(const Tensor& x);

  std::vector<Layer*> layers_, heads_;
  Reference reference_;
  std::unique_ptr<FrozenConv> snap_;
  bool adopted_ = false;  // snap_ may serve (its R is adopted)
};

}  // namespace s2a::nn
