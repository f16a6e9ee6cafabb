// How a conv layer lowers to GEMMs, and the one forward loop that runs
// the lowering: shared by the training layers (nn/conv2d.hpp) and the
// frozen conv stack (nn/frozen.hpp). Internal to src/nn.
//
// A ConvLowering is shape only: which weight feeds which row of each
// GEMM's A matrix, and how its B rows sit in a zero-padded copy of the
// input. Conv2D and ConvTranspose2D each build one in their
// constructor; a conv is the one-phase case of the deconv's sub-pixel
// lowering. lowered_forward runs either, and ConvLowering::pack and
// ::quantize build the A side of every phase for it, float or int8.
//
// The forward computes a chosen set of output sites. An OutputRows
// lists column spans of (image, output row) units b * oh + oy in
// ascending (unit, x0) order, several disjoint ones per unit allowed.
// A run of consecutive full rows of one image is one band through
// band_gemm / gemm_packed_rows. Every other listed site joins one
// gathered GEMM per phase for the whole batch: each tap's values for
// those sites are copied, one contiguous span at a time, out of the
// padded input into one B panel, the panel's columns run through
// gemm_packed in NR-wide tiles sharded over the global pool, and the
// results scatter back to y. So a stage costs per listed site, not per
// listed row. A forward writes every channel of its sites and nothing
// else, so the sites not listed keep whatever y held. The default
// OutputRows is every full row of the batch, which is the layers' own
// forward. An output element's reduction chain does not depend on
// which band or panel column computes it, so a site's bits are the
// same whatever is listed with it (see nn/conv2d.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/quant.hpp"
#include "util/scratch_arena.hpp"

namespace s2a::nn::detail {

// The weight side of one lowered GEMM: m output rows over kdim taps,
// as a packed float panel, or as the int8 matrix of a deployed model
// (nn::FrozenConv::quantized, nn/frozen.hpp). A forward given int8
// weights codes each image of its padded input against one activation
// scale of that image of x.
struct LoweredWeights {
  int m = 0, kdim = 0;
  const double* packed = nullptr;
  const QuantizedMatrix* q = nullptr;
};

// Columns [x0, x1) of output row `unit` (b * oh + oy).
struct RowSpan {
  std::int32_t unit, x0, x1;
};

// Output sites to compute: `count` disjoint spans in ascending (unit,
// x0) order, or every full row of the [n, oh] grid when `spans` is
// null.
struct OutputRows {
  const RowSpan* spans = nullptr;
  std::size_t count = 0;
};

// A zero-padded input a caller keeps across forwards (nn::FrozenConv),
// in place of the one a forward builds in its arena. A forward whose
// batch size differs from `images` (the first one, say) builds it in
// full; a later one rewrites only the input sites `refresh` lists
// (spans of units b * h + iy, in any order, overlaps allowed) and reads
// every other site as an earlier call left it. So the caller must list
// every site whose values may differ from what the buffer holds. Float
// forwards only.
struct PaddedCache {
  std::vector<double> buf;
  int images = 0;
  const RowSpan* refresh = nullptr;
  std::size_t count = 0;
};

// One gathered span: `len` output sites whose tap-0 inputs start at
// `src` in the padded input and whose channel-0 outputs start at `dst`,
// `step` apart; `col` is its first column in its GEMM's B panel.
struct GatherRun {
  std::size_t src, col;
  double* dst;
  int len, step;
};

// One gathered GEMM: weights `a` over the tap table at boff[tap], and
// the runs [run0, run1), which fill `cols` columns of its B panel.
struct GatherGemm {
  LoweredWeights a;
  std::size_t tap, run0, run1, cols;
};

// An elementwise activation a forward applies in place to what it
// computes (nn::relu_inplace, nn::sigmoid_inplace), before it stores.
using Activation = void (*)(double*, std::size_t);

// What a forward plans into, kept by its caller so a steady caller
// allocates nothing: the tap tables, the full rows it runs as bands, and
// the gathered GEMMs with their runs.
struct ForwardScratch {
  std::vector<std::ptrdiff_t> boff;
  std::vector<std::int32_t> full;
  std::vector<GatherRun> runs;
  std::vector<GatherGemm> gemms;
};

// A conv layer's lowering. A GEMM phase computes the outputs of one
// sub-pixel grid: output rows first(py), first(py) + grid(), ... and
// likewise columns, for phase ph = py * grid() + px. Its A matrix is
// [cout, rows[ph].size()] with A(oc, r) = w[oc * row_stride +
// rows[ph][r]]; its B row r is tap r's input, read out of the padded
// input.
//  - A conv ([cout, cin, k, k] weights) is one phase over every output
//    site, with identity rows (ic, ky, kx). Its padded input is s*s
//    polyphase planes per channel, padded by `pad`, so a stride-s tap
//    is a stride-1 read of plane (ic, ky % s, kx % s).
//  - A deconv ([cin, cout, k, k] weights) has s*s phases over one input
//    plane per channel, padded by floor((k-1-pad)/s). Only the taps
//    with ky % s == (oy + pad) % s (and likewise for x) reach output
//    row oy, so phase (py, px) reads the dense tap list taps[py] x
//    taps[px] in (ic, jy, jx) order, taps[p] being the kernel offsets t
//    with t % s == p, descending: ascending list order is the direct
//    scatter's (ic, iy, ix) order. A phase with no taps (kernel shorter
//    than the stride) is pure bias.
// conv_lowering and deconv_lowering S2A_CHECK the kernel, stride and
// padding before they build any table.
struct ConvLowering {
  int cin = 0, cout = 0, k = 0, s = 1, pad = 0;
  bool transposed = false;
  std::size_t row_stride = 0;
  std::vector<std::vector<std::size_t>> rows;
  std::vector<std::vector<int>> taps;  // deconv only

  // Phases per axis, which is also the output step within a phase.
  int grid() const { return transposed ? s : 1; }
  // The first output row (or column) of phase p, and how many of
  // `extent` output rows it holds.
  int first(int p) const { return ((p - pad) % grid() + grid()) % grid(); }
  int count(int p, int extent) const {
    return first(p) < extent ? (extent - first(p) + grid() - 1) / grid() : 0;
  }
  int out_size(int in) const {
    return transposed ? (in - 1) * s - 2 * pad + k : (in + 2 * pad - k) / s + 1;
  }
  // Dense forward MACs of one h x w sample.
  std::size_t macs_for(int h, int w) const;

  // Doubles pack() writes: every phase's packed panel.
  std::size_t packed_size() const;
  // Packs every phase's A panel of weights `w`, back to back in `out`,
  // and points a[ph] at phase ph's (packed null for a phase with no
  // taps).
  void pack(const double* w, double* out, LoweredWeights* a) const;
  // Every phase's A matrix of weights `w` as int8 (quantize_rows).
  std::vector<QuantizedMatrix> quantize(const double* w) const;
};
ConvLowering conv_lowering(int cin, int cout, int k, int s, int pad);
ConvLowering deconv_lowering(int cin, int cout, int k, int s, int pad);

// y ([n, lw.cout, oh, ow], oh = lw.out_size(h), ow = lw.out_size(w)) =
// the layer lw lowers, on x ([n, lw.cin, h, w]), with a[ph] phase ph's
// weights (every phase int8, or none), each output starting from bias
// (nullptr: 0.0), on the sites `rows` lists; partial rows need float
// weights. `padded`, if given, is the caller's padded input; `act`, if
// given, is applied to every output. Returns the GEMM columns computed,
// NR padding included.
std::size_t lowered_forward(const ConvLowering& lw, const double* x, int n,
                            int h, int w, const LoweredWeights* a,
                            const double* bias, ForwardScratch& scratch,
                            double* y, util::ScratchArena& arena,
                            OutputRows rows = {},
                            PaddedCache* padded = nullptr,
                            Activation act = nullptr);

}  // namespace s2a::nn::detail
