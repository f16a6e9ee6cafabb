// Row-addressed conv and deconv forwards: the one forward loop shared by
// the training layers (nn/conv2d.hpp) and the frozen conv stack
// (nn/frozen.hpp). Internal to src/nn.
//
// Both forwards compute a chosen set of output sites. An OutputRows
// lists column spans of (image, output row) units b * oh + oy in
// ascending (unit, x0) order, several disjoint ones per unit allowed.
// A run of consecutive full rows of one image is one band through
// band_gemm / gemm_packed_rows. Every other listed site joins one
// gathered GEMM per conv (per phase of a deconv) for the whole batch:
// each tap's values for those sites are copied, one contiguous span at
// a time, out of the padded input into one B panel, the panel's columns
// run through gemm_packed in NR-wide tiles sharded over the global pool,
// and the results scatter back to y. So a stage costs per listed site,
// not per listed row. A forward writes every channel of its sites and
// nothing else, so the sites not listed keep whatever y held. The
// default OutputRows is every full row of the batch, which is the
// layers' own forward. An output element's reduction chain does not
// depend on which band or panel column computes it, so a site's bits
// are the same whatever is listed with it (see nn/conv2d.cpp).
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

// y ([n, a.m, oh, ow]) = a stride-s convolution of x ([n, c, h, w],
// zero-padded by `pad`) by the k x k kernel behind `a`, each output
// starting from bias (nullptr: 0.0), on the sites `rows` lists; partial
// rows need float weights. `padded`, if given, is the caller's padded
// input; `act`, if given, is applied to every output. Returns the GEMM
// columns computed, NR padding included.
std::size_t conv_forward(const double* x, int n, int c, int h, int w, int k,
                         int s, int pad, const LoweredWeights& a,
                         const double* bias, ForwardScratch& scratch,
                         double* y, int oh, int ow, util::ScratchArena& arena,
                         OutputRows rows = {}, PaddedCache* padded = nullptr,
                         Activation act = nullptr);

// A transposed convolution's shape-only sub-pixel phase tables.
// taps[p]: the kernel offsets t with t % s == p, descending.
// rows[py * s + px]: for each row r = (ic, jy, jx) of that phase's dense
// [cout, kdim] weight matrix, the offset in the [cin, cout, k, k] weight
// tensor of w[ic, 0, taps[py][jy], taps[px][jx]]; output channel oc
// adds oc*k*k. A phase's weight panel is
// pack_a_indexed(w, k*k, rows[ph], cout, rows[ph].size()); its int8
// matrix is quantize_rows of the same [cout, rows[ph].size()] gather.
struct DeconvPhases {
  std::vector<std::vector<int>> taps;
  std::vector<std::vector<std::size_t>> rows;
};
DeconvPhases deconv_phases(int cin, int cout, int k, int s);

// y ([n, cout, oh, ow]) = the stride-s transposed convolution of x
// ([n, cin, h, w]) with padding `pad`, on the sites `rows` lists. a[ph]
// is phase ph's weights (a phase with no taps is pure bias). Returns
// the GEMM columns computed, as conv_forward.
std::size_t deconv_forward(const double* x, int n, int cin, int h, int w,
                           int cout, int k, int s, int pad,
                           const DeconvPhases& phases, const LoweredWeights* a,
                           const double* bias, ForwardScratch& scratch,
                           double* y, int oh, int ow, util::ScratchArena& arena,
                           OutputRows rows = {}, PaddedCache* padded = nullptr,
                           Activation act = nullptr);

}  // namespace s2a::nn::detail
