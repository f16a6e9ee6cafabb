// Row-addressed conv and deconv forwards: the one forward loop shared by
// the training layers (nn/conv2d.hpp) and the frozen conv stack
// (nn/frozen.hpp). Internal to src/nn.
//
// Both forwards compute a chosen set of output sites. An OutputRows
// lists column spans of (image, output row) units b * oh + oy in
// ascending unit order; the forward runs each span as one band, or a
// run of consecutive full rows of one image as one band, through
// band_gemm / gemm_packed_rows, sharded over the global pool. A band
// writes every channel of its sites and nothing else, so the sites not
// listed keep whatever y held. The default OutputRows is every full row
// of the batch, which is the layers' own forward. An output element's
// reduction chain does not depend on which band computes it, so a
// site's bits are the same whatever is listed with it (see
// nn/conv2d.cpp).
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

// Output sites to compute: `count` spans in ascending unit order, at
// most one per unit, or every full row of the [n, oh] grid when `spans`
// is null.
struct OutputRows {
  const RowSpan* spans = nullptr;
  std::size_t count = 0;
};

// A zero-padded input a caller keeps across forwards (nn::FrozenConv),
// in place of the one a forward builds in its arena. A forward whose
// batch size differs from `images` (the first one, say) builds it in
// full; a later one rewrites only the input rows `refresh` lists (units
// b * h + iy) and reads every other row as an earlier call left it. So
// the caller must list every row whose values may differ from what the
// buffer holds. Float forwards only.
struct PaddedCache {
  std::vector<double> buf;
  int images = 0;
  const std::int32_t* refresh = nullptr;
  std::size_t count = 0;
};

// y ([n, a.m, oh, ow]) = a stride-s convolution of x ([n, c, h, w],
// zero-padded by `pad`) by the k x k kernel behind `a`, each output
// starting from bias (nullptr: 0.0), on the sites `rows` lists. boff is
// the caller's tap-table storage; `padded`, if given, is the caller's
// padded input.
void conv_forward(const double* x, int n, int c, int h, int w, int k, int s,
                  int pad, const LoweredWeights& a, const double* bias,
                  std::vector<std::ptrdiff_t>& boff, double* y, int oh, int ow,
                  util::ScratchArena& arena, OutputRows rows = {},
                  PaddedCache* padded = nullptr);

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
// is phase ph's weights (a phase with no taps is pure bias).
void deconv_forward(const double* x, int n, int cin, int h, int w, int cout,
                    int k, int s, int pad, const DeconvPhases& phases,
                    const LoweredWeights* a, const double* bias,
                    std::vector<std::ptrdiff_t>& boff, double* y, int oh,
                    int ow, util::ScratchArena& arena, OutputRows rows = {},
                    PaddedCache* padded = nullptr);

}  // namespace s2a::nn::detail
