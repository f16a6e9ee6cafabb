#include "nn/frozen.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::nn {

Frozen::Frozen(const Sequential& net) {
  S2A_CHECK_MSG(net.size() > 0, "Frozen needs at least one layer");
  int width = -1;  // activation width flowing into the next layer
  std::size_t widest = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Layer& l = net.layer(i);
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
      tanh_inplace(y, static_cast<std::size_t>(width));
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

// ---- FrozenConv ----

namespace {

enum class Act { kNone, kRelu, kSigmoid };

// live's bits equal the first live.numel() of the `left` key values.
bool same_bits(const Tensor& live, const double* key, std::size_t left) {
  return live.numel() <= left &&
         std::memcmp(live.data(), key, live.numel() * sizeof(double)) == 0;
}

// floor(a / b) for b > 0.
int floor_div(int a, int b) { return a >= 0 ? a / b : -((-a + b - 1) / b); }

}  // namespace

struct FrozenConv::Stage {
  // The live layers the stage runs, for the key check: one conv, or the
  // heads, whose rows the stage stacks.
  struct Part {
    const Layer* layer;
    const Tensor* w;
    const Tensor* b;
  };
  std::vector<Part> parts;
  bool transposed = false;
  int cin = 0, cout = 0, k = 0, s = 0, pad = 0;
  int h = 0, w = 0, oh = 0, ow = 0;  // one sample's input and output
  Act act = Act::kNone;
  std::vector<double> wkey, bkey;  // the key: bitwise copies, parts in order
  detail::DeconvPhases phases;     // deconv only
  std::vector<double> packed;      // every phase's panel, back to back
  std::vector<QuantizedMatrix> q;  // int8 form: one per phase (or conv)
  std::vector<detail::LoweredWeights> a;  // one per phase (one for a conv)
  std::vector<double> background;  // [cout, oh, ow] for the reference input
  // The stage's padded input, kept across calls, and the input spans
  // that held non-background values at the last call that reached this
  // stage.
  detail::PaddedCache padded;
  std::vector<detail::RowSpan> dirty;
  // A stage other than the last writes into `out`, kept across calls
  // for out_images images; it holds the background except on out_spans,
  // the output spans that differed at the stage's last run.
  std::vector<double> out;
  int out_images = 0;
  std::vector<detail::RowSpan> out_spans;

  // The output rows [reach_lo(i), reach_hi(i)] input row i reaches,
  // before clamping; the same for columns.
  int reach_lo(int i) const {
    return transposed ? i * s - pad : floor_div(i + pad - k + 1 + s - 1, s);
  }
  int reach_hi(int i) const {
    return transposed ? i * s - pad + k - 1 : floor_div(i + pad, s);
  }

  void add_part(const Layer* l, const Tensor& lw, const Tensor& lb) {
    parts.push_back({l, &lw, &lb});
    wkey.insert(wkey.end(), lw.data(), lw.data() + lw.numel());
    bkey.insert(bkey.end(), lb.data(), lb.data() + lb.numel());
  }
};

FrozenConv::FrozenConv(const std::vector<Layer*>& layers,
                       const std::vector<int>& sample,
                       const std::vector<Layer*>& heads,
                       const double* reference)
    : kernel_(gemm_kernel_name()) {
  S2A_CHECK_MSG(sample.size() == 3 || sample.size() == 4,
                "FrozenConv: sample shape must be [C,H,W] or [N,C,H,W]");
  const std::size_t off = sample.size() - 3;
  c_ = sample[off];
  h_ = sample[off + 1];
  w_ = sample[off + 2];
  int c = c_, h = h_, w = w_;
  const auto check_shape = [&c](const Stage& st, std::size_t i) {
    S2A_CHECK_MSG(st.cin == c, "FrozenConv: layer " << i << " expects "
                                                    << st.cin << " channels");
    S2A_CHECK_MSG(st.oh > 0 && st.ow > 0, "FrozenConv: layer "
                                              << i << " output collapsed");
  };
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Layer* l = layers[i];
    const bool relu = dynamic_cast<const ReLU*>(l) != nullptr;
    if (relu || dynamic_cast<const Sigmoid*>(l) != nullptr) {
      S2A_CHECK_MSG(!stages_.empty() && stages_.back().act == Act::kNone,
                    "FrozenConv: layer " << i
                                         << " is an activation without a conv");
      stages_.back().act = relu ? Act::kRelu : Act::kSigmoid;
      continue;
    }
    Stage st;
    if (const auto* cv = dynamic_cast<const Conv2D*>(l)) {
      st.cin = cv->in_channels();
      st.cout = cv->out_channels();
      st.k = cv->kernel();
      st.s = cv->stride();
      st.pad = cv->padding();
      st.oh = cv->out_size(h);
      st.ow = cv->out_size(w);
      st.add_part(l, cv->weight(), cv->bias());
    } else {
      const auto* dc = dynamic_cast<const ConvTranspose2D*>(l);
      S2A_CHECK_MSG(dc != nullptr, "FrozenConv supports Conv2D, "
                                   "ConvTranspose2D, ReLU and Sigmoid only");
      st.transposed = true;
      st.cin = dc->in_channels();
      st.cout = dc->out_channels();
      st.k = dc->kernel();
      st.s = dc->stride();
      st.pad = dc->padding();
      st.oh = dc->out_size(h);
      st.ow = dc->out_size(w);
      st.add_part(l, dc->weight(), dc->bias());
      st.phases = dc->phases();
    }
    check_shape(st, i);
    st.h = h;
    st.w = w;
    c = st.cout;
    h = st.oh;
    w = st.ow;
    stages_.push_back(std::move(st));
  }
  if (!heads.empty()) {
    // One stage whose [sum cout, cin * k * k] weight stacks the heads'.
    Stage st;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      const Layer* l = heads[i];
      const auto* cv = dynamic_cast<const Conv2D*>(l);
      S2A_CHECK_MSG(cv != nullptr, "FrozenConv: heads must be Conv2D");
      S2A_CHECK_MSG(i == 0 || (cv->in_channels() == st.cin &&
                               cv->kernel() == st.k &&
                               cv->stride() == st.s &&
                               cv->padding() == st.pad),
                    "FrozenConv: head " << i << " differs in geometry");
      st.cin = cv->in_channels();
      st.cout += cv->out_channels();
      st.k = cv->kernel();
      st.s = cv->stride();
      st.pad = cv->padding();
      st.oh = cv->out_size(h);
      st.ow = cv->out_size(w);
      st.add_part(l, cv->weight(), cv->bias());
    }
    check_shape(st, layers.size());
    st.h = h;
    st.w = w;
    stages_.push_back(std::move(st));
  }
  S2A_CHECK_MSG(!stages_.empty(), "FrozenConv needs at least one conv");
  if (reference != nullptr)
    reference_.assign(reference,
                      reference + static_cast<std::size_t>(c_) * h_ * w_);
  else
    zero_row_.assign(static_cast<std::size_t>(w_), 0.0);
}

FrozenConv::~FrozenConv() = default;

std::unique_ptr<FrozenConv> FrozenConv::quantized(
    const std::vector<Layer*>& layers, const std::vector<int>& sample,
    const std::vector<Layer*>& heads) {
  auto snap = std::make_unique<FrozenConv>(layers, sample, heads);
  snap->int8_ = true;
  return snap;
}

bool FrozenConv::matches(const Tensor& x) const {
  if (gemm_kernel_name() != kernel_) return false;
  const auto& sh = x.shape();
  if (sh.size() != 4 || sh[1] != c_ || sh[2] != h_ || sh[3] != w_) return false;
  for (const Stage& st : stages_) {
    std::size_t wo = 0, bo = 0;
    for (const Stage::Part& p : st.parts) {
      if (!same_bits(*p.w, st.wkey.data() + wo, st.wkey.size() - wo) ||
          !same_bits(*p.b, st.bkey.data() + bo, st.bkey.size() - bo))
        return false;
      wo += p.w->numel();
      bo += p.b->numel();
    }
    if (wo != st.wkey.size() || bo != st.bkey.size()) return false;
  }
  return true;
}

bool FrozenConv::is_reference(const Tensor& x) const {
  const std::size_t image = static_cast<std::size_t>(c_) * h_ * w_;
  if (x.shape().size() != 4 || x.dim(0) != 1 || x.numel() != image)
    return false;
  if (!reference_.empty())
    return std::memcmp(x.data(), reference_.data(), image * sizeof(double)) == 0;
  return std::all_of(x.data(), x.data() + image, [](double v) {
    return std::bit_cast<std::uint64_t>(v) == 0;
  });
}

void FrozenConv::set_reference(const Tensor& x) {
  S2A_CHECK_MSG(x.shape().size() == 4 && x.dim(0) == 1 && x.dim(1) == c_ &&
                    x.dim(2) == h_ && x.dim(3) == w_,
                "FrozenConv: a reference is one [1," << c_ << "," << h_ << ","
                                                     << w_ << "] sample");
  reference_.assign(x.data(), x.data() + x.numel());
  zero_row_.clear();
  // The backgrounds, every kept padded input and every kept output
  // belong to the old R.
  prepared_ = false;
  for (Stage& st : stages_) {
    st.padded.images = 0;
    st.dirty.clear();
    st.out_images = 0;
    st.out_spans.clear();
  }
}

void FrozenConv::prepare() {
  for (Stage& st : stages_) {
    if (packed_) break;  // the panels outlive a change of reference
    const std::size_t kk2 = static_cast<std::size_t>(st.k) * st.k;
    if (int8_) {
      // One int8 matrix per conv ([cout, cin*k*k], the heads' rows
      // stacked) or per deconv phase, gathered through the phase's row
      // table into the [cout, kdim] matrix the float forward packs.
      if (!st.transposed) {
        const int kdim = st.cin * st.k * st.k;
        st.q.push_back(quantize_rows(st.wkey.data(), kdim, st.cout, kdim));
      }
      std::vector<double> wph;
      for (const auto& rows : st.phases.rows) {
        const std::size_t kd = rows.size();
        wph.resize(static_cast<std::size_t>(st.cout) * kd);
        for (int oc = 0; oc < st.cout; ++oc)
          for (std::size_t r = 0; r < kd; ++r)
            wph[static_cast<std::size_t>(oc) * kd + r] =
                st.wkey[rows[r] + static_cast<std::size_t>(oc) * kk2];
        st.q.push_back(quantize_rows(wph.data(), static_cast<int>(kd),
                                     st.cout, static_cast<int>(kd)));
      }
      for (const QuantizedMatrix& q : st.q)
        st.a.push_back({st.cout, q.cols, nullptr, &q});
    } else if (st.transposed) {
      // One panel per sub-pixel phase, packed through the phase's row
      // table exactly as ConvTranspose2D's forward packs them.
      std::size_t total = 0;
      for (const auto& rows : st.phases.rows)
        total += packed_a_size(st.cout, static_cast<int>(rows.size()));
      st.packed.resize(total);
      double* p = st.packed.data();
      for (const auto& rows : st.phases.rows) {
        const int kdim = static_cast<int>(rows.size());
        st.a.push_back({st.cout, kdim, kdim > 0 ? p : nullptr, nullptr});
        if (kdim == 0) continue;
        pack_a_indexed(st.wkey.data(), kk2, rows.data(), st.cout, kdim, p);
        p += packed_a_size(st.cout, kdim);
      }
    } else {
      const int kdim = st.cin * st.k * st.k;
      st.packed.resize(packed_a_size(st.cout, kdim));
      pack_a(st.wkey.data(), kdim, st.cout, kdim, st.packed.data());
      st.a.push_back({st.cout, kdim, st.packed.data(), nullptr});
    }
  }
  packed_ = true;
  if (int8_) {  // the int8 form keeps no backgrounds
    prepared_ = true;
    return;
  }
  // Backgrounds: the stack on one reference sample, every row computed.
  std::vector<double> zero;
  if (reference_.empty())
    zero.assign(static_cast<std::size_t>(c_) * h_ * w_, 0.0);
  const double* x = reference_.empty() ? zero.data() : reference_.data();
  for (Stage& st : stages_) {
    st.background.resize(static_cast<std::size_t>(st.cout) * st.oh * st.ow);
    run(st, x, 1, st.background.data(), {}, nullptr);
    x = st.background.data();
  }
  prepared_ = true;
}
void FrozenConv::run(const Stage& st, const double* x, int n, double* y,
                     detail::OutputRows rows, detail::PaddedCache* padded) {
  arena_.reset();
  const detail::Activation act = st.act == Act::kRelu      ? relu_inplace
                                 : st.act == Act::kSigmoid ? sigmoid_inplace
                                                           : nullptr;
  if (st.transposed)
    gemm_columns_ += detail::deconv_forward(
        x, n, st.cin, st.h, st.w, st.cout, st.k, st.s, st.pad, st.phases,
        st.a.data(), st.bkey.data(), scratch_, y, st.oh, st.ow, arena_, rows,
        padded, act);
  else
    gemm_columns_ += detail::conv_forward(
        x, n, st.cin, st.h, st.w, st.k, st.s, st.pad, st.a.front(),
        st.bkey.data(), scratch_, y, st.oh, st.ow, arena_, rows, padded, act);
}

namespace {

// Appends to `out` the maximal runs of non-zero flags in [x0, x1) of
// `flags` as spans of `unit`.
void append_runs(const std::uint8_t* flags, int x0, int x1, std::int32_t unit,
                 std::vector<detail::RowSpan>& out) {
  for (int j = x0; j < x1;) {
    if (flags[j] == 0) {
      ++j;
      continue;
    }
    const int lo = j;
    while (j < x1 && flags[j] != 0) ++j;
    out.push_back({unit, lo, j});
  }
}

}  // namespace

void FrozenConv::scan_image(const double* x, std::size_t b) {
  // Per row: flag every column where some channel's bits differ from
  // R's, then keep the flagged runs.
  std::vector<detail::RowSpan>& out = scans_[b];
  out.clear();
  std::uint8_t* flags = scan_flags_.data() + b * static_cast<std::size_t>(w_);
  const std::size_t in_hw = static_cast<std::size_t>(h_) * w_;
  for (int iy = 0; iy < h_; ++iy) {
    bool any = false;
    for (int ic = 0; ic < c_; ++ic) {
      const std::size_t at =
          static_cast<std::size_t>(ic) * in_hw + static_cast<std::size_t>(iy) * w_;
      const double* row = x + b * c_ * in_hw + at;
      const double* ref =
          reference_.empty() ? zero_row_.data() : reference_.data() + at;
      const auto diff = [row, ref](int j) {
        return std::bit_cast<std::uint64_t>(row[j]) ^
               std::bit_cast<std::uint64_t>(ref[j]);
      };
      // Blocks of 8 give the compiler a fixed trip count to vectorize.
      std::uint64_t row_diff = 0;
      int j = 0;
      for (; j + 8 <= w_; j += 8)
        for (int k = 0; k < 8; ++k) row_diff |= diff(j + k);
      for (; j < w_; ++j) row_diff |= diff(j);
      if (row_diff == 0) continue;
      if (!any) std::fill_n(flags, w_, std::uint8_t{0});
      any = true;
      for (j = 0; j < w_; ++j) flags[j] |= diff(j) != 0;
    }
    if (any)
      append_runs(flags, 0, w_, static_cast<std::int32_t>(b) * h_ + iy, out);
  }
}

Tensor FrozenConv::backgrounds(int n) const {
  const Stage& st = stages_.back();
  std::vector<double> y;
  y.reserve(static_cast<std::size_t>(n) * st.background.size());
  for (int b = 0; b < n; ++b)
    y.insert(y.end(), st.background.begin(), st.background.end());
  return Tensor({n, st.cout, st.oh, st.ow}, std::move(y));
}

Tensor FrozenConv::infer(const Tensor& x) {
  S2A_CHECK_MSG(x.shape().size() == 4 && x.dim(1) == c_ && x.dim(2) == h_ &&
                    x.dim(3) == w_,
                "FrozenConv: input is not [N," << c_ << "," << h_ << "," << w_
                                               << "]");
  gemm_columns_ = 0;
  if (!prepared_) prepare();
  const int n = x.dim(0);
  if (int8_) {
    // Every stage on every site: each layer's int8 forward.
    Tensor cur;
    const double* in = x.data();
    for (const Stage& st : stages_) {
      Tensor y({n, st.cout, st.oh, st.ow});
      run(st, in, n, y.data(), {}, nullptr);
      cur = std::move(y);
      in = cur.data();
    }
    return cur;
  }

  // The input's changed sites: the runs of columns where some channel's
  // bits differ from R's, per (image, row), one image per pool task.
  if (scans_.size() < static_cast<std::size_t>(n)) scans_.resize(n);
  scan_flags_.resize(static_cast<std::size_t>(n) * w_);
  const double* xd = x.data();
  util::global_pool().parallel_for(
      0, static_cast<std::size_t>(n), 1,
      [this, xd](std::size_t b) { scan_image(xd, b); });
  changed_.clear();
  for (int b = 0; b < n; ++b)
    changed_.insert(changed_.end(), scans_[b].begin(), scans_[b].end());
  // Nothing changed: every output is its background.
  if (changed_.empty()) return backgrounds(n);

  const double* in = x.data();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& st = stages_[i];
    const std::size_t image = st.background.size();
    const std::size_t plane = static_cast<std::size_t>(st.oh) * st.ow;
    const std::size_t units = static_cast<std::size_t>(n) * st.oh;

    // Candidates: the union, per output row, of the changed spans
    // dilated by the stage's footprint, marked on a per-row mask that is
    // all zero between calls.
    if (mask_.size() < units * st.ow) mask_.assign(units * st.ow, 0);
    if (marked_.size() < units) marked_.assign(units, 0);
    for (const detail::RowSpan& c : changed_) {
      const int b = c.unit / st.h, iy = c.unit % st.h;
      const int x0 = std::max(0, st.reach_lo(c.x0));
      const int x1 = std::min(st.ow, st.reach_hi(c.x1 - 1) + 1);
      if (x0 >= x1) continue;
      const int oy1 = std::min(st.oh - 1, st.reach_hi(iy));
      for (int oy = std::max(0, st.reach_lo(iy)); oy <= oy1; ++oy) {
        const std::size_t u = static_cast<std::size_t>(b) * st.oh + oy;
        marked_[u] = 1;
        std::fill(mask_.begin() + static_cast<std::ptrdiff_t>(u * st.ow + x0),
                  mask_.begin() + static_cast<std::ptrdiff_t>(u * st.ow + x1),
                  std::uint8_t{1});
      }
    }
    candidates_.clear();
    for (std::size_t u = 0; u < units; ++u) {
      if (marked_[u] == 0) continue;
      marked_[u] = 0;
      std::uint8_t* row = mask_.data() + u * st.ow;
      append_runs(row, 0, st.ow, static_cast<std::int32_t>(u), candidates_);
      std::fill_n(row, st.ow, std::uint8_t{0});
    }
    // The padded input is rewritten on the spans that changed now or at
    // the last call; every other site already holds the background.
    refresh_.assign(st.dirty.begin(), st.dirty.end());
    refresh_.insert(refresh_.end(), changed_.begin(), changed_.end());
    st.dirty = changed_;
    st.padded.refresh = refresh_.data();
    st.padded.count = refresh_.size();

    // The output: the last stage's is a new tensor of backgrounds; any
    // other stage's is its kept buffer, whose spans that differed at
    // its last run get their background back (all of it on a new batch
    // size).
    const bool last = i + 1 == stages_.size();
    Tensor result;
    double* y = nullptr;
    if (last) {
      result = backgrounds(n);
      y = result.data();
    } else if (st.out_images != n) {
      st.out.resize(static_cast<std::size_t>(n) * image);
      for (int b = 0; b < n; ++b)
        std::copy(st.background.begin(), st.background.end(),
                  st.out.begin() + static_cast<std::ptrdiff_t>(b * image));
      st.out_images = n;
      y = st.out.data();
    } else {
      y = st.out.data();
      for (const detail::RowSpan& sp : st.out_spans) {
        const std::size_t b = static_cast<std::size_t>(sp.unit / st.oh);
        const std::size_t oy = static_cast<std::size_t>(sp.unit % st.oh);
        for (int oc = 0; oc < st.cout; ++oc) {
          const std::size_t at =
              static_cast<std::size_t>(oc) * plane + oy * st.ow + sp.x0;
          std::copy_n(st.background.data() + at, sp.x1 - sp.x0,
                      y + b * image + at);
        }
      }
    }
    run(st, in, n, y, {candidates_.data(), candidates_.size()}, &st.padded);
    if (last) return result;

    // Changed: the runs of each candidate span where some channel's bits
    // differ from the background's.
    changed_.clear();
    if (scan_flags_.size() < static_cast<std::size_t>(st.ow))
      scan_flags_.resize(static_cast<std::size_t>(st.ow));
    std::uint8_t* flags = scan_flags_.data();
    for (const detail::RowSpan& c : candidates_) {
      const std::size_t b = static_cast<std::size_t>(c.unit / st.oh);
      const std::size_t oy = static_cast<std::size_t>(c.unit % st.oh);
      std::fill(flags + c.x0, flags + c.x1, std::uint8_t{0});
      for (int oc = 0; oc < st.cout; ++oc) {
        const std::size_t at = static_cast<std::size_t>(oc) * plane + oy * st.ow;
        const double* got = y + b * image + at;
        const double* bg = st.background.data() + at;
        for (int j = c.x0; j < c.x1; ++j)
          flags[j] |= std::bit_cast<std::uint64_t>(got[j]) !=
                      std::bit_cast<std::uint64_t>(bg[j]);
      }
      append_runs(flags, c.x0, c.x1, c.unit, changed_);
    }
    st.out_spans = changed_;
    // Nothing changed past this stage: every later output is its
    // background.
    if (changed_.empty()) return backgrounds(n);
    in = y;
  }
  return {};  // unreachable: the last stage returns
}

// ---- ActiveSiteStack ----

ActiveSiteStack::ActiveSiteStack(std::vector<Layer*> layers,
                                 std::vector<Layer*> heads, Reference reference)
    : layers_(std::move(layers)), heads_(std::move(heads)),
      reference_(reference) {}

ActiveSiteStack::ActiveSiteStack(ActiveSiteStack&&) noexcept = default;
ActiveSiteStack& ActiveSiteStack::operator=(ActiveSiteStack&&) noexcept =
    default;
ActiveSiteStack::~ActiveSiteStack() = default;

void ActiveSiteStack::quantize(const std::vector<int>& sample) {
  snap_ = FrozenConv::quantized(layers_, sample, heads_);
  adopted_ = true;
}

Tensor ActiveSiteStack::infer(const Tensor& x) {
  if (is_quantized()) return snap_->infer(x);
  const bool batch1 = x.shape().size() == 4 && x.dim(0) == 1;
  if (snap_ != nullptr && snap_->matches(x)) {
    if (adopted_ || snap_->is_reference(x)) {
      adopted_ = true;
      return snap_->infer(x);
    }
    // Same weights, another input: it is the candidate R now.
    if (batch1)
      snap_->set_reference(x);
    else
      snap_.reset();
    return dense(x);
  }
  // Key a snapshot to the weights this call saw (and, for kRepeated, to
  // its input as the candidate R): the next call builds it if neither
  // has moved.
  snap_.reset();
  const bool zero = reference_ == Reference::kZero;
  if (x.shape().size() == 4 && (zero || batch1)) {
    snap_ = std::make_unique<FrozenConv>(layers_, x.shape(), heads_,
                                         zero ? nullptr : x.data());
    adopted_ = zero;
  }
  return dense(x);
}

Tensor ActiveSiteStack::dense(const Tensor& x) {
  Tensor y = x;
  for (Layer* l : layers_) y = l->infer(std::move(y));
  if (heads_.empty()) return y;
  // Each head on the stack's output, stacked along channels per image.
  std::vector<Tensor> outs;
  for (std::size_t i = 0; i < heads_.size(); ++i)
    outs.push_back(i + 1 < heads_.size() ? heads_[i]->infer(y)
                                          : heads_[i]->infer(std::move(y)));
  const int n = outs.front().dim(0), oh = outs.front().dim(2),
            ow = outs.front().dim(3);
  int channels = 0;
  for (const Tensor& o : outs) channels += o.dim(1);
  Tensor out({n, channels, oh, ow});
  double* dst = out.data();
  for (int b = 0; b < n; ++b)
    for (const Tensor& o : outs) {
      const std::size_t image = o.numel() / static_cast<std::size_t>(n);
      dst = std::copy_n(o.data() + static_cast<std::size_t>(b) * image, image, dst);
    }
  return out;
}

}  // namespace s2a::nn
