// Oracle tests for active-site inference (nn/frozen.hpp): a FrozenConv
// recomputes only the output sites the input elements that differ from
// its reference input R reach, and takes every other site from R's
// output (R is all zeros unless given). Its result must be
// bit-identical (memcmp, no tolerance) to running each layer's infer()
// on the same weights, for every stride, padding, reference and input,
// at 1 and 4 pool threads. The invalidation tests write the weights in
// every way the library does and check that the next call sees them;
// the detector tests diff detect() against a dense decode kept here.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lidar/autoencoder.hpp"
#include "lidar/batched.hpp"
#include "lidar/detector.hpp"
#include "lidar/masking.hpp"
#include "lidar/voxel_grid.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/frozen.hpp"
#include "nn/gemm.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn_oracle.hpp"
#include "sim/lidar_sim.hpp"
#include "sim/scene.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace s2a {
namespace {

// Every element bit for bit, except that a NaN only has to meet a NaN:
// IEEE 754 leaves which NaN an add of two NaNs returns to the hardware
// and operand order, and the scalar GEMM kernel's full, edge and
// one-column tiles order that add differently, so the sign of such a
// NaN follows the tiling (the dense path alone differs there between 1
// and 4 threads). NaN positions, infinities and signed zeros must
// match exactly.
::testing::AssertionResult same_bits(const nn::Tensor& got,
                                     const nn::Tensor& want) {
  if (got.shape() != want.shape())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (std::size_t i = 0; i < got.numel(); ++i)
    if (std::bit_cast<std::uint64_t>(got[i]) !=
            std::bit_cast<std::uint64_t>(want[i]) &&
        !(std::isnan(got[i]) && std::isnan(want[i])))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
  return ::testing::AssertionSuccess();
}

enum class Act { kNone, kRelu, kSigmoid };

struct StageSpec {
  bool transposed;
  int cout, k, s, pad;
  Act act;
};

struct StackSpec {
  std::string name;
  std::vector<StageSpec> stages;
  int c, h, w;  // input sample shape
};

nn::Sequential build(const StackSpec& spec, Rng& rng) {
  nn::Sequential net;
  int c = spec.c;
  for (const StageSpec& st : spec.stages) {
    if (st.transposed)
      net.emplace<nn::ConvTranspose2D>(c, st.cout, st.k, st.s, st.pad, rng);
    else
      net.emplace<nn::Conv2D>(c, st.cout, st.k, st.s, st.pad, rng);
    // Non-zero biases, so the background is not just zeros.
    nn::Tensor& b = *net.layer(net.size() - 1).params()[1];
    for (std::size_t i = 0; i < b.numel(); ++i) b[i] = rng.normal(0.0, 0.3);
    if (st.act == Act::kRelu) net.emplace<nn::ReLU>();
    if (st.act == Act::kSigmoid) net.emplace<nn::Sigmoid>();
    c = st.cout;
  }
  return net;
}

std::vector<nn::Layer*> layers_of(nn::Sequential& net) {
  std::vector<nn::Layer*> out;
  for (std::size_t i = 0; i < net.size(); ++i) out.push_back(&net.layer(i));
  return out;
}

// Every shape the tests sweep: strides 1-4, padding 0 to k-1, kernels
// shorter than the stride, the 1x1 direct conv, one-row inputs, and the
// autoencoder's own four-stage shape.
std::vector<StackSpec> stacks() {
  using A = Act;
  return {
      {"conv_k3s1p1", {{false, 4, 3, 1, 1, A::kRelu}}, 2, 9, 7},
      {"conv_k3s2p0", {{false, 3, 3, 2, 0, A::kNone}}, 2, 9, 8},
      {"conv_k3s4p2", {{false, 3, 3, 4, 2, A::kRelu}}, 3, 13, 10},
      {"conv_k2s3p1_k_lt_s", {{false, 2, 2, 3, 1, A::kNone}}, 2, 11, 9},
      {"conv_k5s3p4", {{false, 2, 5, 3, 4, A::kSigmoid}}, 1, 8, 9},
      {"conv_k1_direct", {{false, 3, 1, 1, 0, A::kRelu}}, 2, 6, 5},
      {"conv_one_row", {{false, 3, 3, 1, 1, A::kRelu}}, 2, 1, 11},
      {"deconv_k4s2p1", {{true, 3, 4, 2, 1, A::kRelu}}, 2, 6, 5},
      {"deconv_k3s1p2", {{true, 2, 3, 1, 2, A::kNone}}, 3, 7, 6},
      {"deconv_k2s3p1_k_lt_s", {{true, 2, 2, 3, 1, A::kRelu}}, 2, 5, 4},
      {"deconv_k5s4p4", {{true, 2, 5, 4, 4, A::kSigmoid}}, 2, 5, 6},
      {"deconv_one_row", {{true, 2, 4, 2, 1, A::kRelu}}, 2, 1, 7},
      {"conv_then_deconv",
       {{false, 4, 3, 2, 1, A::kRelu}, {true, 2, 3, 3, 0, A::kNone}},
       2, 10, 9},
      {"autoencoder_shape",
       {{false, 4, 3, 2, 1, A::kRelu},
        {false, 6, 3, 2, 1, A::kRelu},
        {true, 4, 4, 2, 1, A::kRelu},
        {true, 3, 4, 2, 1, A::kSigmoid}},
       3, 16, 12},
      // The loop's autoencoder at full size: big enough that the band
      // passes shard over a 4-slot pool.
      {"autoencoder_48x48",
       {{false, 16, 3, 2, 1, A::kRelu},
        {false, 32, 3, 2, 1, A::kRelu},
        {true, 16, 4, 2, 1, A::kRelu},
        {true, 4, 4, 2, 1, A::kSigmoid}},
       4, 48, 48},
  };
}

const StackSpec& spec_named(const std::string& name) {
  static const std::vector<StackSpec> all = stacks();
  for (const StackSpec& s : all)
    if (s.name == name) return s;
  ADD_FAILURE() << "no stack " << name;
  return all.front();
}

nn::Tensor empty_input(const StackSpec& s, int n = 1) {
  return nn::Tensor({n, s.c, s.h, s.w});
}

nn::Tensor one_voxel(const StackSpec& s, int ch, int y, int x, double v) {
  nn::Tensor t = empty_input(s);
  t[(static_cast<std::size_t>(ch) * s.h + y) * s.w + x] = v;
  return t;
}

nn::Tensor sparse_input(const StackSpec& s, Rng& rng, int n = 1) {
  nn::Tensor t = empty_input(s, n);
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (rng.uniform(0.0, 1.0) < 0.04) t[i] = 1.0;
  return t;
}

// The inputs every stack is checked on: empty, one voxel at each corner
// and edge midpoint, random sparse, dense randn, and single NaN, +inf,
// -inf and -0.0 voxels.
std::vector<std::pair<std::string, nn::Tensor>> inputs(const StackSpec& s,
                                                       Rng& rng) {
  std::vector<std::pair<std::string, nn::Tensor>> out;
  out.emplace_back("empty", empty_input(s));
  const int ys[] = {0, s.h / 2, s.h - 1};
  const int xs[] = {0, s.w / 2, s.w - 1};
  for (int y : ys)
    for (int x : xs) {
      if (y == s.h / 2 && x == s.w / 2 && s.h > 1) continue;  // not an edge
      out.emplace_back("voxel_" + std::to_string(y) + "_" + std::to_string(x),
                       one_voxel(s, s.c - 1, y, x, 1.0));
    }
  out.emplace_back("sparse", sparse_input(s, rng));
  out.emplace_back("dense", nn::Tensor::randn({1, s.c, s.h, s.w}, rng));
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  for (double v : specials)
    out.emplace_back("special_" + std::to_string(v),
                     one_voxel(s, 0, s.h / 2, s.w - 1, v));
  return out;
}

class ActiveSiteThreads : public ::testing::TestWithParam<int> {};

TEST_P(ActiveSiteThreads, FrozenConvMatchesLayerInferBitwise) {
  util::ScopedGlobalThreads threads(GetParam());
  for (const StackSpec& spec : stacks()) {
    Rng rng(31);
    nn::Sequential net = build(spec, rng);
    nn::FrozenConv frozen(layers_of(net), {spec.c, spec.h, spec.w});
    for (const auto& [name, x] : inputs(spec, rng)) {
      ASSERT_TRUE(frozen.matches(x));
      EXPECT_TRUE(same_bits(frozen.infer(x), net.infer(x)))
          << spec.name << " / " << name;
    }
  }
}

TEST_P(ActiveSiteThreads, MixedBatchMatchesLayerInferBitwise) {
  // One call over empty, sparse and dense images plans each image on
  // its own rows.
  util::ScopedGlobalThreads threads(GetParam());
  for (const StackSpec& spec : stacks()) {
    Rng rng(37);
    nn::Sequential net = build(spec, rng);
    nn::FrozenConv frozen(layers_of(net), {spec.c, spec.h, spec.w});
    nn::Tensor x = empty_input(spec, 3);
    const std::size_t image = static_cast<std::size_t>(spec.c) * spec.h * spec.w;
    const nn::Tensor sparse = sparse_input(spec, rng);
    const nn::Tensor dense = nn::Tensor::randn({1, spec.c, spec.h, spec.w}, rng);
    std::copy_n(sparse.data(), image, x.data() + image);
    std::copy_n(dense.data(), image, x.data() + 2 * image);
    EXPECT_TRUE(same_bits(frozen.infer(x), net.infer(x))) << spec.name;
    // Alternating batch sizes and inputs: each stage's kept padded
    // input is rebuilt or rewritten on the rows the last call dirtied.
    const nn::Tensor one = sparse_input(spec, rng);
    const nn::Tensor empty = empty_input(spec);
    const nn::Tensor* sequence[] = {&one, &x, &empty, &sparse, &x, &dense, &one};
    for (const nn::Tensor* t : sequence)
      EXPECT_TRUE(same_bits(frozen.infer(*t), net.infer(*t)))
          << spec.name << ", batch " << t->dim(0);
  }
}

TEST_P(ActiveSiteThreads, NanWeightMakesANanBackgroundBitwise) {
  // inf * 0 and NaN * 0 are NaN: the all-zero input's output is then
  // NaN wherever the weight reaches, and the snapshot must carry that.
  util::ScopedGlobalThreads threads(GetParam());
  const StackSpec& spec = spec_named("autoencoder_shape");
  for (std::size_t layer : {std::size_t{0}, std::size_t{4}}) {
    Rng rng(41);
    nn::Sequential net = build(spec, rng);
    (*net.layer(layer).params()[0])[3] = std::numeric_limits<double>::quiet_NaN();
    nn::FrozenConv frozen(layers_of(net), {spec.c, spec.h, spec.w});
    for (const auto& [name, x] : inputs(spec, rng))
      EXPECT_TRUE(same_bits(frozen.infer(x), net.infer(x)))
          << "NaN in layer " << layer << " / " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ActiveSiteThreads, ::testing::Values(1, 4));

TEST(ActiveSite, StackServesOnlyTheWeightsItKeyed) {
  const StackSpec& spec = spec_named("conv_then_deconv");
  Rng rng(43);
  nn::Sequential net = build(spec, rng);
  nn::ActiveSiteStack stack(layers_of(net));
  const nn::Tensor x = sparse_input(spec, rng);
  for (int call = 0; call < 3; ++call)
    EXPECT_TRUE(same_bits(stack.infer(x), net.infer(x))) << "call " << call;

  // The lowest bit of one bias of the last layer: a change of one ulp
  // the key must catch.
  const nn::Tensor before = net.infer(x);
  nn::Tensor& bias = *net.layer(net.size() - 1).params()[1];
  bias[0] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(bias[0]) ^ 1u);
  ASSERT_FALSE(same_bits(net.infer(x), before)) << "the flip is invisible";
  for (int call = 0; call < 3; ++call)
    EXPECT_TRUE(same_bits(stack.infer(x), net.infer(x)))
        << "call " << call << " after a one-bit bias flip";

  // A different sample shape runs dense and re-keys.
  StackSpec wide = spec;
  wide.w = 16;
  const nn::Tensor y = sparse_input(wide, rng);
  for (int call = 0; call < 2; ++call)
    EXPECT_TRUE(same_bits(stack.infer(y), net.infer(y))) << "call " << call;
  EXPECT_TRUE(same_bits(stack.infer(x), net.infer(x)));
}

// ---- Invalidation through the lidar models ----

lidar::AutoencoderConfig small_ae() {
  lidar::AutoencoderConfig cfg;
  cfg.grid.nx = cfg.grid.ny = 16;
  cfg.c1 = 8;
  cfg.c2 = 8;
  return cfg;
}

nn::Tensor sparse_grid(const lidar::VoxelGridConfig& g, Rng& rng) {
  nn::Tensor t({1, g.nz, g.ny, g.nx});
  for (int i = 0; i < 5; ++i)
    t[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(t.numel()) - 1))] = 1.0;
  return t;
}

// The dense reference: the training forward (bit-identical to every
// layer's infer()) and reconstruct()'s sigmoid.
nn::Tensor dense_reconstruct(lidar::OccupancyAutoencoder& ae,
                             const nn::Tensor& x) {
  nn::Tensor y = ae.decode(ae.encode(x));
  nn::sigmoid_inplace(y.data(), y.numel());
  return y;
}

// The int8 reference for a quantized autoencoder: each layer's int8
// forward on the oracle's explicit lowering (tests/nn_oracle.hpp), with
// the ReLUs and reconstruct()'s sigmoid between.
nn::Tensor int8_reconstruct(lidar::OccupancyAutoencoder& ae,
                            const nn::Tensor& x) {
  const std::vector<nn::Tensor*> p = ae.params();
  nn::Tensor h = nn::oracle::conv2d_forward_int8(x, *p[0], *p[1], 2, 1);
  nn::relu_inplace(h.data(), h.numel());
  h = nn::oracle::conv2d_forward_int8(h, *p[2], *p[3], 2, 1);
  nn::relu_inplace(h.data(), h.numel());
  h = nn::oracle::conv_transpose2d_forward_int8(h, *p[4], *p[5], 2, 1);
  nn::relu_inplace(h.data(), h.numel());
  h = nn::oracle::conv_transpose2d_forward_int8(h, *p[6], *p[7], 2, 1);
  nn::sigmoid_inplace(h.data(), h.numel());
  return h;
}

// Reconstructs twice, so the second call runs the snapshot keyed by the
// first, and checks both against the dense reference.
void expect_reconstruct_is_dense(lidar::OccupancyAutoencoder& ae,
                                 const nn::Tensor& x, const char* what) {
  const nn::Tensor want = dense_reconstruct(ae, x);
  EXPECT_TRUE(same_bits(ae.reconstruct(x), want)) << what << ", first call";
  EXPECT_TRUE(same_bits(ae.reconstruct(x), want)) << what << ", second call";
}

TEST(ActiveSite, AutoencoderSeesEveryWeightWrite) {
  const lidar::AutoencoderConfig cfg = small_ae();
  Rng rng(47);
  lidar::OccupancyAutoencoder ae(cfg, rng);
  const nn::Tensor x = sparse_grid(cfg.grid, rng);
  expect_reconstruct_is_dense(ae, x, "fresh");
  EXPECT_TRUE(same_bits(ae.reconstruct(x), dense_reconstruct(ae, x)));

  // An Adam step.
  nn::Adam opt(1e-2);
  opt.attach(ae.params(), ae.grads());
  nn::Tensor target = sparse_grid(cfg.grid, rng);
  ae.train_step(x, target, opt);
  expect_reconstruct_is_dense(ae, x, "after an Adam step");

  // A copy_params-style assignment from another model.
  lidar::OccupancyAutoencoder other(cfg, rng);
  const auto src = other.params();
  const auto dst = ae.params();
  for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
  expect_reconstruct_is_dense(ae, x, "after copying parameters");

  // One bit of one bias (its exponent's top bit, so the output moves).
  const nn::Tensor before = dense_reconstruct(ae, x);
  nn::Tensor& bias = *ae.params()[3];
  bias[0] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(bias[0]) ^
                                  (std::uint64_t{1} << 62));
  ASSERT_FALSE(same_bits(dense_reconstruct(ae, x), before));
  expect_reconstruct_is_dense(ae, x, "after a one-bit bias flip");

  // The embedding stack keys on the same weights.
  const nn::Tensor z = ae.encode(x);
  const std::vector<double> e = ae.embedding(x);
  ae.embedding(x);
  EXPECT_EQ(ae.embedding(x), e);
  double s = 0.0;
  for (std::size_t i = 0; i < z.numel() / static_cast<std::size_t>(z.dim(1)); ++i)
    s += z[i];
  EXPECT_EQ(e[0], s / static_cast<double>(z.dim(2) * z.dim(3)));

  // quantize() leaves the float weights as they were, but the model now
  // runs int8: the int8 forward of those weights.
  const nn::Tensor float_out = dense_reconstruct(ae, x);
  ae.quantize();
  EXPECT_TRUE(same_bits(dense_reconstruct(ae, x), float_out));
  const nn::Tensor int8_out = ae.reconstruct(x);
  EXPECT_FALSE(same_bits(int8_out, float_out));
  EXPECT_TRUE(same_bits(int8_out, int8_reconstruct(ae, x)));
  EXPECT_TRUE(same_bits(ae.reconstruct(x), int8_out));
}

TEST(ActiveSite, DetectorEmbeddingSeesPretrainedWeights) {
  const lidar::AutoencoderConfig acfg = small_ae();
  lidar::DetectorConfig dcfg;
  dcfg.grid = acfg.grid;
  dcfg.c1 = acfg.c1;
  dcfg.c2 = acfg.c2;
  Rng rng(53);
  lidar::OccupancyAutoencoder ae(acfg, rng);
  lidar::BevDetector det(dcfg, rng);
  const nn::Tensor x = sparse_grid(acfg.grid, rng);
  det.feature_embedding(x);
  det.feature_embedding(x);  // served by the snapshot from here on

  // The reference: a twin whose first call, on the same weights, is
  // necessarily dense.
  const auto reference = [&] {
    Rng twin_rng(99);
    lidar::BevDetector twin(dcfg, twin_rng);
    const auto src = det.params();
    const auto dst = twin.params();
    for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
    return twin.feature_embedding(x);
  };
  EXPECT_EQ(det.feature_embedding(x), reference());
  det.init_from_pretrained(ae);
  const std::vector<double> want = reference();
  EXPECT_EQ(det.feature_embedding(x), want);
  EXPECT_EQ(det.feature_embedding(x), want);
}

TEST(ActiveSite, MacCountIsTheDenseCountForTheConfiguredGrid) {
  const lidar::AutoencoderConfig cfg = small_ae();
  Rng r1(59), r2(59);
  lidar::OccupancyAutoencoder fresh(cfg, r1), trained(cfg, r2);
  const std::size_t macs = fresh.macs_per_scan();
  EXPECT_GT(macs, 0u);
  // The dense forward records the same count in its layers.
  const nn::Tensor empty({1, cfg.grid.nz, cfg.grid.ny, cfg.grid.nx});
  trained.decode(trained.encode(empty));
  EXPECT_EQ(macs, trained.macs_per_scan());
  // Snapshot calls skip rows; the count stays the dense one.
  Rng rng(61);
  const nn::Tensor x = sparse_grid(cfg.grid, rng);
  for (int call = 0; call < 3; ++call) fresh.reconstruct(x);
  fresh.reconstruct(empty);
  EXPECT_EQ(fresh.macs_per_scan(), macs);
}

// ---- Reference-keyed snapshots: the detector's backbone and heads ----

// The detector's forward at a given grid: conv1, conv2 and the deconv,
// each with a ReLU, then the class and offset heads, with non-zero
// biases. infer() is the oracle: every layer's infer(), the heads'
// outputs stacked on channels per image.
struct DetectorStack {
  nn::Sequential backbone, cls, off;
  int c, h, w;

  DetectorStack(int c_, int h_, int w_, Rng& rng) : c(c_), h(h_), w(w_) {
    backbone.emplace<nn::Conv2D>(c, 16, 3, 2, 1, rng);
    backbone.emplace<nn::ReLU>();
    backbone.emplace<nn::Conv2D>(16, 32, 3, 2, 1, rng);
    backbone.emplace<nn::ReLU>();
    backbone.emplace<nn::ConvTranspose2D>(32, 16, 4, 2, 1, rng);
    backbone.emplace<nn::ReLU>();
    cls.emplace<nn::Conv2D>(16, 3, 1, 1, 0, rng);
    off.emplace<nn::Conv2D>(16, 2, 1, 1, 0, rng);
    for (nn::Sequential* net : {&backbone, &cls, &off})
      for (std::size_t i = 0; i < net->size(); ++i)
        if (net->layer(i).params().size() == 2) {
          nn::Tensor& b = *net->layer(i).params()[1];
          for (std::size_t j = 0; j < b.numel(); ++j) b[j] = rng.normal(0.0, 0.3);
        }
  }
  std::vector<nn::Layer*> heads() { return {&cls.layer(0), &off.layer(0)}; }

  nn::Tensor infer(const nn::Tensor& x) {
    const nn::Tensor neck = backbone.infer(x);
    const nn::Tensor a = cls.infer(neck), b = off.infer(neck);
    const int n = a.dim(0);
    const std::size_t ia = a.numel() / static_cast<std::size_t>(n),
                      ib = b.numel() / static_cast<std::size_t>(n);
    nn::Tensor out({n, a.dim(1) + b.dim(1), a.dim(2), a.dim(3)});
    double* dst = out.data();
    for (int i = 0; i < n; ++i) {
      dst = std::copy_n(a.data() + static_cast<std::size_t>(i) * ia, ia, dst);
      dst = std::copy_n(b.data() + static_cast<std::size_t>(i) * ib, ib, dst);
    }
    return out;
  }

  // A reference like the loop's: every element a small positive value,
  // as a reconstruction's empty-scene occupancy is.
  nn::Tensor reference(Rng& rng) const {
    nn::Tensor r({1, c, h, w});
    for (std::size_t i = 0; i < r.numel(); ++i) r[i] = rng.uniform(0.01, 0.2);
    return r;
  }
};

// images stacked into one batch.
nn::Tensor batch_of(const std::vector<const nn::Tensor*>& images) {
  std::vector<double> data;
  for (const nn::Tensor* t : images)
    data.insert(data.end(), t->data(), t->data() + t->numel());
  std::vector<int> shape = images.front()->shape();
  shape[0] = static_cast<int>(images.size());
  return nn::Tensor(shape, std::move(data));
}

// The inputs a reference-keyed stack is checked on: R itself, R with a
// 2x2 patch of 1.0 at each corner and edge midpoint, R with a NaN,
// +inf, -inf or -0.0 voxel, an input that differs from R everywhere,
// the all-zero input, and a batch of R, a patch and a dense input.
std::vector<std::pair<std::string, nn::Tensor>> reference_inputs(
    const DetectorStack& net, const nn::Tensor& r, Rng& rng) {
  std::vector<std::pair<std::string, nn::Tensor>> out;
  out.emplace_back("reference", r);
  const std::size_t hw = static_cast<std::size_t>(net.h) * net.w;
  const auto at = [&](int ch, int y, int x) {
    return static_cast<std::size_t>(ch) * hw + static_cast<std::size_t>(y) * net.w + x;
  };
  for (int y : {0, net.h / 2, net.h - 2})
    for (int x : {0, net.w / 2, net.w - 2}) {
      nn::Tensor t = r;
      for (int dy = 0; dy < 2; ++dy)
        for (int dx = 0; dx < 2; ++dx) t[at(net.c - 1, y + dy, x + dx)] = 1.0;
      out.emplace_back("patch_" + std::to_string(y) + "_" + std::to_string(x),
                       std::move(t));
    }
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  for (double v : specials) {
    nn::Tensor t = r;
    t[at(0, net.h / 2, net.w - 1)] = v;
    t[at(net.c - 1, 0, 0)] = v;
    out.emplace_back("special_" + std::to_string(v), std::move(t));
  }
  nn::Tensor shifted = r;
  for (std::size_t i = 0; i < shifted.numel(); ++i) shifted[i] += 0.5;
  out.emplace_back("everywhere", shifted);
  out.emplace_back("zero", nn::Tensor({1, net.c, net.h, net.w}));
  const nn::Tensor dense = nn::Tensor::randn({1, net.c, net.h, net.w}, rng);
  out.emplace_back("batch", batch_of({&r, &out[1].second, &dense}));
  return out;
}

TEST_P(ActiveSiteThreads, ReferenceKeyedDetectorStackMatchesLayerInferBitwise) {
  util::ScopedGlobalThreads threads(GetParam());
  Rng rng(67);
  DetectorStack net(4, 48, 48, rng);
  const nn::Tensor r = net.reference(rng);
  std::vector<nn::Layer*> backbone = layers_of(net.backbone);
  nn::FrozenConv frozen(backbone, {net.c, net.h, net.w}, net.heads(), r.data());
  const auto inputs = reference_inputs(net, r, rng);
  // Twice through, so the second pass plans against the padded inputs
  // the first one left.
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& [name, x] : inputs) {
      ASSERT_TRUE(frozen.matches(x));
      EXPECT_TRUE(same_bits(frozen.infer(x), net.infer(x)))
          << name << ", pass " << pass;
    }
  // A new reference: backgrounds and kept padded inputs follow it. The
  // last call before it leaves a batch-1 input in every stage's padded
  // input, which a call on R' would otherwise read on its unchanged rows.
  const nn::Tensor& everywhere = inputs[inputs.size() - 3].second;
  EXPECT_TRUE(same_bits(frozen.infer(everywhere), net.infer(everywhere)));
  frozen.set_reference(inputs[1].second);
  EXPECT_TRUE(frozen.is_reference(inputs[1].second));
  EXPECT_FALSE(frozen.is_reference(r));
  for (const auto& [name, x] : inputs)
    EXPECT_TRUE(same_bits(frozen.infer(x), net.infer(x)))
        << name << ", after set_reference";
}

TEST(ActiveSite, RepeatedReferenceIsAdoptedOnTheSecondIdenticalInput) {
  Rng rng(71);
  DetectorStack net(4, 16, 12, rng);
  const nn::Tensor a = net.reference(rng), b = net.reference(rng);
  // Runs x through `on`, checks the bits, and says whether the next
  // call will run the snapshot.
  const auto call_on = [&net](nn::ActiveSiteStack& on, const nn::Tensor& x) {
    EXPECT_TRUE(same_bits(on.infer(x), net.infer(x)));
    return on.serving();
  };
  nn::ActiveSiteStack stack(layers_of(net.backbone), net.heads(),
                            nn::Reference::kRepeated);
  const auto call = [&](const nn::Tensor& x) { return call_on(stack, x); };
  EXPECT_FALSE(call(a));
  EXPECT_FALSE(call(b));  // a different input: b is the candidate now
  EXPECT_FALSE(call(a));
  EXPECT_TRUE(call(a));  // a twice in a row on the same weights
  EXPECT_TRUE(call(b));  // served against R = a from here on
  EXPECT_TRUE(call(a));

  // A batch is never a candidate, and breaks a run of repeats.
  nn::ActiveSiteStack batched(layers_of(net.backbone), net.heads(),
                              nn::Reference::kRepeated);
  const nn::Tensor aa = batch_of({&a, &a});
  EXPECT_FALSE(call_on(batched, aa));
  EXPECT_FALSE(call_on(batched, aa));
  EXPECT_FALSE(call_on(batched, a));
  EXPECT_FALSE(call_on(batched, aa));
  EXPECT_FALSE(call_on(batched, a));
  EXPECT_TRUE(call_on(batched, a));
  EXPECT_TRUE(call_on(batched, aa));

  // A weight write re-keys: dense until an input repeats on the new
  // weights.
  nn::Tensor& bias = *net.cls.layer(0).params()[1];
  bias[1] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(bias[1]) ^ 1u);
  EXPECT_FALSE(call(b));
  EXPECT_TRUE(call(b));
  EXPECT_TRUE(call(a));

  // The zero reference serves from the second call on the same weights,
  // whatever the inputs.
  nn::ActiveSiteStack zero(layers_of(net.backbone), net.heads());
  EXPECT_FALSE(zero.serving());
  EXPECT_TRUE(call_on(zero, a));
  EXPECT_TRUE(call_on(zero, b));
}

// ---- detect() against a dense decode ----

// Every field of every detection, floats compared by their bits.
::testing::AssertionResult same_detections(
    const std::vector<lidar::Detection>& got,
    const std::vector<lidar::Detection>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " detections vs " << want.size();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < got.size(); ++i) {
    const lidar::Detection &g = got[i], &w = want[i];
    const double gv[] = {g.score, g.box.center.x, g.box.center.y, g.box.center.z,
                         g.box.size.x, g.box.size.y, g.box.size.z};
    const double wv[] = {w.score, w.box.center.x, w.box.center.y, w.box.center.z,
                         w.box.size.x, w.box.size.y, w.box.size.z};
    bool same = g.cls == w.cls;
    for (int k = 0; k < 7; ++k) same = same && bits(gv[k]) == bits(wv[k]);
    if (!same)
      return ::testing::AssertionFailure()
             << "detection " << i << ": score " << g.score << " vs " << w.score;
  }
  return ::testing::AssertionSuccess();
}

// The dense reference for BevDetector::detect: the detector's layers
// rebuilt from its config, its weights copied in, every layer's infer()
// (for a quantized detector, each layer's int8 forward on the oracle's
// explicit lowering, tests/nn_oracle.hpp), then the heatmap decode detect()
// documents: a sigmoid score per cell and class, kept at or above the
// threshold when no 3x3 same-class neighbour has a larger logit, with
// the clamped offsets moving the box from the cell centre.
std::vector<lidar::Detection> dense_detect(lidar::BevDetector& det,
                                           const nn::Tensor& grid) {
  const lidar::DetectorConfig& cfg = det.config();
  Rng rng(1);
  nn::Sequential backbone, cls, off;
  backbone.emplace<nn::Conv2D>(cfg.grid.nz, cfg.c1, 3, 2, 1, rng);
  backbone.emplace<nn::ReLU>();
  backbone.emplace<nn::Conv2D>(cfg.c1, cfg.c2, 3, 2, 1, rng);
  backbone.emplace<nn::ReLU>();
  backbone.emplace<nn::ConvTranspose2D>(cfg.c2, cfg.c1, 4, 2, 1, rng);
  backbone.emplace<nn::ReLU>();
  cls.emplace<nn::Conv2D>(cfg.c1, sim::kNumObjectClasses, 1, 1, 0, rng);
  off.emplace<nn::Conv2D>(cfg.c1, 2, 1, 1, 0, rng);
  std::vector<nn::Tensor*> dst = backbone.params();
  for (nn::Tensor* p : cls.params()) dst.push_back(p);
  for (nn::Tensor* p : off.params()) dst.push_back(p);
  const std::vector<nn::Tensor*> src = det.params();
  EXPECT_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];

  nn::Tensor neck, logits, offsets;
  if (det.is_quantized()) {
    using nn::oracle::conv2d_forward_int8;
    neck = conv2d_forward_int8(grid, *dst[0], *dst[1], 2, 1);
    nn::relu_inplace(neck.data(), neck.numel());
    neck = conv2d_forward_int8(neck, *dst[2], *dst[3], 2, 1);
    nn::relu_inplace(neck.data(), neck.numel());
    neck = nn::oracle::conv_transpose2d_forward_int8(neck, *dst[4], *dst[5],
                                                     2, 1);
    nn::relu_inplace(neck.data(), neck.numel());
    logits = conv2d_forward_int8(neck, *dst[6], *dst[7], 1, 0);
    offsets = conv2d_forward_int8(neck, *dst[8], *dst[9], 1, 0);
  } else {
    neck = backbone.infer(grid);
    logits = cls.infer(neck);
    offsets = off.infer(neck);
  }
  const int h2 = cfg.grid.ny / 2, w2 = cfg.grid.nx / 2;
  const double cell_w = 2.0 * cfg.grid.extent / w2;
  const double cell_h = 2.0 * cfg.grid.extent / h2;
  const auto at = [h2, w2](int c, int y, int x) {
    return (static_cast<std::size_t>(c) * h2 + y) * w2 + x;
  };
  std::vector<lidar::Detection> out;
  for (int c = 0; c < sim::kNumObjectClasses; ++c)
    for (int y = 0; y < h2; ++y)
      for (int x = 0; x < w2; ++x) {
        const double logit = logits[at(c, y, x)];
        const double score = 1.0 / (1.0 + std::exp(-logit));
        if (score < cfg.score_threshold) continue;
        bool is_max = true;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx) {
            const int yy = y + dy, xx = x + dx;
            if (yy >= 0 && yy < h2 && xx >= 0 && xx < w2 &&
                logits[at(c, yy, xx)] > logit)
              is_max = false;
          }
        if (!is_max) continue;
        lidar::Detection d;
        d.cls = static_cast<sim::ObjectClass>(c);
        d.score = score;
        const Vec3 size = sim::class_archetype_size(d.cls);
        d.box.center = {-cfg.grid.extent + (x + 0.5) * cell_w +
                            std::clamp(offsets[at(0, y, x)], -0.5, 0.5) * cell_w,
                        -cfg.grid.extent + (y + 0.5) * cell_h +
                            std::clamp(offsets[at(1, y, x)], -0.5, 0.5) * cell_h,
                        size.z / 2.0};
        d.box.size = size;
        out.push_back(d);
      }
  return out;
}

// A sequence shaped like the loop's detector inputs: the reconstruction
// of an empty scan (`background`) on every other tick, twice at the
// start, and max(background, sensed) with 4 to 8 sensed voxels on the
// others.
std::vector<nn::Tensor> loop_sequence(const nn::Tensor& background, Rng& rng,
                                      int ticks) {
  std::vector<nn::Tensor> out{background, background};
  for (int t = 0; t < ticks; ++t) {
    nn::Tensor x = background;
    if (t % 2 == 0) {
      const int voxels = rng.uniform_int(4, 8);
      for (int v = 0; v < voxels; ++v)
        x[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(x.numel()) - 1))] = 1.0;
    }
    out.push_back(std::move(x));
  }
  return out;
}

nn::Tensor empty_reconstruction(lidar::OccupancyAutoencoder& ae) {
  const lidar::VoxelGridConfig& g = ae.config().grid;
  return ae.reconstruct(nn::Tensor({1, g.nz, g.ny, g.nx}));
}

TEST(ActiveSite, DetectMatchesTheDenseDecodeOverALoopSequence) {
  lidar::DetectorConfig cfg;  // the loop's grid and widths
  Rng rng(73);
  lidar::AutoencoderConfig acfg;
  acfg.grid = cfg.grid;
  lidar::OccupancyAutoencoder ae(acfg, rng);
  lidar::BevDetector det(cfg, rng);
  std::size_t found = 0;
  for (const nn::Tensor& x : loop_sequence(empty_reconstruction(ae), rng, 16)) {
    const std::vector<lidar::Detection> want = dense_detect(det, x);
    found += want.size();
    EXPECT_TRUE(same_detections(det.detect(x), want));
  }
  EXPECT_GT(found, 0u) << "the sequence detects nothing: a vacuous check";
}

TEST(ActiveSite, TwoStageDetectMatchesADenseTwinOverALoopSequence) {
  lidar::DetectorConfig cfg;
  Rng rng(79);
  lidar::AutoencoderConfig acfg;
  acfg.grid = cfg.grid;
  lidar::OccupancyAutoencoder ae(acfg, rng);
  lidar::TwoStageDetector det(cfg, rng);
  // The refiner reads the points inside each proposal box.
  sim::PointCloud cloud;
  for (int i = 0; i < 200; ++i) {
    sim::LidarReturn r;
    r.hit = true;
    r.point = {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
               rng.uniform(0.0, 3.0)};
    cloud.returns.push_back(r);
  }
  // The reference: a twin on the same weights whose every call is its
  // first, so dense (the RPN's half is diffed against the dense decode
  // above).
  const auto dense = [&](const nn::Tensor& x) {
    Rng twin_rng(5);
    lidar::TwoStageDetector twin(cfg, twin_rng);
    const auto copy = [](std::vector<nn::Tensor*> src,
                         std::vector<nn::Tensor*> dst) {
      for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
    };
    copy(det.rpn().params(), twin.rpn().params());
    copy(det.refine_params(), twin.refine_params());
    return twin.detect(x, cloud);
  };
  std::size_t found = 0;
  for (const nn::Tensor& x : loop_sequence(empty_reconstruction(ae), rng, 16)) {
    const std::vector<lidar::Detection> want = dense(x);
    found += want.size();
    EXPECT_TRUE(same_detections(det.detect(x, cloud), want));
  }
  EXPECT_GT(found, 0u) << "the sequence detects nothing: a vacuous check";
}

// Adopts R = x (two calls), then checks R, a sensed patch and R again
// against the dense decode.
void expect_detect_is_dense(lidar::BevDetector& det, const nn::Tensor& x,
                            const nn::Tensor& patched, const char* what) {
  for (const nn::Tensor* t : {&x, &x, &patched, &x})
    EXPECT_TRUE(same_detections(det.detect(*t), dense_detect(det, *t))) << what;
}

TEST(ActiveSite, DetectSeesEveryWeightWrite) {
  const lidar::AutoencoderConfig acfg = small_ae();
  lidar::DetectorConfig cfg;
  cfg.grid = acfg.grid;
  cfg.c1 = acfg.c1;
  cfg.c2 = acfg.c2;
  cfg.score_threshold = 0.05;
  Rng rng(83);
  lidar::OccupancyAutoencoder ae(acfg, rng);
  lidar::BevDetector det(cfg, rng);
  const nn::Tensor x = empty_reconstruction(ae);
  nn::Tensor patched = x;
  patched[7] = patched[40] = 1.0;
  expect_detect_is_dense(det, x, patched, "fresh");

  // Each write must move the detections, or serving stale weights
  // would pass unseen.
  std::vector<lidar::Detection> before = dense_detect(det, patched);
  const auto moved = [&] {
    std::vector<lidar::Detection> now = dense_detect(det, patched);
    const bool differ = !same_detections(now, before);
    before = std::move(now);
    return differ;
  };

  nn::Adam opt(1e-2);
  opt.attach(det.params(), det.grads());
  sim::Scene scene;
  sim::SceneObject car;
  car.box.center = {10.0, -5.0, 0.8};
  scene.objects.push_back(car);
  det.train_step(x, scene, opt);
  ASSERT_TRUE(moved());
  expect_detect_is_dense(det, x, patched, "after an Adam step");

  det.init_from_pretrained(ae);
  ASSERT_TRUE(moved());
  expect_detect_is_dense(det, x, patched, "after init_from_pretrained");

  lidar::BevDetector other(cfg, rng);
  const auto src = other.params();
  const auto dst = det.params();
  for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
  ASSERT_TRUE(moved());
  expect_detect_is_dense(det, x, patched, "after copying parameters");
}

TEST(ActiveSite, QuantizedDetectorRunsInt8) {
  const lidar::AutoencoderConfig acfg = small_ae();
  lidar::DetectorConfig cfg;
  cfg.grid = acfg.grid;
  cfg.c1 = acfg.c1;
  cfg.c2 = acfg.c2;
  cfg.score_threshold = 0.05;
  Rng rng(89);
  lidar::OccupancyAutoencoder ae(acfg, rng);
  lidar::BevDetector det(cfg, rng);
  const nn::Tensor x = empty_reconstruction(ae);
  nn::Tensor patched = x;
  patched[11] = 1.0;
  expect_detect_is_dense(det, x, patched, "float");
  const std::vector<lidar::Detection> float_dets = dense_detect(det, patched);
  det.quantize();
  ASSERT_FALSE(same_detections(dense_detect(det, patched), float_dets))
      << "int8 and float agree: the check cannot tell them apart";
  expect_detect_is_dense(det, x, patched, "int8");
}


// ---- The gathered path: random changed sets on every kernel family ----

// Every element bit for bit, NaNs included.
::testing::AssertionResult identical_bits(const nn::Tensor& got,
                                          const nn::Tensor& want) {
  if (got.shape() != want.shape())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (std::size_t i = 0; i < got.numel(); ++i)
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i]))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
  return ::testing::AssertionSuccess();
}

// auto, scalar, and avx2 where the host has it: tile widths (NR) 4, 8
// and the auto family's.
std::vector<util::SimdIsa> oracle_isas() {
  std::vector<util::SimdIsa> out{util::SimdIsa::kAuto, util::SimdIsa::kScalar};
  if (util::simd_isa_supported(util::SimdIsa::kAvx2))
    out.push_back(util::SimdIsa::kAvx2);
  return out;
}

// Writes 1 to 64 changed sites into image b of t ([n, c, h, w]), each a
// value in [0.3, 1.5] on a random channel (neither zero nor in a
// loop-like reference's range), or NaN when `nan` picks it: three
// far-apart runs in one row, then runs one short of and one past each
// tile width (4, 8, 16) and single sites, at random places.
void add_changed_set(nn::Tensor& t, int b, Rng& rng, bool nan = false) {
  const int c = t.dim(1), h = t.dim(2), w = t.dim(3);
  const int budget = rng.uniform_int(1, 64);
  const int lengths[] = {1, 3, 5, 7, 9, 15, 17};
  int placed = 0;
  const auto put = [&](int y, int x0, int len) {
    for (int x = x0; x < x0 + len && x < w && placed < budget; ++x, ++placed) {
      const std::size_t at =
          ((static_cast<std::size_t>(b) * c + rng.uniform_int(0, c - 1)) * h + y) * w + x;
      t[at] = nan && placed == budget / 2 ? std::numeric_limits<double>::quiet_NaN()
                                          : rng.uniform(0.3, 1.5);
    }
  };
  const int row = rng.uniform_int(0, h - 1);
  for (int k = 0; k < 3; ++k)
    put(row, k * (w / 3) + rng.uniform_int(0, 2), rng.uniform_int(1, 3));
  while (placed < budget) {
    const int len = lengths[rng.uniform_int(0, 6)];
    put(rng.uniform_int(0, h - 1), rng.uniform_int(0, std::max(0, w - len)), len);
  }
}

// A call sequence over batch sizes 1, 3 and 16: every image of `base`
// (one sample, repeated) with its own changed set, except that a batch
// of 16 leaves two images unchanged; the fifth call's sets hold a NaN.
std::vector<std::pair<nn::Tensor, bool>> gathered_sequence(const nn::Tensor& base,
                                                           Rng& rng) {
  std::vector<std::pair<nn::Tensor, bool>> out;
  const int sizes[] = {1, 3, 16, 3, 16, 1, 16};
  for (int call = 0; call < 7; ++call) {
    const int n = sizes[call];
    const bool nan = call == 4;
    std::vector<const nn::Tensor*> images(static_cast<std::size_t>(n), &base);
    nn::Tensor x = batch_of(images);
    for (int b = 0; b < n; ++b)
      if (n < 16 || (b != 3 && b != 11)) add_changed_set(x, b, rng, nan);
    out.emplace_back(std::move(x), nan);
  }
  return out;
}

// Bitwise under every family, except that a NaN need only meet a NaN
// under scalar, whose tiles order a NaN add differently (same_bits).
::testing::AssertionResult gathered_matches(const nn::Tensor& got,
                                            const nn::Tensor& want, bool nan) {
  return nan && util::active_simd_isa() == util::SimdIsa::kScalar
             ? same_bits(got, want)
             : identical_bits(got, want);
}

TEST(ActiveSiteGathered, RandomChangedSetsMatchLayerInferOnEveryFamily) {
  for (const int threads : {1, 4})
    for (const util::SimdIsa isa : oracle_isas()) {
      util::ScopedGlobalThreads pool(threads);
      nn::oracle::ScopedSimd simd(isa);
      const std::string where = std::string(nn::gemm_kernel_name()) + ", " +
                                std::to_string(threads) + " threads";
      {  // The autoencoder stack against the all-zero reference.
        const StackSpec& spec = spec_named("autoencoder_48x48");
        Rng rng(97);
        nn::Sequential net = build(spec, rng);
        nn::FrozenConv frozen(layers_of(net), {spec.c, spec.h, spec.w});
        for (const auto& [x, nan] : gathered_sequence(empty_input(spec), rng))
          EXPECT_TRUE(gathered_matches(frozen.infer(x), net.infer(x), nan))
              << "autoencoder, " << where << ", batch " << x.dim(0);
      }
      {  // The detector stack with its heads against a loop-like R.
        Rng rng(101);
        DetectorStack net(4, 48, 48, rng);
        const nn::Tensor r = net.reference(rng);
        nn::FrozenConv frozen(layers_of(net.backbone), {net.c, net.h, net.w},
                              net.heads(), r.data());
        for (const auto& [x, nan] : gathered_sequence(r, rng))
          EXPECT_TRUE(gathered_matches(frozen.infer(x), net.infer(x), nan))
              << "detector, " << where << ", batch " << x.dim(0);
      }
    }
}

// ---- Work count: the GEMM columns a sparse call computes ----

// The sensed grid of one R-MAE selective scan of a generated scene (the
// loop's default LiDAR, masker and 48x48x4 grid), one draw of `rng`.
nn::Tensor sensed_grid(Rng& rng) {
  const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);
  const sim::LidarSimulator lidar{sim::LidarConfig{}};
  const lidar::RadialMasker masker;
  return lidar::VoxelGrid::from_cloud(
             lidar.selective_scan(scene, masker.beam_plan(lidar.config(), rng),
                                  rng),
             lidar::VoxelGridConfig{})
      .to_tensor();
}

// The GEMM columns a stack of `spec` needs for x against the all-zero
// reference, counted from its layers' own outputs: per stage, the sites
// that differ from the background (any channel, bit for bit) at its
// input, dilated by the stage's footprint, counted per sub-pixel phase
// and rounded up to whole tiles of nr columns. `full_rows` counts the
// candidate rows every site of which is a candidate.
std::size_t planned_columns(const StackSpec& spec, nn::Sequential& net,
                            const nn::Tensor& x, int nr, int& full_rows) {
  const int n = x.dim(0);
  nn::Tensor cur = x, bg = empty_input(spec);
  std::vector<char> changed(x.numel() / static_cast<std::size_t>(spec.c));
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < spec.c; ++ch)
      for (int i = 0; i < spec.h * spec.w; ++i)
        changed[static_cast<std::size_t>(b) * spec.h * spec.w + i] |=
            std::bit_cast<std::uint64_t>(
                x[(static_cast<std::size_t>(b) * spec.c + ch) * spec.h * spec.w + i]) != 0;
  std::size_t columns = 0;
  full_rows = 0;
  int h = spec.h, w = spec.w;
  std::size_t layer = 0;
  for (const StageSpec& st : spec.stages) {
    const int oh = st.transposed ? (h - 1) * st.s - 2 * st.pad + st.k
                                 : (h + 2 * st.pad - st.k) / st.s + 1;
    const int ow = st.transposed ? (w - 1) * st.s - 2 * st.pad + st.k
                                 : (w + 2 * st.pad - st.k) / st.s + 1;
    // Output rows (or columns) input row i reaches.
    const auto reach = [&](int i, int extent, int& lo, int& hi) {
      if (st.transposed) {
        lo = std::max(0, i * st.s - st.pad);
        hi = std::min(extent - 1, i * st.s - st.pad + st.k - 1);
      } else {
        lo = std::max(0, (i + st.pad - st.k + st.s) / st.s);
        hi = std::min(extent - 1, (i + st.pad) / st.s);
      }
    };
    std::vector<char> cand(static_cast<std::size_t>(n) * oh * ow, 0);
    for (int b = 0; b < n; ++b)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < w; ++ix) {
          if (!changed[(static_cast<std::size_t>(b) * h + iy) * w + ix]) continue;
          int y0, y1, x0, x1;
          reach(iy, oh, y0, y1);
          reach(ix, ow, x0, x1);
          for (int oy = y0; oy <= y1; ++oy)
            for (int ox = x0; ox <= x1; ++ox)
              cand[(static_cast<std::size_t>(b) * oh + oy) * ow + ox] = 1;
        }
    const int phases = st.transposed ? st.s * st.s : 1;
    std::vector<std::size_t> sites(static_cast<std::size_t>(phases), 0);
    for (int b = 0; b < n; ++b)
      for (int oy = 0; oy < oh; ++oy) {
        int row = 0;
        for (int ox = 0; ox < ow; ++ox) {
          if (!cand[(static_cast<std::size_t>(b) * oh + oy) * ow + ox]) continue;
          ++row;
          ++sites[st.transposed ? static_cast<std::size_t>(
                                      ((oy + st.pad) % st.s) * st.s +
                                      (ox + st.pad) % st.s)
                                : 0];
        }
        full_rows += row == ow;
      }
    for (const std::size_t p : sites)
      columns += (p + static_cast<std::size_t>(nr) - 1) / nr * nr;
    // The next stage's changed sites: this stage's output against its
    // background, the output for an all-zero input.
    const std::size_t layers = st.act == Act::kNone ? 1 : 2;
    for (std::size_t l = 0; l < layers; ++l, ++layer) {
      cur = net.layer(layer).infer(std::move(cur));
      bg = net.layer(layer).infer(std::move(bg));
    }
    const std::size_t plane = static_cast<std::size_t>(oh) * ow;
    changed.assign(static_cast<std::size_t>(n) * plane, 0);
    for (int b = 0; b < n; ++b)
      for (int ch = 0; ch < st.cout; ++ch)
        for (std::size_t i = 0; i < plane; ++i)
          changed[static_cast<std::size_t>(b) * plane + i] |=
              std::bit_cast<std::uint64_t>(
                  cur[(static_cast<std::size_t>(b) * st.cout + ch) * plane + i]) !=
              std::bit_cast<std::uint64_t>(bg[static_cast<std::size_t>(ch) * plane + i]);
    h = oh;
    w = ow;
  }
  return columns;
}

TEST(ActiveSiteGathered, SparseCallsComputeOnlyTheirTiles) {
  // A snapshot's GEMM work on a sensed input is its candidate sites
  // rounded up to whole tiles per stage (per phase of a deconv), with no
  // row or span padded on its own: one grid, and a batch of 16 shaped
  // like the fleet's.
  const StackSpec& spec = spec_named("autoencoder_48x48");
  Rng rng(103);
  std::vector<nn::Tensor> grids;
  for (int i = 0; i < 16; ++i) grids.push_back(sensed_grid(rng));
  std::vector<const nn::Tensor*> all;
  for (const nn::Tensor& g : grids) all.push_back(&g);
  const nn::Tensor one = grids.front(), batch = batch_of(all);
  for (const int threads : {1, 4})
    for (const util::SimdIsa isa : oracle_isas()) {
      util::ScopedGlobalThreads pool(threads);
      nn::oracle::ScopedSimd simd(isa);
      Rng wrng(107);
      nn::Sequential net = build(spec, wrng);
      nn::FrozenConv frozen(layers_of(net), {spec.c, spec.h, spec.w});
      frozen.infer(empty_input(spec));  // builds the backgrounds
      for (const nn::Tensor* x : {&one, &batch}) {
        int full_rows = 0;
        const std::size_t want =
            planned_columns(spec, net, *x, nn::gemm_nr(), full_rows);
        ASSERT_EQ(full_rows, 0) << "a full candidate row: the bound needs "
                                   "its band's columns";
        ASSERT_GT(want, 0u) << "nothing sensed: a vacuous check";
        EXPECT_TRUE(same_bits(frozen.infer(*x), net.infer(*x)));
        EXPECT_EQ(frozen.gemm_columns(), want)
            << nn::gemm_kernel_name() << ", " << threads << " threads, batch "
            << x->dim(0);
      }
    }
}

}  // namespace
}  // namespace s2a
