// Oracle tests for active-site inference (nn/frozen.hpp): a FrozenConv
// recomputes only the output rows an input's non-zero elements reach and
// takes every other row from the all-zero input's output. Its result
// must be bit-identical (memcmp, no tolerance) to running each layer's
// infer() on the same weights, for every stride, padding and input,
// at 1 and 4 pool threads. The invalidation tests write the weights in
// every way the library does and check that the next call sees them.
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
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/frozen.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
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
  // runs int8.
  ae.quantize();
  expect_reconstruct_is_dense(ae, x, "after quantize()");
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

}  // namespace
}  // namespace s2a
