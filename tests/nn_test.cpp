// Unit tests for the nn substrate. Every layer's backward pass is verified
// against central-difference numeric gradients (both input and parameter
// gradients), and losses/optimizers are checked on analytic cases.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/frozen.hpp"
#include "nn/gru.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"
#include "util/check.hpp"

namespace s2a::nn {
namespace {

// Scalar objective used for gradient checks: L = sum of 0.5*y_i^2, so
// dL/dy = y, which exercises non-uniform output gradients.
double objective(const Tensor& y) { return 0.5 * y.squared_norm(); }

Tensor objective_grad(const Tensor& y) { return y; }

// Checks dL/d(input) and dL/d(params) of `layer` at input `x` against
// central differences.
void check_gradients(Layer& layer, const Tensor& x, double eps = 1e-5,
                     double tol = 1e-6) {
  layer.zero_grad();
  const Tensor y = layer.forward(x);
  const Tensor dx = layer.backward(objective_grad(y));

  // Input gradient.
  Tensor xm = x;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    xm[i] = x[i] + eps;
    const double lp = objective(layer.forward(xm));
    xm[i] = x[i] - eps;
    const double lm = objective(layer.forward(xm));
    xm[i] = x[i];
    const double num = (lp - lm) / (2 * eps);
    ASSERT_NEAR(dx[i], num, tol * std::max(1.0, std::abs(num)))
        << "input grad mismatch at " << i;
  }

  // Parameter gradients. Note: the analytic grads were accumulated above;
  // re-forwarding for numeric probes does not touch grad buffers.
  auto params = layer.params();
  auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    const Tensor& g = *grads[pi];
    for (std::size_t i = 0; i < p.numel(); ++i) {
      const double orig = p[i];
      p[i] = orig + eps;
      const double lp = objective(layer.forward(x));
      p[i] = orig - eps;
      const double lm = objective(layer.forward(x));
      p[i] = orig;
      const double num = (lp - lm) / (2 * eps);
      ASSERT_NEAR(g[i], num, tol * std::max(1.0, std::abs(num)))
          << "param " << pi << " grad mismatch at " << i;
    }
  }
}

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(Tensor, AtIndexing) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(t[5], 5.0);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 5.0);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_DOUBLE_EQ(r[4], 5.0);
  EXPECT_THROW(t.reshaped({4, 2}), CheckError);
}

TEST(Tensor, MatmulKnownValues) {
  const Tensor a({2, 2}, {1, 2, 3, 4});
  const Tensor b({2, 2}, {5, 6, 7, 8});
  const Tensor c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c[0], 19.0);
  EXPECT_DOUBLE_EQ(c[1], 22.0);
  EXPECT_DOUBLE_EQ(c[2], 43.0);
  EXPECT_DOUBLE_EQ(c[3], 50.0);
}

TEST(Tensor, MatmulVariantsAgree) {
  Rng rng(1);
  const Tensor a = Tensor::randn({3, 4}, rng);
  const Tensor b = Tensor::randn({4, 5}, rng);
  const Tensor c1 = matmul(a, b);
  // a·b == matmul_nt(a, bᵀ)
  Tensor bt({5, 4});
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  const Tensor c2 = matmul_nt(a, bt);
  // a·b == matmul_tn(aᵀ, b)
  Tensor at({4, 3});
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) at.at(j, i) = a.at(i, j);
  const Tensor c3 = matmul_tn(at, b);
  for (std::size_t i = 0; i < c1.numel(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-12);
    EXPECT_NEAR(c1[i], c3[i], 1e-12);
  }
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({2, 3});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(Tensor, XavierWithinLimit) {
  Rng rng(2);
  const Tensor w = Tensor::xavier(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::abs(w[i]), limit);
  }
}

TEST(DenseLayer, ForwardKnownValues) {
  Rng rng(3);
  Dense d(2, 2, rng);
  d.weight() = Tensor({2, 2}, {1, 2, 3, 4});
  d.bias() = Tensor({2}, {0.5, -0.5});
  const Tensor x({1, 2}, {1, 1});
  const Tensor y = d.forward(x);
  EXPECT_DOUBLE_EQ(y[0], 3.5);   // 1+2+0.5
  EXPECT_DOUBLE_EQ(y[1], 6.5);   // 3+4-0.5
}

TEST(DenseLayer, GradientCheck) {
  Rng rng(4);
  Dense d(3, 4, rng);
  const Tensor x = Tensor::randn({2, 3}, rng);
  check_gradients(d, x);
}

TEST(DenseLayer, FrozenExcludedFromOptimizer) {
  Rng rng(4);
  Dense d(3, 4, rng);
  d.set_frozen(true);
  EXPECT_TRUE(d.params().empty());
  EXPECT_TRUE(d.grads().empty());
  // Gradient still flows to input.
  const Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor y = d.forward(x);
  const Tensor dx = d.backward(objective_grad(y));
  EXPECT_GT(dx.squared_norm(), 0.0);
}

TEST(DenseLayer, MacsPerSample) {
  Rng rng(1);
  Dense d(10, 20, rng);
  EXPECT_EQ(d.macs_per_sample(), 200u);
}

TEST(LoRALayer, InitiallyMatchesBase) {
  Rng rng(5);
  Dense base(4, 3, rng);
  LoRADense lora(base, 2, 1.0, rng);
  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor yb = base.forward(x);
  const Tensor yl = lora.forward(x);
  for (std::size_t i = 0; i < yb.numel(); ++i) EXPECT_NEAR(yb[i], yl[i], 1e-12);
}

TEST(LoRALayer, GradientCheck) {
  Rng rng(6);
  Dense base(4, 3, rng);
  LoRADense lora(base, 2, 2.0, rng);
  // Nudge B off zero so its gradient path is exercised nontrivially.
  for (Tensor* p : lora.params())
    for (std::size_t i = 0; i < p->numel(); ++i)
      (*p)[i] += 0.1 * static_cast<double>((i % 3)) - 0.1;
  const Tensor x = Tensor::randn({2, 4}, rng);
  check_gradients(lora, x);
}

TEST(LoRALayer, TrainableParamsMuchSmallerThanBase) {
  Rng rng(7);
  Dense base(64, 64, rng);
  LoRADense lora(base, 4, 1.0, rng);
  EXPECT_EQ(lora.trainable_params(), 4u * 64 * 2);
  EXPECT_LT(lora.trainable_params(), base.param_count() / 4);
}

TEST(LoRALayer, MergedWeightMatchesForward) {
  Rng rng(8);
  Dense base(3, 3, rng);
  LoRADense lora(base, 2, 1.5, rng);
  for (Tensor* p : lora.params())
    for (std::size_t i = 0; i < p->numel(); ++i) (*p)[i] += 0.05;
  const Tensor x = Tensor::randn({1, 3}, rng);
  const Tensor y = lora.forward(x);
  const Tensor w = lora.merged_weight();
  // Manual y' = x·wᵀ + b — bias equals base bias (zero-initialized here).
  for (int j = 0; j < 3; ++j) {
    double acc = 0;
    for (int i = 0; i < 3; ++i) acc += x[static_cast<std::size_t>(i)] * w.at(j, i);
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], acc, 1e-9);
  }
}

TEST(Activations, ReluGradientCheck) {
  Rng rng(9);
  ReLU relu;
  // Offset inputs away from the kink at 0 so numeric gradients are valid.
  Tensor x = Tensor::randn({2, 5}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.1) x[i] = 0.2;
  check_gradients(relu, x);
}

TEST(Activations, LeakyReluNegativeSlope) {
  LeakyReLU lr(0.1);
  const Tensor x({1, 2}, {-2.0, 3.0});
  const Tensor y = lr.forward(x);
  EXPECT_DOUBLE_EQ(y[0], -0.2);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(Activations, LeakyReluGradientCheck) {
  Rng rng(10);
  LeakyReLU lr(0.2);
  Tensor x = Tensor::randn({2, 5}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.1) x[i] = -0.2;
  check_gradients(lr, x);
}

TEST(Activations, TanhGradientCheck) {
  Rng rng(11);
  Tanh t;
  const Tensor x = Tensor::randn({3, 4}, rng);
  check_gradients(t, x);
}

TEST(Activations, SigmoidGradientCheck) {
  Rng rng(12);
  Sigmoid s;
  const Tensor x = Tensor::randn({3, 4}, rng);
  check_gradients(s, x);
}

TEST(Conv2DLayer, OutputShape) {
  Rng rng(13);
  Conv2D c(2, 4, 3, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 2, 8, 8}, rng);
  const Tensor y = c.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 4, 4, 4}));
}

TEST(Conv2DLayer, GradientCheck) {
  Rng rng(14);
  Conv2D c(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  check_gradients(c, x, 1e-5, 1e-5);
}

TEST(Conv2DLayer, StridedGradientCheck) {
  Rng rng(15);
  Conv2D c(1, 2, 3, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
  check_gradients(c, x, 1e-5, 1e-5);
}

TEST(Conv2DLayer, IdentityKernelPassesThrough) {
  Rng rng(16);
  Conv2D c(1, 1, 1, 1, 0, rng);
  c.params()[0]->fill(1.0);
  c.params()[1]->fill(0.0);
  const Tensor x = Tensor::randn({1, 1, 3, 3}, rng);
  const Tensor y = c.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-12);
}

TEST(ConvTranspose2DLayer, OutputShapeInvertsConv) {
  Rng rng(17);
  // ConvTranspose with the same hyperparameters maps the conv output
  // spatial size back to the input size.
  Conv2D c(1, 2, 4, 2, 1, rng);
  ConvTranspose2D d(2, 1, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 1, 8, 8}, rng);
  const Tensor y = c.forward(x);
  const Tensor z = d.forward(y);
  EXPECT_EQ(z.shape(), x.shape());
}

TEST(ConvTranspose2DLayer, GradientCheck) {
  Rng rng(18);
  ConvTranspose2D d(2, 2, 3, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 2, 3, 3}, rng);
  check_gradients(d, x, 1e-5, 1e-5);
}

TEST(GRUCellLayer, StepShapesAndRange) {
  Rng rng(19);
  GRUCell cell(3, 5, rng);
  const Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor h = Tensor::zeros({2, 5});
  const Tensor h2 = cell.step(x, h);
  EXPECT_EQ(h2.shape(), (std::vector<int>{2, 5}));
  for (std::size_t i = 0; i < h2.numel(); ++i) {
    EXPECT_GT(h2[i], -1.0);
    EXPECT_LT(h2[i], 1.0);
  }
}

TEST(GRUCellLayer, GradientCheckInputsAndParams) {
  Rng rng(20);
  GRUCell cell(3, 4, rng);
  const Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor h = Tensor::randn({2, 4}, rng, 0.5);

  cell.zero_grad();
  const Tensor y = cell.step(x, h);
  const auto [dx, dh] = cell.backward(objective_grad(y));

  const double eps = 1e-5;
  // Input x gradient.
  Tensor xm = x;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    xm[i] = x[i] + eps;
    const double lp = objective(cell.step(xm, h));
    xm[i] = x[i] - eps;
    const double lm = objective(cell.step(xm, h));
    xm[i] = x[i];
    ASSERT_NEAR(dx[i], (lp - lm) / (2 * eps), 1e-6);
  }
  // Hidden state gradient.
  Tensor hm = h;
  for (std::size_t i = 0; i < h.numel(); ++i) {
    hm[i] = h[i] + eps;
    const double lp = objective(cell.step(x, hm));
    hm[i] = h[i] - eps;
    const double lm = objective(cell.step(x, hm));
    hm[i] = h[i];
    ASSERT_NEAR(dh[i], (lp - lm) / (2 * eps), 1e-6);
  }
  // Parameter gradients.
  auto params = cell.params();
  auto grads = cell.grads();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    for (std::size_t i = 0; i < p.numel(); ++i) {
      const double orig = p[i];
      p[i] = orig + eps;
      const double lp = objective(cell.step(x, h));
      p[i] = orig - eps;
      const double lm = objective(cell.step(x, h));
      p[i] = orig;
      ASSERT_NEAR((*grads[pi])[i], (lp - lm) / (2 * eps), 1e-6)
          << "param " << pi << " index " << i;
    }
  }
}

TEST(AttentionLayer, OutputShape) {
  Rng rng(21);
  SelfAttention att(6, rng);
  const Tensor x = Tensor::randn({4, 6}, rng);
  EXPECT_EQ(att.forward(x).shape(), (std::vector<int>{4, 6}));
}

TEST(AttentionLayer, GradientCheck) {
  Rng rng(22);
  SelfAttention att(4, rng);
  const Tensor x = Tensor::randn({3, 4}, rng);
  check_gradients(att, x, 1e-5, 1e-5);
}

TEST(AttentionLayer, MacsGrowQuadraticallyWithSequence) {
  Rng rng(23);
  SelfAttention att(8, rng);
  att.forward(Tensor::randn({2, 8}, rng));
  const std::size_t m2 = att.macs_per_sample();
  att.forward(Tensor::randn({4, 8}, rng));
  const std::size_t m4 = att.macs_per_sample();
  EXPECT_GT(m4, m2);
  EXPECT_EQ(m2, 4u * 2 * 8 * 8 + 2u * 2 * 2 * 8);
  EXPECT_EQ(m4, 4u * 4 * 8 * 8 + 2u * 4 * 4 * 8);
}

TEST(SequentialNet, MlpGradientCheck) {
  Rng rng(24);
  Sequential mlp = make_mlp(3, {5, 4}, 2, rng, /*tanh_act=*/true);
  const Tensor x = Tensor::randn({2, 3}, rng);
  check_gradients(mlp, x, 1e-5, 1e-5);
}

TEST(SequentialNet, MacsSumAcrossLayers) {
  Rng rng(25);
  Sequential mlp = make_mlp(10, {20}, 5, rng);
  EXPECT_EQ(mlp.macs_per_sample(), 10u * 20 + 20u * 5);
}

TEST(SequentialNet, ParamCount) {
  Rng rng(26);
  Sequential mlp = make_mlp(10, {20}, 5, rng);
  EXPECT_EQ(mlp.param_count(), 10u * 20 + 20 + 20u * 5 + 5);
}

TEST(Loss, MseKnownValue) {
  const Tensor pred({1, 2}, {1.0, 3.0});
  const Tensor target({1, 2}, {0.0, 0.0});
  const auto r = mse_loss(pred, target);
  EXPECT_DOUBLE_EQ(r.value, 5.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 1.0);
  EXPECT_DOUBLE_EQ(r.grad[1], 3.0);
}

TEST(Loss, MseGradNumericCheck) {
  Rng rng(27);
  const Tensor pred = Tensor::randn({2, 3}, rng);
  const Tensor target = Tensor::randn({2, 3}, rng);
  const auto r = mse_loss(pred, target);
  const double eps = 1e-6;
  Tensor pm = pred;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    pm[i] = pred[i] + eps;
    const double lp = mse_loss(pm, target).value;
    pm[i] = pred[i] - eps;
    const double lm = mse_loss(pm, target).value;
    pm[i] = pred[i];
    EXPECT_NEAR(r.grad[i], (lp - lm) / (2 * eps), 1e-6);
  }
}

TEST(Loss, BceWithLogitsMatchesAnalytic) {
  const Tensor logits({1, 1}, {0.0});
  const Tensor target({1, 1}, {1.0});
  const auto r = bce_with_logits(logits, target);
  EXPECT_NEAR(r.value, std::log(2.0), 1e-12);
  EXPECT_NEAR(r.grad[0], -0.5, 1e-12);
}

TEST(Loss, BceStableForExtremeLogits) {
  const Tensor logits({1, 2}, {100.0, -100.0});
  const Tensor target({1, 2}, {1.0, 0.0});
  const auto r = bce_with_logits(logits, target);
  EXPECT_LT(r.value, 1e-10);
  EXPECT_TRUE(std::isfinite(r.grad[0]));
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Rng rng(28);
  const Tensor logits = Tensor::randn({5, 7}, rng, 3.0);
  const Tensor p = softmax(logits);
  for (int i = 0; i < 5; ++i) {
    double s = 0;
    for (int j = 0; j < 7; ++j) s += p.at(i, j);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Loss, CrossEntropyGradNumericCheck) {
  Rng rng(29);
  const Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{1, 0, 3};
  const auto r = softmax_cross_entropy(logits, labels);
  const double eps = 1e-6;
  Tensor lm = logits;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    lm[i] = logits[i] + eps;
    const double lp = softmax_cross_entropy(lm, labels).value;
    lm[i] = logits[i] - eps;
    const double lo = softmax_cross_entropy(lm, labels).value;
    lm[i] = logits[i];
    EXPECT_NEAR(r.grad[i], (lp - lo) / (2 * eps), 1e-6);
  }
}

TEST(Loss, AccuracyCountsArgmax) {
  const Tensor logits({2, 3}, {1, 5, 2, 9, 1, 1});
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 0}), 0.5);
}

TEST(Optimizers, SgdConvergesOnQuadratic) {
  // Minimize (w-3)² with plain SGD.
  Tensor w({1}, {0.0});
  Tensor g({1});
  SGD opt(0.1);
  opt.attach({&w}, {&g});
  for (int i = 0; i < 200; ++i) {
    g[0] = 2.0 * (w[0] - 3.0);
    opt.step();
  }
  EXPECT_NEAR(w[0], 3.0, 1e-6);
}

TEST(Optimizers, MomentumAcceleratesConvergence) {
  auto run = [](double momentum) {
    Tensor w({1}, {0.0});
    Tensor g({1});
    SGD opt(0.01, momentum);
    opt.attach({&w}, {&g});
    for (int i = 0; i < 50; ++i) {
      g[0] = 2.0 * (w[0] - 3.0);
      opt.step();
    }
    return std::abs(w[0] - 3.0);
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Optimizers, AdamConvergesOnQuadratic) {
  Tensor w({2}, {5.0, -4.0});
  Tensor g({2});
  Adam opt(0.1);
  opt.attach({&w}, {&g});
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.0 * (w[0] - 1.0);
    g[1] = 2.0 * (w[1] + 2.0);
    opt.step();
  }
  EXPECT_NEAR(w[0], 1.0, 1e-3);
  EXPECT_NEAR(w[1], -2.0, 1e-3);
}

TEST(Optimizers, ClipGradNormScalesDown) {
  Tensor g({2}, {3.0, 4.0});
  const double pre = clip_grad_norm({&g}, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(std::sqrt(g.squared_norm()), 1.0, 1e-12);
}

TEST(Optimizers, ClipGradNormNoopBelowThreshold) {
  Tensor g({2}, {0.3, 0.4});
  clip_grad_norm({&g}, 1.0);
  EXPECT_DOUBLE_EQ(g[0], 0.3);
  EXPECT_DOUBLE_EQ(g[1], 0.4);
}

TEST(Training, MlpLearnsXor) {
  Rng rng(31);
  Sequential net = make_mlp(2, {8}, 1, rng, /*tanh_act=*/true);
  Adam opt(0.05);
  opt.attach(net.params(), net.grads());
  const Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const Tensor t({4, 1}, {0, 1, 1, 0});
  double loss = 0;
  for (int epoch = 0; epoch < 500; ++epoch) {
    opt.zero_grad();
    const Tensor y = net.forward(x);
    const auto r = bce_with_logits(y, t);
    loss = r.value;
    net.backward(r.grad);
    opt.step();
  }
  EXPECT_LT(loss, 0.05);
  const Tensor y = net.forward(x);
  EXPECT_LT(y[0], 0.0);
  EXPECT_GT(y[1], 0.0);
  EXPECT_GT(y[2], 0.0);
  EXPECT_LT(y[3], 0.0);
}


// ---- nn::Frozen: a packed-once inference snapshot of a Dense/Tanh MLP ----

// Frozen must reproduce Sequential::forward bit-for-bit on every input.
// Biases start at zero, so give them values first: the bias add must
// land after the product, as in Dense::forward.
void expect_frozen_matches(Sequential& net, int in, Rng& rng) {
  for (Tensor* p : net.params())
    if (p->shape().size() == 1)
      for (std::size_t i = 0; i < p->numel(); ++i) (*p)[i] = rng.normal();
  Frozen frozen(net);
  ASSERT_EQ(frozen.in_features(), in);
  for (int rep = 0; rep < 20; ++rep) {
    const Tensor x = Tensor::randn({1, in}, rng, 2.0);
    const Tensor y = net.forward(x);
    const double* f = frozen.forward(x.data());
    ASSERT_EQ(static_cast<std::size_t>(frozen.out_features()), y.numel());
    for (std::size_t i = 0; i < y.numel(); ++i)
      ASSERT_EQ(f[i], y[i]) << "rep " << rep << " output " << i;
  }
}

TEST(Frozen, MatchesSequentialOnTheVaeDecoderShape) {
  // STARNet's decoder in monitor_test: latent 6 -> 48 Tanh -> 32.
  Rng rng(70);
  Sequential net;
  net.emplace<Dense>(6, 48, rng);
  net.emplace<Tanh>();
  net.emplace<Dense>(48, 32, rng);
  expect_frozen_matches(net, 6, rng);
}

TEST(Frozen, MatchesSequentialAcrossPanelTails) {
  // 13 and 9 rows leave a partial packed panel under every kernel's MR
  // (2, 4, 8); a bias-free layer and a double Tanh cover the rest.
  Rng rng(71);
  Sequential net;
  net.emplace<Dense>(5, 13, rng);
  net.emplace<Tanh>();
  net.emplace<Dense>(13, 9, rng, /*bias=*/false);
  net.emplace<Tanh>();
  net.emplace<Tanh>();
  net.emplace<Dense>(9, 3, rng);
  expect_frozen_matches(net, 5, rng);
}

TEST(Frozen, RefusesLayersItCannotSnapshot) {
  Rng rng(72);
  Sequential relu_net;
  relu_net.emplace<Dense>(4, 4, rng);
  relu_net.emplace<ReLU>();
  EXPECT_THROW(Frozen{relu_net}, CheckError);

  Sequential leading_tanh;
  leading_tanh.emplace<Tanh>();
  leading_tanh.emplace<Dense>(4, 4, rng);
  EXPECT_THROW(Frozen{leading_tanh}, CheckError);
}

}  // namespace
}  // namespace s2a::nn

// ------------------------------------------------------------------
// Parameter serialization round trips.
#include <sstream>

#include "nn/serialize.hpp"

namespace s2a::nn {
namespace {

TEST(Serialize, RoundTripIsBitExact) {
  Rng rng(60);
  Sequential net = make_mlp(5, {7}, 3, rng);
  std::ostringstream os;
  save_params(net.params(), os);

  Rng rng2(61);
  Sequential net2 = make_mlp(5, {7}, 3, rng2);
  std::istringstream is(os.str());
  load_params(net2.params(), is);

  auto a = net.params(), b = net2.params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a[i]->numel(); ++j)
      EXPECT_EQ((*a[i])[j], (*b[i])[j]);  // exact, not approximate

  // Behaviour matches too.
  const Tensor x = Tensor::randn({2, 5}, rng);
  const Tensor y1 = net.forward(x);
  const Tensor y2 = net2.forward(x);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng(62);
  Sequential small = make_mlp(3, {4}, 2, rng);
  Sequential big = make_mlp(3, {5}, 2, rng);
  std::ostringstream os;
  save_params(small.params(), os);
  std::istringstream is(os.str());
  EXPECT_THROW(load_params(big.params(), is), CheckError);
}

TEST(Serialize, TensorCountMismatchThrows) {
  Rng rng(63);
  Sequential net = make_mlp(3, {4}, 2, rng);
  std::ostringstream os;
  save_params(net.params(), os);
  std::istringstream is(os.str());
  auto params = net.params();
  params.pop_back();
  EXPECT_THROW(load_params(params, is), CheckError);
}

TEST(Serialize, RejectsForeignStream) {
  Rng rng(64);
  Sequential net = make_mlp(3, {4}, 2, rng);
  std::istringstream is("definitely not params");
  EXPECT_THROW(load_params(net.params(), is), CheckError);
}

TEST(Serialize, SpecialValuesSurvive) {
  Tensor t({3}, {0.0, -0.0, 1e-308});
  std::ostringstream os;
  save_params({&t}, os);
  Tensor u({3}, {1, 2, 3});
  std::istringstream is(os.str());
  load_params({&u}, is);
  EXPECT_EQ(u[0], 0.0);
  EXPECT_EQ(u[2], 1e-308);
}

}  // namespace
}  // namespace s2a::nn
