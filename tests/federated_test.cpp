// Tests for the federated stack: cost-model scaling laws, quantization,
// strategy selection, FedAvg convergence under non-IID shards, DC-NAS and
// HaLo-FL adaptation effects, and speculative-decoding correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "federated/fedavg.hpp"
#include "federated/hardware.hpp"
#include "federated/speculative.hpp"
#include "util/check.hpp"

namespace s2a::federated {
namespace {

TEST(CostModel, EnergyQuadraticInPrecision) {
  HardwareProfile hw;
  const RoundCost fp32 = round_cost(1e9, hw, {32, 32, 32});
  const RoundCost int8 = round_cost(1e9, hw, {8, 8, 32});
  // Multiplier term scales (8·8)/(32·32) = 1/16.
  EXPECT_NEAR(int8.energy_j / fp32.energy_j, 1.0 / 16.0, 1e-9);
}

TEST(CostModel, GradientBitsAffectBackwardShare) {
  HardwareProfile hw;
  const RoundCost g32 = round_cost(1e9, hw, {32, 32, 32});
  const RoundCost g8 = round_cost(1e9, hw, {32, 32, 8});
  EXPECT_LT(g8.energy_j, g32.energy_j);
  EXPECT_GT(g8.energy_j, g32.energy_j / 3.0);
}

TEST(CostModel, LatencyScalesWithThroughputAndPacking) {
  HardwareProfile fast, slow;
  fast.throughput_macs_per_s = 4e9;
  slow.throughput_macs_per_s = 1e9;
  EXPECT_NEAR(round_cost(1e9, slow, {}).latency_s /
                  round_cost(1e9, fast, {}).latency_s,
              4.0, 1e-9);
  const RoundCost full = round_cost(1e9, fast, {32, 32, 32});
  const RoundCost half = round_cost(1e9, fast, {16, 16, 32});
  EXPECT_LT(half.latency_s, full.latency_s);
}

TEST(CostModel, AreaIndependentOfWorkload) {
  HardwareProfile hw;
  EXPECT_DOUBLE_EQ(round_cost(1e6, hw, {}).area_mm2,
                   round_cost(1e9, hw, {}).area_mm2);
}

TEST(CostModel, InvalidPrecisionThrows) {
  HardwareProfile hw;
  EXPECT_THROW(round_cost(1e6, hw, {1, 8, 8}), CheckError);
  EXPECT_THROW(round_cost(1e6, hw, {8, 64, 8}), CheckError);
}

TEST(Quantize, Fp32IsIdentity) {
  std::vector<double> v{0.1, -0.7, 2.3};
  const auto orig = v;
  fake_quantize(v, 32);
  EXPECT_EQ(v, orig);
}

TEST(Quantize, LowBitsCoarser) {
  auto err = [](int bits) {
    std::vector<double> v;
    Rng rng(1);
    for (int i = 0; i < 200; ++i) v.push_back(rng.normal());
    const auto orig = v;
    fake_quantize(v, bits);
    double e = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) e += std::abs(v[i] - orig[i]);
    return e;
  };
  EXPECT_GT(err(4), err(8));
  EXPECT_GT(err(8), err(16));
}

TEST(Quantize, PreservesZeroAndSymmetry) {
  std::vector<double> v{-1.0, 0.0, 1.0};
  fake_quantize(v, 8);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[0], -v[2]);
}

TEST(Fleet, HeterogeneousCapabilities) {
  Rng rng(2);
  const auto fleet = make_heterogeneous_fleet(8, rng);
  ASSERT_EQ(fleet.size(), 8u);
  double mx = 0.0, mn = 1e18;
  for (const auto& hw : fleet) {
    mx = std::max(mx, hw.throughput_macs_per_s);
    mn = std::min(mn, hw.throughput_macs_per_s);
  }
  EXPECT_GT(mx / mn, 5.0);  // order-of-magnitude-ish spread
}

TEST(Mlp, MacsCountsActiveChannels) {
  Rng rng(3);
  const MlpParams p = init_mlp(16, 32, 10, rng);
  EXPECT_EQ(mlp_macs(p, 32), 32u * (16 + 10));
  EXPECT_EQ(mlp_macs(p, 8), 8u * (16 + 10));
}

TEST(Mlp, LocalTrainingImprovesShardAccuracy) {
  Rng rng(4);
  const auto ds = sim::make_gaussian_classes(200, 16, 4, 3.0, rng);
  MlpParams p = init_mlp(16, 32, 4, rng);
  std::vector<int> shard;
  for (int i = 0; i < 200; ++i) shard.push_back(i);
  std::vector<bool> active(32, true);
  const double before = evaluate_accuracy(p, ds, shard);
  local_train(p, ds, shard, active, PrecisionConfig{}, 5, 16, 0.05, rng);
  const double after = evaluate_accuracy(p, ds, shard);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.8);
}

TEST(Mlp, MaskedChannelsStayUntouched) {
  Rng rng(5);
  const auto ds = sim::make_gaussian_classes(50, 8, 4, 2.0, rng);
  MlpParams p = init_mlp(8, 16, 4, rng);
  const MlpParams orig = p;
  std::vector<bool> active(16, true);
  active[3] = false;
  std::vector<int> shard;
  for (int i = 0; i < 50; ++i) shard.push_back(i);
  local_train(p, ds, shard, active, PrecisionConfig{}, 2, 16, 0.05, rng);
  // Row 3 of w1 must be identical to the original.
  for (int i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(p.w1[static_cast<std::size_t>(3) * 8 + i],
                     orig.w1[static_cast<std::size_t>(3) * 8 + i]);
}

/// FNV-1a over the IEEE-754 bytes of every parameter, w1|b1|w2|b2.
std::uint64_t params_digest(const MlpParams& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const nn::Tensor* t : {&p.w1, &p.b1, &p.w2, &p.b2})
    for (std::size_t i = 0; i < t->numel(); ++i) {
      const std::uint64_t b = std::bit_cast<std::uint64_t>((*t)[i]);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (b >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  return h;
}

TEST(Mlp, LocalTrainPinnedBitsForSeed32) {
  // Every trained bit of local_train, pinned: the fp32 path, 8-bit
  // weights/activations/gradients, and a partial DC-NAS mask (alone and
  // with low precision). Any reordering of its arithmetic changes a
  // digest.
  struct Case {
    const char* name;
    PrecisionConfig precision;
    bool partial_mask;
    std::uint64_t digest;
    double macs;
  };
  const Case cases[] = {
      {"fp32", {32, 32, 32}, false, 0xca50a0a592b5ce1cULL, 61440.0},
      {"int8", {8, 8, 8}, false, 0x379fb0311caeba0cULL, 61440.0},
      {"dcnas", {32, 32, 32}, true, 0x97377bdbb52d8388ULL, 42240.0},
      {"dcnas_low_precision", {6, 6, 8}, true, 0xbc1532831396edfcULL, 42240.0},
  };
  Rng data_rng(31);
  const auto ds = sim::make_gaussian_classes(96, 12, 4, 3.0, data_rng);
  std::vector<int> shard;
  for (int i = 0; i < 40; ++i) shard.push_back((i * 7) % 96);
  for (const Case& c : cases) {
    Rng rng(32);
    MlpParams p = init_mlp(12, 16, 4, rng);
    std::vector<bool> active(16, true);
    if (c.partial_mask)
      for (int j = 0; j < 16; ++j) active[static_cast<std::size_t>(j)] = j % 3 != 1;
    const double macs =
        local_train(p, ds, shard, active, c.precision, 2, 8, 0.1, rng);
    EXPECT_EQ(params_digest(p), c.digest) << c.name;
    EXPECT_EQ(macs, c.macs) << c.name;
  }
}

TEST(Selection, WeakClientGetsNarrowWidth) {
  FlConfig cfg;
  HardwareProfile strong, weak;
  strong.throughput_macs_per_s = 1e10;
  strong.latency_budget_s = 5e-3;
  weak.throughput_macs_per_s = 2e6;
  weak.latency_budget_s = 5e-3;
  const int ws = select_width(strong, cfg, 100, 32, 10);
  const int ww = select_width(weak, cfg, 100, 32, 10);
  EXPECT_GT(ws, ww);
  EXPECT_EQ(ws, cfg.width_candidates.back());
}

TEST(Selection, WeakClientGetsLowPrecision) {
  FlConfig cfg;
  HardwareProfile strong, weak;
  strong.throughput_macs_per_s = 1e10;
  strong.energy_per_mac_j = 5e-12;
  weak.throughput_macs_per_s = 5e7;
  weak.energy_per_mac_j = 200e-12;
  weak.energy_budget_j = 1e-4;
  const PrecisionConfig ps = select_precision(strong, cfg, 1e8);
  const PrecisionConfig pw = select_precision(weak, cfg, 1e8);
  EXPECT_GE(ps.weight_bits, pw.weight_bits);
}

class StrategyTest : public ::testing::TestWithParam<FlStrategy> {};

TEST_P(StrategyTest, FederatedTrainingLearnsNonIidTask) {
  Rng rng(6);
  const auto train = sim::make_gaussian_classes(400, 16, 10, 3.0, rng);
  const auto test = sim::make_gaussian_classes(200, 16, 10, 3.0, rng);
  // NOTE: train/test share class means only if drawn from the same call;
  // re-draws have different means. Use a split of one dataset instead.
  const auto full = sim::make_gaussian_classes(600, 16, 10, 3.0, rng);
  sim::ClassificationDataset tr, te;
  tr.feature_dim = te.feature_dim = 16;
  tr.num_classes = te.num_classes = 10;
  for (std::size_t i = 0; i < 400; ++i) {
    tr.features.push_back(full.features[i]);
    tr.labels.push_back(full.labels[i]);
  }
  for (std::size_t i = 400; i < 600; ++i) {
    te.features.push_back(full.features[i]);
    te.labels.push_back(full.labels[i]);
  }
  (void)train;
  (void)test;

  const auto shards = sim::dirichlet_partition(tr.labels, 6, 10, 0.5, rng);
  const auto fleet = make_heterogeneous_fleet(6, rng);
  FlConfig cfg;
  cfg.rounds = 10;
  const FlResult res =
      run_federated(GetParam(), tr, te, shards, fleet, cfg, rng);
  EXPECT_GT(res.final_accuracy, 0.6) << strategy_name(GetParam());
  EXPECT_GT(res.total_energy_j, 0.0);
  EXPECT_GT(res.total_latency_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(FlStrategy::kStaticFl,
                                           FlStrategy::kDcNas,
                                           FlStrategy::kHaloFl),
                         [](const ::testing::TestParamInfo<FlStrategy>& info) {
                           switch (info.param) {
                             case FlStrategy::kStaticFl:
                               return "StaticFl";
                             case FlStrategy::kDcNas:
                               return "DcNas";
                             case FlStrategy::kHaloFl:
                               return "HaloFl";
                           }
                           return "unknown";
                         });

TEST(Strategies, AdaptiveStrategiesCutEnergyVsStatic) {
  Rng rng(7);
  const auto full = sim::make_gaussian_classes(600, 16, 10, 3.0, rng);
  sim::ClassificationDataset tr, te;
  tr.feature_dim = te.feature_dim = 16;
  tr.num_classes = te.num_classes = 10;
  for (std::size_t i = 0; i < 400; ++i) {
    tr.features.push_back(full.features[i]);
    tr.labels.push_back(full.labels[i]);
  }
  for (std::size_t i = 400; i < 600; ++i) {
    te.features.push_back(full.features[i]);
    te.labels.push_back(full.labels[i]);
  }
  Rng part_rng(8);
  const auto shards = sim::dirichlet_partition(tr.labels, 6, 10, 0.5, part_rng);
  const auto fleet = make_heterogeneous_fleet(6, part_rng);
  FlConfig cfg;
  cfg.rounds = 6;

  Rng r1(9), r2(9), r3(9);
  const FlResult base =
      run_federated(FlStrategy::kStaticFl, tr, te, shards, fleet, cfg, r1);
  const FlResult dcnas =
      run_federated(FlStrategy::kDcNas, tr, te, shards, fleet, cfg, r2);
  const FlResult halo =
      run_federated(FlStrategy::kHaloFl, tr, te, shards, fleet, cfg, r3);

  EXPECT_LT(dcnas.total_energy_j, base.total_energy_j);
  EXPECT_LT(halo.total_energy_j, base.total_energy_j);
  EXPECT_LE(halo.mean_area_mm2, base.mean_area_mm2);
}

TEST(Markov, RowsAreDistributions) {
  Rng rng(10);
  const MarkovModel m = MarkovModel::random(8, 3.0, rng);
  for (int i = 0; i < 8; ++i) {
    double row = 0.0;
    for (int j = 0; j < 8; ++j) {
      EXPECT_GE(m.prob(i, j), 0.0);
      row += m.prob(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST(Markov, SmoothedApproachesUniform) {
  Rng rng(11);
  const MarkovModel m = MarkovModel::random(8, 4.0, rng);
  const MarkovModel u = m.smoothed(1.0);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) EXPECT_NEAR(u.prob(i, j), 1.0 / 8, 1e-12);
}

TEST(Speculative, GeneratesRequestedTokens) {
  Rng rng(12);
  const MarkovModel target = MarkovModel::random(16, 4.0, rng);
  const MarkovModel draft = target.smoothed(0.3);
  std::vector<int> seq;
  const SpeculativeStats st =
      speculative_decode(target, draft, 500, SpeculativeConfig{}, rng, &seq);
  EXPECT_EQ(st.tokens_generated, 500);
  EXPECT_EQ(seq.size(), 500u);
}

TEST(Speculative, MultipleTokensPerTargetPass) {
  Rng rng(13);
  const MarkovModel target = MarkovModel::random(16, 6.0, rng);
  const MarkovModel draft = target.smoothed(0.2);  // good draft
  const SpeculativeStats st =
      speculative_decode(target, draft, 2000, SpeculativeConfig{}, rng);
  EXPECT_GT(st.tokens_per_pass(), 1.5);
  EXPECT_GT(st.speedup(SpeculativeConfig{}), 1.2);
}

TEST(Speculative, PerfectDraftAcceptsEverything) {
  Rng rng(14);
  const MarkovModel target = MarkovModel::random(8, 3.0, rng);
  const SpeculativeStats st =
      speculative_decode(target, target, 1000, SpeculativeConfig{}, rng);
  EXPECT_NEAR(st.acceptance_rate(), 1.0, 1e-12);
  // γ accepted + 1 bonus per pass.
  EXPECT_NEAR(st.tokens_per_pass(), 5.0, 0.1);
}

TEST(Speculative, BadDraftLowersAcceptance) {
  Rng rng(15);
  const MarkovModel target = MarkovModel::random(16, 6.0, rng);
  const SpeculativeStats good =
      speculative_decode(target, target.smoothed(0.1), 2000, {}, rng);
  const SpeculativeStats bad =
      speculative_decode(target, target.smoothed(0.9), 2000, {}, rng);
  EXPECT_GT(good.acceptance_rate(), bad.acceptance_rate());
}

TEST(Speculative, PreservesTargetDistribution) {
  // The headline correctness property: speculative output matches plain
  // target sampling in distribution.
  Rng rng(16);
  const MarkovModel target = MarkovModel::random(8, 4.0, rng);
  const MarkovModel draft = target.smoothed(0.5);

  Rng r1(17), r2(18);
  const std::vector<int> plain = autoregressive_decode(target, 30000, r1);
  std::vector<int> spec;
  speculative_decode(target, draft, 30000, SpeculativeConfig{}, r2, &spec);

  const auto d1 = unigram_distribution(plain, 8);
  const auto d2 = unigram_distribution(spec, 8);
  for (int j = 0; j < 8; ++j)
    EXPECT_NEAR(d1[static_cast<std::size_t>(j)], d2[static_cast<std::size_t>(j)], 0.02);
}

}  // namespace
}  // namespace s2a::federated

namespace s2a::federated {
namespace {

TEST(SpeculativeLatency, SpeedupAccountsForDraftCost) {
  SpeculativeStats st;
  st.tokens_generated = 100;
  st.target_passes = 25;   // 4 tokens per pass
  st.draft_tokens = 100;
  st.accepted = 90;
  SpeculativeConfig cfg;
  cfg.target_pass_latency = 1.0;
  cfg.draft_token_latency = 0.05;
  // latency = 25·1 + 100·0.05 = 30; baseline = 100·1 → speedup 3.33.
  EXPECT_NEAR(st.latency(cfg), 30.0, 1e-12);
  EXPECT_NEAR(st.speedup(cfg), 100.0 / 30.0, 1e-12);
  EXPECT_NEAR(st.tokens_per_pass(), 4.0, 1e-12);
  EXPECT_NEAR(st.acceptance_rate(), 0.9, 1e-12);
}

TEST(SpeculativeLatency, FreeDraftDegeneratesToTokensPerPass) {
  SpeculativeStats st;
  st.tokens_generated = 100;
  st.target_passes = 20;
  st.draft_tokens = 100;
  SpeculativeConfig cfg;
  cfg.draft_token_latency = 0.0;
  EXPECT_NEAR(st.speedup(cfg), st.tokens_per_pass(), 1e-12);
}

TEST(Markov, ConstructorRejectsNonStochasticRows) {
  // Row sums off by more than the tolerance must be caught at the
  // boundary, not silently renormalized.
  nn::Tensor bad({2, 2}, {0.9, 0.9, 0.5, 0.5});
  EXPECT_THROW(MarkovModel(2, std::move(bad)), CheckError);
  nn::Tensor negative({2, 2}, {1.5, -0.5, 0.5, 0.5});
  EXPECT_THROW(MarkovModel(2, std::move(negative)), CheckError);
}

TEST(Markov, SmoothedZeroIsIdentity) {
  Rng rng(19);
  const MarkovModel m = MarkovModel::random(8, 4.0, rng);
  const MarkovModel same = m.smoothed(0.0);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      EXPECT_DOUBLE_EQ(same.prob(i, j), m.prob(i, j));
}

TEST(Markov, SampleMatchesTransitionProbabilities) {
  Rng rng(20);
  const MarkovModel m = MarkovModel::random(6, 3.0, rng);
  const int current = 2;
  std::vector<double> freq(6, 0.0);
  const int draws = 60000;
  for (int i = 0; i < draws; ++i)
    freq[static_cast<std::size_t>(m.sample(current, rng))] += 1.0 / draws;
  for (int j = 0; j < 6; ++j)
    EXPECT_NEAR(freq[static_cast<std::size_t>(j)], m.prob(current, j), 0.01);
}

TEST(Speculative, GammaOneStillAmortizesViaBonusToken) {
  Rng rng(24);
  const MarkovModel target = MarkovModel::random(8, 4.0, rng);
  SpeculativeConfig cfg;
  cfg.gamma = 1;
  const SpeculativeStats st =
      speculative_decode(target, target, 1000, cfg, rng);
  // Perfect draft at γ=1: every pass yields the draft token + the bonus.
  EXPECT_NEAR(st.acceptance_rate(), 1.0, 1e-12);
  EXPECT_NEAR(st.tokens_per_pass(), 2.0, 0.1);
  EXPECT_EQ(st.tokens_generated, 1000);
  EXPECT_GE(st.draft_tokens, st.accepted);
}

TEST(Speculative, DecodeIsDeterministicForAGivenSeed) {
  Rng model_rng(25);
  const MarkovModel target = MarkovModel::random(12, 4.0, model_rng);
  const MarkovModel draft = target.smoothed(0.4);
  Rng r1(26), r2(26);
  std::vector<int> s1, s2;
  const SpeculativeStats a =
      speculative_decode(target, draft, 800, SpeculativeConfig{}, r1, &s1);
  const SpeculativeStats b =
      speculative_decode(target, draft, 800, SpeculativeConfig{}, r2, &s2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(a.target_passes, b.target_passes);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.draft_tokens, b.draft_tokens);
}

TEST(Speculative, UnigramDistributionCountsExactly) {
  const std::vector<int> tokens{0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  const auto d = unigram_distribution(tokens, 5);
  ASSERT_EQ(d.size(), 5u);
  EXPECT_DOUBLE_EQ(d[0], 0.1);
  EXPECT_DOUBLE_EQ(d[1], 0.2);
  EXPECT_DOUBLE_EQ(d[2], 0.3);
  EXPECT_DOUBLE_EQ(d[3], 0.4);
  EXPECT_DOUBLE_EQ(d[4], 0.0);
}

}  // namespace
}  // namespace s2a::federated

// ------------------------------------------------------------------
// Parallel-vs-serial equivalence for federated rounds. run_federated is
// deterministic given the seed of the server Rng: per-client streams are
// spawned serially in client order before the parallel section, and the
// cost/aggregation reductions are client-ordered on the calling thread —
// so results are bit-exact at every thread count (no float tolerance;
// reduction order never changes).
#include <thread>

#include "util/thread_pool.hpp"

namespace s2a::federated {
namespace {

std::vector<int> fl_thread_counts() {
  std::vector<int> counts{2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1 && hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

sim::ClassificationDataset slice_dataset(const sim::ClassificationDataset& src,
                                         std::size_t lo, std::size_t hi) {
  sim::ClassificationDataset out;
  out.feature_dim = src.feature_dim;
  out.num_classes = src.num_classes;
  for (std::size_t i = lo; i < hi; ++i) {
    out.features.push_back(src.features[i]);
    out.labels.push_back(src.labels[i]);
  }
  return out;
}

class FlEquivalenceTest : public ::testing::TestWithParam<FlStrategy> {};

TEST_P(FlEquivalenceTest, RoundResultsBitExactAcrossThreadCounts) {
  Rng data_rng(21);
  const auto full = sim::make_gaussian_classes(450, 16, 10, 3.0, data_rng);
  const auto tr = slice_dataset(full, 0, 300);
  const auto te = slice_dataset(full, 300, 450);
  Rng part_rng(22);
  const auto shards = sim::dirichlet_partition(tr.labels, 5, 10, 0.5, part_rng);
  const auto fleet = make_heterogeneous_fleet(5, part_rng);
  FlConfig cfg;
  cfg.rounds = 3;

  FlResult serial;
  {
    util::ScopedGlobalThreads threads(1);
    Rng rng(23);
    serial = run_federated(GetParam(), tr, te, shards, fleet, cfg, rng);
  }
  for (int threads : fl_thread_counts()) {
    util::ScopedGlobalThreads scoped(threads);
    Rng rng(23);  // same fixed seed -> same per-client spawned streams
    const FlResult parallel =
        run_federated(GetParam(), tr, te, shards, fleet, cfg, rng);
    ASSERT_EQ(parallel.accuracy_per_round.size(),
              serial.accuracy_per_round.size());
    for (std::size_t r = 0; r < serial.accuracy_per_round.size(); ++r)
      EXPECT_DOUBLE_EQ(parallel.accuracy_per_round[r],
                       serial.accuracy_per_round[r])
          << threads << " threads, round " << r;
    EXPECT_DOUBLE_EQ(parallel.final_accuracy, serial.final_accuracy);
    EXPECT_DOUBLE_EQ(parallel.total_energy_j, serial.total_energy_j);
    EXPECT_DOUBLE_EQ(parallel.total_latency_s, serial.total_latency_s);
    EXPECT_DOUBLE_EQ(parallel.mean_area_mm2, serial.mean_area_mm2);
    EXPECT_EQ(parallel.client_widths, serial.client_widths);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FlEquivalenceTest,
                         ::testing::Values(FlStrategy::kStaticFl,
                                           FlStrategy::kDcNas,
                                           FlStrategy::kHaloFl),
                         [](const ::testing::TestParamInfo<FlStrategy>& info) {
                           switch (info.param) {
                             case FlStrategy::kStaticFl:
                               return "StaticFl";
                             case FlStrategy::kDcNas:
                               return "DcNas";
                             case FlStrategy::kHaloFl:
                               return "HaloFl";
                           }
                           return "unknown";
                         });

TEST(FlEquivalence, EvaluateAccuracyExactAcrossThreadCounts) {
  Rng rng(24);
  const auto ds = sim::make_gaussian_classes(500, 16, 4, 3.0, rng);
  const MlpParams p = init_mlp(16, 32, 4, rng);
  double serial = 0.0;
  {
    util::ScopedGlobalThreads threads(1);
    serial = evaluate_accuracy(p, ds);
  }
  for (int threads : fl_thread_counts()) {
    util::ScopedGlobalThreads scoped(threads);
    EXPECT_DOUBLE_EQ(evaluate_accuracy(p, ds), serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace s2a::federated
