// Tests for hierarchical streaming federated aggregation: flat-vs-tree
// bit-identity at every thread count, seeded cohort sampling, top-k +
// error-feedback compression, per-edge deadline semantics, fault
// quarantine at every tree level, and the flat-memory scaling invariant
// (peak aggregator memory independent of client count, dense and
// sampled + top-k).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "fault/fault.hpp"
#include "federated/compress.hpp"
#include "federated/fedavg.hpp"
#include "federated/hierarchy.hpp"
#include "sim/dataset.hpp"
#include "util/thread_pool.hpp"
#include "federated_oracle.hpp"

namespace s2a::federated {
namespace {

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

/// Shared non-IID fixture: 9 clients over a 300/150 train/test split.
struct FlFixture {
  sim::ClassificationDataset tr, te;
  std::vector<std::vector<int>> shards;
  std::vector<HardwareProfile> fleet;
};

FlFixture make_fixture(int clients = 9) {
  FlFixture f;
  Rng data_rng(21);
  const auto full = sim::make_gaussian_classes(450, 16, 10, 3.0, data_rng);
  f.tr = slice_dataset(full, 0, 300);
  f.te = slice_dataset(full, 300, 450);
  Rng part_rng(22);
  f.shards =
      sim::dirichlet_partition(f.tr.labels, clients, 10, 0.5, part_rng);
  f.fleet = make_heterogeneous_fleet(clients, part_rng);
  return f;
}

void expect_results_equal(const FlResult& a, const FlResult& b) {
  ASSERT_EQ(a.accuracy_per_round.size(), b.accuracy_per_round.size());
  for (std::size_t r = 0; r < a.accuracy_per_round.size(); ++r)
    EXPECT_DOUBLE_EQ(a.accuracy_per_round[r], b.accuracy_per_round[r])
        << "round " << r;
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_DOUBLE_EQ(a.total_latency_s, b.total_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_area_mm2, b.mean_area_mm2);
  EXPECT_EQ(a.dropped_client_rounds, b.dropped_client_rounds);
  EXPECT_EQ(a.nonfinite_deltas, b.nonfinite_deltas);
  EXPECT_EQ(a.survivors_per_round, b.survivors_per_round);
  EXPECT_EQ(a.client_widths, b.client_widths);
}

// ---------------------------------------------------------------------------
// Flat ≡ hierarchical bit-identity (the tentpole acceptance criterion).

class HierEquivalenceTest : public ::testing::TestWithParam<FlStrategy> {};

TEST_P(HierEquivalenceTest, TreeShapeAndThreadsDoNotChangeResults) {
  const FlFixture f = make_fixture();
  // Client-level chaos rides along so the deadline/quarantine paths are
  // part of the equivalence, not just the happy path.
  fault::FaultPlan plan({
      {fault::FaultKind::kClientStraggler, 0.0, 3.0, 1, 1e6},
      {fault::FaultKind::kClientDropout, 1.0, 3.0, 3, 0.0},
      {fault::FaultKind::kClientCorrupt, 0.0, 2.0, 5, 0.0},
  });
  FlConfig cfg;
  cfg.rounds = 3;
  cfg.client_timeout_s = 60.0;

  FlResult flat;
  {
    util::ScopedGlobalThreads threads(1);
    Rng rng(23);
    flat = run_federated(GetParam(), f.tr, f.te, f.shards, f.fleet, cfg, rng,
                         &plan);
  }

  for (int threads : {1, 4}) {
    util::ScopedGlobalThreads scoped(threads);
    {
      Rng rng(23);
      const FlResult again = run_federated(GetParam(), f.tr, f.te, f.shards,
                                           f.fleet, cfg, rng, &plan);
      expect_results_equal(again, flat);
    }
    // Full participant set, uncompressed, through a deep tree: 5 edges
    // of ≤2 clients grouped into 3 regions.
    HierConfig hier;
    hier.fl = cfg;
    hier.clients_per_edge = 2;
    hier.edges_per_region = 2;
    Rng rng(23);
    const HierResult tree = run_federated_hier(
        GetParam(), f.tr, f.te, f.shards, f.fleet, hier, rng, &plan);
    expect_results_equal(tree.fl, flat);
    EXPECT_EQ(tree.hier.edges, 5);
    EXPECT_EQ(tree.hier.regions, 3);
    EXPECT_EQ(tree.hier.dropped_edge_rounds, 0);
    EXPECT_EQ(tree.hier.quarantined_edges, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, HierEquivalenceTest,
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

// ---------------------------------------------------------------------------
// Seeded per-round sampling.

TEST(FedSampling, CohortIsSortedUniqueAndSized) {
  std::vector<std::vector<int>> shards(40, std::vector<int>{0});
  const auto cohort =
      sample_cohort(SampleMode::kUniform, 0.25, 1234, shards);
  EXPECT_EQ(cohort.size(), 10u);  // ceil(0.25 * 40)
  EXPECT_TRUE(std::is_sorted(cohort.begin(), cohort.end()));
  EXPECT_EQ(std::adjacent_find(cohort.begin(), cohort.end()), cohort.end());
  for (int c : cohort) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 40);
  }
  // Pure function of the seed.
  EXPECT_EQ(cohort, sample_cohort(SampleMode::kUniform, 0.25, 1234, shards));
  EXPECT_NE(cohort, sample_cohort(SampleMode::kUniform, 0.25, 1235, shards));
  // kAll and fraction 1.0 train everyone.
  EXPECT_EQ(sample_cohort(SampleMode::kAll, 0.1, 7, shards).size(), 40u);
  EXPECT_EQ(sample_cohort(SampleMode::kUniform, 1.0, 7, shards).size(), 40u);
}

TEST(FedSampling, WeightedSamplingPrefersLargeShards) {
  // Client 0 holds 20 samples, everyone else 2: its inclusion frequency
  // at fraction 0.3 must dwarf a small client's.
  std::vector<std::vector<int>> shards(10, std::vector<int>{0, 1});
  shards[0].assign(20, 0);
  int big = 0, small = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto cohort =
        sample_cohort(SampleMode::kWeightedByShard, 0.3, seed, shards);
    EXPECT_EQ(cohort.size(), 3u);
    big += std::count(cohort.begin(), cohort.end(), 0);
    small += std::count(cohort.begin(), cohort.end(), 9);
  }
  EXPECT_GT(big, 2 * small);
  EXPECT_GT(big, 120);  // a 10x weight should win most rounds
}

TEST(FedSampling, SampledRunsBitIdenticalAcrossThreadCounts) {
  const FlFixture f = make_fixture();
  HierConfig hier;
  hier.fl.rounds = 3;
  hier.clients_per_edge = 3;
  hier.edges_per_region = 2;
  hier.sample_mode = SampleMode::kUniform;
  hier.sample_fraction = 0.5;

  HierResult serial;
  {
    util::ScopedGlobalThreads threads(1);
    Rng rng(31);
    serial = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te, f.shards,
                                f.fleet, hier, rng);
  }
  EXPECT_EQ(serial.hier.sampled_client_rounds, 3 * 5);  // ceil(0.5 * 9)
  {
    util::ScopedGlobalThreads threads(4);
    Rng rng(31);
    const HierResult parallel = run_federated_hier(
        FlStrategy::kStaticFl, f.tr, f.te, f.shards, f.fleet, hier, rng);
    expect_results_equal(parallel.fl, serial.fl);
    EXPECT_EQ(parallel.hier.sampled_client_rounds,
              serial.hier.sampled_client_rounds);
    EXPECT_EQ(parallel.hier.client_participation,
              serial.hier.client_participation);
  }
}

// ---------------------------------------------------------------------------
// Top-k compression with error feedback.

TEST(FedCompress, KeepCountCeilsAndNeverZeroes) {
  EXPECT_EQ(topk_keep_count(10, 0.25), 3u);  // ceil(2.5)
  EXPECT_EQ(topk_keep_count(10, 1.0), 10u);
  EXPECT_EQ(topk_keep_count(10, 0.01), 1u);
  EXPECT_EQ(topk_keep_count(0, 0.5), 0u);
}

TEST(FedCompress, SelectsLargestMagnitudesTiesTowardLowIndex) {
  std::vector<double> delta{0.1, -5.0, 3.0, 0.0, 2.0};
  const SparseDelta sd = topk_compress(delta, 0.4, nullptr, nullptr);
  ASSERT_EQ(sd.entries.size(), 2u);  // ceil(0.4 * 5)
  EXPECT_EQ(sd.entries[0].index, 1u);
  EXPECT_DOUBLE_EQ(sd.entries[0].value, -5.0);
  EXPECT_EQ(sd.entries[1].index, 2u);
  EXPECT_DOUBLE_EQ(sd.entries[1].value, 3.0);
  EXPECT_EQ(sd.dense_numel, 5u);

  std::vector<double> ties{1.0, -1.0, 1.0, -1.0};
  const SparseDelta tied = topk_compress(ties, 0.5, nullptr, nullptr);
  ASSERT_EQ(tied.entries.size(), 2u);
  EXPECT_EQ(tied.entries[0].index, 0u);
  EXPECT_EQ(tied.entries[1].index, 1u);
}

TEST(FedCompress, ErrorFeedbackConservesTheUpdate) {
  // shipped + residual' == delta_in + residual_in, position-exact.
  Rng rng(5);
  std::vector<double> delta(64), resid(64);
  for (auto& v : delta) v = rng.normal();
  for (auto& v : resid) v = 0.25 * rng.normal();
  const std::vector<double> delta_in = delta;
  const std::vector<double> resid_in = resid;

  const SparseDelta sd = topk_compress(delta, 0.25, &resid, nullptr);
  EXPECT_EQ(sd.entries.size(), 16u);
  std::vector<double> shipped(64, 0.0);
  for (const auto& e : sd.entries) shipped[e.index] = e.value;
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(shipped[i] + resid[i], delta_in[i] + resid_in[i]) << i;
    // A position is either shipped or carried, never both.
    EXPECT_TRUE(shipped[i] == 0.0 || resid[i] == 0.0) << i;
  }
}

TEST(FedCompress, EligibilityMaskGuardsPositionsAndResidual) {
  std::vector<double> delta{9.0, 8.0, 7.0, 6.0};
  std::vector<double> resid{0.5, 0.5, 0.5, 0.5};
  const std::vector<unsigned char> eligible{0, 1, 0, 1};
  const SparseDelta sd = topk_compress(delta, 0.5, &resid, &eligible);
  ASSERT_EQ(sd.entries.size(), 1u);  // ceil(0.5 * 2 eligible)
  EXPECT_EQ(sd.entries[0].index, 1u);
  EXPECT_DOUBLE_EQ(sd.entries[0].value, 8.5);  // residual folded in
  // Ineligible residuals untouched; the unshipped eligible one carries.
  EXPECT_DOUBLE_EQ(resid[0], 0.5);
  EXPECT_DOUBLE_EQ(resid[2], 0.5);
  EXPECT_DOUBLE_EQ(resid[1], 0.0);
  EXPECT_DOUBLE_EQ(resid[3], 6.5);
}

TEST(FedCompress, FullFractionShipsEverythingAndDrainsResidual) {
  std::vector<double> delta{1.0, 0.0, -2.0};
  std::vector<double> resid;  // empty: grown zero-filled
  const SparseDelta sd = topk_compress(delta, 1.0, &resid, nullptr);
  ASSERT_EQ(sd.entries.size(), 2u);  // exact zeros never ship
  EXPECT_EQ(sd.entries[0].index, 0u);
  EXPECT_EQ(sd.entries[1].index, 2u);
  ASSERT_EQ(resid.size(), 3u);
  for (double r : resid) EXPECT_DOUBLE_EQ(r, 0.0);
  EXPECT_LT(sparse_wire_bytes(sd), dense_wire_bytes(3) + 16);
}

/// A delta that exercises every ordering edge the selection has: runs
/// of equal magnitudes of both signs, ±0.0, subnormals and a spread of
/// exponents. `coarse` draws from a handful of magnitudes so the
/// keep-th key is almost always tied.
std::vector<double> adversarial_delta(std::size_t n, bool coarse, Rng& rng) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
    const double u = rng.uniform();
    if (u < 0.08) {
      d[i] = sign * 0.0;
    } else if (u < 0.16) {
      d[i] = sign * tiny * static_cast<double>(rng.uniform_int(1, 4));
    } else if (coarse) {
      d[i] = sign * std::ldexp(1.0, rng.uniform_int(-3, 0));
    } else if (u < 0.4 && i > 0) {
      // A tie with an earlier position, either sign.
      d[i] = sign * std::abs(d[static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<int>(i) - 1))]);
    } else {
      d[i] = rng.normal() * std::ldexp(1.0, rng.uniform_int(-20, 2));
    }
  }
  return d;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(bits(got[i]), bits(want[i])) << what << " @" << i;
}

void expect_same_entries(const SparseDelta& got, const SparseDelta& want) {
  EXPECT_EQ(got.dense_numel, want.dense_numel);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    ASSERT_EQ(got.entries[i].index, want.entries[i].index) << i;
    ASSERT_EQ(bits(got.entries[i].value), bits(want.entries[i].value)) << i;
  }
}

TEST(FedCompress, ThresholdSelectionMatchesComparatorOracleBitForBit) {
  // One output and one key buffer across every case: reuse after larger
  // and smaller calls must not leak entries or stale keys.
  SparseDelta out;
  std::vector<std::uint64_t> keys;
  Rng rng(2024);
  int cases = 0;
  for (std::size_t n : {1u, 2u, 5u, 276u, 4099u}) {
    for (double k : {1.0 / static_cast<double>(n), 0.25, 0.5, 1.0}) {
      for (int variant = 0; variant < 12; ++variant) {
        const bool coarse = variant % 2 == 1;
        const bool masked = (variant / 2) % 2 == 1;
        const int resid_mode = variant / 4;  // 0 none, 1 empty, 2 carried
        std::vector<double> delta = adversarial_delta(n, coarse, rng);
        std::vector<unsigned char> eligible(n, 1);
        if (masked)
          for (auto& e : eligible) e = rng.bernoulli(0.7) ? 1 : 0;
        std::vector<double> resid;
        if (resid_mode == 2) resid = adversarial_delta(n, coarse, rng);

        const auto* el = masked ? &eligible : nullptr;
        SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k
                                          << " variant=" << variant);
        std::vector<double> want_delta = delta, want_resid = resid;
        const SparseDelta want = oracle::topk_compress(
            want_delta, k, resid_mode > 0 ? &want_resid : nullptr, el);

        // Both forms: into the reused buffers, and the returning one.
        for (const bool reuse : {true, false}) {
          std::vector<double> got_delta = delta, got_resid = resid;
          std::vector<double>* r = resid_mode > 0 ? &got_resid : nullptr;
          if (reuse) {
            topk_compress(got_delta, k, r, el, out, keys);
            expect_same_entries(out, want);
          } else {
            expect_same_entries(topk_compress(got_delta, k, r, el), want);
          }
          expect_same_bits(got_delta, want_delta, "delta");
          expect_same_bits(got_resid, want_resid, "residual");
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 5 * 4 * 12);
}

TEST(FedCompress, NonFiniteValuesRankAboveEveryFiniteMagnitude) {
  // The key order is total: NaN above inf above every finite magnitude,
  // ties (here -inf vs +inf) toward the lower index.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> in{1.0, nan, -inf, 2.0, inf, -3.0};

  std::vector<double> delta = in;
  std::vector<double> resid;
  const SparseDelta three = topk_compress(delta, 0.5, &resid, nullptr);
  ASSERT_EQ(three.entries.size(), 3u);
  EXPECT_EQ(three.entries[0].index, 1u);
  EXPECT_TRUE(std::isnan(three.entries[0].value));
  EXPECT_EQ(three.entries[1].index, 2u);
  EXPECT_EQ(three.entries[1].value, -inf);
  EXPECT_EQ(three.entries[2].index, 4u);
  EXPECT_EQ(three.entries[2].value, inf);
  // Every finite entry is carried, every shipped one discharged.
  EXPECT_EQ(resid, (std::vector<double>{1.0, 0.0, 0.0, 2.0, 0.0, -3.0}));

  delta = in;
  const SparseDelta two = topk_compress(delta, 0.3, nullptr, nullptr);
  ASSERT_EQ(two.entries.size(), 2u);
  EXPECT_EQ(two.entries[0].index, 1u);
  EXPECT_EQ(two.entries[1].index, 2u);

  delta = in;
  const SparseDelta four = topk_compress(delta, 0.6, nullptr, nullptr);
  ASSERT_EQ(four.entries.size(), 4u);
  EXPECT_EQ(four.entries[3].index, 5u);  // the largest finite magnitude
}

TEST(FedCompress, CompressedRunConvergesNearDenseAndSavesBytes) {
  const FlFixture f = make_fixture(6);
  HierConfig dense;
  dense.fl.rounds = 8;
  dense.clients_per_edge = 3;
  dense.edges_per_region = 2;

  HierConfig sparse = dense;
  sparse.topk_fraction = 0.25;
  sparse.error_feedback = true;

  Rng r1(41), r2(41);
  const HierResult d = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                          f.shards, f.fleet, dense, r1);
  const HierResult s = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                          f.shards, f.fleet, sparse, r2);
  // Error feedback keeps top-k in the dense run's accuracy band.
  EXPECT_GT(s.fl.final_accuracy, 0.45);
  EXPECT_NEAR(s.fl.final_accuracy, d.fl.final_accuracy, 0.2);
  // Compression is billed: 4x fewer client->edge update bytes.
  EXPECT_LT(s.hier.bytes_on_wire, d.hier.bytes_on_wire);
  EXPECT_GT(s.hier.compression_ratio(), 1.0);
  // An uncompressed run costs exactly its own dense counterfactual.
  EXPECT_DOUBLE_EQ(d.hier.compression_ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// Deadlines and fault quarantine at every tree level.

TEST(FedHierFaults, ClientDeadlineIsAppliedPerEdgeAggregator) {
  const FlFixture f = make_fixture(6);
  // One pathologically slow device in each of the two edges.
  auto fleet = f.fleet;
  fleet[2].throughput_macs_per_s = 1.0;  // edge 0: clients 0..2
  fleet[5].throughput_macs_per_s = 1.0;  // edge 1: clients 3..5
  HierConfig hier;
  hier.fl.rounds = 2;
  hier.fl.client_timeout_s = 120.0;
  hier.clients_per_edge = 3;
  hier.edges_per_region = 2;

  Rng rng(51);
  const HierResult res = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                            f.shards, fleet, hier, rng);
  // Each edge drops exactly its own slow client each round; the edge's
  // wait (and so the round latency) is capped at the deadline.
  EXPECT_EQ(res.fl.dropped_client_rounds, 2 * 2);
  EXPECT_EQ(res.fl.survivors_per_round, (std::vector<int>{4, 4}));
  EXPECT_LE(res.fl.total_latency_s, 2 * hier.fl.client_timeout_s);
  EXPECT_EQ(res.hier.dropped_edge_rounds, 0);
}

TEST(FedHierFaults, CorruptEdgeQuarantinedLikeACorruptClientDelta) {
  const FlFixture f = make_fixture(9);
  HierConfig hier;
  hier.fl.rounds = 3;
  hier.clients_per_edge = 3;
  hier.edges_per_region = 2;

  // Run A: edge 0's aggregate is poisoned every round and quarantined at
  // its region. Run B: edge 0's clients (0..2) are plan-dropped instead.
  // The surviving aggregation must be bit-identical — a quarantined edge
  // is excluded exactly like a quarantined client delta.
  HierConfig poisoned = hier;
  poisoned.edge_faults = fault::FaultPlan(
      {{fault::FaultKind::kClientCorrupt, 0.0, 3.0, 0, 0.0}});
  fault::FaultPlan drop_clients({
      {fault::FaultKind::kClientDropout, 0.0, 3.0, 0, 0.0},
      {fault::FaultKind::kClientDropout, 0.0, 3.0, 1, 0.0},
      {fault::FaultKind::kClientDropout, 0.0, 3.0, 2, 0.0},
  });

  Rng r1(61), r2(61);
  const HierResult a = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                          f.shards, f.fleet, poisoned, r1);
  const HierResult b = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                          f.shards, f.fleet, hier, r2,
                                          &drop_clients);
  ASSERT_EQ(a.fl.accuracy_per_round.size(), b.fl.accuracy_per_round.size());
  for (std::size_t r = 0; r < a.fl.accuracy_per_round.size(); ++r)
    EXPECT_DOUBLE_EQ(a.fl.accuracy_per_round[r], b.fl.accuracy_per_round[r]);
  EXPECT_EQ(a.fl.survivors_per_round, b.fl.survivors_per_round);
  EXPECT_EQ(a.hier.quarantined_edges, 3);
  // Level-summed accounting: 3 stranded clients per round in run A.
  EXPECT_EQ(a.fl.dropped_client_rounds, 3 * 3);
  EXPECT_EQ(b.fl.dropped_client_rounds, 3 * 3);
  // Stranded clients still burned device energy; plan-dropped ones never
  // computed at all.
  EXPECT_GT(a.fl.total_energy_j, b.fl.total_energy_j);
}

TEST(FedHierFaults, StragglerEdgePastDeadlineIsDroppedWholesale) {
  const FlFixture f = make_fixture(9);
  HierConfig hier;
  hier.fl.rounds = 2;
  hier.clients_per_edge = 3;
  hier.edges_per_region = 2;
  hier.edge_timeout_s = 300.0;
  hier.edge_faults = fault::FaultPlan(
      {{fault::FaultKind::kClientStraggler, 0.0, 2.0, 1, 1e9}});

  Rng rng(71);
  const HierResult res = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                            f.shards, f.fleet, hier, rng);
  EXPECT_EQ(res.hier.dropped_edge_rounds, 2);
  // Edge 1's three surviving updates are stranded each round, and the
  // region waits out exactly the edge deadline.
  EXPECT_EQ(res.fl.dropped_client_rounds, 2 * 3);
  EXPECT_EQ(res.fl.survivors_per_round, (std::vector<int>{6, 6}));
  EXPECT_LE(res.fl.total_latency_s, 2 * hier.edge_timeout_s);
  EXPECT_GE(res.fl.total_latency_s, 2 * 300.0 - 1e-9);
}

TEST(FedHierFaults, RegionLossLeavesModelUnchanged) {
  const FlFixture f = make_fixture(6);
  HierConfig hier;
  hier.fl.rounds = 3;
  hier.clients_per_edge = 3;
  hier.edges_per_region = 2;
  hier.region_faults = fault::FaultPlan(
      {{fault::FaultKind::kClientDropout, 0.0, 2.0, -1, 0.0}});

  Rng rng(81);
  const HierResult res = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                            f.shards, f.fleet, hier, rng);
  EXPECT_EQ(res.hier.dropped_region_rounds, 2);
  EXPECT_EQ(res.fl.survivors_per_round[0], 0);
  EXPECT_EQ(res.fl.survivors_per_round[1], 0);
  // Rounds that lose every client leave the broadcast model untouched.
  EXPECT_DOUBLE_EQ(res.fl.accuracy_per_round[0],
                   res.fl.accuracy_per_round[1]);
  // Round 2 aggregates normally again.
  EXPECT_EQ(res.fl.survivors_per_round[2], 6);
}

TEST(FedHierFaults, HugeFiniteDeltaSaturationIsCountedAtAnyThreadCount) {
  // A learning rate this large drives client deltas far past the Q32.32
  // range while they stay finite: the fold clamps those terms, and the
  // clamp count is a per-term integer sum, so it (and everything the
  // clamped aggregate produces) is identical at every thread count.
  const FlFixture f = make_fixture(9);
  HierConfig hier;
  hier.fl.rounds = 2;
  hier.fl.local_epochs = 1;
  hier.fl.lr = 1e3;
  hier.clients_per_edge = 3;
  hier.edges_per_region = 2;

  HierResult serial;
  {
    util::ScopedGlobalThreads threads(1);
    Rng rng(101);
    serial = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te, f.shards,
                                f.fleet, hier, rng);
  }
  EXPECT_GT(serial.hier.saturated_terms, 0);
  EXPECT_EQ(serial.fl.nonfinite_deltas, 0);  // finite: not quarantined
  {
    util::ScopedGlobalThreads threads(4);
    Rng rng(101);
    const HierResult pooled = run_federated_hier(
        FlStrategy::kStaticFl, f.tr, f.te, f.shards, f.fleet, hier, rng);
    EXPECT_EQ(pooled.hier.saturated_terms, serial.hier.saturated_terms);
    expect_results_equal(pooled.fl, serial.fl);
  }

  // A sane learning rate never saturates.
  HierConfig sane = hier;
  sane.fl.lr = 0.08;
  Rng rng(101);
  const HierResult ok = run_federated_hier(FlStrategy::kStaticFl, f.tr, f.te,
                                           f.shards, f.fleet, sane, rng);
  EXPECT_EQ(ok.hier.saturated_terms, 0);
}

// ---------------------------------------------------------------------------
// Memory-bounded streaming (the scale invariant, unit-sized).

TEST(FedHierScale, PeakAggregatorMemoryIndependentOfClientCount) {
  // The streaming reduction holds O(levels + threads) model buffers,
  // never one per client. Each configuration runs at two client counts
  // 4x apart on a pinned 4-slot pool; its edges are wide enough that an
  // edge's cohort fills the pool at both, so the pool, not the cohort,
  // sets the workspace count.
  util::ScopedGlobalThreads threads(4);
  Rng data_rng(91);
  const auto full = sim::make_gaussian_classes(120, 8, 3, 3.0, data_rng);
  const auto tr = slice_dataset(full, 0, 80);
  const auto te = slice_dataset(full, 80, 120);

  const auto run_fleet = [&](int clients, const HierConfig& hier) {
    std::vector<std::vector<int>> shards(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      shards[static_cast<std::size_t>(c)] = {c % 80, (c * 7 + 3) % 80};
    Rng fleet_rng(92);
    const auto fleet = make_heterogeneous_fleet(clients, fleet_rng);
    Rng rng(93);
    return run_federated_hier(FlStrategy::kStaticFl, tr, te, shards, fleet,
                              hier, rng);
  };

  // Full participation, dense updates.
  HierConfig dense;
  dense.fl.rounds = 2;
  dense.fl.local_epochs = 1;
  dense.fl.hidden = 8;
  dense.clients_per_edge = 16;
  dense.edges_per_region = 4;
  const HierResult small = run_fleet(64, dense);
  const HierResult large = run_fleet(256, dense);
  EXPECT_GT(small.hier.peak_accumulator_bytes, 0u);
  // Same model, same pool, same edge width: the streaming engine's
  // high-water mark is byte-for-byte identical at 4x the fleet size.
  EXPECT_EQ(large.hier.peak_accumulator_bytes,
            small.hier.peak_accumulator_bytes);
  EXPECT_EQ(small.hier.edges, 4);
  EXPECT_EQ(large.hier.edges, 16);
  EXPECT_EQ(large.fl.survivors_per_round, (std::vector<int>{256, 256}));

  // The constrained uplink: a 5% uniform cohort, top-25% deltas with
  // error feedback, updates billed through the link model. About 6
  // sampled clients per 128-client edge.
  HierConfig sampled = dense;
  sampled.clients_per_edge = 128;
  sampled.sample_mode = SampleMode::kUniform;
  sampled.sample_fraction = 0.05;
  sampled.topk_fraction = 0.25;
  sampled.error_feedback = true;
  sampled.bill_uplink = true;
  const HierResult s_small = run_fleet(1024, sampled);
  const HierResult s_large = run_fleet(4096, sampled);
  EXPECT_GT(s_small.hier.peak_accumulator_bytes, 0u);
  EXPECT_EQ(s_large.hier.peak_accumulator_bytes,
            s_small.hier.peak_accumulator_bytes);
  EXPECT_EQ(s_small.hier.edges, 8);
  EXPECT_EQ(s_large.hier.edges, 32);
  // The cohort really is sampled and the updates really are compressed.
  EXPECT_LT(s_large.hier.sampled_client_rounds, 2L * 4096 / 10);
  EXPECT_GT(s_large.hier.compression_ratio(), 1.0);
}

}  // namespace
}  // namespace s2a::federated
