// fed_round: one op is one run_federated_hier round at one thread over
// 2048 clients in a 64-per-edge tree: 25% uniform sampling, top-k 0.25
// with error feedback, uplink billing through the net link model, and a
// seeded fault plan per round (client dropouts, stragglers and corrupt
// deltas, plus a poisoned edge aggregate on half the rounds). Modeled
// drops and quarantines are counts, not failures.
//
// Rounds cycle through a pool of seeded (round seed, fault plan) pairs,
// so the first pass over the pool is deterministic: fed_accuracy is the
// mean global-model test accuracy over it. Check: the first rounds of
// the pool replayed on the thread pool give identical FlResults.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "fault/fault.hpp"
#include "federated/fedavg.hpp"
#include "federated/hierarchy.hpp"
#include "sim/dataset.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 2048;
constexpr int kRounds = 32;  // pool of distinct rounds, cycled
constexpr int kReplayed = 4;

struct Setup {
  sim::ClassificationDataset train, test;
  std::vector<std::vector<int>> shards;
  std::vector<federated::HardwareProfile> fleet;
  std::vector<federated::HierConfig> configs;
  std::vector<fault::FaultPlan> plans;
  std::vector<std::uint64_t> round_seeds;
};

Setup make_setup(std::uint64_t seed) {
  Setup s;
  // The task — one draw of class means, split into train and test — is
  // fixed; the seed draws the fleet, the cohorts and the faults.
  Rng task_rng(kModelSeed);
  const sim::ClassificationDataset all =
      sim::make_gaussian_classes(2560, 12, 4, 3.0, task_rng);
  Rng rng(seed);
  s.train.feature_dim = s.test.feature_dim = all.feature_dim;
  s.train.num_classes = s.test.num_classes = all.num_classes;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& part = i < 2048 ? s.train : s.test;
    part.features.push_back(all.features[i]);
    part.labels.push_back(all.labels[i]);
  }
  // Small fixed shards: the round's cost is the engine's (sampling,
  // compression, streaming fold, accounting), not the local model's.
  const int n = static_cast<int>(s.train.size());
  s.shards.resize(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int j = 0; j < 4; ++j) s.shards[c].push_back((c * 7 + j * 61 + 3) % n);
  s.fleet = federated::make_heterogeneous_fleet(kClients, rng);

  federated::HierConfig base;
  base.fl.rounds = 1;
  base.fl.local_epochs = 2;
  base.fl.lr = 0.3;
  base.fl.batch = 4;
  base.fl.hidden = 16;
  base.clients_per_edge = 64;
  base.edges_per_region = 8;
  base.sample_mode = federated::SampleMode::kUniform;
  base.sample_fraction = 0.25;
  base.topk_fraction = 0.25;
  base.error_feedback = true;
  base.bill_uplink = true;
  const int edges = kClients / base.clients_per_edge;
  for (int i = 0; i < kRounds; ++i) {
    federated::HierConfig c = base;
    if (rng.uniform() < 0.5) {
      fault::FaultEvent ev;
      ev.kind = fault::FaultKind::kClientCorrupt;
      ev.start = 0;
      ev.end = 1;
      ev.target = rng.uniform_int(0, edges - 1);
      c.edge_faults = fault::FaultPlan({ev});
    }
    s.configs.push_back(std::move(c));
    s.plans.push_back(fault::FaultPlan::random_client_plan(rng.next_u64(), 1,
                                                           kClients, 96));
    s.round_seeds.push_back(rng.next_u64());
  }
  return s;
}

federated::HierResult round(const Setup& s, long i) {
  const std::size_t k = static_cast<std::size_t>(i % kRounds);
  Rng rng(s.round_seeds[k]);
  return federated::run_federated_hier(federated::FlStrategy::kStaticFl,
                                       s.train, s.test, s.shards, s.fleet,
                                       s.configs[k], rng, &s.plans[k]);
}

bool same_result(const federated::HierResult& a, const federated::HierResult& b) {
  const auto& x = a.fl;
  const auto& y = b.fl;
  return x.final_accuracy == y.final_accuracy &&
         x.accuracy_per_round == y.accuracy_per_round &&
         x.total_energy_j == y.total_energy_j &&
         x.total_latency_s == y.total_latency_s &&
         x.dropped_client_rounds == y.dropped_client_rounds &&
         x.nonfinite_deltas == y.nonfinite_deltas &&
         x.survivors_per_round == y.survivors_per_round &&
         a.hier.bytes_on_wire == b.hier.bytes_on_wire &&
         a.hier.quarantined_edges == b.hier.quarantined_edges &&
         a.hier.client_participation == b.hier.client_participation;
}

long participants(const federated::HierResult& h) {
  long n = 0;
  for (int p : h.hier.client_participation) n += p;
  return n;
}

}  // namespace

Result run_fed_round(const Options& o) {
  util::set_global_threads(1);
  Result r;
  const Setup su = repeated_setup(r, 3, [&] { return make_setup(o.seed); });

  for (long i = 0; i < 8; ++i) round(su, 1000 + i);  // untimed warm-up

  std::vector<federated::HierResult> first;  // one pass over the pool
  double energy_j = 0.0;
  long rounds = 0;
  // Traced-run accounting, per op.
  std::vector<long> traced_participants;
  double peak_acc = 0.0, dropped = 0.0, quarantined = 0.0, bytes = 0.0,
         ratio = 0.0;
  auto op = [&](bool traced) {
    SpanLog::set_op(rounds);
    const double t0 = now_s();
    federated::HierResult h;
    bool threw = false;
    try {
      h = round(su, rounds);
    } catch (const std::exception&) {
      threw = true;
    }
    const double ms = (now_s() - t0) * 1e3;
    ++r.attempted;
    if (threw) {
      count_failure(r, "exception");
    } else if (!std::isfinite(h.fl.final_accuracy)) {
      count_failure(r, "nonfinite_accuracy");
    }
    if (rounds < kRounds) first.push_back(h);
    ++rounds;
    energy_j += h.fl.total_energy_j;
    if (traced) {
      traced_participants.push_back(participants(h));
      peak_acc += static_cast<double>(h.hier.peak_accumulator_bytes);
      dropped += static_cast<double>(h.fl.dropped_client_rounds);
      quarantined += static_cast<double>(h.hier.quarantined_edges);
      bytes += h.hier.bytes_on_wire;
      ratio += h.hier.compression_ratio();
    }
    return ms;
  };

  const Segments seg = Segments::of(o);
  auto quiet = std::make_unique<QuietCpu>();
  {
    Budget b{seg.untraced_s, seg.min_ops};
    while (b.more(static_cast<long>(r.op_ms.size()))) {
      quiet->between_ops();
      r.op_ms.push_back(op(false));
      r.op_end_s.push_back(now_s() - b.start_s);
    }
    r.wall_s = now_s() - b.start_s;
  }
  SpanLog spans;
  if (o.trace) {
    Budget b{seg.traced_s, seg.min_ops};
    while (b.more(static_cast<long>(r.traced_op_ms.size()))) {
      quiet->between_ops();
      const double t0 = now_s();
      r.traced_op_ms.push_back(op(true));
      spans.add("federated.round", 0, t0, now_s() - t0);
    }
  }
  r.info.emplace_back("cpu_moves", std::to_string(quiet->moves()));
  quiet.reset();
  r.peak_rss_mb = peak_rss_mb();
  // Complete the first pass over the pool (slow hosts); not measured.
  const long attempted = r.attempted;
  while (rounds < kRounds) op(false);
  r.attempted = attempted;

  r.energy_mj_per_op = energy_j / static_cast<double>(rounds) * 1e3;
  double acc = 0.0;
  for (const auto& h : first) acc += h.fl.final_accuracy;
  r.quality = acc / static_cast<double>(first.size());
  r.named_quality = {{"fed_accuracy", r.quality}};

  if (o.trace) {
    // The public local_train on the workload's own shards, timed apart
    // from the engine: one client's local update.
    const auto& cfg = su.configs[0].fl;
    Rng rng(o.seed + 7);
    const federated::MlpParams init = federated::init_mlp(
        su.train.feature_dim, cfg.hidden, su.train.num_classes, rng);
    const std::vector<bool> active(static_cast<std::size_t>(cfg.hidden), true);
    double lt_s = 0.0;
    const int samples = 512;
    for (int i = 0; i < samples; ++i) {
      federated::MlpParams p = init;
      const auto& shard = su.shards[static_cast<std::size_t>(i * 4 % kClients)];
      Timed t(&spans, &lt_s, "federated.local_train");
      federated::local_train(p, su.train, shard, active, federated::PrecisionConfig{},
                             cfg.local_epochs, cfg.batch, cfg.lr, rng);
    }
    const double lt_us = lt_s / samples * 1e6;
    LayerRows rows({"federated.local_train_total_ms", "federated.aggregate_self_ms",
                    "unattributed_us"});
    for (std::size_t i = 0; i < r.traced_op_ms.size(); ++i) {
      const double local_s = traced_participants[i] * lt_us * 1e-6;
      rows.add({local_s, r.traced_op_ms[i] * 1e-3 - local_s, 0.0}, r.traced_op_ms[i]);
    }
    const auto means = rows.band_means();
    r.layers.emplace_back("federated.local_train_total_ms", means[0] * 1e3);
    r.layers.emplace_back("federated.aggregate_self_ms", means[1] * 1e3);
    r.layers.emplace_back("unattributed_us", 0.0);
    r.self_layers = {"federated.local_train_total_ms", "federated.aggregate_self_ms",
                     "unattributed_us"};
    const double n = static_cast<double>(r.traced_op_ms.size());
    double parts = 0.0;
    for (long p : traced_participants) parts += static_cast<double>(p);
    r.layers.emplace_back("federated.local_train_us", lt_us);
    r.layers.emplace_back("federated.clients_trained", parts / n);
    r.layers.emplace_back("federated.peak_accumulator_bytes", peak_acc / n);
    r.layers.emplace_back("federated.dropped_client_rounds", dropped / n);
    r.layers.emplace_back("federated.quarantined_edges", quarantined / n);
    r.layers.emplace_back("net.bytes_on_wire", bytes / n);
    r.layers.emplace_back("net.compression_ratio", ratio / n);
    spans.write_chrome_trace(o.out_dir + "/fed_round.trace.json");
  }

  // The first rounds again on the thread pool: identical results.
  const int threads = std::max(2, std::min(4, static_cast<int>(
                                                  std::thread::hardware_concurrency())));
  {
    util::ScopedGlobalThreads pool(threads);
    bool same = true;
    for (long i = 0; i < kReplayed; ++i) same = same && same_result(round(su, i), first[i]);
    r.checks.push_back({"fed_round.thread_invariant", same,
                        std::to_string(kReplayed) + " rounds at 1 vs " +
                            std::to_string(threads) + " threads"});
  }
  r.info.emplace_back("pool_threads", "1");
  r.info.emplace_back("replay_threads", std::to_string(threads));
  r.info.emplace_back("clients", std::to_string(kClients));
  return r;
}

}  // namespace perfbench
