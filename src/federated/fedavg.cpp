#include "federated/fedavg.hpp"

#include <algorithm>
#include <cmath>

#include "federated/hierarchy.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::federated {

const char* strategy_name(FlStrategy s) {
  switch (s) {
    case FlStrategy::kStaticFl:
      return "Static FL";
    case FlStrategy::kDcNas:
      return "DC-NAS";
    case FlStrategy::kHaloFl:
      return "HaLo-FL";
  }
  return "?";
}

MlpParams init_mlp(int in, int hidden, int classes, Rng& rng) {
  S2A_CHECK(in > 0 && hidden > 0 && classes > 1);
  MlpParams p;
  p.in = in;
  p.hidden = hidden;
  p.classes = classes;
  p.w1 = nn::Tensor::xavier(hidden, in, rng);
  p.b1 = nn::Tensor({hidden});
  p.w2 = nn::Tensor::xavier(classes, hidden, rng);
  p.b2 = nn::Tensor({classes});
  return p;
}

std::size_t mlp_macs(const MlpParams& p, int active_hidden) {
  return static_cast<std::size_t>(active_hidden) * (p.in + p.classes);
}

namespace {

// Forward for one sample over the listed hidden units (ascending); h
// (hidden entries) and logits (classes entries) are outputs, h zero on
// the unlisted units. Applies activation quantization when bits < 32.
void forward_one(const MlpParams& p, const double* x, const int* units,
                 std::size_t n_units, int act_bits, double* h,
                 double* logits) {
  std::fill(h, h + p.hidden, 0.0);
  double act_scale = 0.0;
  for (std::size_t u = 0; u < n_units; ++u) {
    const int j = units[u];
    double a = p.b1[static_cast<std::size_t>(j)];
    const double* w = p.w1.data() + static_cast<std::size_t>(j) * p.in;
    for (int i = 0; i < p.in; ++i) a += w[i] * x[i];
    h[j] = a > 0.0 ? a : 0.0;  // ReLU
    act_scale = std::max(act_scale, std::abs(h[j]));
  }
  // The unlisted units hold +0.0, which quantizes to itself.
  if (act_bits < 32 && act_scale > 0.0)
    for (std::size_t u = 0; u < n_units; ++u)
      h[units[u]] = quantize_value(h[units[u]], act_scale, act_bits);

  for (int c = 0; c < p.classes; ++c) {
    double a = p.b2[static_cast<std::size_t>(c)];
    const double* w = p.w2.data() + static_cast<std::size_t>(c) * p.hidden;
    for (std::size_t u = 0; u < n_units; ++u) a += w[units[u]] * h[units[u]];
    logits[c] = a;
  }
}

void softmax_inplace(double* v, int n) {
  double mx = v[0];
  for (int i = 0; i < n; ++i) mx = std::max(mx, v[i]);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    v[i] = std::exp(v[i] - mx);
    sum += v[i];
  }
  for (int i = 0; i < n; ++i) v[i] /= sum;
}

/// Per-thread local_train workspace. It only grows (to the largest
/// model and shard the thread has trained), so steady-state client
/// updates allocate nothing.
struct TrainScratch {
  std::vector<int> units;  // active hidden units, ascending
  std::vector<int> order;  // the epoch's sample order
  std::vector<double> h, logits, dlogits, dh;
};

TrainScratch& train_scratch() {
  thread_local TrainScratch scratch;
  return scratch;
}

}  // namespace

double evaluate_accuracy(const MlpParams& p,
                         const sim::ClassificationDataset& data,
                         const std::vector<int>& indices) {
  const std::size_t n = indices.empty() ? data.size() : indices.size();
  if (n == 0) return 0.0;
  // Sharded across samples; per-chunk hit counts are integers, so the
  // chunk-ordered sum is exact at every thread count.
  util::ThreadPool& pool = util::global_pool();
  const std::size_t grain = std::max<std::size_t>(
      64, (n + static_cast<std::size_t>(pool.size()) - 1) /
              static_cast<std::size_t>(pool.size()));
  const std::size_t chunks = util::ThreadPool::num_chunks(0, n, grain);
  std::vector<int> chunk_correct(chunks, 0);
  pool.parallel_for_chunks(
      0, n, grain, [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
        std::vector<int> units(static_cast<std::size_t>(p.hidden));
        for (int j = 0; j < p.hidden; ++j) units[static_cast<std::size_t>(j)] = j;
        std::vector<double> h(static_cast<std::size_t>(p.hidden));
        std::vector<double> logits(static_cast<std::size_t>(p.classes));
        int correct = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t idx =
              indices.empty() ? i : static_cast<std::size_t>(indices[i]);
          forward_one(p, data.features[idx].data(), units.data(), units.size(),
                      32, h.data(), logits.data());
          int best = 0;
          for (int c = 1; c < p.classes; ++c)
            if (logits[static_cast<std::size_t>(c)] >
                logits[static_cast<std::size_t>(best)])
              best = c;
          if (best == data.labels[idx]) ++correct;
        }
        chunk_correct[chunk] = correct;
      });
  int correct = 0;
  for (int c : chunk_correct) correct += c;
  return static_cast<double>(correct) / static_cast<double>(n);
}

double local_train(MlpParams& p, const sim::ClassificationDataset& data,
                   const std::vector<int>& shard,
                   const std::vector<bool>& active,
                   const PrecisionConfig& precision, int epochs, int batch,
                   double lr, Rng& rng) {
  S2A_TRACE_SCOPE_CAT("fed.local_train", "federated");
  S2A_CHECK(!shard.empty());
  S2A_CHECK(static_cast<int>(active.size()) == p.hidden);

  // Quantize weights in place once per round (weights are re-broadcast by
  // the server each round, so this models quantized local compute).
  if (precision.weight_bits < 32) {
    fake_quantize(p.w1.data(), p.w1.numel(), precision.weight_bits);
    fake_quantize(p.w2.data(), p.w2.numel(), precision.weight_bits);
  }

  // The mask is read once, into an ascending unit list: every loop below
  // visits the active units in the order the mask test did, so each
  // accumulation chain — and so every result bit — is unchanged.
  TrainScratch& s = train_scratch();
  s.units.clear();
  for (int j = 0; j < p.hidden; ++j)
    if (active[static_cast<std::size_t>(j)]) s.units.push_back(j);
  const int* units = s.units.data();
  const std::size_t n_units = s.units.size();
  s.order.assign(shard.begin(), shard.end());
  s.h.resize(static_cast<std::size_t>(p.hidden));
  s.dh.resize(static_cast<std::size_t>(p.hidden));
  s.logits.resize(static_cast<std::size_t>(p.classes));
  s.dlogits.resize(static_cast<std::size_t>(p.classes));
  double* h = s.h.data();
  double* dh = s.dh.data();
  double* logits = s.logits.data();
  double* dlogits = s.dlogits.data();

  const double sample_macs =
      3.0 * static_cast<double>(mlp_macs(p, static_cast<int>(n_units)));
  double macs = 0.0;
  (void)batch;  // per-sample SGD: batch kept in the signature for clarity

  for (int e = 0; e < epochs; ++e) {
    rng.shuffle(s.order);
    for (int idx : s.order) {
      const double* x = data.features[static_cast<std::size_t>(idx)].data();
      const int y = data.labels[static_cast<std::size_t>(idx)];
      forward_one(p, x, units, n_units, precision.activation_bits, h, logits);
      macs += sample_macs;

      softmax_inplace(logits, p.classes);
      std::copy(logits, logits + p.classes, dlogits);
      dlogits[y] -= 1.0;
      if (precision.gradient_bits < 32)
        fake_quantize(dlogits, static_cast<std::size_t>(p.classes),
                      precision.gradient_bits);

      // Backward + SGD update; lr * g is formed first, exactly as the
      // left-to-right product lr * g * h[j] evaluates it.
      std::fill(dh, dh + p.hidden, 0.0);
      for (int c = 0; c < p.classes; ++c) {
        double* w = p.w2.data() + static_cast<std::size_t>(c) * p.hidden;
        const double g = dlogits[c];
        const double lg = lr * g;
        for (std::size_t u = 0; u < n_units; ++u) {
          const int j = units[u];
          dh[j] += g * w[j];
          w[j] -= lg * h[j];
        }
        p.b2[static_cast<std::size_t>(c)] -= lg;
      }
      if (precision.gradient_bits < 32)
        fake_quantize(dh, static_cast<std::size_t>(p.hidden),
                      precision.gradient_bits);
      for (std::size_t u = 0; u < n_units; ++u) {
        const int j = units[u];
        if (h[j] <= 0.0) continue;  // ReLU gate
        const double lg = lr * dh[j];
        double* w = p.w1.data() + static_cast<std::size_t>(j) * p.in;
        for (int i = 0; i < p.in; ++i) w[i] -= lg * x[i];
        p.b1[static_cast<std::size_t>(j)] -= lg;
      }
    }
  }
  return macs;
}

int select_width(const HardwareProfile& hw, const FlConfig& cfg,
                 std::size_t shard_size, int in, int classes) {
  int best = cfg.width_candidates.front();
  for (int w : cfg.width_candidates) {
    const double round_macs = static_cast<double>(cfg.local_epochs) *
                              static_cast<double>(shard_size) * 3.0 *
                              static_cast<double>(w) * (in + classes);
    const RoundCost cost = round_cost(round_macs, hw, PrecisionConfig{});
    if (cost.latency_s <= hw.latency_budget_s) best = std::max(best, w);
  }
  return best;
}

PrecisionConfig select_precision(const HardwareProfile& hw,
                                 const FlConfig& cfg, double round_macs) {
  // Candidates are cheapest-first; HaLo-FL wants the *most precise*
  // configuration that still meets both budgets (accuracy first, then
  // efficiency), so scan from the precise end.
  for (auto it = cfg.precision_candidates.rbegin();
       it != cfg.precision_candidates.rend(); ++it) {
    const RoundCost cost = round_cost(round_macs, hw, *it);
    if (cost.latency_s <= hw.latency_budget_s &&
        cost.energy_j <= hw.energy_budget_j)
      return *it;
  }
  return cfg.precision_candidates.front();  // nothing fits: cheapest
}

FlResult run_federated(FlStrategy strategy,
                       const sim::ClassificationDataset& train,
                       const sim::ClassificationDataset& test,
                       const std::vector<std::vector<int>>& shards,
                       const std::vector<HardwareProfile>& fleet,
                       const FlConfig& cfg, Rng& rng,
                       const fault::FaultPlan* faults) {
  // The flat server is the degenerate tree: one edge holding the whole
  // fleet, one region, everyone sampled, dense updates. The hierarchical
  // engine's fixed-point aggregation is shape-invariant, so this wrapper
  // is bit-identical to any deeper topology over the same participant
  // set (tests/federated_hier_test.cpp) — one aggregation implementation
  // serves both paths.
  HierConfig hier;
  hier.fl = cfg;
  hier.clients_per_edge = std::max<int>(1, static_cast<int>(shards.size()));
  hier.edges_per_region = 1;
  return run_federated_hier(strategy, train, test, shards, fleet, hier, rng,
                            faults)
      .fl;
}

}  // namespace s2a::federated
