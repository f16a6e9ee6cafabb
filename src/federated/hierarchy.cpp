#include "federated/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "federated/compress.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/finite.hpp"
#include "util/thread_pool.hpp"

namespace s2a::federated {

const char* sample_mode_name(SampleMode mode) {
  switch (mode) {
    case SampleMode::kAll:
      return "all";
    case SampleMode::kUniform:
      return "uniform";
    case SampleMode::kWeightedByShard:
      return "weighted-by-shard";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Q32.32 fixed-point accumulation.
//
// Every weighted delta term is quantized to 2^-32 once — a function of
// the (client, position) pair alone — and summed in __int128. Integer
// addition is associative and commutative, so the aggregate is invariant
// under tree shape, chunk boundaries, and thread count: the property the
// flat-vs-hierarchical bit-identity acceptance test relies on.

constexpr double kFixedScale = 4294967296.0;  // 2^32

inline long long to_fixed(double v, long& saturated) {
  const double scaled = v * kFixedScale;
  // Saturate instead of invoking llround UB on out-of-range values; the
  // clamp is itself deterministic. Every clamped (finite but wrong) term
  // is counted with a compare-and-add, not a branch.
  const bool high = scaled >= 9.2233720368547758e18;
  const bool low = scaled <= -9.2233720368547758e18;
  saturated += high | low;
  if (high) return std::numeric_limits<long long>::max();
  if (low) return std::numeric_limits<long long>::min();
  return std::llround(scaled);
}

inline double from_fixed(__int128 v) {
  return static_cast<double>(v) / kFixedScale;
}

/// Offsets of each parameter tensor inside the flattened w1|b1|w2|b2
/// delta layout (the layout compress.hpp indexes into).
struct FlatLayout {
  int in = 0, hidden = 0, classes = 0;
  std::size_t w1 = 0, b1 = 0, w2 = 0, b2 = 0, total = 0;

  static FlatLayout of(const MlpParams& p) {
    FlatLayout l;
    l.in = p.in;
    l.hidden = p.hidden;
    l.classes = p.classes;
    l.w1 = 0;
    l.b1 = l.w1 + p.w1.numel();
    l.w2 = l.b1 + p.b1.numel();
    l.b2 = l.w2 + p.w2.numel();
    l.total = l.b2 + p.b2.numel();
    return l;
  }
};

/// One level's (or one chunk's) streaming aggregation state. Weights are
/// exact integer sums (shard sizes), values Q32.32 sums.
struct FixedAcc {
  std::vector<__int128> v;          // total entries, flat layout
  std::vector<long long> unit_w;    // per hidden unit
  long long round_w = 0;
  int survivors = 0;
  long quarantined = 0;  // client deltas rejected by the finite check
  long saturated = 0;    // terms to_fixed clamped to the Q32.32 range

  void resize(const FlatLayout& l) {
    v.assign(l.total, 0);
    unit_w.assign(static_cast<std::size_t>(l.hidden), 0);
    round_w = 0;
    survivors = 0;
    quarantined = 0;
    saturated = 0;
  }
  void reset() {
    std::fill(v.begin(), v.end(), static_cast<__int128>(0));
    std::fill(unit_w.begin(), unit_w.end(), 0LL);
    round_w = 0;
    survivors = 0;
    quarantined = 0;
    saturated = 0;
  }
  void merge(const FixedAcc& o) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += o.v[i];
    for (std::size_t j = 0; j < unit_w.size(); ++j) unit_w[j] += o.unit_w[j];
    round_w += o.round_w;
    survivors += o.survivors;
    quarantined += o.quarantined;
    saturated += o.saturated;
  }
  std::size_t bytes() const {
    return v.capacity() * sizeof(__int128) +
           unit_w.capacity() * sizeof(long long);
  }
};

/// Credit a surviving client's renormalization weights: one shard-size
/// unit per active hidden unit, plus the round (b2) weight.
void credit_weights(FixedAcc& acc, const std::vector<bool>& active,
                    long long wgt) {
  for (std::size_t j = 0; j < active.size(); ++j)
    if (active[j]) acc.unit_w[j] += wgt;
  acc.round_w += wgt;
  ++acc.survivors;
}

/// Fold a dense delta: active-unit positions of w1/b1/w2 plus all of b2,
/// exactly the positions flat FedAvg aggregates.
void fold_dense(FixedAcc& acc, const std::vector<double>& d,
                const std::vector<bool>& active, long long wgt,
                const FlatLayout& l) {
  credit_weights(acc, active, wgt);
  const double w = static_cast<double>(wgt);
  for (int j = 0; j < l.hidden; ++j) {
    if (!active[static_cast<std::size_t>(j)]) continue;
    const std::size_t row = l.w1 + static_cast<std::size_t>(j) * l.in;
    for (int i = 0; i < l.in; ++i)
      acc.v[row + i] += to_fixed(w * d[row + i], acc.saturated);
    acc.v[l.b1 + j] += to_fixed(w * d[l.b1 + j], acc.saturated);
    for (int k = 0; k < l.classes; ++k) {
      const std::size_t idx = l.w2 + static_cast<std::size_t>(k) * l.hidden + j;
      acc.v[idx] += to_fixed(w * d[idx], acc.saturated);
    }
  }
  for (int k = 0; k < l.classes; ++k)
    acc.v[l.b2 + k] += to_fixed(w * d[l.b2 + k], acc.saturated);
}

/// Fold a compressed delta: the client still earns full renormalization
/// credit for every unit it trained (a shipped zero and an unshipped
/// entry weigh the same), but only shipped entries carry value.
void fold_sparse(FixedAcc& acc, const SparseDelta& sd,
                 const std::vector<bool>& active, long long wgt) {
  credit_weights(acc, active, wgt);
  const double w = static_cast<double>(wgt);
  for (const SparseEntry& e : sd.entries)
    acc.v[e.index] += to_fixed(w * e.value, acc.saturated);
}

/// Wire bytes of one fixed-point aggregate forwarded up a level (edge →
/// region, region → global): a 16-byte header, the Q32.32 values, the
/// per-unit weights and the round weight.
std::size_t aggregate_wire_bytes(const FlatLayout& l) {
  return 16 + l.total * sizeof(__int128) +
         static_cast<std::size_t>(l.hidden) * sizeof(long long) + 8;
}

/// Apply the (global-level) aggregate to the model in place, mirroring
/// flat FedAvg's renormalized update: per-unit weights for w1/b1/w2, the
/// round weight for b2, untouched units / lost rounds left alone.
void apply_aggregate(MlpParams& global, const FixedAcc& acc,
                     const FlatLayout& l) {
  for (int j = 0; j < l.hidden; ++j) {
    const long long uw = acc.unit_w[static_cast<std::size_t>(j)];
    if (uw == 0) continue;
    const double uwd = static_cast<double>(uw);
    const std::size_t row = l.w1 + static_cast<std::size_t>(j) * l.in;
    for (int i = 0; i < l.in; ++i)
      global.w1[static_cast<std::size_t>(j) * l.in + i] +=
          from_fixed(acc.v[row + i]) / uwd;
    global.b1[static_cast<std::size_t>(j)] += from_fixed(acc.v[l.b1 + j]) / uwd;
    for (int k = 0; k < l.classes; ++k)
      global.w2[static_cast<std::size_t>(k) * l.hidden + j] +=
          from_fixed(acc.v[l.w2 + static_cast<std::size_t>(k) * l.hidden + j]) /
          uwd;
  }
  if (acc.round_w > 0) {
    const double rwd = static_cast<double>(acc.round_w);
    for (int k = 0; k < l.classes; ++k)
      global.b2[static_cast<std::size_t>(k)] +=
          from_fixed(acc.v[l.b2 + k]) / rwd;
  }
}

void flatten_delta(const MlpParams& local, const MlpParams& global,
                   const FlatLayout& l, std::vector<double>& out) {
  std::size_t at = l.w1;
  for (std::size_t i = 0; i < global.w1.numel(); ++i)
    out[at++] = local.w1[i] - global.w1[i];
  for (std::size_t i = 0; i < global.b1.numel(); ++i)
    out[at++] = local.b1[i] - global.b1[i];
  for (std::size_t i = 0; i < global.w2.numel(); ++i)
    out[at++] = local.w2[i] - global.w2[i];
  for (std::size_t i = 0; i < global.b2.numel(); ++i)
    out[at++] = local.b2[i] - global.b2[i];
}

/// Compression eligibility: the positions the client trained (active
/// w1 rows / b1 entries / w2 columns) plus b2 — exactly the positions
/// fold_dense would ship.
void build_eligible(const std::vector<bool>& active, const FlatLayout& l,
                    std::vector<unsigned char>& out) {
  for (int j = 0; j < l.hidden; ++j) {
    const unsigned char on = active[static_cast<std::size_t>(j)] ? 1 : 0;
    const std::size_t row = l.w1 + static_cast<std::size_t>(j) * l.in;
    for (int i = 0; i < l.in; ++i) out[row + i] = on;
    out[l.b1 + j] = on;
    for (int k = 0; k < l.classes; ++k)
      out[l.w2 + static_cast<std::size_t>(k) * l.hidden + j] = on;
  }
  for (int k = 0; k < l.classes; ++k) out[l.b2 + k] = 1;
}

/// DC-NAS channel mask: top-`width` hidden units by ‖w1 row‖², computed
/// from the same norms ordering every client of the round sees.
void build_mask(FlStrategy strategy, int width,
                const std::vector<int>& dcnas_order, int hidden,
                std::vector<bool>& active) {
  if (strategy == FlStrategy::kDcNas && width < hidden) {
    active.assign(static_cast<std::size_t>(hidden), false);
    for (int k = 0; k < width; ++k)
      active[static_cast<std::size_t>(dcnas_order[static_cast<std::size_t>(k)])] =
          true;
  } else {
    active.assign(static_cast<std::size_t>(hidden), true);
  }
}

/// The per-round ‖w1 row‖² ordering flat FedAvg computes inside every
/// client task; hoisted because all clients sort the identical array.
std::vector<int> dcnas_ordering(const MlpParams& global) {
  std::vector<std::pair<double, int>> norms;
  norms.reserve(static_cast<std::size_t>(global.hidden));
  for (int j = 0; j < global.hidden; ++j) {
    double n = 0.0;
    const double* w = global.w1.data() + static_cast<std::size_t>(j) * global.in;
    for (int i = 0; i < global.in; ++i) n += w[i] * w[i];
    norms.push_back({n, j});
  }
  std::sort(norms.begin(), norms.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int> order;
  order.reserve(norms.size());
  for (const auto& [n, j] : norms) order.push_back(j);
  return order;
}

/// Whether a client's update participates in this round's aggregation
/// (mirrors flat FedAvg; kCorrupt is resolved here because an injected
/// transmission corruption is statically known to be quarantined).
enum class ClientState : unsigned char {
  kOk = 0,      ///< responded in time; update reaches its edge
  kNoResponse,  ///< plan dropout: never computed, never responded
  kTimedOut,    ///< computed, but missed the edge's per-client deadline
  kCorrupt,     ///< arrived poisoned; quarantined at the edge boundary
};

/// One edge aggregator's round, resolved by the serial cost pre-pass.
struct EdgeRound {
  int edge_id = -1;
  std::size_t lo = 0, hi = 0;  ///< cohort index range of its clients
  double lat = 0.0;  ///< max over clients of min(latency, client deadline)
  int contributors = 0;  ///< clients whose update reached the edge intact
  bool reports = false;  ///< forwarded an aggregate (not plan-dropped)
  bool dropped = false;  ///< plan dropout or edge deadline exceeded
  bool poisoned = false; ///< aggregate arrives corrupt; quarantined above
  bool trains = false;   ///< survives edge AND region fate
};

/// Fixed per-client sampling salt so the cohort stream never aliases a
/// client's training stream (which is keyed by the raw client id).
constexpr std::uint64_t kSamplerSalt = 0x5a5ed5a317a6c0deULL;

std::size_t fleet_edges(std::size_t clients, int clients_per_edge) {
  return (clients + static_cast<std::size_t>(clients_per_edge) - 1) /
         static_cast<std::size_t>(clients_per_edge);
}

}  // namespace

std::vector<int> sample_cohort(SampleMode mode, double fraction,
                               std::uint64_t round_seed,
                               const std::vector<std::vector<int>>& shards) {
  const int n = static_cast<int>(shards.size());
  std::vector<int> cohort;
  if (mode == SampleMode::kAll || fraction >= 1.0) {
    cohort.resize(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) cohort[static_cast<std::size_t>(c)] = c;
    return cohort;
  }
  S2A_CHECK(fraction > 0.0);
  const int k = std::max(
      1, std::min(n, static_cast<int>(std::ceil(
                         fraction * static_cast<double>(n)))));
  Rng srng(net::mix_seed(round_seed, kSamplerSalt));
  if (mode == SampleMode::kUniform) {
    cohort = srng.sample_without_replacement(n, k);
  } else {
    // Efraimidis–Spirakis weighted reservoir keys: u^(1/w) with w the
    // shard size; the k largest keys win. One uniform draw per client in
    // id order, so the cohort is a pure function of the round seed.
    std::vector<std::pair<double, int>> keys;
    keys.reserve(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
      const double u = srng.uniform();
      const double w =
          static_cast<double>(shards[static_cast<std::size_t>(c)].size());
      const double key = w > 0.0 ? std::pow(u, 1.0 / w) : -1.0;
      keys.push_back({key, c});
    }
    std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    cohort.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i)
      cohort.push_back(keys[static_cast<std::size_t>(i)].second);
  }
  std::sort(cohort.begin(), cohort.end());
  return cohort;
}

HierResult run_federated_hier(FlStrategy strategy,
                              const sim::ClassificationDataset& train,
                              const sim::ClassificationDataset& test,
                              const std::vector<std::vector<int>>& shards,
                              const std::vector<HardwareProfile>& fleet,
                              const HierConfig& cfg, Rng& rng,
                              const fault::FaultPlan* faults) {
  S2A_CHECK(shards.size() == fleet.size());
  S2A_CHECK(!shards.empty());
  S2A_CHECK(cfg.fl.client_timeout_s > 0.0);
  S2A_CHECK(cfg.edge_timeout_s > 0.0);
  S2A_CHECK(cfg.clients_per_edge >= 1);
  S2A_CHECK(cfg.edges_per_region >= 1);
  S2A_CHECK(cfg.topk_fraction > 0.0 && cfg.topk_fraction <= 1.0);
  const int clients = static_cast<int>(shards.size());
  const bool compressing = cfg.topk_fraction < 1.0;

  MlpParams global =
      init_mlp(train.feature_dim, cfg.fl.hidden, train.num_classes, rng);
  const FlatLayout layout = FlatLayout::of(global);

  HierResult out;
  FlResult& res = out.fl;
  HierStats& hier = out.hier;
  hier.edges = static_cast<int>(
      fleet_edges(static_cast<std::size_t>(clients), cfg.clients_per_edge));
  hier.regions = static_cast<int>(fleet_edges(
      static_cast<std::size_t>(hier.edges), cfg.edges_per_region));
  hier.client_participation.assign(static_cast<std::size_t>(clients), 0);

  res.client_widths.assign(static_cast<std::size_t>(clients), cfg.fl.hidden);
  res.client_precisions.assign(static_cast<std::size_t>(clients),
                               PrecisionConfig{});
  // Per-client adaptation decisions (stable across rounds), for the whole
  // fleet — a client sampled for the first time in round 9 uses the same
  // choice it would have used in round 0.
  for (int c = 0; c < clients; ++c) {
    const auto& hw = fleet[static_cast<std::size_t>(c)];
    if (strategy == FlStrategy::kDcNas) {
      res.client_widths[static_cast<std::size_t>(c)] =
          select_width(hw, cfg.fl, shards[static_cast<std::size_t>(c)].size(),
                       train.feature_dim, train.num_classes);
    } else if (strategy == FlStrategy::kHaloFl) {
      const double round_macs =
          static_cast<double>(cfg.fl.local_epochs) *
          static_cast<double>(shards[static_cast<std::size_t>(c)].size()) *
          3.0 * static_cast<double>(mlp_macs(global, cfg.fl.hidden));
      res.client_precisions[static_cast<std::size_t>(c)] =
          select_precision(hw, cfg.fl, round_macs);
    }
  }

  // Per-client error-feedback residuals: client-device state, lazily
  // allocated on first participation, deliberately excluded from the
  // server-side accumulator accounting below.
  std::vector<std::vector<double>> residuals;
  if (compressing && cfg.error_feedback)
    residuals.resize(static_cast<std::size_t>(clients));

  const net::LinkSim uplink(cfg.uplink, net::LinkFaultSchedule{}, 0, 0);
  const std::size_t forward_bytes = aggregate_wire_bytes(layout);

  util::ThreadPool& pool = util::global_pool();
  const std::size_t pool_size = static_cast<std::size_t>(pool.size());

  // Streaming workspaces: one slot per in-flight chunk (≤ pool size),
  // reused across edges and rounds — the engine's memory never scales
  // with the client count.
  struct WorkSlot {
    MlpParams local;
    std::vector<bool> active;
    std::vector<double> delta;
    std::vector<unsigned char> eligible;
    SparseDelta sparse;                    // top-k output
    std::vector<std::uint64_t> topk_keys;  // top-k selection scratch
    FixedAcc acc;
    std::size_t bytes_wire = 0;
    std::size_t bytes_dense = 0;
  };
  std::vector<WorkSlot> slots;
  FixedAcc edge_acc, region_acc, global_acc;
  edge_acc.resize(layout);
  region_acc.resize(layout);
  global_acc.resize(layout);

  const auto slot_bytes = [&](const WorkSlot& s) {
    return layout.total * sizeof(double)          // model workspace
           + s.delta.capacity() * sizeof(double)  // flattened delta
           + s.eligible.capacity()                // compression mask
           + s.sparse.entries.capacity() * sizeof(SparseEntry)  // top-k out
           + s.topk_keys.capacity() * sizeof(std::uint64_t)     // top-k keys
           + s.acc.bytes();                       // chunk accumulator
  };
  const auto note_peak = [&] {
    std::size_t live =
        edge_acc.bytes() + region_acc.bytes() + global_acc.bytes();
    for (const WorkSlot& s : slots) live += slot_bytes(s);
    if (live > hier.peak_accumulator_bytes) hier.peak_accumulator_bytes = live;
  };
  note_peak();

  double total_area = 0.0;
  std::vector<int> contributing;  // per-edge scratch: clients that train

  for (int round = 0; round < cfg.fl.rounds; ++round) {
    S2A_TRACE_SCOPE_CAT("fed.round", "federated");
    S2A_COUNTER_ADD("fed.rounds", 1);

    // One serial draw per round; every other stream of the round
    // (sampler, per-client training rngs) is counter-derived from it, so
    // client streams are O(1) state and identical under any tree shape,
    // chunking, or thread count.
    const std::uint64_t round_seed = rng.next_u64();

    const std::vector<int> cohort = sample_cohort(
        cfg.sample_mode, cfg.sample_fraction, round_seed, shards);
    hier.sampled_client_rounds += static_cast<long>(cohort.size());
    S2A_COUNTER_ADD("fed.hier.sampled_clients",
                    static_cast<std::int64_t>(cohort.size()));

    const std::vector<int> dcnas_order =
        strategy == FlStrategy::kDcNas ? dcnas_ordering(global)
                                       : std::vector<int>{};

    // ---- Serial, client-ordered cost/fault pre-pass -------------------
    // Latencies (and therefore every timeout decision) are analytic:
    // local_train's MAC count is an exact integer function of shard size
    // and width, so status, energy, and deadline outcomes are resolved
    // *before* any training runs — clients whose update cannot reach the
    // global aggregate (timed out, corrupt, inside a doomed edge or
    // region) never burn simulated-training CPU here, while still being
    // billed the device energy they physically spent.
    std::vector<ClientState> state(cohort.size(), ClientState::kOk);
    std::vector<EdgeRound> edges;
    double round_latency = 0.0;

    for (std::size_t i = 0; i < cohort.size(); ++i) {
      const int c = cohort[i];
      const int edge_id = c / cfg.clients_per_edge;
      if (edges.empty() || edges.back().edge_id != edge_id) {
        if (!edges.empty()) edges.back().hi = i;
        EdgeRound e;
        e.edge_id = edge_id;
        e.lo = i;
        edges.push_back(e);
      }
      EdgeRound& edge = edges.back();

      const fault::FaultEvent* ev =
          faults != nullptr ? faults->client_fault_at(round, c) : nullptr;
      if (ev != nullptr && ev->kind == fault::FaultKind::kClientDropout) {
        state[i] = ClientState::kNoResponse;
        ++res.dropped_client_rounds;
        S2A_COUNTER_ADD("fed.client_dropouts", 1);
        continue;  // never computed: no energy, no latency
      }
      ++hier.client_participation[static_cast<std::size_t>(c)];

      double latency_mult = 1.0;
      bool corrupt = false;
      if (ev != nullptr) {
        if (ev->kind == fault::FaultKind::kClientStraggler)
          latency_mult = ev->magnitude;
        else if (ev->kind == fault::FaultKind::kClientCorrupt)
          corrupt = true;
      }

      const int width = res.client_widths[static_cast<std::size_t>(c)];
      const int active_count =
          strategy == FlStrategy::kDcNas ? width : cfg.fl.hidden;
      // Bit-identical to the value local_train returns: every addend is
      // the same integer-valued double, and integer sums below 2^53 are
      // exact in any association.
      const double macs = static_cast<double>(cfg.fl.local_epochs) *
                          static_cast<double>(
                              shards[static_cast<std::size_t>(c)].size()) *
                          3.0 *
                          static_cast<double>(mlp_macs(global, active_count));
      const double model_fraction =
          static_cast<double>(width) / cfg.fl.hidden;
      const RoundCost cost =
          round_cost(macs, fleet[static_cast<std::size_t>(c)],
                     res.client_precisions[static_cast<std::size_t>(c)],
                     model_fraction);
      res.total_energy_j += cost.energy_j;
      total_area += cost.area_mm2;

      double latency = cost.latency_s * latency_mult;
      if (cfg.bill_uplink) {
        // Deadline checks use the *planned* update size (the client does
        // not know its exact sparsity before training); billing below
        // uses the actual compressed size.
        const std::size_t planned =
            compressing
                ? 16 + topk_keep_count(
                           static_cast<std::size_t>(active_count) *
                                   (layout.in + 1 + layout.classes) +
                               layout.classes,
                           cfg.topk_fraction) *
                           12
                : dense_wire_bytes(layout.total);
        latency += uplink.estimate_rtt_s(planned, 0, 0.0);
      }
      if (latency > cfg.fl.client_timeout_s) {
        state[i] = ClientState::kTimedOut;
        ++res.dropped_client_rounds;
        S2A_COUNTER_ADD("fed.client_dropouts", 1);
      } else if (corrupt) {
        // An injected transmission corruption is statically known to be
        // quarantined by the edge's finite check, so it is resolved here
        // and the poisoned update is never simulated.
        state[i] = ClientState::kCorrupt;
        ++res.nonfinite_deltas;
        S2A_COUNTER_ADD("fed.nonfinite_deltas", 1);
      } else {
        ++edge.contributors;
      }
      edge.lat = std::max(edge.lat,
                          std::min(latency, cfg.fl.client_timeout_s));
    }
    if (!edges.empty()) edges.back().hi = cohort.size();

    // ---- Edge and region fate (faults + deadlines) --------------------
    // Latency folds are max/min only, so the round latency is exactly the
    // flat engine's max over clients when the tree has no upper-level
    // faults and an infinite edge deadline.
    std::size_t e = 0;
    while (e < edges.size()) {
      const int region_id = edges[e].edge_id / cfg.edges_per_region;
      double region_lat = 0.0;
      std::size_t region_begin = e;
      for (; e < edges.size() &&
             edges[e].edge_id / cfg.edges_per_region == region_id;
           ++e) {
        EdgeRound& edge = edges[e];
        double edge_mult = 1.0;
        const fault::FaultEvent* eev =
            cfg.edge_faults.client_fault_at(round, edge.edge_id);
        if (eev != nullptr) {
          if (eev->kind == fault::FaultKind::kClientDropout)
            edge.dropped = true;
          else if (eev->kind == fault::FaultKind::kClientStraggler)
            edge_mult = eev->magnitude;
          else if (eev->kind == fault::FaultKind::kClientCorrupt)
            edge.poisoned = true;
        }
        if (edge.dropped) continue;  // announced disconnect: no wait
        edge.reports = true;
        const double edge_lat = edge.lat * edge_mult;
        if (edge_lat > cfg.edge_timeout_s) {
          edge.dropped = true;  // region waits out exactly the deadline
          region_lat = std::max(region_lat, cfg.edge_timeout_s);
          continue;
        }
        region_lat = std::max(region_lat, edge_lat);
      }

      bool region_dropped = false;
      bool region_poisoned = false;
      double region_mult = 1.0;
      const fault::FaultEvent* rev =
          cfg.region_faults.client_fault_at(round, region_id);
      if (rev != nullptr) {
        if (rev->kind == fault::FaultKind::kClientDropout)
          region_dropped = true;
        else if (rev->kind == fault::FaultKind::kClientStraggler)
          region_mult = rev->magnitude;
        else if (rev->kind == fault::FaultKind::kClientCorrupt)
          region_poisoned = true;
      }
      if (!region_dropped) {
        const double lat = region_lat * region_mult;
        if (lat > cfg.edge_timeout_s) {
          region_dropped = true;
          round_latency = std::max(round_latency, cfg.edge_timeout_s);
        } else {
          round_latency = std::max(round_latency, lat);
        }
      }

      for (std::size_t k = region_begin; k < e; ++k) {
        EdgeRound& edge = edges[k];
        if (edge.dropped) {
          ++hier.dropped_edge_rounds;
          S2A_COUNTER_ADD("fed.hier.edge_drops", 1);
        } else if (edge.poisoned) {
          ++hier.quarantined_edges;
          S2A_COUNTER_ADD("fed.hier.edge_quarantines", 1);
        }
        edge.trains = !edge.dropped && !edge.poisoned && !region_dropped &&
                      !region_poisoned;
        // Surviving updates stranded inside a lost edge or region are
        // dropped client rounds: the counter sums losses across levels.
        if (!edge.trains && edge.contributors > 0) {
          res.dropped_client_rounds += edge.contributors;
          S2A_COUNTER_ADD("fed.client_dropouts", edge.contributors);
        }
      }
      if (region_dropped) {
        ++hier.dropped_region_rounds;
        S2A_COUNTER_ADD("fed.hier.region_drops", 1);
      } else if (region_poisoned) {
        ++hier.quarantined_regions;
        S2A_COUNTER_ADD("fed.hier.region_quarantines", 1);
      }
    }
    res.total_latency_s += round_latency;
    S2A_HISTOGRAM_RECORD("fed.round_latency_s", round_latency);

    // ---- Streaming training + aggregation over surviving edges --------
    global_acc.reset();
    std::size_t round_bytes = 0;
    std::size_t round_dense = 0;
    std::size_t r = 0;
    while (r < edges.size()) {
      const int region_id = edges[r].edge_id / cfg.edges_per_region;
      region_acc.reset();
      bool region_has_data = false;
      for (; r < edges.size() &&
             edges[r].edge_id / cfg.edges_per_region == region_id;
           ++r) {
        const EdgeRound& edge = edges[r];
        if (!edge.trains || edge.contributors == 0) continue;
        S2A_TRACE_SCOPE_CAT("fed.hier.edge_reduce", "federated");

        contributing.clear();
        for (std::size_t i = edge.lo; i < edge.hi; ++i)
          if (state[i] == ClientState::kOk) contributing.push_back(cohort[i]);
        const std::size_t m = contributing.size();
        const std::size_t grain =
            std::max<std::size_t>(1, (m + pool_size - 1) / pool_size);
        const std::size_t chunks = util::ThreadPool::num_chunks(0, m, grain);
        while (slots.size() < chunks) {
          WorkSlot s;
          s.delta.resize(layout.total);
          if (compressing) {
            // Sized once for the largest possible update, so top-k never
            // grows them mid-round and the peak accounting stays exact.
            s.eligible.resize(layout.total);
            s.sparse.entries.reserve(layout.total + 1);
            s.topk_keys.reserve(layout.total);
          }
          s.acc.resize(layout);
          slots.push_back(std::move(s));
        }
        note_peak();

        pool.parallel_for_chunks(
            0, m, grain, [&](std::size_t lo, std::size_t hi,
                             std::size_t chunk) {
              WorkSlot& s = slots[chunk];
              s.acc.reset();
              s.bytes_wire = 0;
              s.bytes_dense = 0;
              for (std::size_t i = lo; i < hi; ++i) {
                const int c = contributing[i];
                S2A_TRACE_SCOPE_CAT("fed.client_update", "federated");
                s.local = global;
                build_mask(strategy,
                           res.client_widths[static_cast<std::size_t>(c)],
                           dcnas_order, cfg.fl.hidden, s.active);
                Rng crng(net::mix_seed(round_seed,
                                       static_cast<std::uint64_t>(c)));
                local_train(s.local, train,
                            shards[static_cast<std::size_t>(c)], s.active,
                            res.client_precisions[static_cast<std::size_t>(c)],
                            cfg.fl.local_epochs, cfg.fl.batch, cfg.fl.lr,
                            crng);
                flatten_delta(s.local, global, layout, s.delta);
                // Genuine training blow-ups (as opposed to injected
                // corruption, which the pre-pass already resolved) are
                // quarantined at the edge boundary, and the client's
                // residual is left untouched — nothing was shipped.
                if (!util::all_finite(s.delta)) {
                  ++s.acc.quarantined;
                  continue;
                }
                const long long wgt = static_cast<long long>(
                    shards[static_cast<std::size_t>(c)].size());
                s.bytes_dense += dense_wire_bytes(layout.total);
                if (compressing) {
                  build_eligible(s.active, layout, s.eligible);
                  std::vector<double>* resid =
                      cfg.error_feedback
                          ? &residuals[static_cast<std::size_t>(c)]
                          : nullptr;
                  topk_compress(s.delta, cfg.topk_fraction, resid,
                                &s.eligible, s.sparse, s.topk_keys);
                  s.bytes_wire += sparse_wire_bytes(s.sparse);
                  fold_sparse(s.acc, s.sparse, s.active, wgt);
                } else {
                  s.bytes_wire += dense_wire_bytes(layout.total);
                  fold_dense(s.acc, s.delta, s.active, wgt, layout);
                }
              }
            });

        // Chunk → edge merge, serial in chunk order; the integer sums
        // make the order irrelevant to the result.
        edge_acc.reset();
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
          edge_acc.merge(slots[chunk].acc);
          round_bytes += slots[chunk].bytes_wire;
          round_dense += slots[chunk].bytes_dense;
        }
        // Edge → region forward: the fixed-point aggregate itself. The
        // forward cost is identical in the dense counterfactual, so the
        // compression ratio isolates the client-uplink savings.
        region_acc.merge(edge_acc);
        region_has_data = true;
        round_bytes += forward_bytes;
        round_dense += forward_bytes;
      }
      if (region_has_data) {
        global_acc.merge(region_acc);
        round_bytes += forward_bytes;
        round_dense += forward_bytes;
      }
    }
    hier.bytes_on_wire += static_cast<double>(round_bytes);
    hier.dense_bytes += static_cast<double>(round_dense);
    S2A_COUNTER_ADD("fed.hier.bytes_on_wire",
                    static_cast<std::int64_t>(round_bytes));

    res.nonfinite_deltas += global_acc.quarantined;
    if (global_acc.quarantined > 0)
      S2A_COUNTER_ADD("fed.nonfinite_deltas",
                      static_cast<std::int64_t>(global_acc.quarantined));
    hier.saturated_terms += global_acc.saturated;
    if (global_acc.saturated > 0)
      S2A_COUNTER_ADD("fed.hier.saturated_terms",
                      static_cast<std::int64_t>(global_acc.saturated));
    res.survivors_per_round.push_back(global_acc.survivors);
    S2A_GAUGE_SET("fed.round_survivors", global_acc.survivors);

    {
      S2A_TRACE_SCOPE_CAT("fed.aggregate", "federated");
      apply_aggregate(global, global_acc, layout);
    }
    {
      S2A_TRACE_SCOPE_CAT("fed.evaluate", "federated");
      res.accuracy_per_round.push_back(evaluate_accuracy(global, test));
    }
  }

  res.final_accuracy = res.accuracy_per_round.back();
  res.mean_area_mm2 =
      total_area / (static_cast<double>(clients) * cfg.fl.rounds);
  S2A_GAUGE_SET("fed.hier.peak_accumulator_bytes",
                static_cast<double>(hier.peak_accumulator_bytes));
  return out;
}

}  // namespace s2a::federated
