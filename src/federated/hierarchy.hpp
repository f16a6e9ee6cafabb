// Hierarchical, streaming, memory-bounded federated aggregation
// (Sec. VII at fleet scale; docs/ARCHITECTURE.md "Hierarchical federated
// scaling").
//
// Clients are grouped into edge aggregators, edges into regions, regions
// into the global server. Every level performs streaming in-place delta
// reduction: a client's delta is folded into its edge accumulator the
// moment local training finishes and the buffer is immediately reused,
// so peak aggregator memory is O(levels + threads) model-sized buffers —
// never O(clients).
//
// The reduction is performed in Q32.32 fixed point (__int128
// accumulators of llround(2^32 * weighted-delta) terms). Integer
// addition is associative, so the aggregate is bit-identical for every
// tree shape, chunking, thread count, and client completion order —
// which is exactly why the flat run_federated (fedavg.hpp) can delegate
// to this engine with a one-edge topology and stay bit-identical to a
// deep tree over the same participant set.
//
// On top of the tree:
//  * seeded per-round client sampling (uniform or weighted by shard
//    size) with survivor-renormalized aggregation;
//  * sparse top-k delta compression with per-client error-feedback
//    residuals (compress.hpp), billed through the s2a::net link cost
//    model when `bill_uplink` is set;
//  * the timeout-drop / NaN-quarantine fault machinery at every level:
//    FlConfig::client_timeout_s is the per-client deadline applied by
//    each edge aggregator, `edge_timeout_s` bounds how long a region
//    waits for an edge aggregate, and a poisoned edge or region
//    aggregate is quarantined exactly like a poisoned client delta
//    (docs/RESILIENCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault.hpp"
#include "federated/fedavg.hpp"
#include "net/link.hpp"

namespace s2a::federated {

/// Per-round cohort selection policy.
enum class SampleMode {
  kAll = 0,          ///< every client trains every round
  kUniform,          ///< uniform sampling without replacement
  kWeightedByShard,  ///< inclusion probability proportional to shard size
};
const char* sample_mode_name(SampleMode mode);

struct HierConfig {
  FlConfig fl;  ///< rounds / training / client deadline (applied per edge)

  /// Tree shape: clients are assigned to edges in contiguous id ranges,
  /// edges to regions likewise. A one-edge, one-region tree is the flat
  /// server run_federated models.
  int clients_per_edge = 64;
  int edges_per_region = 32;

  /// Per-round sampling. The cohort is drawn serially from a stream
  /// derived from the server Rng's round seed, so it is identical at
  /// every thread count; sample_fraction 1.0 (or kAll) trains everyone.
  SampleMode sample_mode = SampleMode::kAll;
  double sample_fraction = 1.0;

  /// Top-k compression of client deltas: fraction of (eligible) delta
  /// entries shipped; 1.0 disables compression. With error_feedback the
  /// unsent remainder is carried per client to its next participating
  /// round. Residuals model client-resident state and are excluded from
  /// the aggregator-memory accounting (they live on the devices).
  double topk_fraction = 1.0;
  bool error_feedback = true;

  /// Deadline a region applies to each of its edge aggregates (and the
  /// global server to each region): an edge whose slowest surviving
  /// client (plus any injected edge straggler factor) exceeds this is
  /// dropped wholesale; the region waits out exactly the deadline.
  double edge_timeout_s = std::numeric_limits<double>::infinity();

  /// When set, client->edge wire bytes (dense or compressed) are billed
  /// through the net link cost model below: the serialization +
  /// propagation time of the update is added to the client's round
  /// latency before the per-edge deadline check, so compression buys
  /// participation under constrained uplinks.
  bool bill_uplink = false;
  net::LinkConfig uplink{};

  /// Fault plans for the upper levels, using the client fault kinds
  /// with `target` = edge id / region id: kClientDropout drops the
  /// aggregate, kClientStraggler multiplies its latency (against
  /// edge_timeout_s), kClientCorrupt poisons it so the level above
  /// quarantines it. Client-level faults arrive via the run call's
  /// FaultPlan parameter, exactly as in flat run_federated.
  fault::FaultPlan edge_faults{};
  fault::FaultPlan region_faults{};
};

/// Hierarchy-specific accounting, alongside the embedded FlResult.
struct HierStats {
  int edges = 0;    ///< tree width at the edge level
  int regions = 0;  ///< tree width at the region level

  long sampled_client_rounds = 0;  ///< cohort sizes summed over rounds
  /// Edge aggregates lost to plan dropouts or the edge_timeout_s
  /// deadline, and edge aggregates quarantined as poisoned. Clients
  /// whose surviving updates were inside a lost edge are added to
  /// FlResult::dropped_client_rounds (the counter sums losses across
  /// levels).
  long dropped_edge_rounds = 0;
  long quarantined_edges = 0;
  long dropped_region_rounds = 0;
  long quarantined_regions = 0;

  /// Modeled wire traffic: client->edge updates (sparse or dense) plus
  /// edge->region and region->global fixed-point aggregates. Traffic on
  /// paths that die before the global apply (dropped edges/regions, lost
  /// clients) is not billed.
  double bytes_on_wire = 0.0;
  /// The same topology and participant set with dense client updates —
  /// forwards are identical, so compression_ratio() isolates what top-k
  /// saves on the client uplinks.
  double dense_bytes = 0.0;
  double compression_ratio() const {
    return bytes_on_wire > 0.0 ? dense_bytes / bytes_on_wire : 1.0;
  }

  /// High-water mark of live aggregator/workspace bytes inside the
  /// engine (chunk workspaces, per-level fixed-point accumulators).
  /// Asserted flat across client counts by
  /// FedHierScale.PeakAggregatorMemoryIndependentOfClientCount.
  std::size_t peak_accumulator_bytes = 0;

  /// Weighted client-delta terms whose Q32.32 value fell outside the
  /// fixed-point range and were clamped by the fold: finite but wrong
  /// updates. Counted per term (not per client), identically at every
  /// thread count; such deltas are still aggregated, clamped.
  long saturated_terms = 0;

  /// Rounds each client participated in (survived sampling and plan
  /// dropout; it may still have been dropped or quarantined later).
  std::vector<int> client_participation;
};

struct HierResult {
  FlResult fl;
  HierStats hier;
};

/// Runs `config.fl.rounds` of hierarchical federated training. `faults`
/// schedules client-level failures exactly as in flat run_federated;
/// edge/region-level schedules ride in the config. With a one-edge
/// topology, kAll sampling, topk 1.0 and no upper-level faults this is
/// bit-identical to (and is the implementation of) flat run_federated.
HierResult run_federated_hier(FlStrategy strategy,
                              const sim::ClassificationDataset& train,
                              const sim::ClassificationDataset& test,
                              const std::vector<std::vector<int>>& shards,
                              const std::vector<HardwareProfile>& fleet,
                              const HierConfig& config, Rng& rng,
                              const fault::FaultPlan* faults = nullptr);

/// The per-round cohort the engine would train: sorted client ids drawn
/// from a generator seeded with (round_seed, sampling salt). Exposed for
/// tests (seeded-sampler determinism, weighted bias).
std::vector<int> sample_cohort(SampleMode mode, double fraction,
                               std::uint64_t round_seed,
                               const std::vector<std::vector<int>>& shards);

}  // namespace s2a::federated
