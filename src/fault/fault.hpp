// s2a::fault — deterministic, seeded runtime fault injection
// (docs/RESILIENCE.md). Where src/sim/corruptions.hpp perturbs point
// clouds offline, this layer attacks the *loop* while it runs: decorator
// wrappers inject sensor dropouts, NaN/Inf/stuck payloads and latency
// spikes at scheduled times, and a client-side schedule makes federated
// rounds lose, delay or corrupt client updates. Everything is driven by
// a FaultPlan — a value type of explicit event windows — so a chaos run
// is exactly reproducible from its seed, at any thread count.
//
// Dependency note: this library sits above core (it wraps core::Sensor /
// core::Processor) and below federated (run_federated consumes a
// FaultPlan); it must never include federated headers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/loop.hpp"
#include "util/rng.hpp"

namespace s2a::fault {

enum class FaultKind {
  // Sensor/processor-side kinds; event windows are [start, end) seconds
  // of loop time (FaultySensor) or process() call indices
  // (FaultyProcessor).
  kDropout = 0,    ///< acquisition fails: FaultySensor throws SensorFault
  kNaNPayload,     ///< payload replaced with quiet NaNs
  kInfPayload,     ///< payload replaced with +Inf
  kStuckPayload,   ///< sensor repeats its last good payload
  kLatencySpike,   ///< adds `magnitude` seconds of acquisition delay
  // Client-side kinds; event windows are [start, end) federated rounds
  // and `target` selects the client (-1 = every client).
  kClientDropout,  ///< client never responds (no compute, no update)
  kClientStraggler,///< response latency multiplied by `magnitude`
  kClientCorrupt,  ///< update arrives with a non-finite payload
  // Link faults on the edge↔cloud uplink are not FaultKinds: they are
  // net::LinkFaultSchedule windows (net/link.hpp), generated by
  // net::LinkFaultSchedule::random.
};
const char* fault_name(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kDropout;
  double start = 0.0;  ///< window start (inclusive): seconds / calls / rounds
  double end = 0.0;    ///< window end (exclusive)
  int target = -1;     ///< client id for client kinds (-1 = any client)
  double magnitude = 0.0;  ///< latency-spike seconds / straggler multiplier

  bool is_client_kind() const {
    return kind == FaultKind::kClientDropout ||
           kind == FaultKind::kClientStraggler ||
           kind == FaultKind::kClientCorrupt;
  }
};

/// An immutable schedule of fault windows. Queries scan in declaration
/// order and return the first active event, so overlapping windows have
/// a deterministic winner.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// First active sensor/processor-side event at time/call-index `t`.
  const FaultEvent* component_fault_at(double t) const;
  /// First active client-side event for (round, client). A binary
  /// search over the client windows' sorted bounds finds the one
  /// segment between two bounds that holds `round`, then its short list
  /// of active events (plan order) is scanned for the client.
  const FaultEvent* client_fault_at(long round, int client) const;

  /// Seeded random sensor-fault plan: `events` windows over
  /// [0, horizon_s), kinds drawn uniformly from the five component
  /// kinds, each lasting uniform(0.5, 1.5) * mean_duration_s. Same seed
  /// → identical plan, everywhere.
  static FaultPlan random_component_plan(std::uint64_t seed, double horizon_s,
                                         int events, double mean_duration_s);
  /// Seeded random client-fault plan: `events` windows over
  /// [0, rounds) × [0, clients), kinds drawn from the three client
  /// kinds (straggler magnitude uniform in [2, 6]).
  static FaultPlan random_client_plan(std::uint64_t seed, long rounds,
                                      int clients, int events);

 private:
  std::vector<FaultEvent> events_;
  // The client-kind index: every distinct window start and end,
  // ascending; segment i is [bounds_[i], bounds_[i + 1]), and the
  // events active on all of it (every one active anywhere in it) are
  // seg_events_[seg_start_[i] .. seg_start_[i + 1]), indices into
  // events_ in plan order.
  std::vector<double> bounds_;
  std::vector<std::size_t> seg_start_, seg_events_;
};

/// Decorator injecting the plan's component faults into a Sensor.
/// Windows are indexed by the `now` passed to sense(), so every retry
/// attempt inside a dropout window fails — which is what exhausts the
/// loop's retry budget and exercises degradation.
class FaultySensor : public core::Sensor {
 public:
  FaultySensor(core::Sensor& inner, FaultPlan plan);

  core::Observation sense(double now, Rng& rng) override;

  long faults_injected() const { return injected_; }

 private:
  core::Sensor& inner_;
  FaultPlan plan_;
  core::Observation last_;
  bool has_last_ = false;
  long injected_ = 0;
};

/// Decorator injecting payload faults into a Processor. Windows are
/// indexed by process() call count (a processor has no clock). Only the
/// payload kinds apply: kNaNPayload / kInfPayload corrupt the output,
/// kStuckPayload repeats the previous output; other kinds pass through.
class FaultyProcessor : public core::Processor {
 public:
  FaultyProcessor(core::Processor& inner, FaultPlan plan);

  std::vector<double> process(const core::Observation& obs,
                              Rng& rng) override;
  double energy_per_call_j() const override {
    return inner_.energy_per_call_j();
  }

  long faults_injected() const { return injected_; }

 private:
  core::Processor& inner_;
  FaultPlan plan_;
  std::vector<double> last_out_;
  bool has_last_ = false;
  long calls_ = 0;
  long injected_ = 0;
};

}  // namespace s2a::fault
