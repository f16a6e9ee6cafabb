// Deterministic simulated network link (the edge↔cloud uplink of Sec. VII).
//
// The link is driven entirely by the *loop clock*: a round trip at virtual
// time t is an arithmetic function of (config, fault schedule, seed,
// request id), never of wall time or call order. Randomness is
// counter-hashed — every request derives a fresh generator from
// mix(seed, request_id) — so two endpoints with the same seed but
// different stream ids are decorrelated, and the same request id always
// sees the same loss/jitter draw no matter which thread issues it or how
// many other requests are in flight. That is what makes fleet runs
// bit-reproducible at every thread count (tests/net_test.cpp).
//
// Contention on a shared uplink is modeled statically: `sharers` divides
// the provisioned bandwidth, the fair share every member sees when a
// whole fleet offloads over one radio. Dynamic in-flight counts feed obs
// gauges only — they never enter the latency arithmetic, because order-
// dependent arithmetic would break cross-thread-count determinism.
//
// Faults come from a LinkFaultSchedule — value-type windows over virtual
// time (partition, latency spike, bandwidth collapse, response
// corruption), written out by hand or drawn by
// LinkFaultSchedule::random(). It is the only description of link
// faults; fault::FaultPlan covers the sensor, processor and client sides.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace s2a::net {

/// Link-level fault kinds.
enum class LinkFaultKind {
  kPartition = 0,       ///< link fully down: nothing delivered
  kLatencySpike,        ///< magnitude = extra one-way delay (s)
  kBandwidthCollapse,   ///< magnitude = throughput factor (slow drip)
  kCorrupt,             ///< magnitude = P(response payload corrupted)
};
const char* link_fault_name(LinkFaultKind kind);

// Severity clamps (docs/RESILIENCE.md): an out-of-range schedule entry is
// clamped, never trusted — a window with magnitude 1e9 on a latency
// spike cannot produce an unbounded round trip (tests/net_test.cpp
// regression).
inline constexpr double kMaxLatencySpikeS = 5.0;
inline constexpr double kMinBandwidthFactor = 1e-3;

/// Clamp a fault magnitude into the legal range for its kind.
double clamp_link_magnitude(LinkFaultKind kind, double magnitude);

/// One fault window over virtual time [start_s, end_s).
struct LinkFaultWindow {
  LinkFaultKind kind = LinkFaultKind::kPartition;
  double start_s = 0.0;
  double end_s = 0.0;
  double magnitude = 0.0;  ///< clamped per kind on schedule construction
};

/// Value-type schedule of link fault windows, queried by virtual time.
/// Magnitudes are clamped on construction; windows must be well-formed
/// (end >= start). The first active window of a kind wins.
class LinkFaultSchedule {
 public:
  LinkFaultSchedule() = default;
  explicit LinkFaultSchedule(std::vector<LinkFaultWindow> windows);

  /// Seeded random schedule: `events` windows over [0, horizon_s), kinds
  /// drawn uniformly from the four LinkFaultKinds, each lasting
  /// uniform(0.5, 1.5) * mean_duration_s (spike magnitude uniform in
  /// [0.01, 0.2] s, collapse factor in [0.02, 0.5], corrupt probability
  /// in [0.1, 0.9]). Same seed → identical schedule, everywhere.
  static LinkFaultSchedule random(std::uint64_t seed, double horizon_s,
                                  int events, double mean_duration_s);

  bool partitioned(double t) const;
  /// Extra one-way delay at time t (0 outside spike windows).
  double latency_spike_s(double t) const;
  /// Throughput multiplier at time t (1 outside collapse windows).
  double bandwidth_factor(double t) const;
  /// Probability the response payload is corrupted at time t.
  double corrupt_prob(double t) const;

  const std::vector<LinkFaultWindow>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }

 private:
  std::vector<LinkFaultWindow> windows_;
};

/// Link provisioning. Defaults model a decent edge uplink: 10 MB/s,
/// 2 ms base one-way latency with 1 ms uniform jitter, lossless.
struct LinkConfig {
  double bandwidth_bytes_per_s = 1.0e7;
  double base_latency_s = 2e-3;   ///< one-way propagation delay
  double jitter_s = 1e-3;         ///< uniform extra one-way delay in [0, jitter_s)
  double loss_prob = 0.0;         ///< per-direction drop probability
  double reorder_prob = 0.0;      ///< P(a delivery is held back)
  double reorder_extra_s = 5e-3;  ///< hold-back delay for reordered deliveries
  /// Static fair-share contention: members sharing one uplink each see
  /// bandwidth_bytes_per_s / sharers. Keeps contention deterministic
  /// (no order-dependent accounting).
  int sharers = 1;
};

/// Outcome of one request/response round trip issued at `send_s`.
struct RoundTrip {
  bool delivered = false;   ///< response arrived (possibly corrupted)
  bool corrupted = false;   ///< payload damaged by a kCorrupt window
  double response_at_s = 0.0;  ///< virtual arrival time; valid iff delivered
  double up_s = 0.0;        ///< request traversal time (diagnostics)
  double down_s = 0.0;      ///< response traversal time (diagnostics)
};

/// One endpoint of the simulated link. Value type; copy freely. Two
/// endpoints constructed with the same (config, schedule, seed) but
/// different stream ids draw decorrelated randomness — give each fleet
/// member its own stream id.
class LinkSim {
 public:
  LinkSim() : LinkSim(LinkConfig{}, LinkFaultSchedule{}, 0, 0) {}
  LinkSim(LinkConfig cfg, LinkFaultSchedule faults, std::uint64_t seed,
          std::uint64_t stream_id = 0);

  /// Simulate a request of `request_bytes` sent at virtual time `send_s`,
  /// remote compute of `remote_compute_s`, and a `response_bytes` reply.
  /// `request_id` must be unique per logical attempt on this endpoint —
  /// it keys all randomness, so replaying the same id reproduces the
  /// same outcome bit-for-bit.
  RoundTrip roundtrip(double send_s, std::size_t request_bytes,
                      std::size_t response_bytes, double remote_compute_s,
                      std::uint64_t request_id) const;

  /// Fault-free expected round-trip time for the given shape; seeds the
  /// offload cost model before any observation exists.
  double estimate_rtt_s(std::size_t request_bytes, std::size_t response_bytes,
                        double remote_compute_s) const;

  const LinkConfig& config() const { return cfg_; }
  const LinkFaultSchedule& faults() const { return faults_; }

 private:
  /// One-way traversal starting at `depart_s`; returns arrival time or a
  /// negative value when the packet is lost/partitioned away.
  double traverse(double depart_s, std::size_t bytes, Rng& rng) const;
  double effective_bandwidth(double t) const;

  LinkConfig cfg_;
  LinkFaultSchedule faults_;
  std::uint64_t seed_ = 0;
};

/// splitmix64-style mix of two words; used to derive per-request seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace s2a::net
