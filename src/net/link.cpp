#include "net/link.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace s2a::net {

const char* link_fault_name(LinkFaultKind kind) {
  switch (kind) {
    case LinkFaultKind::kPartition:
      return "link_partition";
    case LinkFaultKind::kLatencySpike:
      return "link_latency_spike";
    case LinkFaultKind::kBandwidthCollapse:
      return "link_bandwidth_collapse";
    case LinkFaultKind::kCorrupt:
      return "link_corrupt";
  }
  return "?";
}

double clamp_link_magnitude(LinkFaultKind kind, double magnitude) {
  // Non-finite severities (a NaN magnitude from a bad config) collapse to
  // the benign end of each range rather than propagating.
  if (!std::isfinite(magnitude)) magnitude = 0.0;
  switch (kind) {
    case LinkFaultKind::kPartition:
      return 0.0;  // magnitude unused
    case LinkFaultKind::kLatencySpike:
      return std::clamp(magnitude, 0.0, kMaxLatencySpikeS);
    case LinkFaultKind::kBandwidthCollapse:
      return std::clamp(magnitude, kMinBandwidthFactor, 1.0);
    case LinkFaultKind::kCorrupt:
      return std::clamp(magnitude, 0.0, 1.0);
  }
  return 0.0;
}

LinkFaultSchedule::LinkFaultSchedule(std::vector<LinkFaultWindow> windows)
    : windows_(std::move(windows)) {
  for (LinkFaultWindow& w : windows_) {
    S2A_CHECK(std::isfinite(w.start_s) && w.start_s >= 0.0);
    S2A_CHECK(w.end_s >= w.start_s);
    w.magnitude = clamp_link_magnitude(w.kind, w.magnitude);
  }
}

namespace {
const LinkFaultWindow* first_active(const std::vector<LinkFaultWindow>& ws,
                                    LinkFaultKind kind, double t) {
  for (const LinkFaultWindow& w : ws) {
    if (w.kind == kind && t >= w.start_s && t < w.end_s) return &w;
  }
  return nullptr;
}
}  // namespace

bool LinkFaultSchedule::partitioned(double t) const {
  return first_active(windows_, LinkFaultKind::kPartition, t) != nullptr;
}

double LinkFaultSchedule::latency_spike_s(double t) const {
  const LinkFaultWindow* w =
      first_active(windows_, LinkFaultKind::kLatencySpike, t);
  return w != nullptr ? w->magnitude : 0.0;
}

double LinkFaultSchedule::bandwidth_factor(double t) const {
  const LinkFaultWindow* w =
      first_active(windows_, LinkFaultKind::kBandwidthCollapse, t);
  return w != nullptr ? w->magnitude : 1.0;
}

double LinkFaultSchedule::corrupt_prob(double t) const {
  const LinkFaultWindow* w = first_active(windows_, LinkFaultKind::kCorrupt, t);
  return w != nullptr ? w->magnitude : 0.0;
}

LinkFaultSchedule LinkFaultSchedule::random(std::uint64_t seed,
                                            double horizon_s, int events,
                                            double mean_duration_s) {
  S2A_CHECK(horizon_s > 0.0 && events >= 0 && mean_duration_s > 0.0);
  Rng rng(seed);
  std::vector<LinkFaultWindow> windows;
  windows.reserve(static_cast<std::size_t>(events));
  for (int i = 0; i < events; ++i) {
    LinkFaultWindow w;
    w.kind = static_cast<LinkFaultKind>(
        rng.uniform_int(static_cast<int>(LinkFaultKind::kPartition),
                        static_cast<int>(LinkFaultKind::kCorrupt)));
    w.start_s = rng.uniform(0.0, horizon_s);
    w.end_s = w.start_s + rng.uniform(0.5, 1.5) * mean_duration_s;
    switch (w.kind) {
      case LinkFaultKind::kLatencySpike:
        w.magnitude = rng.uniform(0.01, 0.2);
        break;
      case LinkFaultKind::kBandwidthCollapse:
        w.magnitude = rng.uniform(0.02, 0.5);
        break;
      case LinkFaultKind::kCorrupt:
        w.magnitude = rng.uniform(0.1, 0.9);
        break;
      case LinkFaultKind::kPartition:
        break;  // no magnitude
    }
    windows.push_back(w);
  }
  return LinkFaultSchedule(std::move(windows));
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the sum; cheap, and adjacent (a, b) pairs
  // land in decorrelated states (same construction Rng seeding uses).
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

LinkSim::LinkSim(LinkConfig cfg, LinkFaultSchedule faults, std::uint64_t seed,
                 std::uint64_t stream_id)
    : cfg_(cfg), faults_(std::move(faults)), seed_(mix_seed(seed, stream_id)) {
  S2A_CHECK(cfg_.bandwidth_bytes_per_s > 0.0);
  S2A_CHECK(cfg_.base_latency_s >= 0.0 && cfg_.jitter_s >= 0.0);
  S2A_CHECK(cfg_.loss_prob >= 0.0 && cfg_.loss_prob <= 1.0);
  S2A_CHECK(cfg_.reorder_prob >= 0.0 && cfg_.reorder_prob <= 1.0);
  S2A_CHECK(cfg_.reorder_extra_s >= 0.0);
  S2A_CHECK(cfg_.sharers >= 1);
}

double LinkSim::effective_bandwidth(double t) const {
  return cfg_.bandwidth_bytes_per_s * faults_.bandwidth_factor(t) /
         static_cast<double>(cfg_.sharers);
}

double LinkSim::traverse(double depart_s, std::size_t bytes, Rng& rng) const {
  // Draws happen unconditionally so the consumption pattern (and thus
  // every later draw from this per-request generator) is identical on
  // the healthy and faulty paths.
  const double jitter = cfg_.jitter_s > 0.0 ? rng.uniform(0.0, cfg_.jitter_s)
                                            : 0.0;
  const bool lost = rng.bernoulli(cfg_.loss_prob);
  const bool reordered = rng.bernoulli(cfg_.reorder_prob);

  if (faults_.partitioned(depart_s)) return -1.0;
  if (lost) return -1.0;

  const double serialize =
      static_cast<double>(bytes) / effective_bandwidth(depart_s);
  double arrival = depart_s + serialize + cfg_.base_latency_s + jitter +
                   faults_.latency_spike_s(depart_s);
  if (reordered) arrival += cfg_.reorder_extra_s;
  // A partition that begins while the packet is in flight eats it too.
  if (faults_.partitioned(arrival)) return -1.0;
  return arrival;
}

RoundTrip LinkSim::roundtrip(double send_s, std::size_t request_bytes,
                             std::size_t response_bytes,
                             double remote_compute_s,
                             std::uint64_t request_id) const {
  S2A_CHECK(std::isfinite(send_s));
  S2A_CHECK(remote_compute_s >= 0.0);
  RoundTrip rt;
  Rng rng(mix_seed(seed_, request_id));

  const double up_arrival = traverse(send_s, request_bytes, rng);
  if (up_arrival < 0.0) {
    S2A_COUNTER_ADD("net.link_drops", 1);
    return rt;
  }
  rt.up_s = up_arrival - send_s;

  const double resp_depart = up_arrival + remote_compute_s;
  const double down_arrival = traverse(resp_depart, response_bytes, rng);
  if (down_arrival < 0.0) {
    S2A_COUNTER_ADD("net.link_drops", 1);
    return rt;
  }
  rt.down_s = down_arrival - resp_depart;

  rt.delivered = true;
  rt.response_at_s = down_arrival;
  rt.corrupted = rng.bernoulli(faults_.corrupt_prob(resp_depart));
  S2A_COUNTER_ADD("net.link_deliveries", 1);
  if (rt.corrupted) S2A_COUNTER_ADD("net.link_corruptions", 1);
  S2A_HISTOGRAM_RECORD("net.link_rtt_s", down_arrival - send_s);
  return rt;
}

double LinkSim::estimate_rtt_s(std::size_t request_bytes,
                               std::size_t response_bytes,
                               double remote_compute_s) const {
  const double share =
      cfg_.bandwidth_bytes_per_s / static_cast<double>(cfg_.sharers);
  const double serialize =
      static_cast<double>(request_bytes + response_bytes) / share;
  return serialize + 2.0 * (cfg_.base_latency_s + 0.5 * cfg_.jitter_s) +
         remote_compute_s;
}

}  // namespace s2a::net
