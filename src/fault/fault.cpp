#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace s2a::fault {

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropout:
      return "dropout";
    case FaultKind::kNaNPayload:
      return "nan_payload";
    case FaultKind::kInfPayload:
      return "inf_payload";
    case FaultKind::kStuckPayload:
      return "stuck_payload";
    case FaultKind::kLatencySpike:
      return "latency_spike";
    case FaultKind::kClientDropout:
      return "client_dropout";
    case FaultKind::kClientStraggler:
      return "client_straggler";
    case FaultKind::kClientCorrupt:
      return "client_corrupt";
  }
  return "?";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const FaultEvent& ev : events_) {
    S2A_CHECK_MSG(ev.end >= ev.start, fault_name(ev.kind));
    if (ev.kind == FaultKind::kClientStraggler)
      S2A_CHECK_MSG(ev.magnitude >= 1.0, "straggler multiplier must be >= 1");
    if (ev.kind == FaultKind::kLatencySpike)
      S2A_CHECK_MSG(ev.magnitude >= 0.0, "latency spike must be >= 0");
  }
  for (const FaultEvent& ev : events_)
    if (ev.is_client_kind()) {
      bounds_.push_back(ev.start);
      bounds_.push_back(ev.end);
    }
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (bounds_.size() < 2) return;
  // Window [start, end) covers segments [index of start, index of end):
  // a round in a segment is >= every bound up to the segment's and <
  // every bound after it. Two passes (count, then fill in plan order)
  // build the lists.
  const auto index = [this](double v) {
    return static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  };
  seg_start_.assign(bounds_.size(), 0);
  for (const FaultEvent& ev : events_)
    if (ev.is_client_kind())
      for (std::size_t i = index(ev.start); i < index(ev.end); ++i)
        ++seg_start_[i + 1];
  for (std::size_t i = 1; i < seg_start_.size(); ++i)
    seg_start_[i] += seg_start_[i - 1];
  seg_events_.resize(seg_start_.back());
  std::vector<std::size_t> fill(seg_start_.begin(), seg_start_.end() - 1);
  for (std::size_t e = 0; e < events_.size(); ++e)
    if (events_[e].is_client_kind())
      for (std::size_t i = index(events_[e].start); i < index(events_[e].end); ++i)
        seg_events_[fill[i]++] = e;
}

const FaultEvent* FaultPlan::component_fault_at(double t) const {
  for (const FaultEvent& ev : events_)
    if (!ev.is_client_kind() && t >= ev.start && t < ev.end) return &ev;
  return nullptr;
}

const FaultEvent* FaultPlan::client_fault_at(long round, int client) const {
  const double r = static_cast<double>(round);
  // No window is active before the first bound or from the last on.
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), r);
  if (it == bounds_.begin() || it == bounds_.end()) return nullptr;
  const auto seg = static_cast<std::size_t>(it - bounds_.begin()) - 1;
  for (std::size_t k = seg_start_[seg]; k < seg_start_[seg + 1]; ++k) {
    const FaultEvent& ev = events_[seg_events_[k]];
    if (ev.target < 0 || ev.target == client) return &ev;
  }
  return nullptr;
}

FaultPlan FaultPlan::random_component_plan(std::uint64_t seed,
                                           double horizon_s, int events,
                                           double mean_duration_s) {
  S2A_CHECK(horizon_s > 0.0 && events >= 0 && mean_duration_s > 0.0);
  Rng rng(seed);
  std::vector<FaultEvent> evs;
  evs.reserve(static_cast<std::size_t>(events));
  for (int i = 0; i < events; ++i) {
    FaultEvent ev;
    ev.kind = static_cast<FaultKind>(rng.uniform_int(
        static_cast<int>(FaultKind::kDropout),
        static_cast<int>(FaultKind::kLatencySpike)));
    ev.start = rng.uniform(0.0, horizon_s);
    ev.end = ev.start + rng.uniform(0.5, 1.5) * mean_duration_s;
    if (ev.kind == FaultKind::kLatencySpike)
      ev.magnitude = rng.uniform(0.05, 0.5);
    evs.push_back(ev);
  }
  return FaultPlan(std::move(evs));
}

FaultPlan FaultPlan::random_client_plan(std::uint64_t seed, long rounds,
                                        int clients, int events) {
  S2A_CHECK(rounds > 0 && clients > 0 && events >= 0);
  Rng rng(seed);
  std::vector<FaultEvent> evs;
  evs.reserve(static_cast<std::size_t>(events));
  for (int i = 0; i < events; ++i) {
    FaultEvent ev;
    ev.kind = static_cast<FaultKind>(rng.uniform_int(
        static_cast<int>(FaultKind::kClientDropout),
        static_cast<int>(FaultKind::kClientCorrupt)));
    ev.start = rng.uniform_int(0, static_cast<int>(rounds) - 1);
    ev.end = ev.start + rng.uniform_int(1, 3);
    ev.target = rng.uniform_int(0, clients - 1);
    if (ev.kind == FaultKind::kClientStraggler)
      ev.magnitude = rng.uniform(2.0, 6.0);
    evs.push_back(ev);
  }
  return FaultPlan(std::move(evs));
}

FaultySensor::FaultySensor(core::Sensor& inner, FaultPlan plan)
    : inner_(inner), plan_(std::move(plan)) {}

core::Observation FaultySensor::sense(double now, Rng& rng) {
  const FaultEvent* ev = plan_.component_fault_at(now);
  if (ev == nullptr) {
    last_ = inner_.sense(now, rng);
    has_last_ = true;
    return last_;
  }
  ++injected_;
  S2A_COUNTER_ADD("fault.injected", 1);
  switch (ev->kind) {
    case FaultKind::kDropout:
      throw core::SensorFault("injected dropout");
    case FaultKind::kNaNPayload: {
      core::Observation obs = inner_.sense(now, rng);
      for (double& v : obs.data)
        v = std::numeric_limits<double>::quiet_NaN();
      return obs;
    }
    case FaultKind::kInfPayload: {
      core::Observation obs = inner_.sense(now, rng);
      for (double& v : obs.data) v = std::numeric_limits<double>::infinity();
      return obs;
    }
    case FaultKind::kStuckPayload:
      // A frozen front-end repeats its last frame; before any good frame
      // exists it behaves like a dropout.
      if (has_last_) return last_;
      throw core::SensorFault("stuck before first frame");
    case FaultKind::kLatencySpike: {
      core::Observation obs = inner_.sense(now, rng);
      obs.extra_latency_s += ev->magnitude;
      last_ = obs;
      has_last_ = true;
      return obs;
    }
    default:
      break;  // client kinds never match component_fault_at()
  }
  last_ = inner_.sense(now, rng);
  has_last_ = true;
  return last_;
}

FaultyProcessor::FaultyProcessor(core::Processor& inner, FaultPlan plan)
    : inner_(inner), plan_(std::move(plan)) {}

std::vector<double> FaultyProcessor::process(const core::Observation& obs,
                                             Rng& rng) {
  const FaultEvent* ev =
      plan_.component_fault_at(static_cast<double>(calls_));
  ++calls_;
  std::vector<double> out = inner_.process(obs, rng);
  if (ev != nullptr) {
    switch (ev->kind) {
      case FaultKind::kNaNPayload:
        ++injected_;
        S2A_COUNTER_ADD("fault.injected", 1);
        for (double& v : out) v = std::numeric_limits<double>::quiet_NaN();
        break;
      case FaultKind::kInfPayload:
        ++injected_;
        S2A_COUNTER_ADD("fault.injected", 1);
        for (double& v : out) v = std::numeric_limits<double>::infinity();
        break;
      case FaultKind::kStuckPayload:
        if (has_last_) {
          ++injected_;
          S2A_COUNTER_ADD("fault.injected", 1);
          out = last_out_;
        }
        break;
      default:
        break;  // dropout/latency don't apply to a pure function stage
    }
  }
  last_out_ = out;
  has_last_ = true;
  return out;
}

}  // namespace s2a::fault
