#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>

namespace perfbench {

void SpanLog::add(const char* name, int tid, double start_s, double dur_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch_s_ < 0.0) epoch_s_ = start_s;
  if (spans_.size() >= kCap) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, tid, op_, start_s, dur_s});
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"otherData\": {\"dropped_spans\": %ld}, \"traceEvents\": [",
               dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %ld}}",
                 i ? "," : "", s.name, s.tid, (s.start_s - epoch_s_) * 1e6,
                 s.dur_s * 1e6, s.op);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void LayerRows::add(const std::vector<double>& row, double op_ms) {
  rows_.push_back(row);
  op_ms_.push_back(op_ms);
}

std::vector<double> LayerRows::band_means(double lo, double hi) const {
  std::vector<double> out(columns_.size(), 0.0);
  const std::size_t n = op_ms_.size();
  if (n == 0) return out;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return op_ms_[a] < op_ms_[b];
  });
  std::size_t b = static_cast<std::size_t>(std::floor(lo * (n - 1)));
  std::size_t e = static_cast<std::size_t>(std::ceil(hi * (n - 1)));
  e = std::min(e, n - 1);
  for (std::size_t k = b; k <= e; ++k)
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += rows_[order[k]][c];
  for (double& v : out) v /= static_cast<double>(e - b + 1);
  return out;
}

namespace {

constexpr double kSettlePeriodS = 0.1;
constexpr double kMoveMargin = 1.25;

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Seconds one small dense float product (48^3 multiply-adds, some tens
/// of microseconds) takes on the current CPU, the better of two.
double probe_kernel_s() {
  constexpr int n = 48;
  static thread_local std::vector<float> a(n * n, 0.5f), b(n * n, 0.25f), c(n * n);
  double best = 1e9;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = now_s();
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const float av = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += av * b[k * n + j];
      }
    best = std::min(best, now_s() - t0);
  }
  a[0] = c[n + 1] * 1e-30f;  // keeps the product live
  return best;
}

}  // namespace

QuietCpu::QuietCpu() : next_s_(now_s()) {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

QuietCpu::~QuietCpu() {
  if (current_ >= 0) pin_to(cpus_);
}

void QuietCpu::between_ops() {
  if (now_s() < next_s_) return;
  settle();
  next_s_ = now_s() + kSettlePeriodS;
}

void QuietCpu::settle() {
  if (cpus_.size() < 2) return;
  int best_cpu = cpus_[0];
  double best = 1e9, here = 1e9;
  for (int c : cpus_) {
    if (!pin_to({c})) {  // not allowed: leave it to the OS from now on
      pin_to(cpus_);
      cpus_.clear();
      current_ = -1;
      return;
    }
    const double t = probe_kernel_s();
    if (t < best) best = t, best_cpu = c;
    if (c == current_) here = t;
  }
  // A move costs the thread its warm caches: stay unless clearly slower.
  if (here < kMoveMargin * best) best_cpu = current_;
  pin_to({best_cpu});
  if (best_cpu != current_ && current_ >= 0) ++moves_;
  current_ = best_cpu;
}

void Digest::add(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(const core::Action& a) {
  for (double v : a.data) add(v);
  add(a.based_on_timestamp);
}

void DigestActuator::actuate(const core::Action& action, Rng&) {
  {
    Timed t(log, &total_s, "actuator");
    for (double v : action.data)
      if (!std::isfinite(v)) ++nonfinite_;
    digest_.add(action);
  }
  end_s = now_s();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string describe(const core::LoopMetrics& m) {
  std::ostringstream os;
  os << "ticks=" << m.ticks << " senses=" << m.senses
     << " actions=" << m.actions << " vetoed=" << m.vetoed
     << " faults=" << m.sensor_faults << " retries=" << m.sense_retries
     << " fallbacks=" << m.fallback_actions
     << " degraded=" << m.degraded_ticks << " safe_stops=" << m.safe_stops;
  return os.str();
}

}  // namespace perfbench
