// Shared plumbing for the end-to-end benchmark: clocks, the in-memory
// span log of a traced run, per-op layer rows, the raw result every
// workload hands back to main.cpp, and a few output helpers.
//
// Tracing here is the benchmark's own, done from the outside: the bench
// components that implement core::Sensor / Processor / TrustMonitor /
// Actuator / BatchProcessor time the calls they make into each module.
// The library's own s2a::obs instrumentation stays off in every run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/loop.hpp"

namespace perfbench {

using namespace s2a;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the raw result and the span log go
};

/// Spans of a traced run, kept in memory and written once at exit as a
/// Chrome trace (chrome://tracing / Perfetto). Thread-safe: the fleet
/// workload records from pool threads.
class SpanLog {
 public:
  /// The op (tick, member-tick, step or round) the calling thread's
  /// next spans belong to; every span carries it as its request id.
  static void set_op(long op) { op_ = op; }

  void add(const char* name, int tid, double start_s, double dur_s);
  /// Writes {"traceEvents": [...]} with one "X" event per span; records
  /// how many spans were dropped past the cap.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int tid;
    long op;
    double start_s, dur_s;
  };
  static inline thread_local long op_ = -1;
  static constexpr std::size_t kCap = 1u << 20;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  long dropped_ = 0;
  double epoch_s_ = -1.0;
};

/// Per-op layer self times of a traced run: one row per op, one column
/// per layer, plus the op's own latency. Layer columns are reported as
/// means over the ops whose latency lies in the median band, so the
/// layers decompose a typical (p50) op rather than an average one.
class LayerRows {
 public:
  explicit LayerRows(std::vector<const char*> columns)
      : columns_(std::move(columns)) {}

  std::size_t width() const { return columns_.size(); }
  const char* column(std::size_t i) const { return columns_[i]; }
  void add(const std::vector<double>& row, double op_ms);

  /// Column means (seconds) over the ops whose latency rank lies in
  /// [lo, hi] of the distribution.
  std::vector<double> band_means(double lo = 0.45, double hi = 0.55) const;

 private:
  std::vector<const char*> columns_;
  std::vector<std::vector<double>> rows_;
  std::vector<double> op_ms_;
};

/// RAII timer: adds the scope's duration (seconds) to *slot and logs a
/// span. A null log means tracing is off and the timer reads no clock.
class Timed {
 public:
  Timed(SpanLog* log, double* slot, const char* name, int tid = 0)
      : log_(log), slot_(slot), name_(name), tid_(tid),
        t0_(log ? now_s() : 0.0) {}
  ~Timed() {
    if (log_ == nullptr) return;
    const double t1 = now_s();
    *slot_ += t1 - t0_;
    log_->add(name_, tid_, t0_, t1 - t0_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* log_;
  double* slot_;
  const char* name_;
  int tid_;
  double t0_;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What a workload run hands back; main.cpp serializes it for run.py,
/// which turns it into the printed metrics.
struct Result {
  std::vector<double> setup_s;   ///< one entry per repeated set-up
  std::vector<double> op_ms;     ///< untraced op latencies
  std::vector<double> op_end_s;  ///< when each untraced op ended, s into the run
  double wall_s = 0.0;           ///< wall time of the untraced ops
  long attempted = 0;            ///< ops attempted (untraced + traced)
  long failed = 0;
  std::vector<std::pair<std::string, long>> fail_reasons;
  double peak_rss_mb = 0.0;
  double energy_mj_per_op = 0.0;
  double quality = 0.0;          ///< the workload's `quality` metric
  std::vector<std::pair<std::string, double>> named_quality;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> info;

  // Traced segment (trace mode only).
  std::vector<double> traced_op_ms;
  std::vector<std::pair<std::string, double>> layers;
  /// Names in `layers` whose values partition one op (self times);
  /// they plus unattributed_us must add up to the traced op_p50_ms.
  std::vector<std::string> self_layers;
};

/// Time budget of one measured segment: keep going until both the
/// seconds and the minimum op count are reached, but never past the
/// hard cap (the whole run must end well inside its time limit).
struct Budget {
  double seconds;
  long min_ops;
  double start_s = now_s();
  static constexpr double kHardCapS = 60.0;
  bool more(long ops) const {
    const double el = now_s() - start_s;
    if (el >= kHardCapS) return false;
    return el < seconds || ops < min_ops;
  }
};

/// On a shared host each vCPU runs up to 1.5x slower, for a fraction of
/// a second to many seconds at a time, while other tenants load its
/// physical core. settle() times a short fixed kernel on each CPU the
/// thread may use and moves the calling thread to the fastest, so that
/// single-threaded work measures the program rather than its neighbours;
/// between_ops() does so at most every 0.1 s. The destructor gives the
/// thread back every CPU, so pools started afterwards are not confined.
class QuietCpu {
 public:
  QuietCpu();
  ~QuietCpu();
  QuietCpu(const QuietCpu&) = delete;
  QuietCpu& operator=(const QuietCpu&) = delete;

  void settle();
  void between_ops();
  long moves() const { return moves_; }

 private:

  double next_s_;
  std::vector<int> cpus_;  ///< the CPUs the thread may use
  int current_ = -1;
  long moves_ = 0;
};

/// Segment lengths of one run: the whole --seconds untraced, or half
/// untraced (for the tracing overhead) and half traced. An untraced run
/// times at least the 1000 ops a p99 needs.
struct Segments {
  double untraced_s, traced_s;
  long min_ops;  ///< per segment
  static Segments of(const Options& o) {
    if (!o.trace) return {o.seconds, 0.0, 1000};
    return {o.seconds / 2.0, o.seconds / 2.0, 100};
  }
};

/// FNV-1a over the bit patterns of an action stream.
class Digest {
 public:
  void add(const core::Action& a);
  void add(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Bench actuator: folds every actuated action into a digest and
/// counts non-finite ones (which the loop must never let through).
class DigestActuator : public core::Actuator {
 public:
  void actuate(const core::Action& action, Rng& rng) override;
  std::uint64_t digest() const { return digest_.value(); }
  long nonfinite() const { return nonfinite_; }

  SpanLog* log = nullptr;  ///< tracing: time each call into total_s
  double total_s = 0.0;
  double end_s = 0.0;      ///< wall clock when the last call returned

 private:
  Digest digest_;
  long nonfinite_ = 0;
};

double peak_rss_mb();
std::string describe(const core::LoopMetrics& m);

}  // namespace perfbench
