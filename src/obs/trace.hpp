// Profiling spans for the observability layer (docs/OBSERVABILITY.md).
//
// A TraceScope is an RAII span: construction stamps a start time,
// destruction pushes one completed event into a process-wide ring
// buffer. Events carry the thread and nesting depth so an exported trace
// reconstructs the call tree. The buffer is a fixed-capacity ring with
// an atomic write cursor — recording is lock-free, allocation-free, and
// overwrites the oldest events when full (a profiler should never stall
// or OOM the system it measures).
//
// Span names and categories must be string literals (or otherwise
// outlive the buffer): only the pointer is stored.
//
// Export is Chrome trace_event JSON ("ph":"X" complete events), loadable
// in chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace s2a::obs {

struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_ns = 0;  ///< steady-clock time at scope entry
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< dense per-process thread index
  std::uint32_t depth = 0;  ///< nesting depth at entry (0 = top level)
  std::uint64_t seq = 0;    ///< global completion order
};

class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  /// Lock-free: claims a slot with an atomic cursor and writes in place.
  /// Wraps (overwriting the oldest event) once `capacity` is exceeded.
  void push(const TraceEvent& ev);

  std::size_t capacity() const { return slots_.size(); }
  /// Number of retained events (≤ capacity).
  std::size_t size() const;
  /// Total events ever pushed, including overwritten ones.
  std::uint64_t pushed() const;
  /// Retained events, oldest first. Not synchronized with concurrent
  /// writers — call from a quiescent point (end of run, test assertions).
  std::vector<TraceEvent> events() const;
  void clear();

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> cursor_{0};
};

/// The process-wide span buffer TraceScope writes into.
TraceBuffer& trace_buffer();

/// Master observability switch. Disabled (the default) makes TraceScope
/// construction a single relaxed atomic load and the obs.hpp metric
/// macros a load + branch — nothing is recorded anywhere.
bool enabled();
void set_enabled(bool on);

/// RAII profiling span. When observability is disabled at construction,
/// the scope is inert: no clock read, no buffer write, no depth change.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category = "s2a");
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// Steady-clock nanoseconds since process-local epoch (first use).
std::uint64_t trace_now_ns();

/// Current span nesting depth of the calling thread (0 = no open span).
/// Depth is thread-local: a span opened inside a util::ThreadPool task
/// starts at depth 0 on a worker thread (its own track in the exported
/// trace) but nests under the caller's open spans when the pool runs the
/// task inline on the submitting thread. Exposed so the parallel-path
/// tests can assert both behaviours mechanically.
std::uint32_t current_thread_depth();

/// Writes the buffer as Chrome trace_event JSON ({"traceEvents":[...]}).
/// Timestamps are microseconds; nesting is reconstructed by Perfetto from
/// the spans' time containment per thread. "otherData" carries
/// "dropped_events" (pushed() - size()): the oldest spans a wrapped ring
/// overwrote, so a truncated trace says so.
void write_chrome_trace(const TraceBuffer& buffer, std::ostream& os);

/// Convenience: write_chrome_trace to `path`; returns false on I/O error.
bool write_chrome_trace_file(const TraceBuffer& buffer,
                             const std::string& path);

}  // namespace s2a::obs
