#include "obs/trace.hpp"

#include <chrono>
#include <fstream>

namespace s2a::obs {

namespace {

std::atomic<bool> g_enabled{false};

// Dense thread index: 0 for the first thread to trace, 1 for the next...
// Chrome trace viewers sort tracks by tid, so small dense ids beat the
// platform's opaque thread handles.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint32_t& thread_depth() {
  thread_local std::uint32_t depth = 0;
  return depth;
}

void json_escape(std::ostream& os, const char* s) {
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::uint32_t current_thread_depth() { return thread_depth(); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t trace_now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

TraceBuffer::TraceBuffer(std::size_t capacity) : slots_(capacity) {}

void TraceBuffer::push(const TraceEvent& ev) {
  const std::uint64_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& slot = slots_[idx % slots_.size()];
  slot = ev;
  slot.seq = idx;
}

std::size_t TraceBuffer::size() const {
  const std::uint64_t n = cursor_.load(std::memory_order_relaxed);
  return n < slots_.size() ? static_cast<std::size_t>(n) : slots_.size();
}

std::uint64_t TraceBuffer::pushed() const {
  return cursor_.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceBuffer::events() const {
  const std::uint64_t n = cursor_.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out;
  if (n <= slots_.size()) {
    out.assign(slots_.begin(), slots_.begin() + static_cast<long>(n));
  } else {
    // Wrapped: oldest retained event sits at the cursor position.
    out.reserve(slots_.size());
    const std::size_t start = static_cast<std::size_t>(n % slots_.size());
    out.insert(out.end(), slots_.begin() + static_cast<long>(start),
               slots_.end());
    out.insert(out.end(), slots_.begin(),
               slots_.begin() + static_cast<long>(start));
  }
  return out;
}

void TraceBuffer::clear() {
  cursor_.store(0, std::memory_order_relaxed);
  for (auto& s : slots_) s = TraceEvent{};
}

TraceBuffer& trace_buffer() {
  static TraceBuffer instance;
  return instance;
}

TraceScope::TraceScope(const char* name, const char* category)
    : name_(name), category_(category) {
  if (!enabled()) return;
  active_ = true;
  depth_ = thread_depth()++;
  start_ns_ = trace_now_ns();
}

TraceScope::~TraceScope() {
  if (!active_) return;
  const std::uint64_t end_ns = trace_now_ns();
  --thread_depth();
  TraceEvent ev;
  ev.name = name_;
  ev.category = category_;
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns - start_ns_;
  ev.tid = thread_index();
  ev.depth = depth_;
  trace_buffer().push(ev);
}

void write_chrome_trace(const TraceBuffer& buffer, std::ostream& os) {
  // Default ostream precision (6 significant digits) truncates
  // microsecond timestamps a few seconds into a run.
  const auto old_precision = os.precision(15);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : buffer.events()) {
    if (ev.name == nullptr) continue;
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"";
    json_escape(os, ev.name);
    os << "\",\"cat\":\"";
    json_escape(os, ev.category != nullptr ? ev.category : "s2a");
    // Complete events ("ph":"X"); ts/dur are microseconds (double).
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"ts\":" << static_cast<double>(ev.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(ev.dur_ns) / 1e3 << "}";
  }
  // Events the ring overwrote before this export: a non-zero count marks
  // a truncated trace that kept only the newest spans.
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << buffer.pushed() - buffer.size() << "}}\n";
  os.precision(old_precision);
}

bool write_chrome_trace_file(const TraceBuffer& buffer,
                             const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(buffer, f);
  return f.good();
}

}  // namespace s2a::obs
