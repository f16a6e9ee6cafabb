// Tests for the observability layer (src/obs): histogram percentile
// accuracy, trace span nesting/ordering, exporter round-trips, the
// disabled-mode no-op path, ring-buffer wraparound, and thread safety.
//
// The registry and trace buffer are process-wide singletons shared with
// any instrumented library code, so each test uses uniquely named
// instruments and clears the trace buffer up front.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace {

using namespace s2a;

/// A parsed JSONL metric line (the inverse of obs::JsonlExporter, scoped
/// to exactly the shape it emits — not a general JSON parser).
struct ParsedMetric {
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  std::string name;
  double value = 0.0;  ///< counter/gauge value
  std::uint64_t count = 0;
  double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Extracts the value of `"key":` in `line` as raw text (up to the next
/// ',' or '}'), or nullopt. Keys JsonlExporter emits are never nested.
std::optional<std::string> field(const std::string& line,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  auto begin = pos + needle.size();
  auto end = begin;
  bool in_string = false;
  for (; end < line.size(); ++end) {
    const char c = line[end];
    if (c == '"' && (end == begin || line[end - 1] != '\\')) in_string = !in_string;
    if (!in_string && (c == ',' || c == '}')) break;
  }
  return line.substr(begin, end - begin);
}

std::optional<std::string> string_field(const std::string& line,
                                        const std::string& key) {
  auto raw = field(line, key);
  if (!raw || raw->size() < 2 || raw->front() != '"' || raw->back() != '"')
    return std::nullopt;
  std::string out;
  for (std::size_t i = 1; i + 1 < raw->size(); ++i) {
    if ((*raw)[i] == '\\' && i + 2 < raw->size()) ++i;
    out += (*raw)[i];
  }
  return out;
}

std::optional<double> number_field(const std::string& line,
                                   const std::string& key) {
  auto raw = field(line, key);
  if (!raw || raw->empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str()) return std::nullopt;
  return v;
}

/// Parses one JsonlExporter line; nullopt on malformed input.
std::optional<ParsedMetric> parse_metric_line(const std::string& line) {
  const auto type = string_field(line, "type");
  const auto name = string_field(line, "name");
  if (!type || !name) return std::nullopt;
  ParsedMetric m;
  m.name = *name;
  if (*type == "counter" || *type == "gauge") {
    m.kind = *type == "counter" ? ParsedMetric::Kind::kCounter
                                : ParsedMetric::Kind::kGauge;
    const auto v = number_field(line, "value");
    if (!v) return std::nullopt;
    m.value = *v;
    return m;
  }
  if (*type == "histogram") {
    m.kind = ParsedMetric::Kind::kHistogram;
    const auto count = number_field(line, "count");
    const auto mean = number_field(line, "mean");
    const auto p50 = number_field(line, "p50");
    const auto p95 = number_field(line, "p95");
    const auto p99 = number_field(line, "p99");
    if (!count || !mean || !p50 || !p95 || !p99) return std::nullopt;
    m.count = static_cast<std::uint64_t>(*count);
    m.mean = *mean;
    m.p50 = *p50;
    m.p95 = *p95;
    m.p99 = *p99;
    return m;
  }
  return std::nullopt;
}

/// Enables obs for the test body and restores the previous state.
class ScopedObs {
 public:
  explicit ScopedObs(bool on) : prev_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~ScopedObs() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

// ---- Histogram ----

TEST(Histogram, EmptyQuantilesAreZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValueRoundTripsWithinBucketError) {
  // Log-bucketed storage: any value must come back within one bucket's
  // relative width, 2^(1/kSubBuckets) - 1.
  const double rel =
      std::pow(2.0, 1.0 / obs::Histogram::kSubBuckets) - 1.0;
  for (double v : {1e-7, 3.3e-4, 0.5, 1.0, 7.25, 1234.5}) {
    obs::Histogram h;
    h.record(v);
    for (double q : {0.0, 0.5, 1.0})
      EXPECT_NEAR(h.quantile(q), v, v * rel * 1.01) << "v=" << v << " q=" << q;
  }
}

TEST(Histogram, PercentilesOfUniformGrid) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const double rel =
      std::pow(2.0, 1.0 / obs::Histogram::kSubBuckets) - 1.0;
  // Buckets add their relative width; the rank itself is exact.
  EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * (rel + 0.01));
  EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 * (rel + 0.01));
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * (rel + 0.01));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
}

TEST(Histogram, QuantilesAreMonotone) {
  obs::Histogram h;
  for (int i = 0; i < 500; ++i) h.record(1e-6 * (1 + i % 37));
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, NonPositiveAndNonFiniteGoToUnderflowBucket) {
  obs::Histogram h;
  h.record(0.0);
  h.record(-3.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // underflow bucket reads as 0
}

TEST(Histogram, HugeValuesSaturateInsteadOfCrashing) {
  obs::Histogram h;
  h.record(1e300);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.quantile(1.0), 1e9);  // lands in the top bucket
}

// ---- Counters / gauges / registry ----

TEST(MetricsRegistry, SameNameSameInstrument) {
  auto& reg = obs::registry();
  obs::Counter& a = reg.counter("obs_test.same_name");
  obs::Counter& b = reg.counter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  obs::Gauge& g = obs::registry().gauge("obs_test.gauge");
  g.set(1.5);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(MetricsRegistry, SnapshotSeesRegisteredInstruments) {
  auto& reg = obs::registry();
  reg.counter("obs_test.snap_counter").add(7);
  reg.histogram("obs_test.snap_hist").record(0.25);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto counter = std::find_if(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& c) { return c.name == "obs_test.snap_counter"; });
  ASSERT_NE(counter, snap.counters.end());
  EXPECT_EQ(counter->value, 7);
  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "obs_test.snap_hist"; });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->count, 1u);
}

TEST(MetricsRegistry, ThreadedCountersDontLoseIncrements) {
  obs::Counter& c = obs::registry().counter("obs_test.threaded");
  obs::Histogram& h = obs::registry().histogram("obs_test.threaded_hist");
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.record(1e-3);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ---- TraceScope / TraceBuffer ----

TEST(Trace, DisabledScopesRecordNothing) {
  ScopedObs off(false);
  obs::trace_buffer().clear();
  {
    S2A_TRACE_SCOPE("obs_test.disabled");
    S2A_COUNTER_ADD("obs_test.disabled_counter", 1);
    S2A_HISTOGRAM_RECORD("obs_test.disabled_hist", 1.0);
  }
  EXPECT_EQ(obs::trace_buffer().size(), 0u);
  // The metric macros short-circuit before touching the registry, so the
  // disabled-path instruments were never even registered.
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  for (const auto& c : snap.counters)
    EXPECT_NE(c.name, "obs_test.disabled_counter");
  for (const auto& h : snap.histograms)
    EXPECT_NE(h.name, "obs_test.disabled_hist");
}

TEST(Trace, NestedScopesCompleteChildFirstWithDepths) {
  ScopedObs on(true);
  obs::trace_buffer().clear();
  {
    S2A_TRACE_SCOPE("obs_test.outer");
    {
      S2A_TRACE_SCOPE_CAT("obs_test.inner", "test");
      { S2A_TRACE_SCOPE("obs_test.innermost"); }
    }
  }
  const auto events = obs::trace_buffer().events();
  ASSERT_EQ(events.size(), 3u);
  // Scopes complete innermost-first.
  EXPECT_STREQ(events[0].name, "obs_test.innermost");
  EXPECT_STREQ(events[1].name, "obs_test.inner");
  EXPECT_STREQ(events[2].name, "obs_test.outer");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 0u);
  EXPECT_STREQ(events[1].category, "test");
  // Time containment: each parent starts no later and ends no earlier.
  for (int child = 0; child < 2; ++child) {
    const auto& c = events[static_cast<std::size_t>(child)];
    const auto& p = events[static_cast<std::size_t>(child) + 1];
    EXPECT_LE(p.start_ns, c.start_ns);
    EXPECT_GE(p.start_ns + p.dur_ns, c.start_ns + c.dur_ns);
  }
  // seq reflects completion order.
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(Trace, RingBufferWrapsKeepingNewestEvents) {
  obs::TraceBuffer buf(8);
  for (int i = 0; i < 20; ++i) {
    obs::TraceEvent ev;
    ev.name = "wrap";
    ev.start_ns = static_cast<std::uint64_t>(i);
    buf.push(ev);
  }
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.pushed(), 20u);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest retained is #12, newest #19, in order.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(events[static_cast<std::size_t>(i)].start_ns,
              static_cast<std::uint64_t>(12 + i));
  // The export says the trace was truncated: 20 pushed, 8 retained.
  std::ostringstream os;
  obs::write_chrome_trace(buf, os);
  EXPECT_NE(os.str().find("\"otherData\":{\"dropped_events\":12}"),
            std::string::npos);
}

TEST(Trace, ChromeExportIsWellFormedAndNested) {
  ScopedObs on(true);
  obs::trace_buffer().clear();
  {
    S2A_TRACE_SCOPE("obs_test.export_outer");
    { S2A_TRACE_SCOPE("obs_test.export_inner"); }
  }
  std::ostringstream os;
  obs::write_chrome_trace(obs::trace_buffer(), os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.export_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.export_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"dropped_events\":0}"),
            std::string::npos);
  // Balanced braces/brackets — cheap structural validity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ---- Exporters ----

TEST(Exporter, JsonlRoundTripsEveryInstrumentKind) {
  auto& reg = obs::registry();
  reg.counter("obs_test.rt_counter").add(42);
  reg.gauge("obs_test.rt_gauge").set(-1.25e-3);
  obs::Histogram& h = reg.histogram("obs_test.rt_hist");
  for (int i = 1; i <= 100; ++i) h.record(1e-6 * i);

  std::ostringstream os;
  obs::JsonlExporter().export_metrics(reg.snapshot(), os);

  // Parse every line back and index by name.
  std::istringstream is(os.str());
  std::string line;
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  while (std::getline(is, line)) {
    const auto m = parse_metric_line(line);
    ASSERT_TRUE(m.has_value()) << "unparseable line: " << line;
    if (m->name == "obs_test.rt_counter") {
      saw_counter = true;
      EXPECT_EQ(m->kind, ParsedMetric::Kind::kCounter);
      EXPECT_DOUBLE_EQ(m->value, 42.0);
    } else if (m->name == "obs_test.rt_gauge") {
      saw_gauge = true;
      EXPECT_EQ(m->kind, ParsedMetric::Kind::kGauge);
      EXPECT_DOUBLE_EQ(m->value, -1.25e-3);  // num() round-trips exactly
    } else if (m->name == "obs_test.rt_hist") {
      saw_hist = true;
      EXPECT_EQ(m->kind, ParsedMetric::Kind::kHistogram);
      EXPECT_EQ(m->count, 100u);
      EXPECT_DOUBLE_EQ(m->mean, h.mean());
      EXPECT_DOUBLE_EQ(m->p50, h.quantile(0.50));
      EXPECT_DOUBLE_EQ(m->p95, h.quantile(0.95));
      EXPECT_DOUBLE_EQ(m->p99, h.quantile(0.99));
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST(Exporter, ParseRejectsMalformedLines) {
  EXPECT_FALSE(parse_metric_line("").has_value());
  EXPECT_FALSE(parse_metric_line("not json").has_value());
  EXPECT_FALSE(
      parse_metric_line("{\"type\":\"counter\"}").has_value());
  EXPECT_FALSE(parse_metric_line(
                   "{\"type\":\"weird\",\"name\":\"x\",\"value\":1}")
                   .has_value());
  EXPECT_FALSE(parse_metric_line(
                   "{\"type\":\"counter\",\"name\":\"x\",\"value\":oops}")
                   .has_value());
}

TEST(Exporter, JsonlEscapesQuotesInNames) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"weird\"name", 1});
  std::ostringstream os;
  obs::JsonlExporter().export_metrics(snap, os);
  const auto m = parse_metric_line(os.str());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->name, "weird\"name");
}

TEST(Exporter, TableBackendPrintsEveryInstrument) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"table.counter", 9});
  snap.gauges.push_back({"table.gauge", 0.5});
  snap.histograms.push_back({"table.hist", 3, 1e-5, 1e-5, 2e-5, 3e-5});
  std::ostringstream os;
  obs::TableExporter().export_metrics(snap, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("table.counter"), std::string::npos);
  EXPECT_NE(out.find("table.gauge"), std::string::npos);
  EXPECT_NE(out.find("table.hist"), std::string::npos);
  EXPECT_NE(out.find("p99"), std::string::npos);
}

// ---- Instrumented library code end-to-end ----

TEST(Obs, ResetAllZeroesValuesButKeepsInstruments) {
  auto& reg = obs::registry();
  obs::Counter& c = reg.counter("obs_test.reset_me");
  c.add(5);
  reg.reset_all();
  EXPECT_EQ(c.value(), 0);  // same instrument, zeroed in place
  c.add(1);
  EXPECT_EQ(reg.counter("obs_test.reset_me").value(), 1);
}

TEST(Obs, SecondsSinceIsNonNegativeAndOrdered) {
  const std::uint64_t t0 = obs::trace_now_ns();
  const double dt = obs::seconds_since(t0);
  EXPECT_GE(dt, 0.0);
  EXPECT_LT(dt, 60.0);
}

}  // namespace
