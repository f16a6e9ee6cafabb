#include "obs/exporter.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/table.hpp"

namespace s2a::obs {

namespace {

// Shortest double representation that round-trips (max_digits10).
std::string num(double v) {
  std::ostringstream ss;
  ss << std::setprecision(17) << v;
  return ss.str();
}

// 4 significant digits, scientific when small — histogram values span
// nanoseconds to simulated minutes, so fixed precision doesn't fit.
std::string sig(double v) {
  std::ostringstream ss;
  ss << std::setprecision(4) << v;
  return ss.str();
}

void escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

void JsonlExporter::export_metrics(const MetricsSnapshot& snapshot,
                                   std::ostream& os) {
  for (const auto& c : snapshot.counters) {
    os << "{\"type\":\"counter\",\"name\":\"";
    escape(os, c.name);
    os << "\",\"value\":" << c.value << "}\n";
  }
  for (const auto& g : snapshot.gauges) {
    os << "{\"type\":\"gauge\",\"name\":\"";
    escape(os, g.name);
    os << "\",\"value\":" << num(g.value) << "}\n";
  }
  for (const auto& h : snapshot.histograms) {
    os << "{\"type\":\"histogram\",\"name\":\"";
    escape(os, h.name);
    os << "\",\"count\":" << h.count << ",\"mean\":" << num(h.mean)
       << ",\"p50\":" << num(h.p50) << ",\"p95\":" << num(h.p95)
       << ",\"p99\":" << num(h.p99) << "}\n";
  }
}

void TableExporter::export_metrics(const MetricsSnapshot& snapshot,
                                   std::ostream& os) {
  if (!snapshot.counters.empty()) {
    Table t("Counters");
    t.set_header({"Name", "Value"});
    for (const auto& c : snapshot.counters)
      t.add_row({c.name, std::to_string(c.value)});
    t.print(os);
  }
  if (!snapshot.gauges.empty()) {
    Table t("Gauges");
    t.set_header({"Name", "Value"});
    for (const auto& g : snapshot.gauges) t.add_row({g.name, sig(g.value)});
    t.print(os);
  }
  if (!snapshot.histograms.empty()) {
    Table t("Histograms");
    t.set_header({"Name", "Count", "Mean", "p50", "p95", "p99"});
    for (const auto& h : snapshot.histograms)
      t.add_row({h.name, std::to_string(h.count), sig(h.mean), sig(h.p50),
                 sig(h.p95), sig(h.p99)});
    t.print(os);
  }
}

}  // namespace s2a::obs
