// Metric export backends (docs/OBSERVABILITY.md).
//
// An Exporter turns a MetricsSnapshot into bytes on a stream. Two
// backends ship in-tree:
//  * JsonlExporter — one JSON object per line, machine-readable, with
//    every number at round-trip precision (tests/obs_test.cpp parses
//    the lines back).
//  * TableExporter — aligned human-readable tables via util/table.hpp,
//    the same formatting every bench binary uses.
#pragma once

#include <ostream>
#include <string>

#include "obs/metrics.hpp"

namespace s2a::obs {

class Exporter {
 public:
  virtual ~Exporter() = default;
  virtual void export_metrics(const MetricsSnapshot& snapshot,
                              std::ostream& os) = 0;
};

/// One JSON object per line:
///   {"type":"counter","name":"loop.vetoed","value":3}
///   {"type":"gauge","name":"fed.round_latency_s","value":0.125}
///   {"type":"histogram","name":"loop.tick_s","count":600,
///    "mean":1.2e-05,"p50":1.1e-05,"p95":2.0e-05,"p99":3.1e-05}
class JsonlExporter : public Exporter {
 public:
  void export_metrics(const MetricsSnapshot& snapshot,
                      std::ostream& os) override;
};

/// Aligned text tables (one per instrument kind present in the snapshot).
class TableExporter : public Exporter {
 public:
  void export_metrics(const MetricsSnapshot& snapshot,
                      std::ostream& os) override;
};

}  // namespace s2a::obs
