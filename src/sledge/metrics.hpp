// One metrics table, three renderings: every exported stat is one row of
// table(), and render_json (GET /admin/stats), render_prometheus (GET
// /admin/metrics) and render_report (shutdown) each render every row. Adding
// a metric is one row plus its producer in Runtime::snapshot().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sledge/runtime.hpp"

namespace sledge::runtime::metrics {

using StatsSnapshot = Runtime::StatsSnapshot;

// The snapshot struct a row reads; kListener, kWorker and kModule have one
// instance per shard, worker or module.
enum class Scope : uint8_t {
  kConfig, kRuntime, kTotals, kPool, kSnapshot, kListener, kWorker, kModule,
};
// kSummary rows are latency histograms; kInfo rows are strings, rendered in
// Prometheus as the labels of the one `sledge_config_info` gauge.
enum class Kind : uint8_t { kCounter, kGauge, kSummary, kInfo };

// A row's value for one scope instance; the row's kind picks the member.
struct Sample {
  double number = 0;
  const LatencyHistogram::Summary* summary = nullptr;
  const char* text = nullptr;
};

struct Metric {
  Scope scope;
  Kind kind;
  const char* key;      // JSON key within the scope; the report's key
  const char* family;   // Prometheus family (kInfo rows share one)
  const char* help;
  double prom_divisor;  // JSON unit -> Prometheus unit (1e9: ns -> s)
  Sample (*read)(const void* scope_struct);
};

const std::vector<Metric>& table();

std::string render_json(const StatsSnapshot& s, const RuntimeConfig& cfg);
std::string render_prometheus(const StatsSnapshot& s,
                              const RuntimeConfig& cfg);
std::string render_report(const StatsSnapshot& s, const RuntimeConfig& cfg);

}  // namespace sledge::runtime::metrics
