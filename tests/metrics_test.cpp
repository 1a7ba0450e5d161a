// The metrics table and its three renderings (/admin/stats JSON,
// /admin/metrics Prometheus text, the shutdown report), exercised on
// hand-built snapshots: no server, no sandboxes, so the suite also runs
// under the sanitizer presets.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sledge/metrics.hpp"

namespace sledge::runtime::metrics {
namespace {

LatencyHistogram::Summary hist(uint64_t base) {
  LatencyHistogram::Summary h;
  h.count = 4;
  h.sum_ns = static_cast<double>(base) * 4.5;
  h.min_ns = base / 2;
  h.p50_ns = base;
  h.p90_ns = base * 2;
  h.p99_ns = base * 3;
  h.max_ns = base * 4;
  return h;
}

// 2 listener shards, 2 workers and one module per name, every field set.
StatsSnapshot make_snapshot(const std::vector<std::string>& modules) {
  StatsSnapshot s;
  s.uptime_ns = 2'500'000'000;
  s.inflight = 3;
  s.totals.completed = 10;
  s.totals.shed_deadline = 2;
  s.totals.accepted = 7;
  s.pool.transfer_outstanding = 1;
  s.snapshot_tier.builds = 1;
  for (int i = 0; i < 2; ++i) {
    Runtime::ListenerSnapshot l;
    l.id = i;
    l.accepted = 3 + i;
    l.loaned_conns = i;
    s.listeners.push_back(l);
    Runtime::WorkerSnapshot w;
    w.id = i;
    w.dispatches = 5 + i;
    s.workers.push_back(w);
  }
  for (const std::string& name : modules) {
    Runtime::ModuleSnapshot m;
    m.name = name;
    m.requests = 5;
    m.invoke_zerocopy = 2;
    m.tenant_weight = 2;
    m.predicted_queue_p99_ns = 1500;
    m.predicted_exec_p99_ns = 2'000'000;
    m.end_to_end = hist(100'000);
    m.startup = hist(1'000);
    m.queue_wait = hist(2'000);
    m.exec_cpu = hist(50'000);
    s.modules.push_back(m);
  }
  return s;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// Scans a metric or label name starting at `i`; returns its end.
size_t scan_name(const std::string& s, size_t i, bool colon_ok) {
  while (i < s.size() &&
         (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_' ||
          (colon_ok && s[i] == ':'))) {
    ++i;
  }
  return i;
}

// One line of text exposition format 0.0.4: `# HELP name text`,
// `# TYPE name type`, or `name{label="escaped",...} value`.
bool well_formed(const std::string& line) {
  for (const char* comment : {"# HELP ", "# TYPE "}) {
    if (!starts_with(line, comment)) continue;
    size_t end = scan_name(line, 7, true);
    if (end == 7 || end >= line.size() || line[end] != ' ') return false;
    if (comment[2] == 'H') return true;
    std::string type = line.substr(end + 1);
    return type == "counter" || type == "gauge" || type == "summary";
  }
  size_t i = scan_name(line, 0, true);
  if (i == 0 || std::isdigit(static_cast<unsigned char>(line[0]))) {
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    for (++i;;) {
      size_t end = scan_name(line, i, false);
      if (end == i || line.compare(end, 2, "=\"") != 0) return false;
      for (i = end + 2; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] == '\\' &&
            (++i == line.size() || std::strchr("\\\"n", line[i]) == nullptr)) {
          return false;
        }
      }
      if (i + 1 >= line.size()) return false;
      i += 2;  // closing quote plus ',' or '}'
      if (line[i - 1] == '}') break;
      if (line[i - 1] != ',') return false;
    }
  }
  if (i >= line.size() || line[i] != ' ') return false;
  const char* value = line.c_str() + i + 1;
  char* end = nullptr;
  std::strtod(value, &end);
  return end != value && *end == '\0';
}

// A row's value in the parsed /admin/stats document, for every instance of
// its scope (null entries mark missing keys).
std::vector<json::Value> json_values(const json::Value& doc, const Metric& m,
                                     const StatsSnapshot& s) {
  auto members = [&](const char* array) {
    std::vector<json::Value> out;
    for (const json::Value& e : doc[array].as_array()) out.push_back(e[m.key]);
    return out;
  };
  switch (m.scope) {
    case Scope::kConfig:
    case Scope::kRuntime: return {doc[m.key]};
    case Scope::kTotals: return {doc["totals"][m.key]};
    case Scope::kPool: return {doc["pool"][m.key]};
    case Scope::kSnapshot: return {doc["snapshot"][m.key]};
    case Scope::kListener: return members("listeners");
    case Scope::kWorker: return members("workers");
    case Scope::kModule: {
      std::vector<json::Value> out;
      for (const auto& mod : s.modules) {
        out.push_back(doc["modules"][mod.name][m.key]);
      }
      return out;
    }
  }
  return {};
}

TEST(MetricsTableTest, EveryRowRendersOnEverySurface) {
  const StatsSnapshot s = make_snapshot({"ping", "gocr"});
  const RuntimeConfig cfg;
  auto doc = json::parse(render_json(s, cfg));
  ASSERT_TRUE(doc.ok()) << doc.error_message();
  const std::vector<std::string> prom = lines_of(render_prometheus(s, cfg));
  const std::string report = render_report(s, cfg);

  std::set<std::string> families;
  std::set<std::string> info_families;
  for (const Metric& m : table()) {
    SCOPED_TRACE(m.key);
    if (m.kind == Kind::kInfo) {
      info_families.insert(m.family);
    } else {
      EXPECT_TRUE(families.insert(m.family).second)
          << "duplicate family " << m.family;
    }

    std::vector<json::Value> values = json_values(*doc, m, s);
    EXPECT_FALSE(values.empty());
    for (const json::Value& v : values) {
      switch (m.kind) {
        case Kind::kInfo: EXPECT_TRUE(v.is_string()); break;
        case Kind::kSummary:
          EXPECT_EQ(v.as_object().size(), 8u);
          EXPECT_TRUE(v["p99_ns"].is_number());
          break;
        default: EXPECT_TRUE(v.is_number()); break;
      }
    }

    const std::string family = m.family;
    int help = 0, type = 0, series = 0;
    for (const std::string& line : prom) {
      help += starts_with(line, "# HELP " + family + " ");
      type += starts_with(line, "# TYPE " + family + " ");
      series +=
          starts_with(line, family + "{") || starts_with(line, family + " ");
    }
    EXPECT_EQ(help, 1);
    EXPECT_EQ(type, 1);
    EXPECT_GE(series, 1);
    if (m.kind == Kind::kInfo) {
      std::string label = std::string(m.key) + "=\"";
      bool labelled = false;
      for (const std::string& line : prom) {
        labelled |= starts_with(line, family + "{") &&
                    line.find(label) != std::string::npos;
      }
      EXPECT_TRUE(labelled);
    }

    const char* sep = m.kind == Kind::kSummary ? "(" : "=";
    EXPECT_NE(report.find(" " + std::string(m.key) + sep), std::string::npos)
        << report;
  }
  EXPECT_EQ(info_families.size(), 1u);
  for (const std::string& f : info_families) EXPECT_EQ(families.count(f), 0u);

  // Each value reaches its own instance, in the unit of each surface.
  EXPECT_EQ((*doc)["listeners"].as_array().at(1)["loaned_conns"].as_int(), 1);
  EXPECT_EQ((*doc)["workers"].as_array().at(1)["dispatches"].as_int(), 6);
  EXPECT_EQ((*doc)["modules"]["gocr"]["invoke_zerocopy"].as_int(), 2);
  EXPECT_EQ((*doc)["uptime_s"].as_number(), 2.5);
  EXPECT_EQ((*doc)["dataplane"].as_string(), "shm");
  const std::string text = render_prometheus(s, cfg);
  for (const char* needle : {
           "sledge_worker_dispatches_total{worker=\"1\"} 6\n",
           "sledge_listener_loaned_conns{shard=\"1\"} 1\n",
           "sledge_transfer_outstanding 1\n",
           "sledge_module_tenant_weight{module=\"ping\"} 2\n",
           "sledge_predicted_exec_p99_seconds{module=\"ping\"} 0.002\n",
           "sledge_end_to_end_seconds{module=\"ping\",quantile=\"0.99\"} "
           "0.0003\n",
           "sledge_end_to_end_seconds_count{module=\"ping\"} 4\n",
           "sledge_config_info{dispatcher=\"work_stealing\","
           "sched=\"round_robin\",admission=\"depth\","
           "instantiation=\"pooled\",dataplane=\"shm\"} 1\n",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << text;
  }
}

// The families /admin/metrics exported before the table existed keep their
// names, types and labels: dashboards, README and tests read them.
TEST(MetricsTableTest, KeepsEveryPrometheusFamily) {
  const std::map<std::string, std::string> expected = {
      {"sledge_uptime_seconds", "gauge"},
      {"sledge_inflight", "gauge"},
      {"sledge_completed_total", "counter"},
      {"sledge_failed_total", "counter"},
      {"sledge_killed_total", "counter"},
      {"sledge_drained_total", "counter"},
      {"sledge_shed_total", "counter"},
      {"sledge_shed_deadline_total", "counter"},
      {"sledge_preemptions_total", "counter"},
      {"sledge_steals_total", "counter"},
      {"sledge_pool_hits_total", "counter"},
      {"sledge_pool_misses_total", "counter"},
      {"sledge_blocked_total", "counter"},
      {"sledge_woken_total", "counter"},
      {"sledge_invokes_total", "counter"},
      {"sledge_accepted_total", "counter"},
      {"sledge_accept_errors_total", "counter"},
      {"sledge_pool_memory_hits_total", "counter"},
      {"sledge_pool_memory_misses_total", "counter"},
      {"sledge_pool_stack_hits_total", "counter"},
      {"sledge_pool_stack_misses_total", "counter"},
      {"sledge_pool_released_total", "counter"},
      {"sledge_pool_transfer_hits_total", "counter"},
      {"sledge_pool_transfer_misses_total", "counter"},
      {"sledge_snapshot_hits_total", "counter"},
      {"sledge_snapshot_misses_total", "counter"},
      {"sledge_snapshot_builds_total", "counter"},
      {"sledge_snapshot_build_failures_total", "counter"},
      {"sledge_transfer_outstanding", "gauge"},
      {"sledge_listener_accepted_total", "counter"},
      {"sledge_listener_accept_errors_total", "counter"},
      {"sledge_listener_open_conns", "gauge"},
      {"sledge_listener_loaned_conns", "gauge"},
      {"sledge_requests_total", "counter"},
      {"sledge_failures_total", "counter"},
      {"sledge_kills_total", "counter"},
      {"sledge_module_shed_total", "counter"},
      {"sledge_module_shed_deadline_total", "counter"},
      {"sledge_module_preemptions_total", "counter"},
      {"sledge_response_bytes_total", "counter"},
      {"sledge_invoke_local_total", "counter"},
      {"sledge_invoke_zerocopy_total", "counter"},
      {"sledge_queue_wait_seconds", "summary"},
      {"sledge_startup_seconds", "summary"},
      {"sledge_startup_pooled_seconds", "summary"},
      {"sledge_startup_cold_seconds", "summary"},
      {"sledge_startup_snapshot_seconds", "summary"},
      {"sledge_exec_cpu_seconds", "summary"},
      {"sledge_io_wait_seconds", "summary"},
      {"sledge_response_write_seconds", "summary"},
      {"sledge_end_to_end_seconds", "summary"},
      {"sledge_invoke_handoff_seconds", "summary"},
  };
  const std::string text =
      render_prometheus(make_snapshot({"ping"}), RuntimeConfig{});
  for (const auto& [family, type] : expected) {
    EXPECT_NE(text.find("# TYPE " + family + " " + type + "\n"),
              std::string::npos)
        << family;
  }
  EXPECT_NE(text.find("sledge_listener_accepted_total{shard=\"0\"} "),
            std::string::npos);
  EXPECT_NE(text.find("sledge_module_shed_total{module=\"ping\"} "),
            std::string::npos);
}

TEST(MetricsTableTest, PrometheusEscapesLabelValues) {
  const std::string name = "q\"uo\\te\nnl";
  const StatsSnapshot s = make_snapshot({name});
  const std::string text = render_prometheus(s, RuntimeConfig{});
  const std::string escaped = "q\\\"uo\\\\te\\nnl";
  EXPECT_NE(text.find("sledge_requests_total{module=\"" + escaped + "\"} 5\n"),
            std::string::npos)
      << text;
  for (const std::string& line : lines_of(text)) {
    EXPECT_TRUE(well_formed(line)) << line;
  }
  auto doc = json::parse(render_json(s, RuntimeConfig{}));
  ASSERT_TRUE(doc.ok()) << doc.error_message();
  EXPECT_EQ((*doc)["modules"][name]["requests"].as_int(), 5);
}

TEST(MetricsTableTest, LongModuleNameKeepsEverySurfaceWhole) {
  const std::string name(300, 'm');
  const StatsSnapshot s = make_snapshot({name, "ping"});
  const std::string text = render_prometheus(s, RuntimeConfig{});
  const std::vector<std::string> lines = lines_of(text);
  int series = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(well_formed(line)) << line;
    series += line.find("{module=\"" + name + "\"") != std::string::npos;
  }
  // 13 counters/gauges + 10 summaries x 5 series each.
  EXPECT_EQ(series, 13 + 10 * 5);
  EXPECT_NE(text.find("sledge_failures_total{module=\"" + name + "\"} 0\n"
                      "sledge_failures_total{module=\"ping\"} 0\n"
                      "# HELP sledge_kills_total "),
            std::string::npos);

  auto doc = json::parse(render_json(s, RuntimeConfig{}));
  ASSERT_TRUE(doc.ok()) << doc.error_message();
  EXPECT_EQ((*doc)["modules"][name]["requests"].as_int(), 5);
  EXPECT_NE(render_report(s, RuntimeConfig{}).find("module " + name + ": "),
            std::string::npos);
}

}  // namespace
}  // namespace sledge::runtime::metrics
