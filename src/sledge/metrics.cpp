#include "sledge/metrics.hpp"

#include <charconv>
#include <cmath>
#include <iterator>
#include <type_traits>

#include "common/json.hpp"

namespace sledge::runtime::metrics {

namespace {

using Totals = Runtime::Totals;
using Pool = SandboxResourcePool::Counters;
using Tier = SnapshotRegistry::Counters;  // the snapshot tier's registry
using Shard = Runtime::ListenerSnapshot;
using Work = Runtime::WorkerSnapshot;
using Mod = Runtime::ModuleSnapshot;
using enum Kind;

constexpr double kNsPerSecond = 1e9;
constexpr const char* kConfigInfo = "sledge_config_info";
// Prometheus TYPE by Kind; info rows render as a gauge of value 1.
constexpr const char* kPromType[] = {"counter", "gauge", "summary", "gauge"};

// Where each scope's instances land on the three surfaces. Indexed by Scope.
struct ScopeDesc {
  const char* json;    // key under the JSON root; nullptr = the root itself
  const char* label;   // Prometheus label naming an instance; nullptr = one
  const char* report;  // report line prefix
};
constexpr ScopeDesc kScopes[] = {
    {nullptr, nullptr, "config"},      {nullptr, nullptr, "runtime"},
    {"totals", nullptr, "totals"},     {"pool", nullptr, "pool"},
    {"snapshot", nullptr, "snapshot"}, {"listeners", "shard", "listener"},
    {"workers", "worker", "worker"},   {"modules", "module", "module"},
};
static_assert(std::size(kScopes) == static_cast<size_t>(Scope::kModule) + 1);

// The struct each scope's rows read. Rows and for_each_instance() both take
// the scope from here, so a row only ever reads its own struct.
constexpr Scope scope_of(const RuntimeConfig*) { return Scope::kConfig; }
constexpr Scope scope_of(const StatsSnapshot*) { return Scope::kRuntime; }
constexpr Scope scope_of(const Totals*) { return Scope::kTotals; }
constexpr Scope scope_of(const Pool*) { return Scope::kPool; }
constexpr Scope scope_of(const Tier*) { return Scope::kSnapshot; }
constexpr Scope scope_of(const Shard*) { return Scope::kListener; }
constexpr Scope scope_of(const Work*) { return Scope::kWorker; }
constexpr Scope scope_of(const Mod*) { return Scope::kModule; }

// Calls fn(scope_struct, name) per scope instance, in Scope order. `name` is
// the Prometheus label value, report line name and JSON `id`.
template <typename Fn>
void for_each_instance(const StatsSnapshot& s, const RuntimeConfig& cfg,
                       Fn&& fn) {
  fn(&cfg, "");
  fn(&s, "");
  fn(&s.totals, "");
  fn(&s.pool, "");
  fn(&s.snapshot_tier, "");
  for (const Shard& l : s.listeners) fn(&l, std::to_string(l.id));
  for (const Work& w : s.workers) fn(&w, std::to_string(w.id));
  for (const Mod& m : s.modules) fn(&m, m.name);
}

// Row makers: the member pointer F names the field and, by its class, the
// scope; kDivisor turns the field into the JSON unit.
template <typename C, typename T>
C class_of(T C::*);  // unevaluated: deduces a member pointer's class
template <auto F>
using ClassOf = decltype(class_of(F));

template <auto F, double kDivisor>
Sample read(const void* obj) {
  const auto& f = static_cast<const ClassOf<F>*>(obj)->*F;
  using T = std::decay_t<decltype(f)>;
  if constexpr (std::is_same_v<T, LatencyHistogram::Summary>) return {0, &f};
  if constexpr (std::is_enum_v<T>) return {0, nullptr, to_string(f)};
  if constexpr (std::is_arithmetic_v<T>) return {f / kDivisor};
}

template <auto F, double kDivisor = 1.0>
Metric row(Kind kind, const char* key, const char* family, const char* help,
           double prom_divisor = 1) {
  return {scope_of(static_cast<const ClassOf<F>*>(nullptr)), kind, key, family,
          help, kind == kSummary ? kNsPerSecond : prom_divisor,
          read<F, kDivisor>};
}

// Integral values print as integers (counters stay exact); others in the
// shortest fixed-point form that round-trips.
std::string fmt(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e18) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[400];  // fits the fixed-point form of any double
  auto r = std::to_chars(buf, std::end(buf), v, std::chars_format::fixed);
  return {buf, r.ptr};
}

// Appends `name="value"` to a label list, escaping backslash, quote and
// newline as text exposition format 0.0.4 requires.
void append_label(std::string& labels, const char* name,
                  const std::string& value) {
  labels += (labels.empty() ? "" : ",") + std::string(name) + "=\"";
  for (char c : value) {
    if (c == '\\' || c == '"' || c == '\n') labels += '\\';
    labels += c == '\n' ? 'n' : c;
  }
  labels += '"';
}

std::string header(const std::string& family, const char* help, Kind kind) {
  return "# HELP " + family + ' ' + help + "\n# TYPE " + family + ' ' +
         kPromType[static_cast<size_t>(kind)] + '\n';
}

std::string series(const std::string& name, const std::string& labels,
                   double value) {
  return name + (labels.empty() ? "" : '{' + labels + '}') + ' ' + fmt(value) +
         '\n';
}

json::Value hist_to_json(const LatencyHistogram::Summary& h) {
  const double n = static_cast<double>(h.count);
  auto ns = [](uint64_t v) { return json::Value(static_cast<double>(v)); };
  return json::Value(json::Object{
      {"count", n}, {"sum_ns", h.sum_ns},
      {"mean_ns", n != 0 ? h.sum_ns / n : 0}, {"min_ns", ns(h.min_ns)},
      {"p50_ns", ns(h.p50_ns)}, {"p90_ns", ns(h.p90_ns)},
      {"p99_ns", ns(h.p99_ns)}, {"max_ns", ns(h.max_ns)}});
}

}  // namespace

// One row per stat, grouped by scope; each row stays on one line.
// clang-format off
const std::vector<Metric>& table() {
  static const std::vector<Metric> rows = {
      row<&RuntimeConfig::dispatcher>(kInfo, "dispatcher", kConfigInfo, "Admitted-sandbox dispatcher"),
      row<&RuntimeConfig::sched>(kInfo, "sched", kConfigInfo, "Per-worker scheduling policy"),
      row<&RuntimeConfig::admission>(kInfo, "admission", kConfigInfo, "Admission policy"),
      row<&RuntimeConfig::instantiation>(kInfo, "instantiation", kConfigInfo, "Sandbox startup tier"),
      row<&RuntimeConfig::invoke_dataplane>(kInfo, "dataplane", kConfigInfo, "Inter-function payload path"),
      row<&StatsSnapshot::uptime_ns, kNsPerSecond>(kGauge, "uptime_s", "sledge_uptime_seconds", "Seconds since start()"),
      row<&StatsSnapshot::inflight>(kGauge, "inflight", "sledge_inflight", "Sandboxes admitted, not yet retired"),
      row<&Totals::completed>(kCounter, "completed", "sledge_completed_total", "Requests completed"),
      row<&Totals::failed>(kCounter, "failed", "sledge_failed_total", "Requests failed"),
      row<&Totals::killed>(kCounter, "killed", "sledge_killed_total", "Sandboxes killed at deadline or budget (504)"),
      row<&Totals::drained>(kCounter, "drained", "sledge_drained_total", "Sandboxes abandoned after the drain grace"),
      row<&Totals::shed>(kCounter, "shed", "sledge_shed_total", "Requests shed with 503"),
      row<&Totals::shed_deadline>(kCounter, "shed_deadline", "sledge_shed_deadline_total", "Requests rejected 504-early"),
      row<&Totals::preemptions>(kCounter, "preemptions", "sledge_preemptions_total", "Quantum expiries"),
      row<&Totals::steals>(kCounter, "steals", "sledge_steals_total", "Sandboxes stolen across workers"),
      row<&Totals::pool_hits>(kCounter, "pool_hits", "sledge_pool_hits_total", "Starts with every resource pooled"),
      row<&Totals::pool_misses>(kCounter, "pool_misses", "sledge_pool_misses_total", "Starts with a fresh allocation"),
      row<&Totals::blocked>(kCounter, "blocked", "sledge_blocked_total", "Parks on an I/O wake condition"),
      row<&Totals::woken>(kCounter, "woken", "sledge_woken_total", "Wakes delivered by worker event loops"),
      row<&Totals::invokes>(kCounter, "invokes", "sledge_invokes_total", "Children admitted via sb_invoke"),
      row<&Totals::accepted>(kCounter, "accepted", "sledge_accepted_total", "Connections accepted"),
      row<&Totals::accept_errors>(kCounter, "accept_errors", "sledge_accept_errors_total", "Failed accepts, EMFILE sheds included"),
      row<&Pool::memory_hits>(kCounter, "memory_hits", "sledge_pool_memory_hits_total", "Linear memories reused"),
      row<&Pool::memory_misses>(kCounter, "memory_misses", "sledge_pool_memory_misses_total", "Linear memories created"),
      row<&Pool::stack_hits>(kCounter, "stack_hits", "sledge_pool_stack_hits_total", "Stacks reused"),
      row<&Pool::stack_misses>(kCounter, "stack_misses", "sledge_pool_stack_misses_total", "Stacks created"),
      row<&Pool::released>(kCounter, "released", "sledge_pool_released_total", "Resources freed at the reclaim watermark"),
      row<&Pool::transfer_hits>(kCounter, "transfer_hits", "sledge_pool_transfer_hits_total", "Transfer buffers reused"),
      row<&Pool::transfer_misses>(kCounter, "transfer_misses", "sledge_pool_transfer_misses_total", "Transfer buffers created"),
      row<&Pool::transfer_outstanding>(kGauge, "transfer_outstanding", "sledge_transfer_outstanding", "Transfer-buffer loans not yet returned"),
      row<&Tier::hits>(kCounter, "hits", "sledge_snapshot_hits_total", "Snapshot-backed starts"),
      row<&Tier::misses>(kCounter, "misses", "sledge_snapshot_misses_total", "Snapshot starts that fell back to pooled"),
      row<&Tier::builds>(kCounter, "builds", "sledge_snapshot_builds_total", "Templates built"),
      row<&Tier::build_failures>(kCounter, "build_failures", "sledge_snapshot_build_failures_total", "Template builds that failed"),
      row<&Shard::accepted>(kCounter, "accepted", "sledge_listener_accepted_total", "Connections accepted by the shard"),
      row<&Shard::accept_errors>(kCounter, "accept_errors", "sledge_listener_accept_errors_total", "Failed accepts on the shard"),
      row<&Shard::open_conns>(kGauge, "open_conns", "sledge_listener_open_conns", "Connections in the shard's epoll set"),
      row<&Shard::loaned_conns>(kGauge, "loaned_conns", "sledge_listener_loaned_conns", "Connections loaned to a worker"),
      row<&Work::dispatches>(kCounter, "dispatches", "sledge_worker_dispatches_total", "Sandbox dispatches"),
      row<&Work::preemptions>(kCounter, "preemptions", "sledge_worker_preemptions_total", "Quantum expiries"),
      row<&Work::steals>(kCounter, "steals", "sledge_worker_steals_total", "Sandboxes stolen"),
      row<&Work::completed>(kCounter, "completed", "sledge_worker_completed_total", "Requests completed"),
      row<&Work::failed>(kCounter, "failed", "sledge_worker_failed_total", "Requests failed"),
      row<&Work::killed>(kCounter, "killed", "sledge_worker_killed_total", "Sandboxes killed at deadline or budget"),
      row<&Work::blocked>(kCounter, "blocked", "sledge_worker_blocked_total", "Parks on an I/O wake condition"),
      row<&Work::woken>(kCounter, "woken", "sledge_worker_woken_total", "Wakes delivered by the event loop"),
      row<&Mod::requests>(kCounter, "requests", "sledge_requests_total", "Requests completed or failed"),
      row<&Mod::failures>(kCounter, "failures", "sledge_failures_total", "Requests failed"),
      row<&Mod::kills>(kCounter, "kills", "sledge_kills_total", "Deadline and budget kills (504)"),
      row<&Mod::shed>(kCounter, "shed", "sledge_module_shed_total", "Admission 503s"),
      row<&Mod::shed_deadline>(kCounter, "shed_deadline", "sledge_module_shed_deadline_total", "Admission 504-earlys"),
      row<&Mod::preemptions>(kCounter, "preemptions", "sledge_module_preemptions_total", "Quantum expiries"),
      row<&Mod::response_bytes>(kCounter, "response_bytes", "sledge_response_bytes_total", "Response bytes, headers included"),
      row<&Mod::invoke_local>(kCounter, "invoke_local", "sledge_invoke_local_total", "Children run on the parent's worker"),
      row<&Mod::invoke_zerocopy>(kCounter, "invoke_zerocopy", "sledge_invoke_zerocopy_total", "Children fed by a transfer buffer"),
      row<&Mod::inflight>(kGauge, "inflight", "sledge_module_inflight", "Admitted, not yet retired"),
      row<&Mod::tenant_weight>(kGauge, "tenant_weight", "sledge_module_tenant_weight", "Fair-share weight"),
      row<&Mod::predicted_queue_p99_ns>(kGauge, "predicted_queue_p99_ns", "sledge_predicted_queue_p99_seconds",
                                        "Slack predictor's queue-wait p99", kNsPerSecond),
      row<&Mod::predicted_exec_p99_ns>(kGauge, "predicted_exec_p99_ns", "sledge_predicted_exec_p99_seconds",
                                       "Slack predictor's exec-CPU p99", kNsPerSecond),
      row<&Mod::queue_wait>(kSummary, "queue_wait", "sledge_queue_wait_seconds", "Admission to first dispatch"),
      row<&Mod::startup>(kSummary, "startup", "sledge_startup_seconds", "Sandbox instantiation"),
      row<&Mod::startup_pooled>(kSummary, "startup_pooled", "sledge_startup_pooled_seconds", "Instantiation, all resources pooled"),
      row<&Mod::startup_cold>(kSummary, "startup_cold", "sledge_startup_cold_seconds", "Instantiation with a fresh allocation"),
      row<&Mod::startup_snapshot>(kSummary, "startup_snapshot", "sledge_startup_snapshot_seconds", "Instantiation from a template"),
      row<&Mod::exec_cpu>(kSummary, "exec_cpu", "sledge_exec_cpu_seconds", "CPU across slices"),
      row<&Mod::io_wait>(kSummary, "io_wait", "sledge_io_wait_seconds", "Blocked on I/O wake conditions"),
      row<&Mod::response_write>(kSummary, "response_write", "sledge_response_write_seconds", "Completion to last byte written"),
      row<&Mod::end_to_end>(kSummary, "end_to_end", "sledge_end_to_end_seconds", "Sandbox creation to completion"),
      row<&Mod::invoke_handoff>(kSummary, "invoke_handoff", "sledge_invoke_handoff_seconds", "Child admission to first dispatch"),
  };
  return rows;
}
// clang-format on

std::string render_json(const StatsSnapshot& s, const RuntimeConfig& cfg) {
  json::Object root;
  json::Array arrays[std::size(kScopes)];  // listener and worker objects
  json::Object modules;                    // module objects by name
  for_each_instance(s, cfg, [&](const auto* obj, const std::string& name) {
    const Scope scope = scope_of(obj);
    json::Object o;
    for (const Metric& m : table()) {
      if (m.scope != scope) continue;
      const Sample v = m.read(obj);
      o[m.key] = m.kind == kSummary ? hist_to_json(*v.summary)
                 : m.kind == kInfo  ? json::Value(v.text)
                                    : json::Value(v.number);
    }
    const ScopeDesc& d = kScopes[static_cast<size_t>(scope)];
    if (d.json == nullptr) {
      root.merge(o);
    } else if (d.label == nullptr) {
      root[d.json] = json::Value(std::move(o));
    } else if (scope == Scope::kModule) {
      modules[name] = json::Value(std::move(o));
    } else {
      o["id"] = json::Value(std::stoi(name));
      arrays[static_cast<size_t>(scope)].emplace_back(std::move(o));
    }
  });
  for (size_t k = 0; k < std::size(kScopes); ++k) {
    if (kScopes[k].label == nullptr) continue;
    root[kScopes[k].json] = static_cast<Scope>(k) == Scope::kModule
                                ? json::Value(std::move(modules))
                                : json::Value(std::move(arrays[k]));
  }
  return json::Value(std::move(root)).dump();
}

std::string render_prometheus(const StatsSnapshot& s,
                              const RuntimeConfig& cfg) {
  std::string labels;
  for (const Metric& m : table()) {
    if (m.kind == kInfo) append_label(labels, m.key, m.read(&cfg).text);
  }
  std::string out = header(kConfigInfo, "Configuration in force", kInfo) +
                    series(kConfigInfo, labels, 1);
  for (const Metric& m : table()) {
    if (m.kind == kInfo) continue;
    const std::string family = m.family;
    out += header(family, m.help, m.kind);
    for_each_instance(s, cfg, [&](const auto* obj, const std::string& name) {
      if (scope_of(obj) != m.scope) return;
      const char* label = kScopes[static_cast<size_t>(m.scope)].label;
      labels.clear();
      if (label != nullptr) append_label(labels, label, name);
      const Sample v = m.read(obj);
      if (m.kind != kSummary) {
        out += series(family, labels, v.number / m.prom_divisor);
        return;
      }
      const LatencyHistogram::Summary& h = *v.summary;
      for (auto [q, ns] : {std::pair{"0.5", h.p50_ns}, {"0.9", h.p90_ns},
                           {"0.99", h.p99_ns}}) {
        std::string with_q = labels;
        append_label(with_q, "quantile", q);
        out += series(family, with_q, ns / m.prom_divisor);
      }
      out += series(family + "_sum", labels, h.sum_ns / m.prom_divisor);
      out += series(family + "_count", labels, h.count);
    });
  }
  return out;
}

std::string render_report(const StatsSnapshot& s, const RuntimeConfig& cfg) {
  std::string out;
  for_each_instance(s, cfg, [&](const auto* obj, const std::string& name) {
    const Scope scope = scope_of(obj);
    const ScopeDesc& d = kScopes[static_cast<size_t>(scope)];
    std::string line = d.report + (d.label ? " " + name : "") + ':';
    std::string summaries;
    for (const Metric& m : table()) {
      if (m.scope != scope) continue;
      const Sample v = m.read(obj);
      const std::string key = std::string(" ") + m.key;
      if (m.kind == kSummary) {
        summaries += key + "(n=" + fmt(v.summary->count) +
                     " p50=" + fmt(v.summary->p50_ns / 1e3) +
                     "us p99=" + fmt(v.summary->p99_ns / 1e3) + "us)";
      } else {
        line += key + '=' + (m.kind == kInfo ? v.text : fmt(v.number));
      }
    }
    out += line + '\n';
    if (!summaries.empty()) out += ' ' + summaries + '\n';
  });
  return out;
}

}  // namespace sledge::runtime::metrics
