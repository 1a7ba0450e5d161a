// Sledge end-to-end benchmark driver.
//
//   sledge_e2e --workload light|heavy|chain --seed N --seconds S --trace 0|1
//              [--quick]
//
// Starts a runtime::Runtime in-process with RuntimeConfig defaults (only the
// workload's modules are registered) and drives it from one client thread
// over 4 keep-alive loopback connections.
//
// Untraced (--trace 0): setup (7x, median) -> warm-up -> rounds of a
// closed-loop window and an open-loop segment at the workload's mid rate ->
// max-rate ladder; prints
// the end-to-end metrics. Traced (--trace 1): single-thread layer replay,
// then a served run (warm-up, untraced and traced closed loops, open loop) whose
// server phases come from Runtime::snapshot()/totals(); prints the
// per-layer metrics. Every reply body is checked against its reference and
// every phase's client status tally is reconciled against the server's
// totals. The last stdout line is the result JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "bench_math.hpp"
#include "client.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "minicc/minicc.hpp"
#include "replay.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/runtime.hpp"
#include "sledge/snapshot.hpp"
#include "workloads.hpp"

using namespace e2e;
using sledge::now_ns;
namespace rt = sledge::runtime;

namespace {

constexpr int kConnections = 4;
constexpr int kSetupRepeats = 7;
// How an untraced run of S seconds is spent: a warm-up of the workload's
// fixed request count, kRounds rounds of a closed-loop window of
// kClosedShare * S and an open-loop segment at the mid rate (together
// kOpenShare * S, stretched to at least kOpenChunks chunks of kOpenChunk
// requests at slow mid rates, and rounded up to whole chunks per round),
// then the ladder
// (kLadderShare * S over about kLadderRungs rung runs: log2(rungs) + 2
// bisection probes plus reruns of failing rungs).
// Latency tails are bounded as p90, not p99: on a shared host, stalls of a
// few ms hit a run-dependent share of windows near one half, and ten
// stalled requests already set a window's p99, so the median of window p99s
// swings between runs. A stall has to cover a tenth of a window to move its
// p90. The p99s are still printed, and reported by the traced run.
constexpr double kWarmupShare = 0.05;  // time cap of the warm-up
constexpr int kRounds = 12;
constexpr double kClosedShare = 0.035;
constexpr double kOpenShare = 0.24;
constexpr size_t kOpenChunk = 500;
constexpr double kOpenChunks = 12;
constexpr double kLadderShare = 0.27;
constexpr double kLadderRungs = 12;
// A traced run serves an untraced and a traced closed loop of
// kTracedClosedShare * S each, then an open loop of kTracedOpenShare * S.
constexpr double kTracedClosedShare = 0.3;
constexpr double kTracedOpenShare = 0.2;
// Backlog cap of an open-loop phase: past this many outstanding replies the
// generator stops sending (the rung fails instead of queueing for seconds).
constexpr size_t kMaxOutstanding = 4096;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Correctness state of the whole run: any failed check flips `correct`.
struct Verdict {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    std::printf("check failed: %s\n", why.c_str());
  }
  void count(const Tally& t, const std::string& phase) {
    attempted += t.attempted;
    failed += t.failed();
    if (t.failed() != 0) {
      fail(phase + ": " + std::to_string(t.failed()) + " failed requests (" +
           std::to_string(t.bad_status) + " non-200, " +
           std::to_string(t.no_response) + " no response, " +
           std::to_string(t.wrong_body) + " wrong body)");
    }
  }
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--workload" && (v = val())) {
      a->workload = v;
    } else if (k == "--seed" && (v = val())) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds" && (v = val())) {
      a->seconds = std::atof(v);
    } else if (k == "--trace" && (v = val())) {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--spans" && (v = val())) {
      a->spans_path = v;
    } else if (k == "--quick") {
      a->quick = true;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

uint64_t secs_ns(double s) { return static_cast<uint64_t>(s * 1e9); }

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

// ---- Server under test ----

struct Server {
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<LoopbackClient> client;
  double setup_s = 0;
};

// Client connections per listener shard (accepted, open or loaned out).
std::vector<int64_t> shard_conns(const rt::Runtime& runtime) {
  std::vector<int64_t> out;
  for (const auto& l : runtime.snapshot().listeners) {
    out.push_back(l.open_conns + l.loaned_conns);
  }
  return out;
}

// Spreads the client's connections evenly over the listener shards.
// SO_REUSEPORT hashes each new connection to a shard; left to chance, 4
// connections land unevenly in most runs and throughput moves with the
// draw. Each connection is reopened until it lands on a shard holding
// fewer than ceil(connections / shards).
bool balance_shards(const rt::Runtime& runtime, LoopbackClient& client,
                    std::string* err) {
  auto wait_total = [&](int64_t want) {
    const uint64_t deadline = now_ns() + 2'000'000'000ull;
    for (;;) {
      std::vector<int64_t> c = shard_conns(runtime);
      int64_t total = 0;
      for (int64_t x : c) total += x;
      if (total == want) return true;
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  const size_t n = client.connections();
  const int64_t shards = static_cast<int64_t>(shard_conns(runtime).size());
  const int64_t cap = (static_cast<int64_t>(n) + shards - 1) / std::max<int64_t>(shards, 1);
  for (size_t i = 0; i < n; ++i) client.close_conn(i);
  for (size_t i = 0; i < n; ++i) {
    for (int tries = 0;; ++tries) {
      if (!wait_total(static_cast<int64_t>(i))) break;
      std::vector<int64_t> before = shard_conns(runtime);
      if (!client.open_conn(i, err)) return false;
      if (!wait_total(static_cast<int64_t>(i) + 1)) break;
      std::vector<int64_t> after = shard_conns(runtime);
      bool fits = true;
      for (size_t s = 0; s < after.size() && s < before.size(); ++s) {
        if (after[s] > before[s] && after[s] > cap) fits = false;
      }
      if (fits || tries >= 64) break;
      client.close_conn(i);
    }
  }
  if (wait_total(static_cast<int64_t>(n))) return true;
  *err = "listener shards never saw the client's connections";
  return false;
}

// Runtime construction -> minicc compile + register (AoT cc + dlopen) of
// every module -> start() -> first correct 200 on a fresh connection.
std::unique_ptr<Server> start_server(const Workload& w, std::string* err) {
  auto srv = std::make_unique<Server>();
  const uint64_t t0 = now_ns();
  srv->runtime = std::make_unique<rt::Runtime>(rt::RuntimeConfig{});
  for (const std::string& m : w.modules) {
    auto src = sledge::apps::load_app_source(m);
    if (!src.ok()) {
      *err = src.error_message();
      return nullptr;
    }
    auto wasm = sledge::minicc::compile_to_wasm(src.value());
    if (!wasm.ok()) {
      *err = "minicc " + m + ": " + wasm.error_message();
      return nullptr;
    }
    sledge::Status s = srv->runtime->register_module(m, wasm.value());
    if (!s.is_ok()) {
      *err = "register " + m + ": " + s.message();
      return nullptr;
    }
  }
  sledge::Status s = srv->runtime->start();
  if (!s.is_ok()) {
    *err = "start: " + s.message();
    return nullptr;
  }
  srv->client = LoopbackClient::connect(srv->runtime->bound_port(),
                                        kConnections, err);
  if (!srv->client) return nullptr;
  const WireRequest& probe = w.pool.front().wire;
  int status = 0;
  std::vector<uint8_t> body;
  if (!srv->client->request_once(probe, 10'000'000'000ull, &status, &body) ||
      !check_reply(w, probe, status, body.data(), body.size())) {
    *err = "first request failed (status " + std::to_string(status) + ")";
    return nullptr;
  }
  srv->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (!balance_shards(*srv->runtime, *srv->client, err)) return nullptr;
  return srv;
}

// ---- Ledger: client status tally vs Runtime::totals() deltas ----

// Waits until the runtime is idle and its totals moved by exactly what the
// client saw: every 200 retired `sandboxes` completions (chains retire
// every stage), 500s are failures, 503s sheds, 504s kills or 504-earlies.
bool reconcile(rt::Runtime& runtime, const Workload& w,
               const rt::Runtime::Totals& before, const Tally& t,
               std::string* why) {
  uint64_t want_completed = 0, want_invokes = 0;
  for (const auto& [kind, n] : t.http200_by_kind) {
    want_completed += n * static_cast<uint64_t>(w.fns[kind].sandboxes);
    want_invokes += n * static_cast<uint64_t>(w.fns[kind].sandboxes - 1);
  }
  auto count = [&](int status) {
    auto it = t.status_counts.find(status);
    return it == t.status_counts.end() ? uint64_t{0} : it->second;
  };
  rt::Runtime::Totals d;
  const uint64_t deadline = now_ns() + 3'000'000'000ull;
  for (;;) {
    rt::Runtime::Totals a = runtime.totals();
    d.completed = a.completed - before.completed;
    d.failed = a.failed - before.failed;
    d.killed = a.killed - before.killed;
    d.shed = a.shed - before.shed;
    d.shed_deadline = a.shed_deadline - before.shed_deadline;
    d.invokes = a.invokes - before.invokes;
    bool match = d.completed == want_completed && d.failed == count(500) &&
                 d.killed + d.shed_deadline == count(504) &&
                 d.shed == count(503) && d.invokes == want_invokes &&
                 count(0) == 0;
    if (match && runtime.inflight() == 0) return true;
    if (now_ns() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "ledger mismatch: server completed=%llu failed=%llu "
                "killed=%llu shed=%llu invokes=%llu; client 200s imply "
                "completed=%llu invokes=%llu, 500=%llu 503=%llu 504=%llu "
                "no-response=%llu",
                (unsigned long long)d.completed, (unsigned long long)d.failed,
                (unsigned long long)(d.killed + d.shed_deadline),
                (unsigned long long)d.shed, (unsigned long long)d.invokes,
                (unsigned long long)want_completed,
                (unsigned long long)want_invokes,
                (unsigned long long)count(500), (unsigned long long)count(503),
                (unsigned long long)count(504), (unsigned long long)count(0));
  *why = buf;
  return false;
}

// Transfer-buffer leak invariant: every loan is back once the server idles.
bool transfers_returned() {
  const uint64_t deadline = now_ns() + 2'000'000'000ull;
  while (rt::SandboxResourcePool::instance().counters().transfer_outstanding != 0) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// Runs one phase and reconciles its ledger.
template <typename Fn>
auto phase(Server& srv, const Workload& w, Verdict* v, const std::string& name,
           bool timed, Fn&& body) {
  rt::Runtime::Totals before = srv.runtime->totals();
  auto res = body();
  std::string why;
  if (!reconcile(*srv.runtime, w, before, res.tally, &why)) v->fail(name + ": " + why);
  if (timed) {
    v->count(res.tally, name);
  } else if (res.tally.failed() != 0) {
    v->fail(name + ": " + std::to_string(res.tally.failed()) + " failed requests");
  }
  return res;
}

void print_summary(const char* label, const Summary& s, const char* unit) {
  std::printf("  %-22s n=%zu p50=%.4f p99=%.4f %s=%.4f mean=%.4f %s\n", label,
              s.n, s.p50, s.p99, quantile_label(s.tail_q).c_str(), s.tail,
              s.mean, unit);
}

// ---- Untraced run: the end-to-end metrics ----

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

// Per-window figures of a phase split into equal windows; the reported
// metric is the median over windows, so one stalled window (shared host,
// page-cache hiccup) moves it by at most one rank.
struct Windows {
  std::vector<double> rps, p50, p90, cpu_us;
  size_t min_n = SIZE_MAX;  // fewest samples in one window (p90 support)
  void add(const Summary& s, double rps_v) {
    rps.push_back(rps_v);
    p50.push_back(s.p50);
    p90.push_back(s.p90);
    min_n = std::min(min_n, s.n);
  }
  void print(const char* label) const {
    auto range = [](const char* name, const std::vector<double>& v) {
      std::printf(" | %s med %.4f [%.4f..%.4f]", name, median_of(v),
                  *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end()));
    };
    std::printf("  %-8s %zu windows (>= %zu samples each): rps med %.1f", label,
                p50.size(), min_n, median_of(rps));
    range("p50", p50);
    range("p90", p90);
    std::printf(" ms\n");
  }
};

std::vector<Metric> run_untraced(const Args& a, const Workload& w, Verdict* v) {
  const double S = a.seconds;
  const int repeats = a.quick ? 1 : kSetupRepeats;
  std::vector<double> setups;
  std::unique_ptr<Server> srv;
  for (int r = 0; r < repeats; ++r) {
    if (srv) srv->runtime->stop();
    srv.reset();
    std::string err;
    srv = start_server(w, &err);
    if (!srv) {
      v->fail("setup: " + err);
      return {};
    }
    setups.push_back(srv->setup_s);
  }
  const double setup_s = median_of(setups);
  std::printf("setup: %d runs, median %.4f s (min %.4f, max %.4f)\n", repeats,
              setup_s, *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  RequestStream stream(w, a.seed);
  NextRequest next = [&]() -> const WireRequest& { return stream.next(); };
  Checker check = [&](const WireRequest& r, int st, const uint8_t* b, size_t n) {
    return check_reply(w, r, st, b, n);
  };
  LoopbackClient& client = *srv->client;

  phase(*srv, w, v, "warm-up", false, [&] {
    return client.closed_loop(secs_ns(kWarmupShare * S), next, check, nullptr,
                              w.warmup_requests);
  });
  // Peak RSS over set-up and a warm-up of a fixed request count: the
  // runtime's per-request stats grow with every request served, so a peak
  // taken after a timed phase would move with throughput.
  const double rss = peak_rss_mb();

  // kRounds rounds of one closed-loop window (throughput, RTT and CPU per
  // reply) and one open-loop segment at the fixed mid rate (summarized per
  // chunk of kOpenChunk consecutive requests). Interleaving spreads a slow
  // period of the host over both phases' windows instead of letting it take
  // every window of one phase.
  const double open_total = std::max(kOpenShare * S * w.mid_rate_rps,
                                     kOpenChunks * static_cast<double>(kOpenChunk));
  const double open_round =
      static_cast<double>(kOpenChunk) *
      std::ceil(open_total / kRounds / static_cast<double>(kOpenChunk));
  // Half a request of slack so the schedule holds exactly open_round.
  const double open_round_s = (open_round + 0.5) / w.mid_rate_rps;
  Windows closed, open;
  std::vector<double> all_rtt;
  std::vector<OpenRecord> all_open;
  for (int round = 0; round < kRounds; ++round) {
    const double cpu0 = cpu_seconds();
    ClosedResult r = phase(*srv, w, v, "closed", true, [&] {
      return client.closed_loop(secs_ns(kClosedShare * S), next, check);
    });
    const double cpu_s = cpu_seconds() - cpu0;
    closed.add(summarize(r.latency_ms), static_cast<double>(r.tally.ok) / r.duration_s);
    closed.cpu_us.push_back(cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(r.tally.ok, 1)));
    all_rtt.insert(all_rtt.end(), r.latency_ms.begin(), r.latency_ms.end());

    OpenResult mid = phase(*srv, w, v, "open-mid", true, [&] {
      return client.open_loop(w.mid_rate_rps, secs_ns(open_round_s), next, check,
                              kMaxOutstanding);
    });
    if (mid.aborted) v->fail("open-mid: backlog cap hit at the mid rate");
    for (size_t i = 0; i + kOpenChunk <= mid.records.size(); i += kOpenChunk) {
      std::vector<OpenRecord> chunk(mid.records.begin() + static_cast<long>(i),
                                    mid.records.begin() + static_cast<long>(i + kOpenChunk));
      OpenSummary om = summarize_open(chunk);
      open.add(om.latency_ms, om.achieved_rps);
    }
    all_open.insert(all_open.end(), mid.records.begin(), mid.records.end());
  }
  if (open.p90.empty()) {
    v->fail("open-mid: fewer than " + std::to_string(kOpenChunk) + " requests");
    return {};
  }
  std::printf("closed loop (%d conns):\n", kConnections);
  closed.print("closed");
  print_summary("closed RTT (pooled)", summarize(std::move(all_rtt)), "ms");
  std::printf("open loop at %.0f rps (due-time latency):\n", w.mid_rate_rps);
  open.print("open");
  print_summary("open latency (pooled)", summarize_open(all_open).latency_ms, "ms");

  // Max-rate ladder: bisection over the workload's fixed ladder. A failing
  // rung is rerun once and passes if the rerun does: a host stall can fail
  // a rung below capacity, a rung above capacity fails both times.
  std::vector<RungResult> rungs(w.ladder_rps.size());
  const double rung_s = kLadderShare * S / kLadderRungs;
  auto attempt = [&](size_t i) {
    const double rate = w.ladder_rps[i];
    // A backlog this deep already means the rung misses its limit.
    const size_t cap = std::max<size_t>(
        256, static_cast<size_t>(4.0 * rate * w.latency_limit_ms / 1e3));
    OpenResult r = phase(*srv, w, v, "ladder", true, [&] {
      return client.open_loop(rate, secs_ns(rung_s), next, check, cap);
    });
    RungResult& rung = rungs[i];
    rung.offered_rps = rate;
    rung.aborted = r.aborted;
    rung.open = summarize_open(r.records);
    bool pass = rung_passes(rung, w.latency_limit_ms, w.latency_limit_ms);
    std::printf("  rung %3zu %8.0f rps: achieved %.1f p99 %.4f ms late p99 "
                "%.4f->%.4f ms%s -> %s\n",
                i, rate, rung.open.achieved_rps, rung.open.latency_ms.p99,
                rung.open.late_p99_first_ms, rung.open.late_p99_second_ms,
                r.aborted ? " (aborted)" : "", pass ? "pass" : "fail");
    return pass;
  };
  int best = ladder_search(w.ladder_rps.size(),
                           [&](size_t i) { return attempt(i) || attempt(i); });
  const double max_rate =
      best < 0 ? 0.0 : rungs[static_cast<size_t>(best)].open.achieved_rps;
  std::printf("max rate under p99 < %.2f ms: %.1f rps\n", w.latency_limit_ms,
              max_rate);

  if (!transfers_returned()) v->fail("transfer_outstanding != 0 after workload");
  srv->client.reset();
  srv->runtime->stop();

  std::printf("error_ratio %.6f (%llu of %llu)\n",
              ratio(static_cast<double>(v->failed), static_cast<double>(v->attempted)),
              static_cast<unsigned long long>(v->failed),
              static_cast<unsigned long long>(v->attempted));
  if (supported_tail_quantile(std::min(closed.min_n, open.min_n)) < 0.9) {
    v->fail("a window has too few samples to support p90");
  }
  return {
      {"setup_s", setup_s, "s"},
      {"throughput_rps", median_of(closed.rps), "1/s"},
      {"p50_ms", median_of(closed.p50), "ms"},
      {"p90_ms", median_of(closed.p90), "ms"},
      {"open_p50_ms", median_of(open.p50), "ms"},
      {"open_p90_ms", median_of(open.p90), "ms"},
      {"max_rate_rps", max_rate, "1/s"},
      {"cpu_us_per_req", median_of(closed.cpu_us), "us"},
      {"rss_mb", rss, "MB"},
  };
}

// ---- Traced run: the per-layer metrics ----

// Per-module histograms merged across `mods` (exact percentiles over the
// union; each module's stats mutex is held only while copying).
sledge::LatencyHistogram merged(rt::Runtime& runtime,
                                const std::vector<std::string>& mods,
                                sledge::LatencyHistogram rt::ModuleStats::*field) {
  sledge::LatencyHistogram h;
  for (const std::string& m : mods) {
    rt::LoadedModule* lm = runtime.find_module(m);
    if (!lm) continue;
    std::lock_guard<std::mutex> lock(lm->stats.mu);
    h.merge(lm->stats.*field);
  }
  return h;
}

struct PhaseSums {
  double sum_ns = 0;
  uint64_t count = 0;
};

// Sum/count of one phase histogram over `mods`, from a snapshot.
PhaseSums sums(const rt::Runtime::StatsSnapshot& snap,
               const std::vector<std::string>& mods,
               sledge::LatencyHistogram::Summary rt::Runtime::ModuleSnapshot::*f) {
  PhaseSums s;
  for (const auto& m : snap.modules) {
    if (std::find(mods.begin(), mods.end(), m.name) == mods.end()) continue;
    s.sum_ns += (m.*f).sum_ns;
    s.count += (m.*f).count;
  }
  return s;
}

std::vector<Metric> run_traced(const Args& a, const Workload& w, Verdict* v) {
  const double S = a.seconds;
  std::vector<Metric> out;

  // 1. Single-thread layer replay.
  Tracer tracer;
  size_t n_replay = a.quick ? w.replay_requests / 10 : w.replay_requests;
  ReplayResult rep = replay(w, a.seed, n_replay, &tracer);
  if (!rep.ok) {
    v->fail("replay: " + rep.error);
    return {};
  }
  std::printf("replay: %llu requests, %zu spans\n",
              static_cast<unsigned long long>(rep.requests), tracer.spans().size());
  for (const ReplayMetric& m : rep.metrics) out.push_back({m.name, m.value, m.unit});
  if (!a.spans_path.empty() && !tracer.write_csv(a.spans_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", a.spans_path.c_str());
  }

  // 2. Served run.
  std::string err;
  std::unique_ptr<Server> srv = start_server(w, &err);
  if (!srv) {
    v->fail("setup: " + err);
    return {};
  }
  rt::Runtime& runtime = *srv->runtime;
  LoopbackClient& client = *srv->client;
  RequestStream stream(w, a.seed);
  NextRequest next = [&]() -> const WireRequest& { return stream.next(); };
  Checker check = [&](const WireRequest& r, int st, const uint8_t* b, size_t n) {
    return check_reply(w, r, st, b, n);
  };
  std::vector<std::string> heads;
  for (const Function& f : w.fns) heads.push_back(f.module);

  phase(*srv, w, v, "warm-up", false, [&] {
    return client.closed_loop(secs_ns(kWarmupShare * S), next, check, nullptr,
                              w.warmup_requests);
  });

  auto& pool = rt::SandboxResourcePool::instance();
  auto& snaps = rt::SnapshotRegistry::instance();
  const auto pool0 = pool.counters();
  const auto snapreg0 = snaps.counters();
  const rt::Runtime::Totals tot0 = runtime.totals();
  const rt::Runtime::StatsSnapshot snap0 = runtime.snapshot();

  ClosedResult plain = phase(*srv, w, v, "closed-untraced", true, [&] {
    return client.closed_loop(secs_ns(kTracedClosedShare * S), next, check);
  });
  std::vector<ClientSpan> spans;
  spans.reserve(1 << 16);
  ClosedResult traced = phase(*srv, w, v, "closed-traced", true, [&] {
    return client.closed_loop(secs_ns(kTracedClosedShare * S), next, check, &spans);
  });

  // Let response-write stamps land (they follow the last byte to the
  // kernel), then read the server side of the same two phases.
  const uint64_t client_replies = plain.tally.ok + traced.tally.ok;
  PhaseSums rw;
  for (int i = 0; i < 500; ++i) {
    rw = sums(runtime.snapshot(), w.modules,
              &rt::Runtime::ModuleSnapshot::response_write);
    PhaseSums rw0 = sums(snap0, w.modules, &rt::Runtime::ModuleSnapshot::response_write);
    if (rw.count - rw0.count >= client_replies) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const rt::Runtime::StatsSnapshot snap1 = runtime.snapshot();
  const rt::Runtime::Totals tot1 = runtime.totals();
  const auto pool1 = pool.counters();
  const auto snapreg1 = snaps.counters();

  OpenResult open = phase(*srv, w, v, "open-mid", true, [&] {
    return client.open_loop(w.mid_rate_rps, secs_ns(kTracedOpenShare * S), next, check,
                            kMaxOutstanding);
  });
  OpenSummary om = summarize_open(open.records);
  if (!transfers_returned()) v->fail("transfer_outstanding != 0 after workload");

  // Server phase distributions over the served run (warm-up included).
  using MS = rt::ModuleStats;
  auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  auto hist_all = [&](sledge::LatencyHistogram MS::*f) {
    return merged(runtime, w.modules, f);
  };
  sledge::LatencyHistogram qw = hist_all(&MS::queue_wait);
  sledge::LatencyHistogram io = hist_all(&MS::io_wait);
  sledge::LatencyHistogram ih = hist_all(&MS::invoke_handoff);
  sledge::LatencyHistogram e2e_heads = merged(runtime, heads, &MS::end_to_end);

  // Unattributed residual over the two closed phases: client mean RTT minus
  // server mean (head end_to_end + response_write per client reply).
  std::vector<double> rtts = plain.latency_ms;
  rtts.insert(rtts.end(), traced.latency_ms.begin(), traced.latency_ms.end());
  Summary rtt = summarize(rtts);
  PhaseSums e0 = sums(snap0, heads, &rt::Runtime::ModuleSnapshot::end_to_end);
  PhaseSums e1 = sums(snap1, heads, &rt::Runtime::ModuleSnapshot::end_to_end);
  PhaseSums w0 = sums(snap0, w.modules, &rt::Runtime::ModuleSnapshot::response_write);
  PhaseSums w1 = sums(snap1, w.modules, &rt::Runtime::ModuleSnapshot::response_write);
  const double e2e_mean_us = ratio(e1.sum_ns - e0.sum_ns,
                                   static_cast<double>(e1.count - e0.count)) / 1e3;
  const double write_mean_us =
      ratio(w1.sum_ns - w0.sum_ns, static_cast<double>(client_replies)) / 1e3;

  uint64_t disp = 0, pre = 0, steals = 0;
  for (size_t i = 0; i < snap1.workers.size() && i < snap0.workers.size(); ++i) {
    disp += snap1.workers[i].dispatches - snap0.workers[i].dispatches;
    pre += snap1.workers[i].preemptions - snap0.workers[i].preemptions;
    steals += snap1.workers[i].steals - snap0.workers[i].steals;
  }
  uint64_t inv_local = 0, inv_zero = 0;
  for (size_t i = 0; i < snap1.modules.size() && i < snap0.modules.size(); ++i) {
    inv_local += snap1.modules[i].invoke_local - snap0.modules[i].invoke_local;
    inv_zero += snap1.modules[i].invoke_zerocopy - snap0.modules[i].invoke_zerocopy;
  }
  const double invokes = static_cast<double>(tot1.invokes - tot0.invokes);
  const double reqs = static_cast<double>(client_replies);
  const double attempted =
      static_cast<double>(plain.tally.attempted + traced.tally.attempted);

  const double plain_rps = static_cast<double>(plain.tally.ok) / plain.duration_s;
  const double traced_rps = static_cast<double>(traced.tally.ok) / traced.duration_s;
  Summary plain_s = summarize(plain.latency_ms);
  Summary traced_s = summarize(traced.latency_ms);
  std::printf("served: untraced %.1f rps p50 %.4f ms | traced %.1f rps p50 "
              "%.4f ms (%zu client spans)\n",
              plain_rps, plain_s.p50, traced_rps, traced_s.p50, spans.size());

  auto hit = [](uint64_t h1, uint64_t h0, uint64_t m1, uint64_t m0) {
    return ratio(static_cast<double>(h1 - h0),
                 static_cast<double>((h1 - h0) + (m1 - m0)));
  };
  srv->client.reset();
  runtime.stop();

  std::vector<Metric> server = {
      {"pool.memory_hit_ratio",
       hit(pool1.memory_hits, pool0.memory_hits, pool1.memory_misses, pool0.memory_misses),
       "ratio"},
      {"pool.stack_hit_ratio",
       hit(pool1.stack_hits, pool0.stack_hits, pool1.stack_misses, pool0.stack_misses),
       "ratio"},
      {"pool.transfer_hit_ratio",
       hit(pool1.transfer_hits, pool0.transfer_hits, pool1.transfer_misses,
           pool0.transfer_misses),
       "ratio"},
      {"snapshot.hit_ratio",
       hit(snapreg1.hits, snapreg0.hits, snapreg1.misses, snapreg0.misses), "ratio"},
      {"server.queue_wait_p50_us", us(qw.percentile_ns(0.5)), "us"},
      {"server.queue_wait_p99_us", us(qw.percentile_ns(0.99)), "us"},
      {"server.startup_us", us(hist_all(&MS::startup).percentile_ns(0.5)), "us"},
      {"server.exec_cpu_us", us(hist_all(&MS::exec_cpu).percentile_ns(0.5)), "us"},
      {"server.response_write_us",
       us(hist_all(&MS::response_write).percentile_ns(0.5)), "us"},
      {"server.io_wait_p50_us", us(io.percentile_ns(0.5)), "us"},
      {"server.io_wait_p99_us", us(io.percentile_ns(0.99)), "us"},
      {"server.invoke_handoff_p50_us", us(ih.percentile_ns(0.5)), "us"},
      {"server.invoke_handoff_p99_us", us(ih.percentile_ns(0.99)), "us"},
      {"server.end_to_end_us", us(e2e_heads.percentile_ns(0.5)), "us"},
      {"server.client_rtt_mean_us", rtt.mean * 1e3, "us"},
      {"server.unattributed_us", unattributed_us(rtt.mean * 1e3, e2e_mean_us, write_mean_us),
       "us"},
      {"worker.dispatches_per_req", ratio(static_cast<double>(disp), reqs), "count"},
      {"worker.preemptions_per_req", ratio(static_cast<double>(pre), reqs), "count"},
      {"worker.steals_per_req", ratio(static_cast<double>(steals), reqs), "count"},
      {"invoke.local_ratio", ratio(static_cast<double>(inv_local), invokes), "ratio"},
      {"invoke.zerocopy_ratio", ratio(static_cast<double>(inv_zero), invokes), "ratio"},
      {"admission.shed_ratio",
       ratio(static_cast<double>(tot1.shed - tot0.shed), attempted), "ratio"},
      {"loadgen.late_p99_ms", om.late_p99_ms, "ms"},
      {"loadgen.error_ratio",
       ratio(static_cast<double>(v->failed), static_cast<double>(v->attempted)),
       "ratio"},
      {"untraced.throughput_rps", plain_rps, "1/s"},
      {"untraced.p50_ms", plain_s.p50, "ms"},
      {"untraced.p99_ms", plain_s.p99, "ms"},
      {"untraced.open_p99_ms", om.latency_ms.p99, "ms"},
      {"traced.throughput_rps", traced_rps, "1/s"},
      {"traced.p50_ms", traced_s.p50, "ms"},
      {"trace.overhead_pct", 100.0 * (plain_rps - traced_rps) / plain_rps, "%"},
  };
  out.insert(out.end(), server.begin(), server.end());
  return out;
}

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              v.correct ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double val = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), val, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload light|heavy|chain --seed N --seconds S "
                 "--trace 0|1 [--quick] [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  auto wl = make_workload(a.workload, a.seed);
  if (!wl.ok()) {
    std::fprintf(stderr, "%s\n", wl.error_message().c_str());
    return 2;
  }
  Workload w = wl.take();
  sledge::Status s = compute_expected(&w);
  if (!s.is_ok()) {
    std::fprintf(stderr, "reference outputs: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("workload %s seed %llu: %zu inputs over %zu functions, %s run, "
              "%g s, host_cores %u\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.pool.size(), w.fns.size(), a.trace ? "traced" : "untraced",
              a.seconds, std::thread::hardware_concurrency());

  Verdict v;
  std::vector<Metric> metrics = a.trace ? run_traced(a, w, &v) : run_untraced(a, w, &v);
  if (metrics.empty()) v.correct = false;
  if (v.attempted == 0) v.fail("no timed requests");
  print_result(v, metrics);
  return v.correct ? 0 : 1;
}
