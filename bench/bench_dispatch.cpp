// Ablation: admission policy (depth vs slack) under mixed-deadline overload
// on the work-stealing dispatch path (DESIGN.md §11). Two tenants share the
// server:
//
//   tight — a ~ms CPU burn with a deadline that is meetable when the
//           request runs immediately but NOT after queueing behind a
//           saturated backlog (the Lumos scenario: tail, not mean, decides)
//   loose — ping with a deadline three orders of magnitude above service
//           time (never legitimately missed)
//
// The claim under test: expected-slack admission converts admit-then-kill
// deadline misses (504 after the sandbox already burned CPU) into early 503
// sheds, so the 504 rate drops — the raw-depth baseline keeps admitting
// requests the predictor already knows cannot finish in time.
//
// The tight tenant's closed-loop clients run for a fixed window, so a fast
// 503 cannot end the measured phase early: goodput is the 200s (both
// tenants) per second of that phase, and `served` is the 200s' share of
// the requests issued in it.
//
// Emits BENCH_dispatch.json (rev, host_cores, mode, and one record per
// admission policy: p50/p99, miss rate, shed rate, served share, goodput)
// as the recorded baseline future changes diff against. `--smoke` runs a
// 200 ms window (SLEDGE_BENCH_WINDOW_MS overrides either mode).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_server_util.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

// ~2-5 ms of linear-memory arithmetic under the AoT tier.
std::string burn_src() {
  return R"(
int acc[2];
char out[1];
int main() {
  int i = 0;
  while (i < 3000000) { acc[0] = acc[0] + i; i = i + 1; }
  out[0] = 98;
  resp_write(out, 1);
  return acc[0];
}
)";
}

// Closed-loop clients that stop issuing after `window_s`.
loadgen::Report drive_window(uint16_t port, const char* path,
                             int concurrency, double window_s) {
  loadgen::Options opt;
  opt.port = port;
  opt.path = path;
  opt.concurrency = concurrency;
  opt.total_requests = UINT64_MAX;
  opt.max_duration_s = window_s;
  auto report = loadgen::run_load(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", report.error_message().c_str());
    return loadgen::Report{};
  }
  return report.take();
}

uint64_t count_issued(const loadgen::Report& r) {
  uint64_t n = 0;
  for (const auto& [status, count] : r.status_counts) n += count;
  return n;
}

struct ComboResult {
  std::string admission;
  double p50_ms = 0;
  double p99_ms = 0;
  double miss_rate = 0;     // 504s / issued (admitted-then-killed + early)
  double shed_rate = 0;     // 503s / issued
  double served = 0;        // 200s / issued
  double goodput_rps = 0;   // 200s per second of the phase, both tenants
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t missed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header("Ablation: admission policy under overload (work stealing)",
               "DESIGN.md §11");

  const double window_s =
      env_long("SLEDGE_BENCH_WINDOW_MS", smoke ? 200 : 1000) / 1e3;
  const uint64_t loose_reqs = smoke ? 60 : 600;
  const int tight_conc = static_cast<int>(env_long("SLEDGE_BENCH_CONC", 16));

  auto ping = minicc::compile_to_wasm(kPingSrc);
  auto burn = minicc::compile_to_wasm(burn_src());
  if (!ping.ok() || !burn.ok()) {
    std::fprintf(stderr, "compile failed\n");
    return 1;
  }

  std::printf("%-6s | %8s %8s | %7s %7s %7s | %10s\n", "admit", "p50 ms",
              "p99 ms", "miss%", "shed%", "served", "goodput r/s");

  std::vector<ComboResult> results;
  for (runtime::AdmissionPolicy ap : {runtime::AdmissionPolicy::kQueueDepth,
                                      runtime::AdmissionPolicy::kExpectedSlack}) {
    runtime::RuntimeConfig cfg;
    cfg.workers = 3;
    cfg.admission = ap;
    // Deep enough that queue wait dwarfs the tight deadline: admitted
    // tight requests behind a full backlog are doomed under depth-only
    // admission.
    cfg.max_pending = 24;
    runtime::Runtime rt(cfg);

    runtime::ModuleLimits tight_lim;
    tight_lim.deadline_ns = 20'000'000;  // 20 ms vs ~2-5 ms service time
    if (!rt.register_module("tight", burn.value(), tight_lim).is_ok()) {
      return 1;
    }
    runtime::ModuleLimits loose_lim;
    loose_lim.deadline_ns = 2'000'000'000;
    if (!rt.register_module("loose", ping.value(), loose_lim).is_ok()) {
      return 1;
    }
    if (!rt.start().is_ok()) return 1;

    // Warm the slack predictor (and both tiers' code paths) below
    // saturation so the measured phase starts with published p99s.
    drive(rt.bound_port(), "/tight", {}, 2, 60);
    drive(rt.bound_port(), "/loose", {}, 2, 60);

    // Measured phase: saturate the tight tenant; run the loose tenant
    // alongside to observe goodput protection.
    loadgen::Report tight_rep, loose_rep;
    std::thread loose_t([&] {
      loose_rep = drive(rt.bound_port(), "/loose", {}, 4, loose_reqs);
    });
    tight_rep = drive_window(rt.bound_port(), "/tight", tight_conc, window_s);
    loose_t.join();
    rt.stop();

    ComboResult r;
    r.admission = to_string(ap);
    r.issued = count_issued(tight_rep) + count_issued(loose_rep);
    r.ok = tight_rep.count(200) + loose_rep.count(200);
    r.shed = tight_rep.count(503) + loose_rep.count(503);
    r.missed = tight_rep.count(504) + loose_rep.count(504);
    const double n = r.issued > 0 ? static_cast<double>(r.issued) : 1;
    r.miss_rate = r.missed / n;
    r.shed_rate = r.shed / n;
    r.served = r.ok / n;
    const double phase_s = std::max(
        {window_s, tight_rep.duration_s, loose_rep.duration_s});
    r.goodput_rps = r.ok / phase_s;
    // Latency histograms only record successful (200) requests.
    r.p50_ms = static_cast<double>(tight_rep.latency.percentile_ns(0.5)) / 1e6;
    r.p99_ms = tight_rep.p99_ms();
    results.push_back(r);

    std::printf("%-6s | %8.2f %8.2f | %6.1f%% %6.1f%% %6.1f%% | %10.0f\n",
                r.admission.c_str(), r.p50_ms, r.p99_ms, 100 * r.miss_rate,
                100 * r.shed_rate, 100 * r.served, r.goodput_rps);
  }

  // Recorded baseline: one JSON record per admission policy.
  const char* out_path = std::getenv("SLEDGE_BENCH_OUT");
  if (!out_path || !out_path[0]) out_path = "BENCH_dispatch.json";
  FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"dispatch\",\n"
               "  \"rev\": \"%s\",\n  \"host_cores\": %u,\n"
               "  \"mode\": \"%s\",\n"
               "  \"workload\": {\"window_s\": %.3f, \"tight_conc\": %d, "
               "\"loose_reqs\": %llu, \"tight_deadline_ms\": 20, "
               "\"workers\": 3, \"max_pending\": 24},\n  \"combos\": [\n",
               git_rev().c_str(), std::thread::hardware_concurrency(),
               smoke ? "smoke" : "full", window_s, tight_conc,
               static_cast<unsigned long long>(loose_reqs));
  for (size_t i = 0; i < results.size(); ++i) {
    const ComboResult& r = results[i];
    std::fprintf(
        f,
        "    {\"admission\": \"%s\", \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"miss_rate\": %.4f, \"shed_rate\": %.4f, \"served\": %.4f, "
        "\"goodput_rps\": %.1f, \"issued\": %llu, \"ok\": %llu, "
        "\"shed\": %llu, \"missed\": %llu}%s\n",
        r.admission.c_str(), r.p50_ms, r.p99_ms, r.miss_rate, r.shed_rate,
        r.served, r.goodput_rps, static_cast<unsigned long long>(r.issued),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.missed),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);

  // The headline comparison: slack vs depth 504 rate.
  const ComboResult& depth = results[0];
  const ComboResult& slack = results[1];
  const char* verdict =
      slack.missed < depth.missed
          ? "slack admission sheds early instead of killing late"
      : depth.missed == 0 && slack.missed == 0
          ? "neither policy missed a deadline at this load"
          : "UNEXPECTED: slack did not reduce misses";
  std::printf("504 rate: depth %.1f%% -> slack %.1f%% (%s)\n",
              100 * depth.miss_rate, 100 * slack.miss_rate, verdict);
  return 0;
}
