// Table 3: function churn — the cost of bringing up one invocation of
// GPS-EKF:
//   * Sledge sandbox: allocate linear memory + stack + context, run,
//     teardown (the paper's "optimized function startup"), and
//   * fork + exec + wait of the equivalent native function binary (the
//     Nuclio-model per-invocation cost).
// Reports avg and p99 over SLEDGE_BENCH_ITERS iterations (default 300;
// paper used 10k), plus the creation-only component — for each of the
// two instantiation tiers:
//   cold     fresh mmap reservation and stack per sandbox, both unmapped
//            at teardown (never touches the resource pool)
//   pooled   recycled reservation from the sandbox resource pool
// The creation p50s are measured in 5 fresh processes and recorded as
// their min and median. Emits BENCH_churn.json (override path with
// SLEDGE_BENCH_OUT), stamped with the source revision, host core count and
// mode.
//
// --smoke: measure just the two creation tiers, in this process, and fail
// (exit 1) unless cold p50 exceeds pooled p50. CI-sized acceptance gate for
// the warm tier (scripts/check.sh).
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "procfaas/procfaas.hpp"
#include "sledge/runtime.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

// One per-tier measurement pass: drain the process-wide pool, warm
// unrelated caches with a throwaway request, then time Sandbox::create over
// `iters` full create/run/teardown cycles (teardown is what refills the
// free lists between pooled iterations).
bool measure_create(const engine::WasmModule* mod,
                    const std::vector<uint8_t>& request, int iters,
                    runtime::InstantiationMode mode,
                    LatencyHistogram* create_only) {
  auto& pool = runtime::SandboxResourcePool::instance();
  pool.purge();
  pool.reset_counters();
  {
    auto sb = runtime::Sandbox::create(mod, request, -1, false, mode);
    if (!sb) return false;
    runtime::run_sandbox_inline(sb.get());
  }
  for (int i = 0; i < iters; ++i) {
    Stopwatch sw;
    auto sb = runtime::Sandbox::create(mod, request, -1, false, mode);
    uint64_t create_ns = sw.elapsed_ns();
    if (!sb) return false;
    create_only->record(create_ns);
    runtime::run_sandbox_inline(sb.get());
  }
  return true;
}

struct Tiers {
  LatencyHistogram cold, pooled;
};

bool measure_tiers(const engine::WasmModule* mod,
                   const std::vector<uint8_t>& request, int iters, Tiers* t) {
  using runtime::InstantiationMode;
  return measure_create(mod, request, iters, InstantiationMode::kCold,
                        &t->cold) &&
         measure_create(mod, request, iters, InstantiationMode::kPooled,
                        &t->pooled);
}

double p50_us(const LatencyHistogram& h) {
  return static_cast<double>(h.percentile_ns(0.5)) / 1000.0;
}

void print_tiers(const Tiers& t) {
  std::printf("%-36s %12s %12s\n", "", "50%", "99%");
  std::printf("%-36s %10.1fus %10.1fus\n", "create, cold (fresh mmap)",
              p50_us(t.cold), t.cold.p99_us());
  std::printf("%-36s %10.1fus %10.1fus\n", "create, pooled (recycled rsv)",
              p50_us(t.pooled), t.pooled.p99_us());
  std::printf("%-36s %11.2fx\n", "cold / pooled p50 ratio",
              p50_us(t.cold) / p50_us(t.pooled));
}

// Create p50 (us) of each tier, one entry per measuring process.
struct Runs {
  std::vector<double> cold, pooled;
};

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// Full mode measures the tiers in this many fresh processes: a process
// lands in one of two create-latency modes (heap and mapping layout), so
// one process's p50 cannot tell a 1.5x change from the mode it hit.
constexpr int kProcessRuns = 5;
// Argument of those child processes: measure the tiers, print one line
// "<cold p50 us> <pooled p50 us>", exit.
constexpr const char* kOneRunArg = "--one-run";

// Runs this binary with kOneRunArg and reads back its p50s.
bool measure_in_fresh_process(double* cold_us, double* pooled_us) {
  char self[4096];
  ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return false;
  self[n] = '\0';
  std::string cmd = std::string("'") + self + "' " + kOneRunArg;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (!p) return false;
  int got = std::fscanf(p, "%lf %lf", cold_us, pooled_us);
  return ::pclose(p) == 0 && got == 2;
}

bool write_json(const Runs& runs, int iters, bool smoke,
                const LatencyHistogram* fork_exec) {
  const char* out_path = std::getenv("SLEDGE_BENCH_OUT");
  if (!out_path || !out_path[0]) out_path = "BENCH_churn.json";
  FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return false;
  }
  auto tier = [&](const char* name, const std::vector<double>& p50s,
                  const char* trail) {
    std::fprintf(f, "    \"%s\": {\"min\": %.2f, \"median\": %.2f, \"runs\": [",
                 name, min_of(p50s), median(p50s));
    for (size_t i = 0; i < p50s.size(); ++i) {
      std::fprintf(f, "%s%.2f", i ? ", " : "", p50s[i]);
    }
    std::fprintf(f, "]}%s\n", trail);
  };
  std::fprintf(f,
               "{\n  \"bench\": \"churn\",\n"
               "  \"workload\": {\"app\": \"ekf\", \"iters\": %d},\n"
               "  \"rev\": \"%s\",\n  \"host_cores\": %u,\n"
               "  \"mode\": \"%s\",\n  \"process_runs\": %zu,\n"
               "  \"create_p50_us\": {\n",
               iters, git_rev().c_str(), std::thread::hardware_concurrency(),
               smoke ? "smoke" : "full", runs.cold.size());
  tier("cold", runs.cold, ",");
  tier("pooled", runs.pooled, "");
  std::fprintf(f, "  },\n");
  if (fork_exec) {
    std::fprintf(f,
                 "  \"fork_exec_native\": {\"p50_us\": %.2f, \"p99_us\": "
                 "%.2f, \"mean_us\": %.2f},\n",
                 p50_us(*fork_exec), fork_exec->p99_us(),
                 fork_exec->mean_us());
  }
  std::fprintf(f,
               "  \"headline\": {\"cold_over_pooled_median_p50\": %.3f}\n}\n",
               median(runs.cold) / median(runs.pooled));
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return true;
}

// The CI gate: the warm tier must beat a cold start, or pooling is not
// earning its keep.
int check_ordering(double cold_p50_us, double pooled_p50_us) {
  if (pooled_p50_us >= cold_p50_us) {
    std::fprintf(stderr,
                 "FAIL: pooled create p50 (%.1fus) not below cold p50 "
                 "(%.1fus)\n",
                 pooled_p50_us, cold_p50_us);
    return 1;
  }
  std::printf("PASS: cold p50 > pooled p50\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool one_run = argc > 1 && std::strcmp(argv[1], kOneRunArg) == 0;
  if (!one_run) {
    print_header(
        smoke ? "Churn smoke: cold vs pooled startup (GPS-EKF)"
              : "Churn: Sledge sandbox vs fork+exec+wait (GPS-EKF)",
        "Table 3");
  }

  const int iters = static_cast<int>(env_long("SLEDGE_BENCH_ITERS", 300));
  std::vector<uint8_t> request = apps::app_request("ekf");

  auto wasm = apps::app_wasm("ekf");
  if (!wasm.ok()) {
    std::fprintf(stderr, "%s\n", wasm.error_message().c_str());
    return 1;
  }
  engine::WasmModule::Config cfg;  // kAot + vm_guard
  auto mod = engine::WasmModule::load(wasm.value(), cfg);
  if (!mod.ok()) {
    std::fprintf(stderr, "%s\n", mod.error_message().c_str());
    return 1;
  }

  Runs runs;
  if (smoke || one_run) {
    Tiers tiers;
    if (!measure_tiers(&mod.value(), request, iters, &tiers)) {
      std::fprintf(stderr, "sandbox creation failed\n");
      return 1;
    }
    runtime::SandboxResourcePool::instance().purge();
    if (one_run) {
      std::printf("%.3f %.3f\n", p50_us(tiers.cold), p50_us(tiers.pooled));
      return 0;
    }
    print_tiers(tiers);
    runs.cold.push_back(p50_us(tiers.cold));
    runs.pooled.push_back(p50_us(tiers.pooled));
    int rc = check_ordering(runs.cold[0], runs.pooled[0]);
    if (rc == 0 && !write_json(runs, iters, smoke, nullptr)) rc = 1;
    return rc;
  }

  std::printf("%-36s %12s %12s\n", "create p50, fresh process", "cold",
              "pooled");
  for (int r = 0; r < kProcessRuns; ++r) {
    double cold_us = 0, pooled_us = 0;
    if (!measure_in_fresh_process(&cold_us, &pooled_us)) {
      std::fprintf(stderr, "measuring process %d failed\n", r);
      return 1;
    }
    runs.cold.push_back(cold_us);
    runs.pooled.push_back(pooled_us);
    std::printf("%-36d %10.2fus %10.2fus\n", r, cold_us, pooled_us);
  }
  std::printf("%-36s %10.2fus %10.2fus\n", "min", min_of(runs.cold),
              min_of(runs.pooled));
  std::printf("%-36s %10.2fus %10.2fus\n", "median", median(runs.cold),
              median(runs.pooled));

  // The fork+exec+wait comparison (the per-invocation process-isolation
  // baseline) and the create+run+teardown cycle time.
  {
    std::vector<uint8_t> resp;
    procfaas::spawn_function_process(fn_path("ekf"), request, &resp);
  }

  LatencyHistogram sandbox_full, fork_exec;
  for (int i = 0; i < iters; ++i) {
    Stopwatch sw;
    auto sb = runtime::Sandbox::create(&mod.value(), request, -1, false,
                                       runtime::InstantiationMode::kPooled);
    if (!sb) return 1;
    runtime::run_sandbox_inline(sb.get());
    sb.reset();  // teardown included
    sandbox_full.record(sw.elapsed_ns());
  }
  for (int i = 0; i < iters; ++i) {
    std::vector<uint8_t> resp;
    Stopwatch sw;
    if (!procfaas::spawn_function_process(fn_path("ekf"), request, &resp)) {
      std::fprintf(stderr, "fork+exec failed at iteration %d\n", i);
      return 1;
    }
    fork_exec.record(sw.elapsed_ns());
  }

  std::printf("%-36s %12s %12s\n", "", "Avg", "99%");
  std::printf("%-36s %10.1fus %10.1fus\n",
              "Sledge create+run+teardown (pooled)", sandbox_full.mean_us(),
              sandbox_full.p99_us());
  std::printf("%-36s %10.1fus %10.1fus\n", "fork + exec + wait (native)",
              fork_exec.mean_us(), fork_exec.p99_us());
  std::printf("%-36s %11.2fx %11.2fx\n", "fork+exec / sandbox ratio",
              fork_exec.mean_us() / sandbox_full.mean_us(),
              static_cast<double>(fork_exec.percentile_ns(0.99)) /
                  sandbox_full.percentile_ns(0.99));

  std::printf("\nPaper (Table 3): Sledge sandbox 61us avg / 146us p99; "
              "fork+exec+wait 487us avg / 588us p99 (~8x avg).\n");

  int rc = check_ordering(median(runs.cold), median(runs.pooled));
  if (!write_json(runs, iters, smoke, &fork_exec)) rc = 1;
  runtime::SandboxResourcePool::instance().purge();
  return rc;
}
