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
// Emits BENCH_churn.json (override path with SLEDGE_BENCH_OUT), stamped
// with the source revision, host core count and mode.
//
// --smoke: measure just the two creation tiers and fail (exit 1) unless
// cold p50 exceeds pooled p50. CI-sized acceptance gate for the warm tier
// (scripts/check.sh).
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

bool write_json(const Tiers& t, int iters, bool smoke,
                const LatencyHistogram* fork_exec) {
  const char* out_path = std::getenv("SLEDGE_BENCH_OUT");
  if (!out_path || !out_path[0]) out_path = "BENCH_churn.json";
  FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return false;
  }
  auto tier = [&](const char* name, const LatencyHistogram& h,
                  const char* trail) {
    std::fprintf(f,
                 "    {\"tier\": \"%s\", \"p50_us\": %.2f, \"p99_us\": %.2f, "
                 "\"mean_us\": %.2f}%s\n",
                 name, p50_us(h), h.p99_us(), h.mean_us(), trail);
  };
  std::fprintf(f,
               "{\n  \"bench\": \"churn\",\n"
               "  \"workload\": {\"app\": \"ekf\", \"iters\": %d, "
               "\"smoke\": %s},\n"
               "  \"rev\": \"%s\",\n  \"host_cores\": %u,\n"
               "  \"tiers\": [\n",
               iters, smoke ? "true" : "false", git_rev().c_str(),
               std::thread::hardware_concurrency());
  tier("cold", t.cold, ",");
  tier("pooled", t.pooled, fork_exec ? "," : "");
  if (fork_exec) tier("fork_exec_native", *fork_exec, "");
  std::fprintf(f,
               "  ],\n  \"headline\": {\"cold_over_pooled_p50\": %.3f}\n}\n",
               p50_us(t.cold) / p50_us(t.pooled));
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return true;
}

// The CI gate: the warm tier must beat a cold start, or pooling is not
// earning its keep.
int check_ordering(const Tiers& t) {
  if (p50_us(t.pooled) >= p50_us(t.cold)) {
    std::fprintf(stderr,
                 "FAIL: pooled create p50 (%.1fus) not below cold p50 "
                 "(%.1fus)\n",
                 p50_us(t.pooled), p50_us(t.cold));
    return 1;
  }
  std::printf("PASS: cold p50 > pooled p50\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header(
      smoke ? "Churn smoke: cold vs pooled startup (GPS-EKF)"
            : "Churn: Sledge sandbox vs fork+exec+wait (GPS-EKF)",
      "Table 3");

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

  Tiers tiers;
  if (!measure_tiers(&mod.value(), request, iters, &tiers)) {
    std::fprintf(stderr, "sandbox creation failed\n");
    return 1;
  }
  print_tiers(tiers);

  if (smoke) {
    int rc = check_ordering(tiers);
    if (rc == 0 && !write_json(tiers, iters, smoke, nullptr)) rc = 1;
    runtime::SandboxResourcePool::instance().purge();
    return rc;
  }

  // Full mode: add the fork+exec+wait comparison (the per-invocation
  // process-isolation baseline) and the create+run+teardown cycle time.
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

  int rc = check_ordering(tiers);
  if (!write_json(tiers, iters, smoke, &fork_exec)) rc = 1;
  runtime::SandboxResourcePool::instance().purge();
  return rc;
}
