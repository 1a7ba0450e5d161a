// Table 3: function churn — the cost of bringing up one invocation of
// GPS-EKF:
//   * Sledge sandbox: allocate linear memory + stack + context, run,
//     teardown (the paper's "optimized function startup"), and
//   * fork + exec + wait of the equivalent native function binary (the
//     Nuclio-model per-invocation cost).
// Reports avg and p99 over SLEDGE_BENCH_ITERS iterations (default 300;
// paper used 10k), plus the creation-only component — for each of the
// three instantiation tiers:
//   cold     fresh mmap reservation per sandbox (resource pool bypassed)
//   pooled   recycled reservation from the sandbox resource pool
//   snapshot pooled reservation + MAP_PRIVATE mmap of the sealed memfd
//            template (post-start image materializes copy-on-write; no
//            zeroing, no data-segment copies, no start function)
// Emits BENCH_churn.json (override path with SLEDGE_BENCH_OUT).
//
// --smoke: measure just the three creation tiers at reduced iterations and
// fail (exit 1) unless cold p50 exceeds both the pooled and the snapshot
// p50. CI-sized acceptance gate for the warm tiers (scripts/check.sh).
#include <cstring>

#include "bench_util.hpp"
#include "procfaas/procfaas.hpp"
#include "sledge/runtime.hpp"
#include "sledge/snapshot.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

// One per-tier measurement pass: reconfigure + drain the process-wide pool,
// warm unrelated caches with a throwaway request (which also builds the
// snapshot template on the snapshot tier), then time Sandbox::create over
// `iters` full create/run/teardown cycles (teardown is what refills the
// free lists between pooled iterations).
bool measure_create(const engine::WasmModule* mod,
                    const std::vector<uint8_t>& request, int iters,
                    runtime::InstantiationMode mode, bool pool_enabled,
                    LatencyHistogram* create_only) {
  auto& pool = runtime::SandboxResourcePool::instance();
  runtime::SandboxResourcePool::Config pc;
  pc.enabled = pool_enabled;
  pool.configure(pc);
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
  LatencyHistogram cold, pooled, snapshot;
};

// Cold runs with the pool disabled AND the cold mode (fresh reservation,
// fresh stack); pooled/snapshot run with the pool enabled so recycled
// reservations are what get measured.
bool measure_tiers(const engine::WasmModule* mod,
                   const std::vector<uint8_t>& request, int iters, Tiers* t) {
  using runtime::InstantiationMode;
  runtime::SnapshotRegistry::instance().reset_counters();
  return measure_create(mod, request, iters, InstantiationMode::kCold,
                        /*pool_enabled=*/false, &t->cold) &&
         measure_create(mod, request, iters, InstantiationMode::kPooled,
                        /*pool_enabled=*/true, &t->pooled) &&
         measure_create(mod, request, iters, InstantiationMode::kSnapshot,
                        /*pool_enabled=*/true, &t->snapshot);
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
  std::printf("%-36s %10.1fus %10.1fus\n", "create, snapshot (COW template)",
              p50_us(t.snapshot), t.snapshot.p99_us());
  std::printf("%-36s %11.2fx\n", "cold / pooled p50 ratio",
              p50_us(t.cold) / p50_us(t.pooled));
  std::printf("%-36s %11.2fx\n", "pooled / snapshot p50 ratio",
              p50_us(t.pooled) / p50_us(t.snapshot));
  const runtime::SnapshotRegistry::Counters sc =
      runtime::SnapshotRegistry::instance().counters();
  std::printf("snapshot registry: hits=%llu misses=%llu builds=%llu "
              "failures=%llu\n",
              static_cast<unsigned long long>(sc.hits),
              static_cast<unsigned long long>(sc.misses),
              static_cast<unsigned long long>(sc.builds),
              static_cast<unsigned long long>(sc.build_failures));
}

bool write_json(const Tiers& t, int iters, const LatencyHistogram* fork_exec) {
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
               "  \"workload\": {\"app\": \"ekf\", \"iters\": %d},\n"
               "  \"tiers\": [\n",
               iters);
  tier("cold", t.cold, ",");
  tier("pooled", t.pooled, ",");
  tier("snapshot", t.snapshot, fork_exec ? "," : "");
  if (fork_exec) tier("fork_exec_native", *fork_exec, "");
  std::fprintf(f,
               "  ],\n  \"headline\": {\"cold_over_pooled_p50\": %.3f, "
               "\"pooled_over_snapshot_p50\": %.3f, "
               "\"cold_over_snapshot_p50\": %.3f}\n}\n",
               p50_us(t.cold) / p50_us(t.pooled),
               p50_us(t.pooled) / p50_us(t.snapshot),
               p50_us(t.cold) / p50_us(t.snapshot));
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return true;
}

// The CI gate: both warm tiers must beat a cold start, or pooling is not
// earning its keep. The two warm tiers are not ordered: a pooled create
// re-arms an in-place-zeroed region without a syscall, so it lands within
// noise of a snapshot create; their ratio is reported, not asserted.
int check_ordering(const Tiers& t) {
  const struct {
    const char* name;
    double p50;
  } warm[] = {{"pooled", p50_us(t.pooled)}, {"snapshot", p50_us(t.snapshot)}};
  for (const auto& w : warm) {
    if (w.p50 >= p50_us(t.cold)) {
      std::fprintf(stderr,
                   "FAIL: %s create p50 (%.1fus) not below cold p50 "
                   "(%.1fus)\n",
                   w.name, w.p50, p50_us(t.cold));
      return 1;
    }
  }
  std::printf("PASS: cold p50 > pooled p50 and snapshot p50 "
              "(pooled / snapshot = %.2fx, not gated)\n",
              p50_us(t.pooled) / p50_us(t.snapshot));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header(
      smoke ? "Churn smoke: cold vs pooled vs snapshot startup (GPS-EKF)"
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
    if (rc == 0 && !write_json(tiers, iters, nullptr)) rc = 1;
    runtime::SandboxResourcePool::instance().purge();
    runtime::SnapshotRegistry::instance().clear();
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
                                       runtime::InstantiationMode::kSnapshot);
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
              "Sledge create+run+teardown (snap)", sandbox_full.mean_us(),
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
  if (!write_json(tiers, iters, &fork_exec)) rc = 1;
  runtime::SandboxResourcePool::instance().purge();
  runtime::SnapshotRegistry::instance().clear();
  return rc;
}
