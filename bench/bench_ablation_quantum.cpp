// Ablation: scheduling quantum (paper §4: "the time slice in scheduling has
// strong control over sandboxing preemptions and scheduling overheads").
// A long-running spin function shares one worker with latency-sensitive
// pings; we sweep the round-robin quantum and report ping latency and the
// preemption count, including a cooperative row (sched=fifo: the quantum
// timer is never armed).
#include <thread>

#include "bench_server_util.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

const char* kSpinSrc = R"(
char out[1];
int main() {
  double x = 1.0;
  for (int i = 0; i < 80000000; i++) { x += 0.5; if (x > 1e16) x = 1.0; }
  out[0] = 115;
  resp_write(out, 1);
  return (int)x;
}
)";

}  // namespace

int main() {
  print_header("Ablation: preemption quantum vs short-function latency",
               "paper 4 (scheduling time slice)");

  auto ping = apps::app_wasm("ping");
  auto spin = minicc::compile_to_wasm(kSpinSrc);
  if (!ping.ok() || !spin.ok()) return 1;

  std::printf("%-14s | %10s %10s | %12s\n", "quantum", "ping avg", "ping p99",
              "preemptions");

  struct Config {
    const char* label;
    uint64_t quantum_us;
    runtime::SchedPolicy sched;
  };
  const Config kConfigs[] = {
      {"1ms", 1000, runtime::SchedPolicy::kRoundRobin},
      {"5ms (paper)", 5000, runtime::SchedPolicy::kRoundRobin},
      {"20ms", 20000, runtime::SchedPolicy::kRoundRobin},
      {"cooperative", 5000, runtime::SchedPolicy::kFifoRunToCompletion},
  };

  for (const Config& c : kConfigs) {
    runtime::RuntimeConfig cfg;
    cfg.workers = 1;
    cfg.quantum_us = c.quantum_us;
    cfg.sched = c.sched;
    runtime::Runtime rt(cfg);
    if (!rt.register_module("ping", ping.value()).is_ok()) return 1;
    if (!rt.register_module("spin", spin.value()).is_ok()) return 1;
    if (!rt.start().is_ok()) return 1;

    // Keep one spin request in flight while measuring pings.
    std::atomic<bool> stop_spinner{false};
    std::thread spinner([&] {
      while (!stop_spinner.load()) {
        (void)loadgen::single_request("127.0.0.1", rt.bound_port(), "/spin",
                                      {});
      }
    });
    ::usleep(50000);

    loadgen::Options opt;
    opt.port = rt.bound_port();
    opt.path = "/ping";
    opt.concurrency = 1;
    opt.total_requests = 30;
    opt.expect_body = {'p'};
    auto report = loadgen::run_load(opt);

    stop_spinner.store(true);
    spinner.join();
    auto totals = rt.totals();
    rt.stop();

    if (!report.ok()) {
      std::printf("%-14s | loadgen error\n", c.label);
      continue;
    }
    std::printf("%-14s | %8.2fms %8.2fms | %12llu\n", c.label,
                report->mean_ms(), report->p99_ms(),
                static_cast<unsigned long long>(totals.preemptions));
  }

  std::printf("\nExpected shape: ping latency tracks the quantum; the "
              "cooperative row starves pings for the spin function's whole "
              "runtime (hundreds of ms) — the paper's case for preemptive "
              "scheduling of untrusted multi-tenant functions.\n");
  return 0;
}
