// Figure 5 + Table 1: PolyBench/C execution time normalized to native, per
// Wasm runtime configuration.
//
// Runtime configurations and which paper system each models (DESIGN.md):
//   native             clang -O3 native build (the baseline denominator)
//   aWsm (vm_guard)    Sledge+aWsm — AoT, virtual-memory bounds
//   aWsm-bounds-chk    Sledge+aWsm-bounds-chk — AoT, software bounds
//   aWsm-mpx           Sledge+aWsm-mpx — AoT, MPX-cost-model bounds
//   aWsm-nochk         static compilation without bounds checks (§5.1 text)
//   aot-O0             fast-compile/slower-code tier (Cranelift-like:
//                      Lucet / Wasmer slot)
//   interp-fast        pre-decoded interpreter (mid comparator)
//   interp             classic interpreter (slow comparator)
//
// Iterations: SLEDGE_PB_ITERS (default 5; the paper used 15). Interpreter
// tiers are capped at SLEDGE_PB_INTERP_ITERS (default 2) to keep the
// default run short. Each cell is the median of its iterations, native and
// Wasm alike, so one slow iteration does not swing a ratio.
#include <algorithm>
#include <cmath>
#include <map>

#include "bench_util.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

struct RuntimeCfg {
  const char* name;
  engine::Tier tier;
  engine::BoundsStrategy strategy;
  bool is_interp;
};

const RuntimeCfg kRuntimes[] = {
    {"aWsm(vm)", engine::Tier::kAot, engine::BoundsStrategy::kVmGuard, false},
    {"aWsm-bchk", engine::Tier::kAot, engine::BoundsStrategy::kSoftware, false},
    {"aWsm-mpx", engine::Tier::kAot, engine::BoundsStrategy::kMpxSim, false},
    {"aWsm-nochk", engine::Tier::kAot, engine::BoundsStrategy::kNone, false},
    {"aot-O0", engine::Tier::kAotO0, engine::BoundsStrategy::kVmGuard, false},
    {"interp-fast", engine::Tier::kInterpFast, engine::BoundsStrategy::kSoftware, true},
    {"interp", engine::Tier::kInterp, engine::BoundsStrategy::kSoftware, true},
};
constexpr int kNumRuntimes = 7;

// One warm sandbox per runtime config: Figure 5 measures code quality, not
// startup, so pages are faulted in before timing (kernels fully re-init
// their arrays on each run).
double run_wasm_once(engine::WasmSandbox& sandbox) {
  std::vector<uint8_t> resp;
  Stopwatch sw;
  auto out = sandbox.run_serverless({}, &resp);
  double s = static_cast<double>(sw.elapsed_ns()) / 1e9;
  if (!out.ok()) return -1;
  return s;
}

}  // namespace

int main() {
  print_header("PolyBench/C: execution time normalized to native",
               "Figure 5 and Table 1 (x86_64 half)");

  const int iters = static_cast<int>(env_long("SLEDGE_PB_ITERS", 5));
  const int interp_iters =
      static_cast<int>(env_long("SLEDGE_PB_INTERP_ITERS", 2));
  const bool fast = env_long("SLEDGE_PB_FAST", 0) != 0;

  std::vector<std::string> kernels = apps::polybench_names();
  if (fast) kernels.resize(8);

  std::printf("%-16s %10s", "kernel", "native(ms)");
  for (const auto& rt : kRuntimes) std::printf(" %11s", rt.name);
  std::printf("\n");

  // Per-runtime slowdown factors for the Table 1 summary.
  std::vector<std::vector<double>> slowdowns(kNumRuntimes);

  for (const std::string& kernel : kernels) {
    auto src = apps::load_polybench_source(kernel);
    if (!src.ok()) {
      std::fprintf(stderr, "missing kernel %s\n", kernel.c_str());
      continue;
    }

    // Native baseline (cc -O3 of the minicc C backend output).
    std::string prefix = "pb_";
    for (char c : kernel) prefix += c == '-' ? '_' : c;
    prefix += "_";
    NativeProgram* native = NativeProgram::load(*src, prefix);
    if (!native) continue;
    native->run();  // warm
    double native_s = time_median_s(iters, [&] { native->run(); });

    std::printf("%-16s %10.3f", kernel.c_str(), native_s * 1e3);
    std::fflush(stdout);

    auto wasm = minicc::compile_to_wasm(*src);
    if (!wasm.ok()) {
      std::fprintf(stderr, "\nwasm compile failed: %s\n",
                   wasm.error_message().c_str());
      delete native;
      continue;
    }

    for (int r = 0; r < kNumRuntimes; ++r) {
      const RuntimeCfg& rt = kRuntimes[r];
      engine::WasmModule::Config cfg;
      cfg.tier = rt.tier;
      cfg.strategy = rt.strategy;
      auto mod = engine::WasmModule::load(wasm.value(), cfg);
      if (!mod.ok()) {
        std::printf(" %11s", "ERR");
        continue;
      }
      auto sandbox = mod->instantiate();
      if (!sandbox.ok()) {
        std::printf(" %11s", "ERR");
        continue;
      }
      int n = rt.is_interp ? std::min(iters, interp_iters) : iters;
      run_wasm_once(sandbox.value());  // warm (faults pages in)
      std::vector<double> times;
      bool ok = true;
      for (int i = 0; i < n && ok; ++i) {
        double s = run_wasm_once(sandbox.value());
        if (s < 0) ok = false;
        times.push_back(s);
      }
      if (!ok) {
        std::printf(" %11s", "TRAP");
        continue;
      }
      double norm = median(std::move(times)) / native_s;
      slowdowns[r].push_back(norm);
      std::printf(" %10.2fx", norm);
      std::fflush(stdout);
    }
    std::printf("\n");
    delete native;
  }

  // Table 1 block: arithmetic/geometric mean slowdown (%) + SD.
  std::printf("\n-- Table 1 summary: %% slowdown vs native (x86_64) --\n");
  std::printf("%-14s %14s %14s %10s\n", "runtime", "Slowdown(AM)",
              "Slowdown(GM)", "SD");
  for (int r = 0; r < kNumRuntimes; ++r) {
    const std::vector<double>& v = slowdowns[r];
    if (v.empty()) continue;
    double am = 0, gm_log = 0;
    for (double x : v) {
      am += x;
      gm_log += std::log(x);
    }
    am /= static_cast<double>(v.size());
    double gm = std::exp(gm_log / static_cast<double>(v.size()));
    double var = 0;
    for (double x : v) var += (x - am) * (x - am);
    double sd = std::sqrt(var / static_cast<double>(v.size()));
    std::printf("%-14s %13.1f%% %13.1f%% %10.2f\n", kRuntimes[r].name,
                (am - 1.0) * 100.0, (gm - 1.0) * 100.0, sd * 100.0);
  }
  std::printf(
      "\nPaper (Table 1): aWsm 13.4%% AM / 9.9%% GM; software-bounds 62.7%%; "
      "MPX 75.1%%; Cranelift-based 92.8-149.8%%.\n"
      "Expected shape: interp tiers >> { mpx > bounds-chk > vm_guard ~ nochk "
      "}; the O1 tier lands between vm_guard and the interpreters "
      "(Cranelift's slot). AArch64 columns: N/A on this host (see "
      "DESIGN.md).\n");
  return 0;
}
