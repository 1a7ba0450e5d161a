// Table 2: raw execution time of the real-world functions — native build vs
// Wasm-in-Sledge (AoT, vm_guard) — outside any serverless framework.
// Reports avg and p99 plus the normalized Wasm/native ratio, after the
// source rev and host core count.
//
// Also a gate: every Wasm response must equal the native twin's (byte for
// byte; GPS-EKF's doubles within 1e-9), or the bench exits 1.
//
// Iterations: SLEDGE_BENCH_ITERS (default 200, adaptively reduced for the
// heavy apps; the paper used 1k).
#include <cmath>
#include <cstring>
#include <thread>

#include "apps/native_host.hpp"
#include "bench_util.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

// True when the Wasm response matches the native twin's: byte for byte,
// except GPS-EKF, whose doubles may differ in the last bits between the two
// compilations.
bool same_response(const std::string& app, const std::vector<uint8_t>& wasm,
                   const std::vector<uint8_t>& native) {
  if (app != "ekf" || wasm.size() != native.size() || wasm.size() % 8 != 0) {
    return wasm == native;
  }
  for (size_t i = 0; i < wasm.size(); i += 8) {
    double a, b;
    std::memcpy(&a, wasm.data() + i, 8);
    std::memcpy(&b, native.data() + i, 8);
    if (!(std::fabs(a - b) <= 1e-9)) return false;
  }
  return true;
}

}  // namespace

int main() {
  print_header("Execution time: native vs Wasm-in-Sledge", "Table 2");
  std::printf("rev=%s host_cores=%u\n", git_rev().c_str(),
              std::thread::hardware_concurrency());

  const int base_iters = static_cast<int>(env_long("SLEDGE_BENCH_ITERS", 200));

  std::printf("%-10s | %12s %12s | %12s %12s | %8s %8s\n", "app",
              "native avg", "native p99", "sledge avg", "sledge p99",
              "avg(x)", "p99(x)");

  // An app that cannot be built or answers differently fails the bench.
  int failed_apps = 0;
  auto fail = [&](const std::string& app, const std::string& why) {
    std::printf("%-10s | FAIL: %s\n", app.c_str(), why.c_str());
    ++failed_apps;
  };
  for (const std::string& app : apps::app_names()) {
    auto src = apps::load_app_source(app);
    if (!src.ok()) {
      fail(app, src.error_message());
      continue;
    }
    std::vector<uint8_t> request = apps::app_request(app);

    NativeProgram* native = NativeProgram::load(*src, app + "_x_");
    if (!native) {
      fail(app, "native twin did not build");
      continue;
    }

    auto wasm = minicc::compile_to_wasm(*src);
    engine::WasmModule::Config cfg;  // defaults: kAot + vm_guard
    auto mod = wasm.ok() ? engine::WasmModule::load(wasm.value(), cfg)
                         : Result<engine::WasmModule>::error(
                               wasm.error_message());
    if (!mod.ok()) {
      fail(app, mod.error_message());
      delete native;
      continue;
    }

    int iters = base_iters;
    if (app == "lpd" || app == "resize") iters = base_iters / 4 + 1;

    // Native timing (request injected through the mc_* host).
    LatencyHistogram native_hist;
    apps::native_host_set_request(request);
    native->run();  // warm
    const std::vector<uint8_t> native_resp = apps::native_host_response();
    for (int i = 0; i < iters; ++i) {
      apps::native_host_set_request(request);
      Stopwatch sw;
      native->run();
      native_hist.record(sw.elapsed_ns());
    }

    // Wasm timing: one sandbox per request (Sledge's execution model), but
    // timing only the function execution like the paper's Table 2.
    LatencyHistogram wasm_hist;
    int mismatches = 0;
    for (int i = -1; i < iters; ++i) {  // i = -1: warm-up, untimed
      auto sandbox = mod->instantiate();
      if (!sandbox.ok()) break;
      std::vector<uint8_t> resp;
      Stopwatch sw;
      sandbox->run_serverless(request, &resp);
      if (i >= 0) wasm_hist.record(sw.elapsed_ns());
      if (!same_response(app, resp, native_resp)) ++mismatches;
    }

    auto fmt_time = [](double us) {
      static char buf[8][32];
      static int slot = 0;
      char* b = buf[slot++ & 7];
      if (us < 1000) {
        std::snprintf(b, 32, "%.1fus", us);
      } else {
        std::snprintf(b, 32, "%.2fms", us / 1000.0);
      }
      return b;
    };

    double n_avg = native_hist.mean_us(), n_p99 = native_hist.p99_us();
    double w_avg = wasm_hist.mean_us(), w_p99 = wasm_hist.p99_us();
    std::printf("%-10s | %12s %12s | %12s %12s | %7.2fx %7.2fx\n", app.c_str(),
                fmt_time(n_avg), fmt_time(n_p99), fmt_time(w_avg),
                fmt_time(w_p99), w_avg / n_avg, w_p99 / n_p99);
    if (mismatches > 0) {
      fail(app, std::to_string(mismatches) + " of " +
                    std::to_string(iters + 1) +
                    " Wasm responses differ from the native twin's");
    }
    delete native;
  }

  std::printf("\nPaper (Table 2): GPS-EKF 1.09x, GOCR 1.48x, CIFAR10 1.49x, "
              "RESIZE 1.46x, LPD 1.83x (Wasm vs native).\n");
  if (failed_apps > 0) {
    std::fprintf(stderr, "FAIL: %d app(s) answered differently from their "
                 "native twin\n", failed_apps);
    return 1;
  }
  return 0;
}
