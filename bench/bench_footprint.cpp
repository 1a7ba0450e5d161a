// §5.1 "Memory footprint": sizes of the per-function artifacts and the
// loaded runtime's RSS, versus the multi-megabyte container images of
// VM/container-based FaaS.
//
// Paper numbers: Sledge runtime binary 359KB; AoT shared objects 108-112KB;
// Nuclio function-processor container 96.4MB.
#include <sys/resource.h>

#include "bench_util.hpp"
#include "common/file_util.hpp"
#include "sledge/runtime.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

long rss_kb() {
  auto status = read_file("/proc/self/status");
  if (!status.ok()) return -1;
  size_t pos = status->find("VmRSS:");
  if (pos == std::string::npos) return -1;
  return std::atol(status->c_str() + pos + 6);
}

}  // namespace

int main() {
  print_header("Memory footprint of functions and runtime", "Section 5.1");

  long rss_before = rss_kb();

  runtime::RuntimeConfig cfg;
  cfg.workers = 2;
  runtime::Runtime rt(cfg);

  // Every module registers before start(), so their compilers run side by
  // side; start() loads them all.
  std::vector<std::pair<std::string, size_t>> registered;  // (app, wasm bytes)
  for (const std::string& app : apps::app_names()) {
    auto wasm = apps::app_wasm(app);
    if (!wasm.ok()) continue;
    Status s = rt.register_module(app, wasm.value());
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      continue;
    }
    registered.emplace_back(app, wasm.value().size());
  }
  Status started = rt.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "%s\n", started.message().c_str());
    return 1;
  }
  long rss_after = rss_kb();

  std::printf("%-12s %14s %14s\n", "module", "wasm bytes", "AoT .so bytes");
  int64_t total_so = 0;
  for (const auto& [app, wasm_bytes] : registered) {
    int64_t so_size = rt.find_module(app)->module.native_object_size();
    total_so += so_size;
    std::printf("%-12s %14zu %14lld\n", app.c_str(), wasm_bytes,
                static_cast<long long>(so_size));
  }
  rt.stop();

  std::printf("\n%-44s %10ld KB\n", "process RSS before loading modules",
              rss_before);
  std::printf("%-44s %10ld KB\n",
              "process RSS with 5 modules + runtime started", rss_after);
  std::printf("%-44s %10ld KB\n", "delta (all functions + runtime state)",
              rss_after - rss_before);
  std::printf("%-44s %10lld KB\n", "sum of AoT shared objects",
              static_cast<long long>(total_so / 1024));

  // Native function binaries (the per-function artifact of the
  // process-model baseline).
  std::printf("\n%-12s %14s\n", "fn binary", "bytes");
  for (const std::string& app : apps::app_names()) {
    std::printf("%-12s %14lld\n", app.c_str(),
                static_cast<long long>(file_size(fn_path(app))));
  }

  std::printf(
      "\nPaper (5.1): runtime binary 359KB, per-function .so 108-112KB — vs "
      "96.4MB per Nuclio function-processor container and GBs per VM. Any "
      "result in the 10s-to-100s of KB per function preserves the paper's "
      "2-3 orders-of-magnitude density argument.\n");
  return 0;
}
