// sledged: the Sledge serverless runtime as a standalone server.
//
//   $ sledged config.json
//
// Config format (paper §4: "a JSON-based configuration file"):
// {
//   "port": 8080,            // 0 = pick a free port
//   "workers": 3,
//   "quantum_us": 5000,
//   "policy": "work_stealing",   // | "global_lock" | "per_worker"
//   "scheduler": "round_robin",  // | "fifo" (cooperative)
//   "admission": "depth",        // | "slack" (expected-slack + fair shares)
//   "instantiation": "pooled",   // | "cold" (fresh memory and stack)
//   "bounds": "vm_guard",        // | "software" | "mpx_sim" | "none"
//   "budget_us": 0,          // per-request CPU budget; over-budget -> 504
//   "deadline_us": 0,        // wall-clock deadline from admission -> 504
//   "max_pending": 0,        // shed with 503 beyond this many in flight
//   "drain_grace_ms": 2000,  // graceful-stop bound for in-flight requests
//   "max_sandbox_fds": 8,    // per-sandbox open outbound-socket cap
//   "max_invoke_depth": 4,   // sb_invoke chain depth cap (top level = 0)
//   "invoke_dataplane": "shm",  // | "copy" (per-request vector copies)
//   "admin_endpoint": true,  // GET /admin/stats (JSON) + /admin/metrics
//   "access_log": "",        // per-request JSON lines file ("" = off)
//   "modules": [
//     {"name": "fib", "wasm": "path/to/fib.wasm"},
//     {"name": "ekf", "minicc": "src/apps/wasm_src/ekf.mc",
//      "budget_us": 50000, "deadline_us": 200000,   // per-module overrides
//      "tenant_weight": 2}   // fair-share weight (admission = "slack")
//   ]
// }
//
// Any other key, top level or per module, is an error naming the key.
// Modules run AoT-compiled (the `aot` tier), so the host needs a C
// compiler. Functions are served at POST /<name>. SIGINT/SIGTERM shut down
// cleanly.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/file_util.hpp"
#include "common/json.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"

using namespace sledge;

namespace {

std::atomic<bool> g_shutdown{false};
void on_signal(int) { g_shutdown.store(true); }

// A typo or a retired key must fail loudly, not run silently on defaults.
Status check_keys(const json::Value& obj,
                  std::initializer_list<std::string_view> known,
                  const std::string& where) {
  for (const auto& [key, value] : obj.as_object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::error(where + "unknown config key: " + key);
    }
  }
  return Status::ok();
}

Result<runtime::RuntimeConfig> parse_config(const json::Value& doc) {
  Status keys = check_keys(
      doc,
      {"port", "workers", "quantum_us", "policy", "scheduler", "admission",
       "instantiation", "bounds", "budget_us", "deadline_us",
       "max_pending", "drain_grace_ms", "max_sandbox_fds", "max_invoke_depth",
       "invoke_dataplane", "admin_endpoint", "access_log", "modules"},
      "");
  if (!keys.is_ok()) {
    return Result<runtime::RuntimeConfig>::error(keys.message());
  }
  runtime::RuntimeConfig cfg;
  cfg.port = static_cast<uint16_t>(doc["port"].as_int(0));
  cfg.workers = static_cast<int>(doc["workers"].as_int(3));
  cfg.quantum_us = static_cast<uint64_t>(doc["quantum_us"].as_int(5000));
  cfg.execution_budget_ns =
      static_cast<uint64_t>(doc["budget_us"].as_int(0)) * 1000;
  cfg.deadline_ns = static_cast<uint64_t>(doc["deadline_us"].as_int(0)) * 1000;
  cfg.max_pending = doc["max_pending"].as_int(0);
  cfg.drain_grace_ns =
      static_cast<uint64_t>(doc["drain_grace_ms"].as_int(2000)) * 1'000'000;
  cfg.max_sandbox_fds = static_cast<int>(doc["max_sandbox_fds"].as_int(8));
  cfg.max_invoke_depth = static_cast<int>(doc["max_invoke_depth"].as_int(4));
  const std::string& dataplane = doc["invoke_dataplane"].as_string();
  if (dataplane == "copy") {
    cfg.invoke_dataplane = runtime::InvokeDataplane::kCopy;
  } else if (dataplane.empty() || dataplane == "shm") {
    cfg.invoke_dataplane = runtime::InvokeDataplane::kShm;
  } else {
    return Result<runtime::RuntimeConfig>::error("unknown invoke_dataplane: " +
                                                 dataplane);
  }
  if (doc["admin_endpoint"].is_bool()) {
    cfg.admin_endpoint = doc["admin_endpoint"].as_bool();
  }
  cfg.access_log_path = doc["access_log"].as_string();

  const std::string& policy = doc["policy"].as_string();
  if (policy == "global_lock") {
    cfg.policy = runtime::DistPolicy::kGlobalLock;
  } else if (policy == "per_worker") {
    cfg.policy = runtime::DistPolicy::kPerWorker;
  } else if (policy.empty() || policy == "work_stealing") {
    cfg.policy = runtime::DistPolicy::kWorkStealing;
  } else {
    return Result<runtime::RuntimeConfig>::error("unknown policy: " + policy);
  }

  const std::string& admission = doc["admission"].as_string();
  if (admission == "slack") {
    cfg.admission = runtime::AdmissionPolicy::kExpectedSlack;
  } else if (admission.empty() || admission == "depth") {
    cfg.admission = runtime::AdmissionPolicy::kQueueDepth;
  } else {
    return Result<runtime::RuntimeConfig>::error("unknown admission: " +
                                                 admission);
  }

  const std::string& sched = doc["scheduler"].as_string();
  if (sched == "fifo") {
    cfg.sched = runtime::SchedPolicy::kFifoRunToCompletion;
  } else if (sched.empty() || sched == "round_robin" || sched == "rr") {
    cfg.sched = runtime::SchedPolicy::kRoundRobin;
  } else {
    return Result<runtime::RuntimeConfig>::error("unknown scheduler: " +
                                                 sched);
  }

  const std::string& inst = doc["instantiation"].as_string();
  if (inst == "cold") {
    cfg.instantiation = runtime::InstantiationMode::kCold;
  } else if (inst.empty() || inst == "pooled") {
    cfg.instantiation = runtime::InstantiationMode::kPooled;
  } else {
    return Result<runtime::RuntimeConfig>::error("unknown instantiation: " +
                                                 inst);
  }
  const std::string& bounds = doc["bounds"].as_string();
  if (bounds == "software") {
    cfg.engine.strategy = engine::BoundsStrategy::kSoftware;
  } else if (bounds == "mpx_sim") {
    cfg.engine.strategy = engine::BoundsStrategy::kMpxSim;
  } else if (bounds == "none") {
    cfg.engine.strategy = engine::BoundsStrategy::kNone;
  } else if (bounds.empty() || bounds == "vm_guard") {
    cfg.engine.strategy = engine::BoundsStrategy::kVmGuard;
  } else {
    return Result<runtime::RuntimeConfig>::error("unknown bounds: " + bounds);
  }
  return Result<runtime::RuntimeConfig>(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  ::setvbuf(stdout, nullptr, _IOLBF, 0);  // line-buffered even when piped
  if (argc != 2) {
    std::fprintf(stderr, "usage: sledged <config.json>\n");
    return 2;
  }
  auto text = read_file(argv[1]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.error_message().c_str());
    return 1;
  }
  auto doc = json::parse(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.error_message().c_str());
    return 1;
  }
  auto cfg = parse_config(*doc);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.error_message().c_str());
    return 1;
  }

  runtime::Runtime rt(*cfg);

  for (const json::Value& module : (*doc)["modules"].as_array()) {
    const std::string& name = module["name"].as_string();
    if (name.empty()) {
      std::fprintf(stderr, "module without a name\n");
      return 1;
    }
    Status keys = check_keys(module,
                             {"name", "wasm", "minicc", "budget_us",
                              "deadline_us", "tenant_weight"},
                             "module " + name + ": ");
    if (!keys.is_ok()) {
      std::fprintf(stderr, "%s\n", keys.message().c_str());
      return 1;
    }
    std::vector<uint8_t> wasm_bytes;
    if (module["wasm"].is_string()) {
      auto bytes = read_file(module["wasm"].as_string());
      if (!bytes.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     bytes.error_message().c_str());
        return 1;
      }
      wasm_bytes.assign(bytes->begin(), bytes->end());
    } else if (module["minicc"].is_string()) {
      auto src = read_file(module["minicc"].as_string());
      if (!src.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     src.error_message().c_str());
        return 1;
      }
      auto wasm = minicc::compile_to_wasm(*src);
      if (!wasm.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     wasm.error_message().c_str());
        return 1;
      }
      wasm_bytes = wasm.take();
    } else {
      std::fprintf(stderr, "module %s needs \"wasm\" or \"minicc\"\n",
                   name.c_str());
      return 1;
    }
    runtime::ModuleLimits limits;
    limits.execution_budget_ns =
        static_cast<uint64_t>(module["budget_us"].as_int(0)) * 1000;
    limits.deadline_ns =
        static_cast<uint64_t>(module["deadline_us"].as_int(0)) * 1000;
    limits.tenant_weight =
        static_cast<uint32_t>(module["tenant_weight"].as_int(0));
    Status s = rt.register_module(name, wasm_bytes, limits);
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.message().c_str());
      return 1;
    }
    std::printf("loaded /%s (%zu bytes)\n", name.c_str(), wasm_bytes.size());
  }

  Status s = rt.start();
  if (!s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  std::printf("sledged on 127.0.0.1:%u — Ctrl-C to stop\n", rt.bound_port());
  if (cfg->admin_endpoint) {
    std::printf("live stats: GET /admin/stats (JSON), /admin/metrics "
                "(Prometheus)\n");
  }

  ::signal(SIGINT, on_signal);
  ::signal(SIGTERM, on_signal);
  while (!g_shutdown.load()) ::usleep(100000);

  rt.stop();  // drains in-flight requests (bounded by drain_grace_ms)
  std::printf("\n%s", rt.stats_report().c_str());
  return 0;
}
