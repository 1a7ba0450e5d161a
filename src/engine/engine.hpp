// Public facade over the execution tiers.
//
//   WasmModule::load — the once-per-module "heavyweight" path: decode,
//     validate, and prepare the chosen tier (predecode for the fast
//     interpreter; translate + cc + dlopen for the AoT tiers).
//     begin_load() + PendingLoad::finish() split it where the AoT compiler
//     runs, so a caller can keep several compilers busy at once.
//   WasmModule::instantiate — the per-request path: a fresh sandbox with its
//     own linear memory, globals and (for Sledge) request/response context.
//
// Tiers (see DESIGN.md for how they map onto the paper's Figure 5 runtimes):
//   kInterp     classic interpreter        (slow comparator runtimes)
//   kInterpFast pre-decoded interpreter    (mid-tier comparators)
//   kAotO0      wasm->C-> cc -O1 .so       (fast-compile/slower-code, Cranelift-like)
//   kAot        wasm->C-> cc -O2 .so       (aWsm proper)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "engine/aot.hpp"
#include "engine/host.hpp"
#include "engine/instance.hpp"
#include "engine/interp.hpp"
#include "engine/interp_fast.hpp"
#include "engine/memory.hpp"
#include "engine/predecode.hpp"

namespace sledge::engine {

enum class Tier : uint8_t { kInterp, kInterpFast, kAotO0, kAot };

const char* to_string(Tier tier);
bool tier_needs_cc(Tier tier);

class WasmModule;

// A live sandbox: per-request execution state for one module instance.
class WasmSandbox {
 public:
  WasmSandbox() = default;
  WasmSandbox(WasmSandbox&&) noexcept = default;
  WasmSandbox& operator=(WasmSandbox&&) noexcept = default;

  // Invokes an exported function. `env` (optional) backs the serverless ABI
  // imports for the duration of the call.
  InvokeOutcome call(const std::string& export_name,
                     const std::vector<Value>& args,
                     ServerlessEnv* env = nullptr);

  // Convenience for the standard serverless entrypoint "run": feeds
  // `request`, returns the function's response buffer.
  InvokeOutcome run_serverless(const std::vector<uint8_t>& request,
                               std::vector<uint8_t>* response);

  // End-of-life: extracts the linear memory so the caller can recycle it
  // into a resource pool instead of unmapping. The sandbox must not be
  // invoked afterwards. Returns an invalid memory for memory-less modules.
  LinearMemory reclaim_memory();

  // The sandbox's linear memory, or nullptr for memory-less modules.
  const LinearMemory* memory() const;

  // True unless AoT guest code is running with no engine->host call in
  // progress (see HostDepth). Always true on the interpreter tiers, which
  // allocate inside guest code. Async-signal-safe.
  bool in_host_call() const;

 private:
  friend class WasmModule;

  const WasmModule* owner_ = nullptr;
  std::unique_ptr<Instance> instance_;  // interp tiers
  AotInstanceHandle aot_;               // aot tiers
};

class WasmModule {
 public:
  struct Config {
    Tier tier = Tier::kAot;
    BoundsStrategy strategy = BoundsStrategy::kVmGuard;
    uint32_t default_max_pages = 4096;
  };

  WasmModule() = default;
  WasmModule(WasmModule&&) noexcept = default;
  WasmModule& operator=(WasmModule&&) noexcept = default;

  class PendingLoad;

  static Result<WasmModule> load(const std::vector<uint8_t>& wasm_bytes,
                                 const Config& config,
                                 const HostRegistry& hosts =
                                     default_host_registry());
  // Everything load() does up to forking the AoT compiler (decode and
  // validation errors are reported here); PendingLoad::finish() does the
  // rest. The interpreter tiers are ready at once.
  static Result<PendingLoad> begin_load(const std::vector<uint8_t>& wasm_bytes,
                                        const Config& config,
                                        const HostRegistry& hosts =
                                            default_host_registry());

  // `recycled`, when valid, is a pooled linear memory (already reset() to
  // this module's spec) adopted instead of a fresh per-request mapping.
  Result<WasmSandbox> instantiate(LinearMemory recycled = LinearMemory()) const;

  // What a sandbox of this module needs from a resource pool. min/max are 0
  // (and has_memory false) for modules that declare no linear memory.
  struct MemorySpec {
    bool has_memory = false;
    uint32_t min_pages = 0;
    uint32_t max_pages = 0;
    BoundsStrategy strategy = BoundsStrategy::kVmGuard;
  };
  MemorySpec memory_spec() const;

  const wasm::Module& module() const { return *module_; }
  const Config& config() const { return config_; }
  uint64_t load_ns() const { return load_ns_; }
  // AoT artifact size (-1 for interpreter tiers).
  int64_t native_object_size() const {
    return aot_ ? aot_->so_size_bytes() : -1;
  }

 private:
  friend class WasmSandbox;

  Config config_;
  const HostRegistry* hosts_ = nullptr;
  std::unique_ptr<wasm::Module> module_;
  std::unique_ptr<FastModule> fast_;    // kInterpFast
  std::unique_ptr<AotModule> aot_;      // kAotO0 / kAot
  uint64_t load_ns_ = 0;
};

// A WasmModule whose AoT compiler may still be running. Destroying it
// unfinished waits for the compiler and removes its temp dir.
class WasmModule::PendingLoad {
 public:
  // Reaps the compiler and loads the .so; load_ns() then spans begin_load()
  // to here.
  Result<WasmModule> finish() &&;

 private:
  friend class WasmModule;

  WasmModule module_;
  std::unique_ptr<AotModule::Pending> aot_;  // null unless an AoT tier
  uint64_t begin_ns_ = 0;
};

}  // namespace sledge::engine
