// Tier 3 back half: the AoT module loader and instance manager.
//
// AotModule::begin_compile + Pending::finish perform the expensive pipeline
// once (translate to C, compile to .so, dlopen, dlsym) — the paper's
// "heavyweight linking and loading". begin_compile() returns once the
// compiler is forked, so several modules can compile side by side.
// AotModule::instantiate is the cheap per-request path: allocate
// linear memory + a small instance block, run the generated initializer.
// This split is what gives Sledge its microsecond-scale function startup
// (Table 3 in the paper).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "engine/aot_abi.hpp"
#include "engine/cc_driver.hpp"
#include "engine/host.hpp"
#include "engine/interp.hpp"
#include "engine/memory.hpp"
#include "wasm/module.hpp"

namespace sledge::engine {

class AotModule;

// One live sandbox instance of an AoT-compiled module. Move-only; owns its
// linear memory and instance block.
class AotInstanceHandle {
 public:
  AotInstanceHandle() = default;
  AotInstanceHandle(AotInstanceHandle&&) noexcept = default;
  AotInstanceHandle& operator=(AotInstanceHandle&&) noexcept = default;

  bool valid() const { return inst_ != nullptr; }
  LinearMemory& memory() { return memory_; }
  const LinearMemory& memory() const { return memory_; }
  // Per-request host context (ServerlessEnv*).
  void set_host_user(void* user) { run_ctx_->host_user = user; }

  InvokeOutcome invoke(uint32_t func_index, const std::vector<Value>& args);
  InvokeOutcome invoke_export(const std::string& name,
                              const std::vector<Value>& args);

  // Shared with the AotEnv callbacks (generated code -> runtime).
  struct RunContext {
    const AotModule* module = nullptr;
    LinearMemory* memory = nullptr;
    void* host_user = nullptr;
    HostDepth host_depth;
  };
  const HostDepth& host_depth() const { return run_ctx_->host_depth; }

 private:
  friend class AotModule;

  const AotModule* module_ = nullptr;
  LinearMemory memory_;
  std::unique_ptr<uint8_t[]> inst_storage_;
  AotInst* inst_ = nullptr;
  std::unique_ptr<RunContext> run_ctx_;
  std::unique_ptr<AotBnd[]> bounds_dir_;
};

class AotModule {
 public:
  struct Options {
    BoundsStrategy strategy = BoundsStrategy::kVmGuard;
    int opt_level = 2;
    uint32_t default_max_pages = 4096;  // cap for modules without a max
  };

  AotModule() = default;
  ~AotModule();
  AotModule(AotModule&& o) noexcept { *this = std::move(o); }
  AotModule& operator=(AotModule&& o) noexcept;
  AotModule(const AotModule&) = delete;
  AotModule& operator=(const AotModule&) = delete;

  class Pending;

  // Resolves the imports, emits the C and forks the compiler on it;
  // Pending::finish() yields the loaded module. `module` and `hosts` must
  // outlive the AotModule.
  static Result<Pending> begin_compile(const wasm::Module& module,
                                       const HostRegistry& hosts,
                                       const Options& options);

  // `recycled`, when valid, is an already-reset() pooled linear memory used
  // instead of a fresh mapping (the warm-start path).
  Result<AotInstanceHandle> instantiate(
      LinearMemory recycled = LinearMemory()) const;

  // Resolved host binding for import `idx` (joint function index space).
  const HostBinding* import_binding(uint32_t idx) const {
    return imports_[idx];
  }

  const wasm::Module& module() const { return *module_; }
  int64_t so_size_bytes() const { return cc_result_.so_size; }
  const std::string& so_path() const { return cc_result_.so_path; }
  BoundsStrategy strategy() const { return options_.strategy; }

 private:
  friend class AotInstanceHandle;

  void release();

  const wasm::Module* module_ = nullptr;
  std::vector<const HostBinding*> imports_;
  Options options_;
  CcResult cc_result_;
  void* dl_handle_ = nullptr;
  AotGetDescFn get_desc_ = nullptr;
  AotInstInitFn inst_init_ = nullptr;
  AotInvokeFn invoke_ = nullptr;
  const AotDesc* desc_ = nullptr;
};

// An AotModule whose compiler is still running. Destroying it unfinished
// waits for the compiler and removes its temp dir (see CcJob).
class AotModule::Pending {
 public:
  // Reaps the compiler, dlopens the .so and resolves its ABI symbols.
  Result<AotModule> finish() &&;

 private:
  friend class AotModule;

  AotModule module_;
  CcJob job_;
};

}  // namespace sledge::engine
