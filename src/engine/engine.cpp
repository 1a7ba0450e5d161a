#include "engine/engine.hpp"

#include <utility>

#include "common/clock.hpp"
#include "wasm/decoder.hpp"
#include "wasm/validator.hpp"

namespace sledge::engine {

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::kInterp: return "interp";
    case Tier::kInterpFast: return "interp_fast";
    case Tier::kAotO0: return "aot_o0";
    case Tier::kAot: return "aot";
  }
  return "?";
}

bool tier_needs_cc(Tier tier) {
  return tier == Tier::kAotO0 || tier == Tier::kAot;
}

Result<WasmModule> WasmModule::load(const std::vector<uint8_t>& wasm_bytes,
                                    const Config& config,
                                    const HostRegistry& hosts) {
  Result<PendingLoad> pending = begin_load(wasm_bytes, config, hosts);
  if (!pending.ok()) return Result<WasmModule>::error(pending.error_message());
  return pending.take().finish();
}

Result<WasmModule::PendingLoad> WasmModule::begin_load(
    const std::vector<uint8_t>& wasm_bytes, const Config& config,
    const HostRegistry& hosts) {
  PendingLoad pending;
  pending.begin_ns_ = now_ns();
  WasmModule& out = pending.module_;
  out.config_ = config;
  out.hosts_ = &hosts;

  Result<wasm::Module> decoded = wasm::decode(wasm_bytes);
  if (!decoded.ok()) return Result<PendingLoad>::error(decoded.error_message());
  out.module_ = std::make_unique<wasm::Module>(decoded.take());

  Status valid = wasm::validate(*out.module_);
  if (!valid.is_ok()) return Result<PendingLoad>::error(valid.message());

  switch (config.tier) {
    case Tier::kInterp:
      break;
    case Tier::kInterpFast: {
      Result<FastModule> fast = predecode(*out.module_);
      if (!fast.ok()) return Result<PendingLoad>::error(fast.error_message());
      out.fast_ = std::make_unique<FastModule>(fast.take());
      break;
    }
    case Tier::kAotO0:
    case Tier::kAot: {
      AotModule::Options options;
      options.strategy = config.strategy;
      options.opt_level = config.tier == Tier::kAotO0 ? 1 : 2;
      options.default_max_pages = config.default_max_pages;
      Result<AotModule::Pending> aot =
          AotModule::begin_compile(*out.module_, hosts, options);
      if (!aot.ok()) return Result<PendingLoad>::error(aot.error_message());
      pending.aot_ = std::make_unique<AotModule::Pending>(aot.take());
      break;
    }
  }
  return Result<PendingLoad>(std::move(pending));
}

Result<WasmModule> WasmModule::PendingLoad::finish() && {
  WasmModule out = std::move(module_);
  if (aot_) {
    Result<AotModule> aot = std::move(*aot_).finish();
    if (!aot.ok()) return Result<WasmModule>::error(aot.error_message());
    out.aot_ = std::make_unique<AotModule>(aot.take());
  }
  out.load_ns_ = now_ns() - begin_ns_;
  return Result<WasmModule>(std::move(out));
}

WasmModule::MemorySpec WasmModule::memory_spec() const {
  MemorySpec spec;
  spec.strategy = config_.strategy;
  if (!module_ || !module_->memory) return spec;
  spec.has_memory = true;
  spec.min_pages = module_->memory->min;
  spec.max_pages = module_->memory->has_max ? module_->memory->max
                                            : config_.default_max_pages;
  if (spec.max_pages < spec.min_pages) spec.max_pages = spec.min_pages;
  return spec;
}

Result<WasmSandbox> WasmModule::instantiate(LinearMemory recycled) const {
  WasmSandbox sandbox;
  sandbox.owner_ = this;

  if (aot_) {
    Result<AotInstanceHandle> inst = aot_->instantiate(std::move(recycled));
    if (!inst.ok()) return Result<WasmSandbox>::error(inst.error_message());
    sandbox.aot_ = inst.take();
  } else {
    Result<Instance> inst = Instance::instantiate(
        *module_, config_.strategy, *hosts_, config_.default_max_pages,
        std::move(recycled));
    if (!inst.ok()) return Result<WasmSandbox>::error(inst.error_message());
    sandbox.instance_ = std::make_unique<Instance>(inst.take());
  }

  // Run the start function, if declared.
  if (module_->start) {
    InvokeOutcome start;
    if (aot_) {
      start = sandbox.aot_.invoke(*module_->start, {});
    } else if (config_.tier == Tier::kInterpFast) {
      FastInterpreter fi(*sandbox.instance_, *fast_);
      start = fi.invoke(*module_->start, {});
    } else {
      Interpreter it(*sandbox.instance_);
      start = it.invoke(*module_->start, {});
    }
    if (!start.ok()) {
      return Result<WasmSandbox>::error("start function failed: " +
                                        start.describe());
    }
  }
  return Result<WasmSandbox>(std::move(sandbox));
}

const LinearMemory* WasmSandbox::memory() const {
  if (aot_.valid()) {
    const LinearMemory& m = aot_.memory();
    return m.valid() ? &m : nullptr;
  }
  if (instance_) {
    const LinearMemory& m = instance_->memory();
    return m.valid() ? &m : nullptr;
  }
  return nullptr;
}

bool WasmSandbox::in_host_call() const {
  return !aot_.valid() || aot_.host_depth().in_host();
}

InvokeOutcome WasmSandbox::call(const std::string& export_name,
                                const std::vector<Value>& args,
                                ServerlessEnv* env) {
  const WasmModule& m = *owner_;
  if (m.aot_) {
    aot_.set_host_user(env);
    InvokeOutcome out = aot_.invoke_export(export_name, args);
    aot_.set_host_user(nullptr);
    return out;
  }
  instance_->host_user = env;
  InvokeOutcome out;
  if (m.config_.tier == Tier::kInterpFast) {
    FastInterpreter fi(*instance_, *m.fast_);
    out = fi.invoke_export(export_name, args);
  } else {
    Interpreter it(*instance_);
    out = it.invoke_export(export_name, args);
  }
  instance_->host_user = nullptr;
  return out;
}

LinearMemory WasmSandbox::reclaim_memory() {
  if (aot_.valid()) return std::move(aot_.memory());
  if (instance_) return std::move(instance_->memory());
  return LinearMemory();
}

InvokeOutcome WasmSandbox::run_serverless(const std::vector<uint8_t>& request,
                                          std::vector<uint8_t>* response) {
  ServerlessEnv env;
  env.request = request;
  InvokeOutcome out = call("run", {}, &env);
  if (response) *response = std::move(env.response);
  return out;
}

}  // namespace sledge::engine
