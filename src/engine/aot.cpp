#include "engine/aot.hpp"

#include <dlfcn.h>

#include <cstring>
#include <utility>

#include "engine/wasm2c.hpp"

namespace sledge::engine {

namespace {

// AotEnv callbacks: generated code calls back into the runtime through
// these. They run inside the invoking thread's TrapScope.

[[noreturn]] void env_trap(AotInst*, int32_t code) {
  raise_trap(static_cast<TrapCode>(code));
}

int32_t env_memory_grow(AotInst* inst, uint32_t delta_pages) {
  auto* ctx = static_cast<AotInstanceHandle::RunContext*>(inst->rt);
  HostDepth::Call in_host(ctx->host_depth);
  int32_t old_pages = ctx->memory->grow(delta_pages);
  if (old_pages >= 0) {
    inst->mem_size = ctx->memory->size_bytes();
    if (inst->bnd) {
      for (int i = 0; i < kBoundsDirEntries; ++i) {
        inst->bnd[i].hi = inst->mem_size;
      }
    }
  }
  return old_pages;
}

uint64_t env_host_call(AotInst* inst, uint32_t import_index,
                       const uint64_t* args) {
  auto* ctx = static_cast<AotInstanceHandle::RunContext*>(inst->rt);
  const HostBinding* binding = ctx->module->import_binding(import_index);
  size_t nargs = binding->type.params.size();
  Slot slots[16];
  for (size_t i = 0; i < nargs && i < 16; ++i) {
    slots[i] = Slot::from_u64(args[i]);
  }
  HostCallCtx hctx{MemView{inst->mem, inst->mem_size}, ctx->host_user};
  HostDepth::Call in_host(ctx->host_depth);
  Slot r = binding->fn(hctx, slots);
  return r.bits;
}

const AotEnv kAotEnv = {env_trap, env_memory_grow, env_host_call};

}  // namespace

AotModule::~AotModule() { release(); }

AotModule& AotModule::operator=(AotModule&& o) noexcept {
  if (this != &o) {
    release();
    module_ = std::exchange(o.module_, nullptr);
    imports_ = std::move(o.imports_);
    options_ = o.options_;
    cc_result_ = std::exchange(o.cc_result_, CcResult{});
    dl_handle_ = std::exchange(o.dl_handle_, nullptr);
    get_desc_ = std::exchange(o.get_desc_, nullptr);
    inst_init_ = std::exchange(o.inst_init_, nullptr);
    invoke_ = std::exchange(o.invoke_, nullptr);
    desc_ = std::exchange(o.desc_, nullptr);
  }
  return *this;
}

void AotModule::release() {
  if (dl_handle_) {
    ::dlclose(dl_handle_);
    dl_handle_ = nullptr;
  }
  remove_work_dir(cc_result_);
  cc_result_ = CcResult{};
}

Result<AotModule::Pending> AotModule::begin_compile(const wasm::Module& module,
                                                    const HostRegistry& hosts,
                                                    const Options& options) {
  Pending out;
  out.module_.module_ = &module;
  out.module_.options_ = options;

  // Resolve imports up front (same checks as Instance::instantiate).
  for (const wasm::Import& imp : module.imports) {
    const HostBinding* binding = hosts.lookup(imp.module, imp.field);
    if (!binding) {
      return Result<Pending>::error("unresolved import " + imp.module + "." +
                                    imp.field);
    }
    if (!(binding->type == module.types[imp.type_index])) {
      return Result<Pending>::error("import type mismatch for " + imp.module +
                                    "." + imp.field);
    }
    out.module_.imports_.push_back(binding);
  }

  Wasm2COptions w2c;
  w2c.strategy = options.strategy;
  Result<std::string> c_source = wasm_to_c(module, w2c);
  if (!c_source.ok()) return Result<Pending>::error(c_source.error_message());

  CcOptions cc;
  cc.opt_level = options.opt_level;
  Result<CcJob> job = start_compile(c_source.value(), cc);
  if (!job.ok()) return Result<Pending>::error(job.error_message());
  out.job_ = job.take();
  return Result<Pending>(std::move(out));
}

Result<AotModule> AotModule::Pending::finish() && {
  AotModule out = std::move(module_);
  Result<CcResult> compiled = finish_compile(std::move(job_));
  if (!compiled.ok()) return Result<AotModule>::error(compiled.error_message());
  out.cc_result_ = compiled.take();

  out.dl_handle_ = ::dlopen(out.cc_result_.so_path.c_str(),
                            RTLD_NOW | RTLD_LOCAL);
  if (!out.dl_handle_) {
    return Result<AotModule>::error(std::string("dlopen failed: ") +
                                    ::dlerror());
  }
  out.get_desc_ = reinterpret_cast<AotGetDescFn>(
      ::dlsym(out.dl_handle_, "awsm_get_desc"));
  out.inst_init_ = reinterpret_cast<AotInstInitFn>(
      ::dlsym(out.dl_handle_, "awsm_inst_init"));
  out.invoke_ =
      reinterpret_cast<AotInvokeFn>(::dlsym(out.dl_handle_, "awsm_invoke"));
  if (!out.get_desc_ || !out.inst_init_ || !out.invoke_) {
    return Result<AotModule>::error("generated .so missing ABI symbols");
  }
  out.desc_ = out.get_desc_();

  return Result<AotModule>(std::move(out));
}

Result<AotInstanceHandle> AotModule::instantiate(LinearMemory recycled) const {
  AotInstanceHandle h;
  h.module_ = this;

  if (module_->memory) {
    if (recycled.valid() && recycled.strategy() == options_.strategy &&
        recycled.pages() >= module_->memory->min) {
      h.memory_ = std::move(recycled);
    } else {
      uint32_t max = module_->memory->has_max ? module_->memory->max
                                              : options_.default_max_pages;
      if (max < module_->memory->min) max = module_->memory->min;
      auto mem =
          LinearMemory::create(options_.strategy, module_->memory->min, max);
      if (!mem.ok()) {
        return Result<AotInstanceHandle>::error(mem.error_message());
      }
      h.memory_ = mem.take();
    }
  }

  h.inst_storage_ = std::make_unique<uint8_t[]>(desc_->inst_size);
  std::memset(h.inst_storage_.get(), 0, desc_->inst_size);
  h.inst_ = reinterpret_cast<AotInst*>(h.inst_storage_.get());

  h.run_ctx_ = std::make_unique<AotInstanceHandle::RunContext>();
  h.run_ctx_->module = this;
  h.run_ctx_->memory = &h.memory_;

  h.inst_->mem = h.memory_.base();
  h.inst_->mem_size = h.memory_.size_bytes();
  h.inst_->env = &kAotEnv;
  h.inst_->rt = h.run_ctx_.get();

  if (options_.strategy == BoundsStrategy::kMpxSim) {
    h.bounds_dir_ = std::make_unique<AotBnd[]>(kBoundsDirEntries);
    for (int i = 0; i < kBoundsDirEntries; ++i) {
      h.bounds_dir_[i] = {0, h.inst_->mem_size};
    }
    h.inst_->bnd = h.bounds_dir_.get();
  }

  inst_init_(h.inst_);

  return Result<AotInstanceHandle>(std::move(h));
}

InvokeOutcome AotInstanceHandle::invoke_export(const std::string& name,
                                               const std::vector<Value>& args) {
  const wasm::Export* exp =
      module_->module().find_export(name, wasm::ExternalKind::kFunction);
  if (!exp) return InvokeOutcome::failed("no exported function '" + name + "'");
  return invoke(exp->index, args);
}

InvokeOutcome AotInstanceHandle::invoke(uint32_t func_index,
                                        const std::vector<Value>& args) {
  const wasm::FuncType& ft = module_->module().func_type(func_index);
  if (args.size() != ft.params.size()) {
    return InvokeOutcome::failed("argument count mismatch");
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].type != ft.params[i]) {
      return InvokeOutcome::failed("argument type mismatch");
    }
  }

  // Copied out before sigsetjmp so nothing live spans the longjmp.
  const bool has_result = !ft.results.empty();
  const wasm::ValType result_type =
      has_result ? ft.results[0] : wasm::ValType::kI32;

  std::vector<uint64_t> raw_args;
  raw_args.reserve(args.size());
  for (const Value& v : args) raw_args.push_back(v.slot.bits);

  // The memory pointer is stable, but the size may have changed on a
  // previous trap-unwound invocation; refresh both. The RunContext memory
  // pointer is also re-anchored here because the handle may have been moved
  // since instantiate().
  run_ctx_->memory = &memory_;
  inst_->mem = memory_.base();
  inst_->mem_size = memory_.size_bytes();

  uint64_t raw_ret = 0;
  TrapFrame frame;
  if (sigsetjmp(frame.env, 1) == 0) {
    TrapScope scope(&frame);
    run_ctx_->host_depth.enter_guest();
    int32_t rc = module_->invoke_(inst_, func_index, raw_args.data(), &raw_ret);
    run_ctx_->host_depth.leave_guest();
    if (rc != 0) {
      return InvokeOutcome::failed("function not reachable via dispatcher");
    }
  } else {
    run_ctx_->host_depth.leave_guest();
    inst_->call_depth = 0;  // unwound mid-call; reset the guard
    return InvokeOutcome::trapped(frame.code);
  }

  InvokeOutcome out;
  if (has_result) {
    out.value = Value(result_type, Slot::from_u64(raw_ret));
  }
  return out;
}

}  // namespace sledge::engine
