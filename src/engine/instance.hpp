// Instantiated module state for the interpreter tiers: linear memory,
// globals, the indirect-call table, and resolved host imports.
//
// The AoT tier keeps its own instance layout inside generated code (see
// wasm2c.cpp / aot.cpp); both implement the same semantics.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "engine/host.hpp"
#include "engine/memory.hpp"
#include "engine/value.hpp"
#include "wasm/module.hpp"

namespace sledge::engine {

class Instance {
 public:
  // Table entry: resolved function index plus the *canonical* type id used
  // for call_indirect signature checks (the dynamic half of CFI).
  struct TableEntry {
    int32_t func_index = -1;  // -1 = null entry
    uint32_t canon_type = 0;
  };

  // `module` and `hosts` must outlive the instance. default_max_pages caps
  // memory growth for modules that declare no maximum. `recycled`, when
  // valid, is an already-reset() pooled linear memory used instead of a
  // fresh mapping (the warm-start path); it must match the module's
  // strategy and committed min size.
  static Result<Instance> instantiate(const wasm::Module& module,
                                      BoundsStrategy strategy,
                                      const HostRegistry& hosts,
                                      uint32_t default_max_pages = 4096,
                                      LinearMemory recycled = LinearMemory());

  const wasm::Module& module() const { return *module_; }
  LinearMemory& memory() { return memory_; }
  const LinearMemory& memory() const { return memory_; }
  std::vector<Slot>& globals() { return globals_; }
  std::vector<TableEntry>& table() { return table_; }

  const HostBinding* import_binding(uint32_t import_index) const {
    return imports_[import_index];
  }

  // Canonical (structural) type id for call_indirect comparisons.
  uint32_t canon_type_id(uint32_t type_index) const {
    return canon_ids_[type_index];
  }

  MemView mem_view() {
    return MemView{memory_.base(), memory_.size_bytes()};
  }

  // Per-request opaque pointer handed to host functions (ServerlessEnv*).
  void* host_user = nullptr;

 private:
  Instance() = default;

  const wasm::Module* module_ = nullptr;
  LinearMemory memory_;
  std::vector<Slot> globals_;
  std::vector<TableEntry> table_;
  std::vector<const HostBinding*> imports_;
  std::vector<uint32_t> canon_ids_;
};

}  // namespace sledge::engine
