#include "engine/instance.hpp"

#include <cstring>
#include <utility>

namespace sledge::engine {

Result<Instance> Instance::instantiate(const wasm::Module& module,
                                       BoundsStrategy strategy,
                                       const HostRegistry& hosts,
                                       uint32_t default_max_pages,
                                       LinearMemory recycled) {
  Instance inst;
  inst.module_ = &module;

  // Resolve imports against the host registry, checking signatures.
  for (const wasm::Import& imp : module.imports) {
    const HostBinding* binding = hosts.lookup(imp.module, imp.field);
    if (!binding) {
      return Result<Instance>::error("unresolved import " + imp.module + "." +
                                     imp.field);
    }
    if (!(binding->type == module.types[imp.type_index])) {
      return Result<Instance>::error(
          "import type mismatch for " + imp.module + "." + imp.field +
          ": module wants " + module.types[imp.type_index].to_string() +
          ", host provides " + binding->type.to_string());
    }
    inst.imports_.push_back(binding);
  }

  // Memory: adopt the pooled region when one was handed in, else map fresh.
  if (module.memory) {
    if (recycled.valid() && recycled.strategy() == strategy &&
        recycled.pages() >= module.memory->min) {
      inst.memory_ = std::move(recycled);
    } else {
      uint32_t max = module.memory->has_max ? module.memory->max
                                            : default_max_pages;
      if (max < module.memory->min) max = module.memory->min;
      auto mem = LinearMemory::create(strategy, module.memory->min, max);
      if (!mem.ok()) return Result<Instance>::error(mem.error_message());
      inst.memory_ = mem.take();
    }
  }

  // Globals.
  for (const wasm::GlobalDef& g : module.globals) {
    inst.globals_.push_back(Slot::from_u64(g.init_value));
  }

  // Canonical type ids (structural equality) for CFI checks.
  inst.canon_ids_.resize(module.types.size());
  for (size_t i = 0; i < module.types.size(); ++i) {
    uint32_t canon = static_cast<uint32_t>(i);
    for (size_t j = 0; j < i; ++j) {
      if (module.types[j] == module.types[i]) {
        canon = static_cast<uint32_t>(j);
        break;
      }
    }
    inst.canon_ids_[i] = canon;
  }

  // Indirect-call table.
  if (module.table) {
    inst.table_.resize(module.table->min);
    for (const wasm::ElementSegment& seg : module.elements) {
      for (size_t k = 0; k < seg.func_indices.size(); ++k) {
        uint32_t func = seg.func_indices[k];
        uint32_t type_index =
            func < module.num_imported_funcs()
                ? module.imports[func].type_index
                : module.functions[func - module.num_imported_funcs()]
                      .type_index;
        inst.table_[seg.offset + k] = {static_cast<int32_t>(func),
                                       inst.canon_ids_[type_index]};
      }
    }
  }

  // Data segments (validator guaranteed they fit).
  for (const wasm::DataSegment& seg : module.data) {
    std::memcpy(inst.memory_.base() + seg.offset, seg.bytes.data(),
                seg.bytes.size());
  }

  return Result<Instance>(std::move(inst));
}

}  // namespace sledge::engine
