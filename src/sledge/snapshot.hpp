// Snapshot/COW instantiation (the Lumos-style template tier).
//
// After a module's first successful instantiation (start function run,
// globals and data segments settled), the post-start linear memory image is
// written into a sealed per-module memfd and the mutable instance state
// (globals, indirect-call table / AoT instance block) captured as an
// InstantiationSeed. Subsequent instantiations mmap(MAP_PRIVATE) the memfd
// over a pooled reservation, so the initial image materializes page-by-page
// copy-on-write — no zeroing, no data-segment copies, no start function.
//
// Tenant isolation: every instance gets a *private* mapping (writes never
// reach the template), templates are keyed by WasmModule* and never shared
// across modules, and LinearMemory::recycle() replaces a template-backed
// prefix with fresh anonymous pages before the region re-enters the pool —
// so the pool's zero-on-reuse contract is preserved (see memory.cpp).
//
// Latency: the template mmap is paid at *release* time, not create time —
// a retiring sandbox's region is remapped to the pristine view and parked
// on its template (stash_memory/adopt_memory), so the next snapshot
// instantiation is syscall-free. See DESIGN.md §14.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/engine.hpp"

namespace sledge::runtime {

// A built template: sealed memfd holding the post-start memory image plus
// the captured mutable instance state. Immutable after construction; shared
// read-only between the listener and workers.
struct SnapshotTemplate {
  int fd = -1;                  // sealed memfd (SEAL_SHRINK|GROW|WRITE)
  uint64_t content_bytes = 0;   // image size (page multiple, >= min_pages)
  uint32_t max_pages = 0;       // growth ceiling at capture time
  engine::InstantiationSeed seed;
  // Template-backed regions parked by departing tenants (pristine view
  // restored at stash time); adopt_memory() pops one with zero syscalls.
  // Guarded by the registry mutex.
  std::vector<engine::LinearMemory> spares;

  ~SnapshotTemplate();
  SnapshotTemplate() = default;
  SnapshotTemplate(const SnapshotTemplate&) = delete;
  SnapshotTemplate& operator=(const SnapshotTemplate&) = delete;
};

// Process-wide template registry, keyed by module identity. Templates build
// lazily (one cold instantiation + one memfd write, under the registry
// mutex so concurrent first requests build exactly once) and persist until
// the module is invalidated (unload/reload) or the registry is cleared.
class SnapshotRegistry {
 public:
  struct Counters {
    uint64_t hits = 0;            // snapshot-backed instantiations served
    uint64_t misses = 0;          // snapshot requested, fell back to pooled
    uint64_t builds = 0;          // templates built
    uint64_t build_failures = 0;  // build attempts that failed (memfd, ...)
  };

  static SnapshotRegistry& instance();

  // Returns the module's template, building it on first call. nullptr when
  // the module declares no linear memory, memfd_create fails, or a previous
  // build failed (failures are remembered; no per-request rebuild storm).
  // The pointer stays valid until invalidate(module) or clear().
  const SnapshotTemplate* get_or_build(const engine::WasmModule* module);

  // Drops the module's template (module reload path: the image would be
  // stale) and forgets any remembered build failure. Safe to call with no
  // template present.
  void invalidate(const engine::WasmModule* module);

  // Drops every template (tests; process teardown is fine without it).
  void clear();

  // Release-time recycling of template-backed regions: stash_memory()
  // restores the pristine template view (the mmap is paid here, off the
  // instantiation path) and parks the region on the module's template;
  // adopt_memory() pops one ready to seed — no syscalls on the create
  // path. stash returns false (region untouched — release it to the
  // resource pool instead) when the template was invalidated, the spare
  // cache is full, or the remap failed.
  engine::LinearMemory adopt_memory(const engine::WasmModule* module);
  bool stash_memory(const engine::WasmModule* module,
                    engine::LinearMemory* memory);

  Counters counters() const;
  void reset_counters();

  // Instantiation-path accounting (called from Sandbox::create).
  void note_hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void note_miss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  // Test-only fault injection: when set and returning true, memfd creation
  // fails as if the kernel lacked memfd_create — the graceful-degrade path.
  using MemfdFaultHook = bool (*)();
  static void set_memfd_fault_hook(MemfdFaultHook hook);

 private:
  SnapshotRegistry() = default;

  mutable std::mutex mu_;
  std::unordered_map<const engine::WasmModule*,
                     std::unique_ptr<SnapshotTemplate>>
      templates_;
  std::unordered_set<const engine::WasmModule*> failed_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> build_failures_{0};
};

}  // namespace sledge::runtime
