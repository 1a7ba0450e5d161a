#include "sledge/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "common/log.hpp"

namespace sledge::runtime {

namespace {
std::atomic<SnapshotRegistry::MemfdFaultHook> g_memfd_fault_hook{nullptr};

// Sealed memfd holding `bytes` of `src`. -1 on any failure (no memfd
// support, truncate/write/seal failure) — callers degrade to pooled.
int build_sealed_memfd(const char* name, const uint8_t* src, uint64_t bytes) {
  if (SnapshotRegistry::MemfdFaultHook hook =
          g_memfd_fault_hook.load(std::memory_order_acquire);
      hook && hook()) {
    return -1;  // injected "kernel lacks memfd_create" (tests)
  }
  int fd = ::memfd_create(name, MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) return -1;
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    return -1;
  }
  uint64_t off = 0;
  while (off < bytes) {
    ssize_t n = ::pwrite(fd, src + off, bytes - off, static_cast<off_t>(off));
    if (n <= 0) {
      ::close(fd);
      return -1;
    }
    off += static_cast<uint64_t>(n);
  }
  // Seal the image: instances map it MAP_PRIVATE, and nothing may ever
  // change the template after publication (defense in depth on top of the
  // registry handing out const pointers only).
  if (::fcntl(fd, F_ADD_SEALS,
              F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE | F_SEAL_SEAL) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}
}  // namespace

SnapshotTemplate::~SnapshotTemplate() {
  if (fd >= 0) ::close(fd);
}

SnapshotRegistry& SnapshotRegistry::instance() {
  static SnapshotRegistry* registry = new SnapshotRegistry();
  return *registry;
}

void SnapshotRegistry::set_memfd_fault_hook(MemfdFaultHook hook) {
  g_memfd_fault_hook.store(hook, std::memory_order_release);
}

const SnapshotTemplate* SnapshotRegistry::get_or_build(
    const engine::WasmModule* module) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = templates_.find(module);
  if (it != templates_.end()) return it->second.get();
  if (failed_.count(module)) return nullptr;

  // Build once, under the lock: one cold instantiation (start function and
  // data segments run into a throwaway memory) + one memfd write. Failures
  // are remembered so a broken module cannot trigger a per-request rebuild
  // storm — it just stays on the pooled tier.
  auto fail = [&]() -> const SnapshotTemplate* {
    failed_.insert(module);
    build_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  };

  engine::WasmModule::MemorySpec spec = module->memory_spec();
  if (!spec.has_memory) return fail();  // nothing to template

  Result<engine::WasmSandbox> settled = module->instantiate();
  if (!settled.ok()) {
    SLEDGE_LOG_ERROR("snapshot build: instantiate failed: %s",
                     settled.error_message().c_str());
    return fail();
  }
  const engine::LinearMemory* mem = settled.value().memory();
  if (!mem || mem->size_bytes() == 0) return fail();

  auto tmpl = std::make_unique<SnapshotTemplate>();
  tmpl->content_bytes = mem->size_bytes();
  tmpl->max_pages = mem->max_pages();
  tmpl->fd = build_sealed_memfd("sledge-snap", mem->base(),
                                tmpl->content_bytes);
  if (tmpl->fd < 0) return fail();
  tmpl->seed = module->capture_seed(settled.value());

  builds_.fetch_add(1, std::memory_order_relaxed);
  const SnapshotTemplate* out = tmpl.get();
  templates_.emplace(module, std::move(tmpl));
  return out;
}

void SnapshotRegistry::invalidate(const engine::WasmModule* module) {
  std::lock_guard<std::mutex> lock(mu_);
  templates_.erase(module);
  failed_.erase(module);
}

void SnapshotRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  templates_.clear();
  failed_.clear();
}

engine::LinearMemory SnapshotRegistry::adopt_memory(
    const engine::WasmModule* module) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = templates_.find(module);
  if (it == templates_.end() || it->second->spares.empty()) {
    return engine::LinearMemory();
  }
  engine::LinearMemory mem = std::move(it->second->spares.back());
  it->second->spares.pop_back();
  return mem;
}

bool SnapshotRegistry::stash_memory(const engine::WasmModule* module,
                                    engine::LinearMemory* memory) {
  // Cap on parked regions per template; beyond it the release path falls
  // back to the ordinary resource pool.
  static constexpr size_t kMaxSpares = 32;
  if (!memory || !memory->valid() || memory->file_mapped_bytes() == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = templates_.find(module);
  if (it == templates_.end()) return false;  // invalidated: image is stale
  SnapshotTemplate& t = *it->second;
  if (t.spares.size() >= kMaxSpares) return false;
  if (!memory->remap_template(t.fd)) return false;
  t.spares.push_back(std::move(*memory));
  return true;
}

SnapshotRegistry::Counters SnapshotRegistry::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.builds = builds_.load(std::memory_order_relaxed);
  c.build_failures = build_failures_.load(std::memory_order_relaxed);
  return c;
}

void SnapshotRegistry::reset_counters() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  builds_.store(0, std::memory_order_relaxed);
  build_failures_.store(0, std::memory_order_relaxed);
}

}  // namespace sledge::runtime
