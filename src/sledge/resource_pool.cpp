#include "sledge/resource_pool.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "engine/trap.hpp"

namespace sledge::runtime {

void destroy_stack(ExecStack* stack) {
  if (!stack) return;
  context_destroy(&stack->ctx);
  if (stack->guard_id >= 0) engine::unregister_guard_region(stack->guard_id);
  if (stack->base) ::munmap(stack->base, stack->size);
  delete stack;
}

ExecStack* create_stack(size_t stack_size, size_t guard_size) {
  void* mem = ::mmap(nullptr, stack_size + guard_size,
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mem == MAP_FAILED) return nullptr;
  ExecStack* stack = new ExecStack();
  stack->base = static_cast<uint8_t*>(mem);
  stack->size = stack_size + guard_size;
  stack->guard_size = guard_size;
  if (guard_size > 0) {
    ::mprotect(stack->base, guard_size, PROT_NONE);
    engine::install_trap_signal_handler();
    stack->guard_id = engine::register_guard_region(
        stack->base, guard_size, engine::TrapCode::kCallStackExhausted);
  }
  return stack;
}

namespace {

// Per-thread free lists. The destructor runs at thread exit and flushes
// into the (never-destructed) global pool, so thread-cached resources
// survive Runtime restarts within a process.
//
// `acquirer` marks threads that create sandboxes (the workers admitting
// from the front door, the inline/bench path). Only those cache locally on
// release: a release-only thread (one that only retires sandboxes) would hoard
// resources its cache can never hand back, so it pushes straight to the
// global pool where the acquiring threads can see them.
struct ThreadCache {
  std::vector<engine::LinearMemory> memories;
  std::vector<ExecStack*> stacks;
  std::vector<TransferBuffer*> transfers;
  bool acquirer = false;
  // Tracked separately from `acquirer`: a thread that acquires transfer
  // buffers (the parent's sb_invoke hostcall) but never creates sandboxes
  // must not start hoarding memories and stacks.
  bool transfer_acquirer = false;
  // share_thread_resources(): never cache memories or stacks locally.
  bool shared = false;
  ~ThreadCache();
};

thread_local ThreadCache t_cache;

constexpr size_t kTransferMinCap = 4096;

size_t round_up_pow2(size_t n) {
  size_t cap = kTransferMinCap;
  while (cap < n) cap <<= 1;
  return cap;
}

void destroy_transfer(TransferBuffer* tb) {
  if (!tb) return;
  std::free(tb->data);
  delete tb;
}

}  // namespace

TransferLoan::~TransferLoan() {
  if (tb_) SandboxResourcePool::instance().release_transfer(tb_);
}

SandboxResourcePool& SandboxResourcePool::instance() {
  // Intentionally leaked: thread-local caches flush here at thread exit,
  // which must work regardless of static destruction order.
  static SandboxResourcePool* pool = new SandboxResourcePool();
  return *pool;
}

ThreadCache::~ThreadCache() {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (engine::LinearMemory& mem : memories) {
    if (!pool.pool_memory_global(&mem)) {
      mem = engine::LinearMemory();  // release to the OS
    }
  }
  for (ExecStack* stack : stacks) {
    if (!pool.pool_stack_global(stack)) destroy_stack(stack);
  }
  for (TransferBuffer* tb : transfers) {
    if (!pool.pool_transfer_global(tb)) destroy_transfer(tb);
  }
}

void SandboxResourcePool::configure(const Config& config) {
  per_thread_cap_.store(config.per_thread_cap, std::memory_order_release);
  global_cap_.store(config.global_cap, std::memory_order_release);
}

void SandboxResourcePool::share_thread_resources() { t_cache.shared = true; }

engine::LinearMemory SandboxResourcePool::acquire_memory(
    engine::BoundsStrategy strategy, uint32_t min_pages, uint32_t max_pages,
    bool* from_pool) {
  if (from_pool) *from_pool = false;
  t_cache.acquirer = !t_cache.shared;
  const uint64_t reserved =
      engine::LinearMemory::reservation_bytes(strategy, max_pages);

  engine::LinearMemory pooled;
  // Thread-local list first (lock-free), then the global buckets.
  for (size_t i = 0; i < t_cache.memories.size(); ++i) {
    engine::LinearMemory& m = t_cache.memories[i];
    if (m.strategy() == strategy && m.reserved_bytes() == reserved) {
      pooled = std::move(m);
      t_cache.memories.erase(t_cache.memories.begin() +
                             static_cast<ptrdiff_t>(i));
      break;
    }
  }
  if (!pooled.valid()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (MemBucket& bucket : mem_buckets_) {
      if (bucket.strategy == strategy &&
          bucket.reserved_bytes == reserved && !bucket.free.empty()) {
        pooled = std::move(bucket.free.back());
        bucket.free.pop_back();
        break;
      }
    }
  }
  if (pooled.valid() && pooled.reset(min_pages, max_pages)) {
    memory_hits_.fetch_add(1, std::memory_order_relaxed);
    if (from_pool) *from_pool = true;
    return pooled;
  }
  // reset() failure drops `pooled` (released to the OS) and goes cold.

  memory_misses_.fetch_add(1, std::memory_order_relaxed);
  auto fresh = engine::LinearMemory::create(strategy, min_pages, max_pages);
  if (!fresh.ok()) return engine::LinearMemory();
  return fresh.take();
}

void SandboxResourcePool::release_memory(engine::LinearMemory mem) {
  if (!mem.valid() || !mem.recycle()) return;  // destructor unmaps
  int cap = per_thread_cap_.load(std::memory_order_acquire);
  if (t_cache.acquirer && static_cast<int>(t_cache.memories.size()) < cap) {
    t_cache.memories.push_back(std::move(mem));
    return;
  }
  if (!pool_memory_global(&mem)) {
    released_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SandboxResourcePool::pool_memory_global(engine::LinearMemory* mem) {
  int cap = global_cap_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mu_);
  MemBucket* bucket = nullptr;
  int64_t total = 0;
  for (MemBucket& b : mem_buckets_) {
    total += static_cast<int64_t>(b.free.size());
    if (b.strategy == mem->strategy() &&
        b.reserved_bytes == mem->reserved_bytes()) {
      bucket = &b;
    }
  }
  if (total >= cap) return false;  // reclaim watermark: release to the OS
  if (!bucket) {
    mem_buckets_.push_back(MemBucket{mem->strategy(), mem->reserved_bytes(), {}});
    bucket = &mem_buckets_.back();
  }
  bucket->free.push_back(std::move(*mem));
  return true;
}

ExecStack* SandboxResourcePool::acquire_stack(size_t stack_size,
                                              size_t guard_size,
                                              bool* from_pool) {
  if (from_pool) *from_pool = false;
  t_cache.acquirer = !t_cache.shared;
  const size_t total = stack_size + guard_size;
  for (size_t i = 0; i < t_cache.stacks.size(); ++i) {
    ExecStack* s = t_cache.stacks[i];
    if (s->size == total && s->guard_size == guard_size) {
      t_cache.stacks.erase(t_cache.stacks.begin() +
                           static_cast<ptrdiff_t>(i));
      stack_hits_.fetch_add(1, std::memory_order_relaxed);
      if (from_pool) *from_pool = true;
      return s;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < stacks_.size(); ++i) {
      ExecStack* s = stacks_[i];
      if (s->size == total && s->guard_size == guard_size) {
        stacks_[i] = stacks_.back();
        stacks_.pop_back();
        stack_hits_.fetch_add(1, std::memory_order_relaxed);
        if (from_pool) *from_pool = true;
        return s;
      }
    }
  }
  stack_misses_.fetch_add(1, std::memory_order_relaxed);
  return create_stack(stack_size, guard_size);
}

void SandboxResourcePool::release_stack(ExecStack* stack) {
  if (!stack) return;
  int cap = per_thread_cap_.load(std::memory_order_acquire);
  if (t_cache.acquirer && static_cast<int>(t_cache.stacks.size()) < cap) {
    t_cache.stacks.push_back(stack);
    return;
  }
  if (!pool_stack_global(stack)) {
    released_.fetch_add(1, std::memory_order_relaxed);
    destroy_stack(stack);
  }
}

TransferBuffer* SandboxResourcePool::acquire_transfer(size_t min_cap,
                                                      uint64_t tenant,
                                                      bool* from_pool) {
  if (from_pool) *from_pool = false;
  const size_t cap = round_up_pow2(min_cap);
  t_cache.transfer_acquirer = true;
  TransferBuffer* pooled = nullptr;
  // Thread-local tier first (lock-free; with locality-hinted placement the
  // same worker releases and re-acquires, so the hot invoke path never
  // touches the global mutex). Newest first — warmest cache lines.
  for (size_t i = t_cache.transfers.size(); i-- > 0;) {
    if (t_cache.transfers[i]->cap == cap) {
      pooled = t_cache.transfers[i];
      t_cache.transfers.erase(t_cache.transfers.begin() +
                              static_cast<ptrdiff_t>(i));
      break;
    }
  }
  if (!pooled) {
    std::lock_guard<std::mutex> lock(mu_);
    for (TransferBucket& bucket : transfer_buckets_) {
      if (bucket.cap == cap && !bucket.free.empty()) {
        pooled = bucket.free.back();
        bucket.free.pop_back();
        break;
      }
    }
  }
  if (pooled) {
    if (pooled->tenant != tenant) {
      // Cross-tenant reuse: scrub the previous occupant's payload, same
      // contract as zero-on-reuse linear memories.
      std::memset(pooled->data, 0, pooled->cap);
      pooled->tenant = tenant;
    }
    pooled->len = 0;
    transfer_hits_.fetch_add(1, std::memory_order_relaxed);
    transfer_outstanding_.fetch_add(1, std::memory_order_relaxed);
    if (from_pool) *from_pool = true;
    return pooled;
  }
  void* data = std::calloc(1, cap);
  if (!data) return nullptr;
  TransferBuffer* tb = new TransferBuffer();
  tb->data = static_cast<uint8_t*>(data);
  tb->cap = cap;
  tb->tenant = tenant;
  transfer_misses_.fetch_add(1, std::memory_order_relaxed);
  transfer_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return tb;
}

void SandboxResourcePool::release_transfer(TransferBuffer* tb) {
  if (!tb) return;
  transfer_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  int cap = per_thread_cap_.load(std::memory_order_acquire);
  if (t_cache.transfer_acquirer &&
      static_cast<int>(t_cache.transfers.size()) < cap) {
    t_cache.transfers.push_back(tb);
    return;
  }
  if (pool_transfer_global(tb)) return;
  released_.fetch_add(1, std::memory_order_relaxed);
  destroy_transfer(tb);
}

bool SandboxResourcePool::pool_transfer_global(TransferBuffer* tb) {
  int cap = global_cap_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mu_);
  TransferBucket* bucket = nullptr;
  int64_t total = 0;
  for (TransferBucket& b : transfer_buckets_) {
    total += static_cast<int64_t>(b.free.size());
    if (b.cap == tb->cap) bucket = &b;
  }
  if (total >= cap) return false;  // reclaim watermark: release to the OS
  if (!bucket) {
    transfer_buckets_.push_back(TransferBucket{tb->cap, {}});
    bucket = &transfer_buckets_.back();
  }
  bucket->free.push_back(tb);
  return true;
}

bool SandboxResourcePool::pool_stack_global(ExecStack* stack) {
  int cap = global_cap_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int>(stacks_.size()) >= cap) return false;
  stacks_.push_back(stack);
  return true;
}

SandboxResourcePool::Counters SandboxResourcePool::counters() const {
  Counters c;
  c.memory_hits = memory_hits_.load(std::memory_order_relaxed);
  c.memory_misses = memory_misses_.load(std::memory_order_relaxed);
  c.stack_hits = stack_hits_.load(std::memory_order_relaxed);
  c.stack_misses = stack_misses_.load(std::memory_order_relaxed);
  c.released = released_.load(std::memory_order_relaxed);
  c.transfer_hits = transfer_hits_.load(std::memory_order_relaxed);
  c.transfer_misses = transfer_misses_.load(std::memory_order_relaxed);
  c.transfer_outstanding =
      transfer_outstanding_.load(std::memory_order_relaxed);
  return c;
}

void SandboxResourcePool::reset_counters() {
  memory_hits_.store(0, std::memory_order_relaxed);
  memory_misses_.store(0, std::memory_order_relaxed);
  stack_hits_.store(0, std::memory_order_relaxed);
  stack_misses_.store(0, std::memory_order_relaxed);
  released_.store(0, std::memory_order_relaxed);
  transfer_hits_.store(0, std::memory_order_relaxed);
  transfer_misses_.store(0, std::memory_order_relaxed);
  // transfer_outstanding_ deliberately survives resets: it is a live gauge.
}

void SandboxResourcePool::purge() {
  t_cache.memories.clear();  // LinearMemory destructors unmap
  for (ExecStack* stack : t_cache.stacks) destroy_stack(stack);
  t_cache.stacks.clear();
  for (TransferBuffer* tb : t_cache.transfers) destroy_transfer(tb);
  t_cache.transfers.clear();

  std::vector<MemBucket> buckets;
  std::vector<ExecStack*> stacks;
  std::vector<TransferBucket> transfers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buckets.swap(mem_buckets_);
    stacks.swap(stacks_);
    transfers.swap(transfer_buckets_);
  }
  for (ExecStack* stack : stacks) destroy_stack(stack);
  for (TransferBucket& bucket : transfers) {
    for (TransferBuffer* tb : bucket.free) destroy_transfer(tb);
  }
  // `buckets` destructs here, unmapping the pooled memories.
}

}  // namespace sledge::runtime
