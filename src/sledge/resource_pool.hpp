// SandboxResourcePool: warm reuse of the three per-request resources the
// paper's "optimized function startup" allocates — linear memory, a guarded
// execution stack, and a ucontext (§4).
//
// The cold path pays, per request: one mmap (a multi-GiB PROT_NONE
// reservation under vm_guard), an mprotect commit, a guard-region
// registration, a second mmap+mprotect for the stack, and another guard
// registration. The pool converts all of that into a free-list pop:
//
//   * Linear memories are bucketed by (bounds strategy, reservation size),
//     since a recycled region can serve any module whose growth ceiling
//     fits the existing reservation. Under vm_guard every module shares one
//     bucket (the reservation is always 4 GiB + slack). On release the
//     region is zeroed in place (LinearMemory::recycle): pages present per
//     /proc/self/pagemap are memset, swapped-out ones discarded, and the
//     prefix stays committed, so release and reuse change no page-table
//     entry (no TLB shootdowns, no refaults). Where pagemap is unavailable
//     the region is madvise(MADV_DONTNEED)'d and decommitted instead.
//     Either way reuse reads zeros — cross-tenant isolation does not
//     depend on trusting the previous occupant. The cost is RSS: a pooled
//     region keeps its high-water resident pages until the reclaim
//     watermark below releases it to the OS.
//   * Execution stacks keep their mapping, guard page, and guard-region
//     registration alive between requests; the ucontext storage rides along
//     (it is re-initialized by getcontext/makecontext per request). Stacks
//     are NOT zeroed: the split-stack design means sandboxed loads/stores
//     cannot address the C stack, so stale contents are unreachable.
//
// Structure: each acquiring thread keeps a small free list (fast, no
// locks; sized by per_thread_cap) and overflows into a bounded global pool
// (mutex; sized by global_cap, the reclaim watermark — resources beyond it
// are released to the OS). Release-only threads skip the local list so
// resources flow back to the acquirers: in the server, workers release into
// the global pool and the listener acquires from it; in the inline/bench
// path one thread hits its own lock-free list.
#pragma once

#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "engine/memory.hpp"

namespace sledge::runtime {

// A pooled execution stack: mmap'd region whose first guard_size bytes are
// PROT_NONE, registered with the engine's guard-region table so overflow
// faults become traps, plus reusable ucontext storage.
struct ExecStack {
  uint8_t* base = nullptr;  // whole mapping, guard page first
  size_t size = 0;          // total mapping size, guard included
  size_t guard_size = 0;
  int guard_id = -1;
  ucontext_t ctx;
};

// A reusable payload carrier for the zero-copy invoke dataplane: the parent
// writes its request at [0, len), the child reads it through its
// MemView-checked hostcalls and appends its response after the request
// region — neither payload ever transits a per-request heap vector.
// Buffers are bucketed by power-of-two capacity and, like pooled linear
// memories, zeroed when the tenant key changes between uses so one chain's
// payload can never leak into another tenant's buffer.
struct TransferBuffer {
  uint8_t* data = nullptr;
  size_t cap = 0;
  size_t len = 0;       // valid request bytes (written by the parent)
  uint64_t tenant = 0;  // key of the last (parent, child) pair served
};

// RAII loan of a TransferBuffer: whichever holder drops the last reference
// (parent hostcall frame, InvokeJoin, child sandbox — any of which may be
// killed or abandoned first) returns the buffer to the pool exactly once.
class TransferLoan {
 public:
  explicit TransferLoan(TransferBuffer* tb) : tb_(tb) {}
  ~TransferLoan();
  TransferLoan(const TransferLoan&) = delete;
  TransferLoan& operator=(const TransferLoan&) = delete;
  TransferBuffer* get() const { return tb_; }

 private:
  TransferBuffer* tb_;
};

class SandboxResourcePool {
 public:
  struct Config {
    bool enabled = true;
    // Free-list entries kept per thread before overflowing to the global
    // pool (applies independently to memories and stacks).
    int per_thread_cap = 8;
    // Reclaim watermark: global entries beyond this are released to the OS.
    int global_cap = 64;
  };

  struct Counters {
    uint64_t memory_hits = 0;    // acquires served from a free list
    uint64_t memory_misses = 0;  // acquires that fell back to create()
    uint64_t stack_hits = 0;
    uint64_t stack_misses = 0;
    uint64_t released = 0;  // resources dropped at the reclaim watermark
    uint64_t transfer_hits = 0;
    uint64_t transfer_misses = 0;
    uint64_t transfer_outstanding = 0;  // loans not yet returned (leak probe)
  };

  // Process-wide pool (sandbox creation is a static path; tests and benches
  // reconfigure it). Never destructed, so thread-local cache flushes at
  // thread exit are always safe.
  static SandboxResourcePool& instance();

  void configure(const Config& config);
  Config config() const;

  // Pops a region matching (strategy, reservation-for-max_pages) and
  // reset()s it to the requested spec; falls back to LinearMemory::create
  // on a miss. `from_pool`, when non-null, reports which path was taken.
  engine::LinearMemory acquire_memory(engine::BoundsStrategy strategy,
                                      uint32_t min_pages, uint32_t max_pages,
                                      bool* from_pool = nullptr);
  // Recycles (zeroes, see LinearMemory::recycle) and pools `mem`; releases
  // it to the OS when the pool is disabled, recycling fails, or caps are
  // hit.
  void release_memory(engine::LinearMemory mem);

  // Pops a pooled stack of exactly (stack_size, guard_size), or maps and
  // registers a fresh one. Returns nullptr only on mmap failure.
  ExecStack* acquire_stack(size_t stack_size, size_t guard_size,
                           bool* from_pool = nullptr);
  void release_stack(ExecStack* stack);

  // Pops a transfer buffer with cap >= min_cap (power-of-two bucketed,
  // floor 4 KiB). A pooled buffer whose last tenant differs from `tenant`
  // is zeroed before handout; fresh buffers start zeroed. Returns nullptr
  // only on allocation failure (callers fall back to the copy dataplane).
  TransferBuffer* acquire_transfer(size_t min_cap, uint64_t tenant,
                                   bool* from_pool = nullptr);
  void release_transfer(TransferBuffer* tb);

  Counters counters() const;
  void reset_counters();

  // Drops the global free lists and (for the calling thread) the local
  // ones. Other threads' caches drain when those threads exit. Used by
  // tests and the pooled-vs-cold ablation.
  void purge();

  // Internal (thread-exit flush path): push straight to the global pool,
  // bypassing the thread-local list. False when the watermark is hit.
  bool pool_memory_global(engine::LinearMemory* mem);
  bool pool_stack_global(ExecStack* stack);
  bool pool_transfer_global(TransferBuffer* tb);

 private:
  SandboxResourcePool() = default;

  struct MemBucket {
    engine::BoundsStrategy strategy;
    uint64_t reserved_bytes;
    std::vector<engine::LinearMemory> free;
  };

  // Knobs are atomics so the hot acquire/release paths can check them
  // without taking the global mutex (thread-local hits never lock).
  std::atomic<bool> enabled_{true};
  std::atomic<int> per_thread_cap_{8};
  std::atomic<int> global_cap_{64};

  std::atomic<uint64_t> memory_hits_{0};
  std::atomic<uint64_t> memory_misses_{0};
  std::atomic<uint64_t> stack_hits_{0};
  std::atomic<uint64_t> stack_misses_{0};
  std::atomic<uint64_t> released_{0};
  std::atomic<uint64_t> transfer_hits_{0};
  std::atomic<uint64_t> transfer_misses_{0};
  std::atomic<uint64_t> transfer_outstanding_{0};

  mutable std::mutex mu_;
  std::vector<MemBucket> mem_buckets_;
  std::vector<ExecStack*> stacks_;
  // Transfer buffers: one free list per power-of-two capacity. Acquiring
  // threads (workers running sb_invoke parents) front this with a
  // thread-local tier — with locality-hinted placement the same worker
  // usually releases and re-acquires a buffer, so the hot chain path never
  // takes this mutex. Cross-worker releases overflow here.
  struct TransferBucket {
    size_t cap;
    std::vector<TransferBuffer*> free;
  };
  std::vector<TransferBucket> transfer_buckets_;
};

}  // namespace sledge::runtime
