// SandboxResourcePool: warm reuse of linear memories and execution stacks
// with the cross-tenant isolation guarantee (recycled regions read as
// zeros, via in-place zeroing and via the madvise+mprotect fallback),
// free-list caps, the reclaim watermark, the engine-level
// recycled-instantiate path, and a threaded Sandbox::create/destroy soak
// over the shared free lists. Sanitizer-safe: interpreter tiers only, no
// sandbox dispatch; the only fault taken is one vm_guard trap, caught by
// the engine's own SIGSEGV handler.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <csetjmp>
#include <cstring>
#include <thread>
#include <vector>

#include "engine/memory.hpp"
#include "engine/trap.hpp"
#include "minicc/minicc.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/sandbox.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

using engine::BoundsStrategy;
using engine::LinearMemory;
using testutil::writable_ranges;
using Ranges = std::vector<std::pair<uint64_t, uint64_t>>;

constexpr BoundsStrategy kAllStrategies[] = {
    BoundsStrategy::kNone, BoundsStrategy::kSoftware, BoundsStrategy::kMpxSim,
    BoundsStrategy::kVmGuard};

bool fail_pagemap() { return true; }

// Each test owns the process-wide pool: known config in, empty pool out.
class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.configure(SandboxResourcePool::Config{});
    pool.purge();
    pool.reset_counters();
  }
  void TearDown() override {
    LinearMemory::set_pagemap_fault_hook(nullptr);
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.purge();
    pool.configure(SandboxResourcePool::Config{});
  }
};

void expect_all_zero(const LinearMemory& mem) {
  for (uint64_t i = 0; i < mem.size_bytes(); ++i) {
    ASSERT_EQ(mem.base()[i], 0) << "stale byte at offset " << i;
  }
}

// True when a one-byte load at `addr` becomes a kOutOfBoundsMemory trap.
bool load_traps(const uint8_t* addr) {
  engine::ensure_sigaltstack();
  engine::TrapFrame frame;
  if (sigsetjmp(frame.env, 1) == 0) {
    engine::TrapScope scope(&frame);
    volatile uint8_t v = *static_cast<const volatile uint8_t*>(addr);
    (void)v;
    return false;
  }
  return frame.code == engine::TrapCode::kOutOfBoundsMemory;
}

TEST_F(PoolTest, ReservationBytesBucketsByStrategy) {
  // vm_guard reserves the full 32-bit span + slack regardless of the
  // declared ceiling — one bucket serves every module.
  EXPECT_EQ(LinearMemory::reservation_bytes(BoundsStrategy::kVmGuard, 1),
            LinearMemory::reservation_bytes(BoundsStrategy::kVmGuard, 4096));
  EXPECT_GE(LinearMemory::reservation_bytes(BoundsStrategy::kVmGuard, 1),
            (4ull << 30));
  // Non-guard strategies reserve exactly the growth ceiling.
  EXPECT_EQ(LinearMemory::reservation_bytes(BoundsStrategy::kSoftware, 8),
            8 * wasm::kPageSize);
  EXPECT_EQ(LinearMemory::reservation_bytes(BoundsStrategy::kMpxSim, 3),
            3 * wasm::kPageSize);
}

// The isolation property pooling depends on: a reused region must read as
// zeros no matter what the previous occupant wrote, under every bounds
// strategy. Shared by the in-place and the fallback recycle tests, which
// must agree on every byte and every pool counter.
void expect_canary_recycles_to_zero() {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    bool from_pool = true;
    LinearMemory mem = pool.acquire_memory(strategy, 2, 4, &from_pool);
    ASSERT_TRUE(mem.valid());
    EXPECT_FALSE(from_pool);  // pool was empty: cold path
    uint8_t* base = mem.base();
    std::memset(base, 0xAB, mem.size_bytes());  // dirty canary

    pool.release_memory(std::move(mem));
    LinearMemory reused = pool.acquire_memory(strategy, 2, 4, &from_pool);
    ASSERT_TRUE(reused.valid());
    EXPECT_TRUE(from_pool);
    EXPECT_EQ(reused.base(), base);  // genuinely the same region
    EXPECT_EQ(reused.pages(), 2u);
    expect_all_zero(reused);
    EXPECT_EQ(writable_ranges(base, reused.reserved_bytes()),
              (Ranges{{0, reused.size_bytes()}}));
    pool.release_memory(std::move(reused));
  }
  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.memory_hits, 4u);
  EXPECT_EQ(c.memory_misses, 4u);
}

TEST_F(PoolTest, RecycledMemoryReadsZeroAllStrategies) {
  expect_canary_recycles_to_zero();
}

// Platforms without a readable /proc/self/pagemap take the discard path
// (MADV_DONTNEED + PROT_NONE): same zeros, same pool hits and misses.
TEST_F(PoolTest, PagemapUnavailableFallsBackToDiscard) {
  LinearMemory::set_pagemap_fault_hook(&fail_pagemap);
  expect_canary_recycles_to_zero();

  // The fallback really ran: it leaves nothing committed while pooled.
  auto mem_or = LinearMemory::create(BoundsStrategy::kVmGuard, 2, 4);
  ASSERT_TRUE(mem_or.ok());
  LinearMemory mem = mem_or.take();
  std::memset(mem.base(), 0xAB, mem.size_bytes());
  ASSERT_TRUE(mem.recycle());
  EXPECT_EQ(mem.committed_bytes(), 0u);
  EXPECT_TRUE(writable_ranges(mem.base(), mem.reserved_bytes()).empty());
}

// With pagemap readable, recycle() zeroes in place: the prefix stays
// committed (read/write, no page-table change) while pooled, and a
// same-size reset() only re-arms the bookkeeping.
TEST_F(PoolTest, InPlaceRecycleKeepsPrefixCommitted) {
  if (::access("/proc/self/pagemap", R_OK) != 0) {
    GTEST_SKIP() << "/proc/self/pagemap unavailable: fallback path only";
  }
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    auto mem_or = LinearMemory::create(strategy, 2, 4);
    ASSERT_TRUE(mem_or.ok());
    LinearMemory mem = mem_or.take();
    std::memset(mem.base(), 0xAB, mem.size_bytes());
    ASSERT_TRUE(mem.recycle());
    EXPECT_EQ(mem.size_bytes(), 0u);
    EXPECT_EQ(mem.committed_bytes(), 2 * wasm::kPageSize);
    EXPECT_EQ(writable_ranges(mem.base(), mem.reserved_bytes()),
              (Ranges{{0, 2 * wasm::kPageSize}}));
    ASSERT_TRUE(mem.reset(2, 4));
    expect_all_zero(mem);
  }
}

// A tenant that leaves every kind of page behind — written (present and
// private), only read (mapped to the shared zero page) and never touched
// (absent) — must still hand over a region that reads all zero.
TEST_F(PoolTest, ScatteredTouchesRecycleToZeroAllStrategies) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  const uint64_t os_page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    LinearMemory mem = pool.acquire_memory(strategy, 4, 8, nullptr);
    ASSERT_TRUE(mem.valid());
    uint8_t* base = mem.base();
    const volatile uint8_t* reader = base;
    unsigned sink = 0;
    for (uint64_t p = 0; p < mem.size_bytes() / os_page; ++p) {
      switch (p % 3) {
        case 0:  // written, at a page-dependent offset
          base[p * os_page + (p * 37) % os_page] = static_cast<uint8_t>(p | 1);
          break;
        case 1:  // read only
          sink += reader[p * os_page + 100];
          break;
        default:  // never touched
          break;
      }
    }
    EXPECT_EQ(sink, 0u);
    pool.release_memory(std::move(mem));

    bool from_pool = false;
    LinearMemory reused = pool.acquire_memory(strategy, 4, 8, &from_pool);
    ASSERT_TRUE(reused.valid());
    EXPECT_TRUE(from_pool);
    EXPECT_EQ(reused.base(), base);
    expect_all_zero(reused);
    pool.release_memory(std::move(reused));
  }
}

// grow → recycle → reset to a smaller size: [0, size) reads zero and is
// the only accessible part of the reservation, so under vm_guard a load
// just past the new end still traps. Growing again hands back pages the
// old tenant dirtied — zeroed by recycle(), so they read zero too.
TEST_F(PoolTest, ShrinkAfterGrowExposesOnlyNewSize) {
  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    auto mem_or = LinearMemory::create(strategy, 1, 8);
    ASSERT_TRUE(mem_or.ok());
    LinearMemory mem = mem_or.take();
    ASSERT_EQ(mem.grow(3), 1);  // 1 -> 4 pages
    std::memset(mem.base(), 0xCD, mem.size_bytes());

    ASSERT_TRUE(mem.recycle());
    ASSERT_TRUE(mem.reset(2, 8));
    EXPECT_EQ(mem.committed_bytes(), mem.size_bytes());
    expect_all_zero(mem);
    EXPECT_EQ(writable_ranges(mem.base(), mem.reserved_bytes()),
              (Ranges{{0, 2 * wasm::kPageSize}}));
    if (strategy == BoundsStrategy::kVmGuard) {
      EXPECT_TRUE(load_traps(mem.base() + mem.size_bytes()));
    }

    ASSERT_EQ(mem.grow(2), 2);  // 2 -> 4 pages, over the old dirty tail
    expect_all_zero(mem);
  }
}

// A recycled region serves any ceiling that fits its reservation: grow to
// the old ceiling, recycle, reset to a different spec, grow to the new one.
TEST_F(PoolTest, ResetRearmsGrowthCeiling) {
  auto mem_or = LinearMemory::create(BoundsStrategy::kSoftware, 1, 4);
  ASSERT_TRUE(mem_or.ok());
  LinearMemory mem = mem_or.take();
  EXPECT_EQ(mem.grow(3), 1);   // 1 -> 4, at ceiling
  EXPECT_EQ(mem.grow(1), -1);  // past ceiling

  ASSERT_TRUE(mem.recycle());
  EXPECT_EQ(mem.size_bytes(), 0u);
  ASSERT_TRUE(mem.reset(2, 3));
  EXPECT_EQ(mem.pages(), 2u);
  EXPECT_EQ(mem.max_pages(), 3u);
  EXPECT_EQ(mem.grow(1), 2);   // 2 -> 3, new ceiling
  EXPECT_EQ(mem.grow(1), -1);  // new ceiling enforced

  // A ceiling that does not fit the reservation must be refused.
  ASSERT_TRUE(mem.recycle());
  EXPECT_FALSE(mem.reset(1, 5));  // reservation is 4 pages
}

// Acquire only matches regions whose (strategy, reservation) bucket fits;
// anything else is a miss that falls back to create().
TEST_F(PoolTest, MismatchedSpecMisses) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, nullptr));

  bool from_pool = true;
  // Different strategy: miss.
  LinearMemory m1 =
      pool.acquire_memory(BoundsStrategy::kMpxSim, 1, 4, &from_pool);
  EXPECT_FALSE(from_pool);
  // Same strategy, bigger reservation needed: miss.
  LinearMemory m2 =
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 8, &from_pool);
  EXPECT_FALSE(from_pool);
  // Exact bucket: hit.
  LinearMemory m3 =
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, &from_pool);
  EXPECT_TRUE(from_pool);
}

TEST_F(PoolTest, ReclaimWatermarkReleasesToOs) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  SandboxResourcePool::Config cfg;
  cfg.per_thread_cap = 0;  // everything overflows to the global pool
  cfg.global_cap = 2;      // watermark
  pool.configure(cfg);

  for (int i = 0; i < 4; ++i) {
    pool.release_memory(
        pool.acquire_memory(BoundsStrategy::kSoftware, 1, 1, nullptr));
  }
  // First two releases pooled, the rest dropped at the watermark. (Each
  // acquire drains the pool again, so only the steady-state release after a
  // full pool counts: acquire(hit), release(pooled) repeats.)
  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.released, 0u);  // cap 2 never exceeded by a lone region
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 2, nullptr));
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 3, nullptr));
  pool.release_memory(
      pool.acquire_memory(BoundsStrategy::kSoftware, 1, 4, nullptr));
  c = pool.counters();
  EXPECT_GE(c.released, 1u);  // third distinct bucket entry hit the cap
}

TEST_F(PoolTest, StacksAreReusedWithGuardIntact) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  constexpr size_t kStack = 256 * 1024;
  constexpr size_t kGuard = 16 * 1024;

  bool from_pool = true;
  ExecStack* s1 = pool.acquire_stack(kStack, kGuard, &from_pool);
  ASSERT_NE(s1, nullptr);
  EXPECT_FALSE(from_pool);
  EXPECT_EQ(s1->size, kStack + kGuard);  // mapping includes the guard
  EXPECT_EQ(s1->guard_size, kGuard);
  EXPECT_GE(s1->guard_id, 0);  // registered with the trap table
  uint8_t* base = s1->base;

  pool.release_stack(s1);
  ExecStack* s2 = pool.acquire_stack(kStack, kGuard, &from_pool);
  ASSERT_NE(s2, nullptr);
  EXPECT_TRUE(from_pool);
  EXPECT_EQ(s2->base, base);  // same mapping, registration kept alive

  // A different geometry is a miss, not a mismatched reuse.
  ExecStack* s3 = pool.acquire_stack(kStack * 2, kGuard, &from_pool);
  ASSERT_NE(s3, nullptr);
  EXPECT_FALSE(from_pool);
  pool.release_stack(s2);
  pool.release_stack(s3);

  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.stack_hits, 1u);
  EXPECT_EQ(c.stack_misses, 2u);
}

// End-to-end isolation through the engine: a module that reads its own
// state must see zeros when instantiated over a recycled memory that a
// previous "tenant" dirtied. Interpreter tiers (no cc, sanitizer-safe).
TEST_F(PoolTest, RecycledInstantiateSeesFreshState) {
  const char* src = R"(
int state[4];
int main() { int old = state[0]; state[0] = 1234; return old; }
)";
  auto wasm = minicc::compile_to_wasm(src);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();

  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (engine::Tier tier : {engine::Tier::kInterp, engine::Tier::kInterpFast}) {
    for (BoundsStrategy strategy :
         {BoundsStrategy::kSoftware, BoundsStrategy::kVmGuard}) {
      SCOPED_TRACE(std::string(engine::to_string(tier)) + "/" +
                   engine::to_string(strategy));
      engine::WasmModule::Config cfg;
      cfg.tier = tier;
      cfg.strategy = strategy;
      auto mod = engine::WasmModule::load(*wasm, cfg);
      ASSERT_TRUE(mod.ok()) << mod.error_message();
      auto spec = mod->memory_spec();
      ASSERT_TRUE(spec.has_memory);

      pool.purge();
      // Tenant A: runs over a fresh memory, leaves 1234 behind.
      {
        LinearMemory mem = pool.acquire_memory(spec.strategy, spec.min_pages,
                                               spec.max_pages, nullptr);
        ASSERT_TRUE(mem.valid());
        auto sb = mod->instantiate(std::move(mem));
        ASSERT_TRUE(sb.ok()) << sb.error_message();
        auto out = sb->call("main", {});
        ASSERT_TRUE(out.ok()) << out.describe();
        EXPECT_EQ(out.value->as_i32(), 0);
        pool.release_memory(sb->reclaim_memory());
      }
      // Tenant B: adopts the recycled region; stale 1234 must be gone.
      {
        bool from_pool = false;
        LinearMemory mem = pool.acquire_memory(spec.strategy, spec.min_pages,
                                               spec.max_pages, &from_pool);
        ASSERT_TRUE(mem.valid());
        EXPECT_TRUE(from_pool);
        auto sb = mod->instantiate(std::move(mem));
        ASSERT_TRUE(sb.ok()) << sb.error_message();
        auto out = sb->call("main", {});
        ASSERT_TRUE(out.ok()) << out.describe();
        EXPECT_EQ(out.value->as_i32(), 0) << "stale tenant state leaked";
        pool.release_memory(sb->reclaim_memory());
      }
    }
  }
}

// Pooled sandboxes created and destroyed on many threads at once (never
// dispatched, so no SIGALRM): TSan watches the memory and stack free lists,
// and the recycle path runs on every destruction. With no per-thread cache,
// every acquire and release goes through the global lists, so regions
// migrate between threads.
TEST_F(PoolTest, ConcurrentCreateDestroyThroughPool) {
  auto wasm = minicc::compile_to_wasm(R"(
int state[8];
int main() { state[0] = state[0] + 1; return state[0]; }
)");
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  engine::WasmModule::Config cfg;
  cfg.tier = engine::Tier::kInterpFast;
  cfg.strategy = BoundsStrategy::kVmGuard;
  auto mod = engine::WasmModule::load(*wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();

  SandboxResourcePool& pool = SandboxResourcePool::instance();
  SandboxResourcePool::Config pool_cfg;
  pool_cfg.per_thread_cap = 0;
  pool.configure(pool_cfg);

  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 80;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto sb = Sandbox::create(&mod.value(), {}, -1, false,
                                  InstantiationMode::kPooled);
        if (!sb) failures.fetch_add(1, std::memory_order_relaxed);
        // Destructor releases memory+stack back to the pool: the next
        // iteration (any thread) may adopt the recycled region.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.memory_hits + c.memory_misses,
            static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_GT(c.memory_hits, 0u) << "no region was ever recycled";
}

}  // namespace
}  // namespace sledge::runtime
