// Sanitizer-safe soak of the zero-copy dataplane's shared state: the
// transfer-buffer pool (pow2 bucketing, 4 KiB floor, zero-on-tenant-change,
// outstanding-loan ledger), the TransferLoan last-holder-returns contract
// under racing destructor orders, and the Distributor's locality-hinted
// inject queues (no sandbox lost or duplicated, hints routed, overflow to
// the shared entrance). No sandbox ever *executes* here — no quantum
// timer, no SIGALRM — so the whole file runs under tsan and asan; this is
// what the `tsan-invoke` preset races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sledge/distributor.hpp"
#include "sledge/resource_pool.hpp"

namespace sledge::runtime {
namespace {

bool is_pow2(size_t v) { return v != 0 && (v & (v - 1)) == 0; }

bool all_zero(const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

uint64_t outstanding() {
  return SandboxResourcePool::instance().counters().transfer_outstanding;
}

// Capacity contract: pow2-bucketed with a 4 KiB floor, always >= the
// requested minimum, and the outstanding gauge tracks live loans exactly.
TEST(InvokeSoakTest, TransferBucketingFloorAndPow2) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  pool.purge();
  const uint64_t base = outstanding();

  struct Case {
    size_t min_cap;
    size_t want_cap;
  };
  for (const Case& c : {Case{1, 4096}, Case{4096, 4096}, Case{4097, 8192},
                        Case{5000, 8192}, Case{65536, 65536},
                        Case{100'000, 131'072}}) {
    TransferBuffer* tb = pool.acquire_transfer(c.min_cap, 1);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(tb->cap, c.want_cap) << "min_cap=" << c.min_cap;
    EXPECT_TRUE(is_pow2(tb->cap));
    EXPECT_GE(tb->cap, c.min_cap);
    EXPECT_EQ(outstanding(), base + 1);
    // The full capacity is writable (ASan would flag an undersized alloc).
    std::memset(tb->data, 0x5a, tb->cap);
    pool.release_transfer(tb);
    EXPECT_EQ(outstanding(), base);
  }
}

// Isolation canary: a pooled buffer whose next borrower is a different
// tenant pair is zeroed before handout — one chain's payload can never
// leak into another tenant's buffer. Fresh buffers start zeroed too.
TEST(InvokeSoakTest, ZeroedOnTenantChange) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  pool.purge();

  auto before = pool.counters();
  TransferBuffer* tb = pool.acquire_transfer(32768, 0xAAAA);
  ASSERT_NE(tb, nullptr);
  EXPECT_TRUE(all_zero(tb->data, tb->cap));  // fresh buffers start zeroed
  std::memset(tb->data, 0xEE, tb->cap);      // tenant A's "secret"
  tb->len = 1234;
  pool.release_transfer(tb);

  // Same tenant key: served warm from the bucket (zeroing skipped is the
  // perf point, but contents are this tenant's own — nothing to assert).
  tb = pool.acquire_transfer(32768, 0xAAAA);
  ASSERT_NE(tb, nullptr);
  pool.release_transfer(tb);

  // Tenant change: the recycled buffer must come back fully zeroed.
  tb = pool.acquire_transfer(32768, 0xBBBB);
  ASSERT_NE(tb, nullptr);
  EXPECT_TRUE(all_zero(tb->data, tb->cap));
  pool.release_transfer(tb);

  auto after = pool.counters();
  EXPECT_EQ(after.transfer_misses - before.transfer_misses, 1u);
  EXPECT_EQ(after.transfer_hits - before.transfer_hits, 2u);
  EXPECT_EQ(after.transfer_outstanding, before.transfer_outstanding);
}

// TransferLoan contract: parent hostcall frame, InvokeJoin, and child
// sandbox all hold shared references and may die in any order on any
// thread; whoever drops last returns the buffer to the pool exactly once.
TEST(InvokeSoakTest, LoanLastHolderReturnsExactlyOnce) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  pool.purge();
  const uint64_t base = outstanding();
  Rng rng(0x10a7);

  for (int round = 0; round < 200; ++round) {
    TransferBuffer* tb = pool.acquire_transfer(4096, round);
    ASSERT_NE(tb, nullptr);
    auto loan = std::make_shared<TransferLoan>(tb);
    ASSERT_EQ(outstanding(), base + 1);

    // Three "holders" racing to be the one that drops last.
    std::vector<std::thread> holders;
    for (int h = 0; h < 3; ++h) {
      uint32_t spin = rng.below(500);
      holders.emplace_back([ref = loan, spin]() mutable {
        volatile uint32_t sink = 0;
        for (uint32_t i = 0; i < spin; ++i) sink = i;
        (void)sink;
        ref.reset();
      });
    }
    loan.reset();
    for (std::thread& t : holders) t.join();
    ASSERT_EQ(outstanding(), base) << "round " << round;
  }
}

// Threaded pool soak: four tenants hammer overlapping size buckets with
// loans whose last reference drops on another thread (the worker-to-worker
// release path). Under tsan this races acquire/release/zeroing; the ledger
// must read zero once everyone is done.
TEST(InvokeSoakTest, ThreadedAcquireReleaseSoak) {
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  pool.purge();
  const uint64_t base = outstanding();

  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &pool] {
      Rng rng(0x50AC + static_cast<uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        size_t min_cap = 1 + rng.below(20'000);
        uint64_t tenant = rng.below(4);
        TransferBuffer* tb = pool.acquire_transfer(min_cap, tenant);
        ASSERT_NE(tb, nullptr);
        ASSERT_GE(tb->cap, min_cap);
        ASSERT_TRUE(is_pow2(tb->cap));
        tb->data[0] = static_cast<uint8_t>(i);
        tb->data[tb->cap - 1] = static_cast<uint8_t>(t);
        tb->len = min_cap;
        auto loan = std::make_shared<TransferLoan>(tb);
        if (rng.chance(0.25)) {
          // Cross-thread release: the detached holder drops last.
          std::thread([ref = std::move(loan)]() mutable {
            ref.reset();
          }).join();
        } else {
          loan.reset();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(outstanding(), base);

  auto c = pool.counters();
  EXPECT_GT(c.transfer_hits, 0u);  // warm reuse actually happened
}

// Locality-hinted injection routes to the hinted worker's queue, overflows
// past the per-worker cap (16) to the shared entrance, and loses nothing.
TEST(InvokeSoakTest, HintedInjectRoutesAndOverflows) {
  constexpr int kWorkers = 4;
  Distributor d(DistPolicy::kWorkStealing, kWorkers);
  // The Distributor never dereferences queued pointers (that is what makes
  // this sanitizer-safe): tag values stand in for sandboxes.
  auto tag = [](uintptr_t i) { return reinterpret_cast<Sandbox*>(i); };

  // 20 hinted injects at worker 1: 16 land on its hinted queue, 4 overflow
  // to the shared side entrance where any worker may fetch them.
  for (uintptr_t i = 1; i <= 20; ++i) d.inject(tag(i), 1);
  Sandbox* out = nullptr;
  int from_worker3 = 0;
  while (d.fetch(3, &out)) ++from_worker3;
  EXPECT_EQ(from_worker3, 4);  // only the overflow is visible elsewhere
  int from_worker1 = 0;
  while (d.fetch(1, &out)) ++from_worker1;
  EXPECT_EQ(from_worker1, 16);  // the hinted 16 stayed home
}

// Concurrency contract of the hinted path: racing producers (front-door push,
// unhinted inject, hinted inject to every worker) against racing consumers;
// every sandbox fetched exactly once, none invented, none lost.
TEST(InvokeSoakTest, HintedInjectNoLossNoDupUnderRace) {
  static constexpr int kWorkers = 4;
  static constexpr uintptr_t kPerProducer = 5000;
  static constexpr int kProducers = 3;
  static constexpr uintptr_t kTotal = kPerProducer * kProducers;
  Distributor d(DistPolicy::kWorkStealing, kWorkers);
  auto tag = [](uintptr_t i) { return reinterpret_cast<Sandbox*>(i); };

  std::atomic<bool> producers_done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &d, &tag] {
      Rng rng(0xF00D + static_cast<uint64_t>(p));
      uintptr_t lo = 1 + static_cast<uintptr_t>(p) * kPerProducer;
      for (uintptr_t i = lo; i < lo + kPerProducer; ++i) {
        if (p == 0) {
          d.push(tag(i));  // front-door admission
        } else {
          // Hinted and unhinted side entrances, hint cycling all workers.
          int hint = static_cast<int>(rng.below(kWorkers + 1)) - 1;
          d.inject(tag(i), hint);
        }
      }
    });
  }

  std::vector<std::atomic<uint32_t>> seen(kTotal + 1);
  for (auto& s : seen) s.store(0);
  std::atomic<uint64_t> fetched{0};
  std::vector<std::thread> consumers;
  for (int w = 0; w < kWorkers; ++w) {
    consumers.emplace_back([w, &d, &seen, &fetched, &producers_done] {
      Sandbox* out = nullptr;
      for (;;) {
        if (d.fetch(w, &out)) {
          uintptr_t id = reinterpret_cast<uintptr_t>(out);
          ASSERT_GE(id, 1u);
          ASSERT_LE(id, kTotal);
          seen[id].fetch_add(1, std::memory_order_relaxed);
          fetched.fetch_add(1, std::memory_order_relaxed);
        } else if (producers_done.load(std::memory_order_acquire) &&
                   fetched.load(std::memory_order_relaxed) == kTotal) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  for (std::thread& t : consumers) t.join();

  EXPECT_EQ(fetched.load(), kTotal);
  for (uintptr_t i = 1; i <= kTotal; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "sandbox " << i;
  }
  EXPECT_EQ(d.backlog_estimate(), 0);
}

}  // namespace
}  // namespace sledge::runtime
