// Concurrency soaks for the snapshot subsystem, sanitizer-safe: sandboxes
// are created and destroyed but never dispatched (no SIGALRM, which TSan
// cannot track), interpreter tiers only. Covers the registry's
// build-once guarantee under racing first requests, and concurrent
// snapshot-backed create/destroy cycling through the resource pool.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "minicc/minicc.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/sandbox.hpp"
#include "sledge/snapshot.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

class SnapshotSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.configure(SandboxResourcePool::Config{});
    pool.purge();
    pool.reset_counters();
    SnapshotRegistry::instance().clear();
    SnapshotRegistry::instance().reset_counters();
  }
  void TearDown() override {
    SnapshotRegistry::instance().clear();
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.purge();
    pool.configure(SandboxResourcePool::Config{});
  }

  Result<engine::WasmModule> load_module() {
    auto wasm = minicc::compile_to_wasm(R"(
int state[8];
int main() { state[0] = state[0] + 1; return state[0]; }
)");
    EXPECT_TRUE(wasm.ok()) << wasm.error_message();
    engine::WasmModule::Config cfg;
    cfg.tier = engine::Tier::kInterpFast;
    cfg.strategy = engine::BoundsStrategy::kVmGuard;
    return engine::WasmModule::load(*wasm, cfg);
  }
};

// N threads race the first snapshot-tier instantiation: exactly one
// template build, everyone lands on the same template, every sandbox is
// snapshot-backed.
TEST_F(SnapshotSoakTest, ConcurrentFirstRequestsBuildOnce) {
  auto mod = load_module();
  ASSERT_TRUE(mod.ok()) << mod.error_message();

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 50;
  std::atomic<int> backed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto sb = Sandbox::create(&mod.value(), {}, -1, false,
                                  InstantiationMode::kSnapshot);
        if (sb && sb->snapshot_backed()) {
          backed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(backed.load(), kThreads * kItersPerThread);
  SnapshotRegistry::Counters c = SnapshotRegistry::instance().counters();
  EXPECT_EQ(c.builds, 1u) << "racing first requests built more than once";
  EXPECT_EQ(c.build_failures, 0u);
  EXPECT_EQ(c.hits, static_cast<uint64_t>(kThreads * kItersPerThread));
  SnapshotRegistry::instance().invalidate(&mod.value());
}

// Snapshot-backed regions cycling through the shared resource pool under
// threads must never corrupt each other (TSan watches the free lists; the
// recycle path runs on every destruction).
TEST_F(SnapshotSoakTest, ConcurrentCreateDestroyThroughPool) {
  auto mod = load_module();
  ASSERT_TRUE(mod.ok()) << mod.error_message();
  // Build the template up front so the soak measures steady state.
  ASSERT_NE(SnapshotRegistry::instance().get_or_build(&mod.value()), nullptr);

  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 80;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto sb = Sandbox::create(&mod.value(), {}, -1, false,
                                  InstantiationMode::kSnapshot);
        if (!sb || !sb->snapshot_backed()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Destructor releases memory+stack back to the pool: the next
        // iteration (any thread) may adopt the recycled region.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  SnapshotRegistry::instance().invalidate(&mod.value());
}

}  // namespace
}  // namespace sledge::runtime
