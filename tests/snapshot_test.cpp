// Snapshot/COW instantiation subsystem: sealed memfd templates, the
// MAP_PRIVATE seeded-instantiate path, the tenant-isolation guarantees the
// design leans on (private mappings + recycle-to-zero after a template
// mapping), and graceful degradation when memfd_create is unavailable.
#include <gtest/gtest.h>

#include <cstring>

#include "engine/memory.hpp"
#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/runtime.hpp"
#include "sledge/snapshot.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

using engine::BoundsStrategy;
using engine::LinearMemory;

constexpr BoundsStrategy kAllStrategies[] = {
    BoundsStrategy::kNone, BoundsStrategy::kSoftware, BoundsStrategy::kMpxSim,
    BoundsStrategy::kVmGuard};

// Each test owns the process-wide pool and snapshot registry.
class SnapshotTest : public ::testing::Test {
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
    // Templates are keyed by module address; a later test could load a
    // module at the same address, so never leave entries behind.
    SnapshotRegistry::instance().clear();
    SnapshotRegistry::set_memfd_fault_hook(nullptr);
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.purge();
    pool.configure(SandboxResourcePool::Config{});
  }
};

// A module whose observable behavior depends on prior tenant writes: main
// returns the previous value of state[0] and then scribbles over it.
const char* kCanarySrc = R"(
int state[4];
int main() { int old = state[0]; state[0] = 1111; return old; }
)";

// ---- Template isolation across the COW mapping --------------------------

// The core cross-tenant property: tenant B instantiated from the same
// template must see the pristine template image, never tenant A's writes,
// under every bounds strategy.
TEST_F(SnapshotTest, SecondTenantNeverSeesFirstTenantWrites) {
  auto wasm = minicc::compile_to_wasm(kCanarySrc);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  SandboxResourcePool& pool = SandboxResourcePool::instance();

  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    engine::WasmModule::Config cfg;
    cfg.tier = engine::Tier::kInterpFast;
    cfg.strategy = strategy;
    auto mod = engine::WasmModule::load(*wasm, cfg);
    ASSERT_TRUE(mod.ok()) << mod.error_message();

    const SnapshotTemplate* tmpl =
        SnapshotRegistry::instance().get_or_build(&mod.value());
    ASSERT_NE(tmpl, nullptr);
    ASSERT_GE(tmpl->fd, 0);
    ASSERT_GT(tmpl->content_bytes, 0u);

    auto seeded = [&]() {
      LinearMemory mem =
          pool.acquire_memory(strategy, 0, tmpl->max_pages, nullptr);
      EXPECT_TRUE(mem.valid());
      EXPECT_TRUE(
          mem.map_template(tmpl->fd, tmpl->content_bytes, tmpl->max_pages));
      return mod->instantiate_seeded(std::move(mem), tmpl->seed);
    };

    // Tenant A: template state is pristine (main never ran at capture
    // time), then A dirties it through its private mapping.
    auto a = seeded();
    ASSERT_TRUE(a.ok()) << a.error_message();
    auto out_a = a.value().call("main", {});
    ASSERT_TRUE(out_a.ok()) << out_a.describe();
    EXPECT_EQ(out_a.value->as_i32(), 0);
    pool.release_memory(a.value().reclaim_memory());

    // Tenant B: fresh private mapping of the same sealed fd — A's write
    // must be invisible.
    auto b = seeded();
    ASSERT_TRUE(b.ok()) << b.error_message();
    auto out_b = b.value().call("main", {});
    ASSERT_TRUE(out_b.ok()) << out_b.describe();
    EXPECT_EQ(out_b.value->as_i32(), 0) << "tenant A bytes leaked through COW";
    pool.release_memory(b.value().reclaim_memory());

    SnapshotRegistry::instance().invalidate(&mod.value());
  }
}

// The recycle regression the design doc calls out: MADV_DONTNEED on a
// private *file* mapping restores template bytes, not zeros, so recycle()
// must replace a template-backed region with anonymous memory before it
// re-enters the pool. A pooled (non-snapshot) tenant that inherits the
// region must read zeros — garbage canary included.
TEST_F(SnapshotTest, RecycledTemplateRegionReadsZeroAllStrategies) {
  auto wasm = minicc::compile_to_wasm(kCanarySrc);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  SandboxResourcePool& pool = SandboxResourcePool::instance();

  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    engine::WasmModule::Config cfg;
    cfg.tier = engine::Tier::kInterpFast;
    cfg.strategy = strategy;
    auto mod = engine::WasmModule::load(*wasm, cfg);
    ASSERT_TRUE(mod.ok()) << mod.error_message();
    const SnapshotTemplate* tmpl =
        SnapshotRegistry::instance().get_or_build(&mod.value());
    ASSERT_NE(tmpl, nullptr);

    pool.purge();
    LinearMemory mem =
        pool.acquire_memory(strategy, 0, tmpl->max_pages, nullptr);
    ASSERT_TRUE(mem.valid());
    ASSERT_TRUE(
        mem.map_template(tmpl->fd, tmpl->content_bytes, tmpl->max_pages));
    uint8_t* base = mem.base();
    std::memset(base, 0xAB, mem.size_bytes());  // garbage canary
    pool.release_memory(std::move(mem));

    bool from_pool = false;
    LinearMemory reused =
        pool.acquire_memory(strategy, 1, tmpl->max_pages, &from_pool);
    ASSERT_TRUE(reused.valid());
    EXPECT_TRUE(from_pool);
    EXPECT_EQ(reused.base(), base);  // genuinely the same region
    for (uint64_t i = 0; i < reused.size_bytes(); ++i) {
      ASSERT_EQ(reused.base()[i], 0)
          << "template/canary byte survived recycle at offset " << i;
    }
    pool.release_memory(std::move(reused));
    SnapshotRegistry::instance().invalidate(&mod.value());
  }
}

// Seeded instantiation must be behaviorally identical to a cold one, for
// every execution tier (the AoT inst-block path and the interpreter
// globals/table path are entirely different code).
TEST_F(SnapshotTest, SeededMatchesColdAcrossTiers) {
  const char* src = R"(
int acc[3];
int main() {
  acc[0] = acc[0] + 7;
  acc[1] = acc[1] + acc[0] * 3;
  return acc[0] * 1000 + acc[1];
}
)";
  auto wasm = minicc::compile_to_wasm(src);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  SandboxResourcePool& pool = SandboxResourcePool::instance();

  for (engine::Tier tier : {engine::Tier::kInterp, engine::Tier::kInterpFast,
                            engine::Tier::kAot}) {
    SCOPED_TRACE(engine::to_string(tier));
    engine::WasmModule::Config cfg;
    cfg.tier = tier;
    cfg.strategy = BoundsStrategy::kVmGuard;
    auto mod = engine::WasmModule::load(*wasm, cfg);
    ASSERT_TRUE(mod.ok()) << mod.error_message();

    auto cold = mod->instantiate();
    ASSERT_TRUE(cold.ok()) << cold.error_message();
    auto cold_out = cold.value().call("main", {});
    ASSERT_TRUE(cold_out.ok()) << cold_out.describe();

    const SnapshotTemplate* tmpl =
        SnapshotRegistry::instance().get_or_build(&mod.value());
    ASSERT_NE(tmpl, nullptr);
    for (int i = 0; i < 2; ++i) {
      LinearMemory mem = pool.acquire_memory(BoundsStrategy::kVmGuard, 0,
                                             tmpl->max_pages, nullptr);
      ASSERT_TRUE(mem.valid());
      ASSERT_TRUE(
          mem.map_template(tmpl->fd, tmpl->content_bytes, tmpl->max_pages));
      auto seeded = mod->instantiate_seeded(std::move(mem), tmpl->seed);
      ASSERT_TRUE(seeded.ok()) << seeded.error_message();
      auto out = seeded.value().call("main", {});
      ASSERT_TRUE(out.ok()) << out.describe();
      EXPECT_EQ(out.value->as_i32(), cold_out.value->as_i32())
          << "seeded instantiation diverged from cold (iteration " << i << ")";
      pool.release_memory(seeded.value().reclaim_memory());
    }
    SnapshotRegistry::instance().invalidate(&mod.value());
  }
}

// A snapshot-backed memory must still be able to grow past the template
// image: pages above content_bytes come from the anonymous reservation and
// must read as zeros.
TEST_F(SnapshotTest, GrowPastTemplateYieldsZeroPages) {
  auto wasm = minicc::compile_to_wasm(kCanarySrc);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  engine::WasmModule::Config cfg;
  cfg.tier = engine::Tier::kInterpFast;
  cfg.strategy = BoundsStrategy::kSoftware;
  auto mod = engine::WasmModule::load(*wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();
  const SnapshotTemplate* tmpl =
      SnapshotRegistry::instance().get_or_build(&mod.value());
  ASSERT_NE(tmpl, nullptr);

  SandboxResourcePool& pool = SandboxResourcePool::instance();
  uint32_t ceiling = tmpl->max_pages + 2;
  LinearMemory mem =
      pool.acquire_memory(BoundsStrategy::kSoftware, 0, ceiling, nullptr);
  ASSERT_TRUE(mem.valid());
  ASSERT_TRUE(mem.map_template(tmpl->fd, tmpl->content_bytes, ceiling));
  uint64_t image = mem.size_bytes();
  int32_t old_pages = mem.grow(2);
  ASSERT_GE(old_pages, 0);
  for (uint64_t i = image; i < mem.size_bytes(); ++i) {
    ASSERT_EQ(mem.base()[i], 0) << "grown page not zero at offset " << i;
  }
  pool.release_memory(std::move(mem));
}

// A region recycled in place keeps its zeroed prefix committed. Mapping a
// smaller template over it must decommit the rest: only the image stays
// read/write, and growing past it yields zero pages, under every bounds
// strategy.
TEST_F(SnapshotTest, MapTemplateDecommitsKeptPrefixAllStrategies) {
  auto wasm = minicc::compile_to_wasm(kCanarySrc);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();

  for (BoundsStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(engine::to_string(strategy));
    engine::WasmModule::Config cfg;
    cfg.tier = engine::Tier::kInterpFast;
    cfg.strategy = strategy;
    auto mod = engine::WasmModule::load(*wasm, cfg);
    ASSERT_TRUE(mod.ok()) << mod.error_message();
    const SnapshotTemplate* tmpl =
        SnapshotRegistry::instance().get_or_build(&mod.value());
    ASSERT_NE(tmpl, nullptr);

    // A previous tenant ran two pages past the image and dirtied them all.
    const uint32_t image_pages =
        static_cast<uint32_t>(tmpl->content_bytes / wasm::kPageSize);
    const uint32_t ceiling = tmpl->max_pages + 2;
    auto mem_or = LinearMemory::create(strategy, image_pages + 2, ceiling);
    ASSERT_TRUE(mem_or.ok());
    LinearMemory mem = mem_or.take();
    std::memset(mem.base(), 0xAB, mem.size_bytes());
    ASSERT_TRUE(mem.recycle());

    ASSERT_TRUE(mem.map_template(tmpl->fd, tmpl->content_bytes, ceiling));
    EXPECT_EQ(mem.committed_bytes(), tmpl->content_bytes);
    EXPECT_EQ(testutil::writable_ranges(mem.base(), mem.reserved_bytes()),
              (std::vector<std::pair<uint64_t, uint64_t>>{
                  {0, tmpl->content_bytes}}));

    ASSERT_EQ(mem.grow(2), static_cast<int32_t>(image_pages));
    for (uint64_t i = tmpl->content_bytes; i < mem.size_bytes(); ++i) {
      ASSERT_EQ(mem.base()[i], 0) << "stale tail byte at offset " << i;
    }
    SnapshotRegistry::instance().invalidate(&mod.value());
  }
}

// ---- Graceful degradation ------------------------------------------------

bool fail_memfd() { return true; }

// Kernels without memfd_create (or sealing) must degrade to the pooled
// tier: creation still succeeds, just not snapshot-backed, and the failure
// is remembered (one build attempt, not a per-request storm).
TEST_F(SnapshotTest, MemfdUnavailableFallsBackToPooled) {
  auto wasm = minicc::compile_to_wasm(kCanarySrc);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  engine::WasmModule::Config cfg;
  cfg.tier = engine::Tier::kInterpFast;
  cfg.strategy = BoundsStrategy::kVmGuard;
  auto mod = engine::WasmModule::load(*wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();

  SnapshotRegistry::set_memfd_fault_hook(&fail_memfd);
  for (int i = 0; i < 3; ++i) {
    auto sb = Sandbox::create(&mod.value(), {}, -1, false,
                              InstantiationMode::kSnapshot);
    ASSERT_NE(sb, nullptr);
    EXPECT_FALSE(sb->snapshot_backed());
  }
  SnapshotRegistry::Counters c = SnapshotRegistry::instance().counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(c.builds, 0u);
  EXPECT_EQ(c.build_failures, 1u);  // remembered, not retried per request

  // Hook removed (the "kernel" regains memfd) + invalidate: builds recover.
  SnapshotRegistry::set_memfd_fault_hook(nullptr);
  SnapshotRegistry::instance().invalidate(&mod.value());
  auto sb = Sandbox::create(&mod.value(), {}, -1, false,
                            InstantiationMode::kSnapshot);
  ASSERT_NE(sb, nullptr);
  EXPECT_TRUE(sb->snapshot_backed());
  sb.reset();
  SnapshotRegistry::instance().invalidate(&mod.value());
}

// ---- Registry lifecycle --------------------------------------------------

TEST_F(SnapshotTest, RegistryBuildsOncePerModuleAndInvalidates) {
  auto wasm = minicc::compile_to_wasm(kCanarySrc);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  engine::WasmModule::Config cfg;
  cfg.tier = engine::Tier::kInterpFast;
  cfg.strategy = BoundsStrategy::kVmGuard;
  auto mod = engine::WasmModule::load(*wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();

  const SnapshotTemplate* t1 =
      SnapshotRegistry::instance().get_or_build(&mod.value());
  const SnapshotTemplate* t2 =
      SnapshotRegistry::instance().get_or_build(&mod.value());
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1, t2);  // cached, not rebuilt
  EXPECT_EQ(SnapshotRegistry::instance().counters().builds, 1u);

  SnapshotRegistry::instance().invalidate(&mod.value());
  const SnapshotTemplate* t3 =
      SnapshotRegistry::instance().get_or_build(&mod.value());
  ASSERT_NE(t3, nullptr);
  EXPECT_EQ(SnapshotRegistry::instance().counters().builds, 2u);
  SnapshotRegistry::instance().invalidate(&mod.value());
}

// ---- End-to-end through the runtime --------------------------------------

// A runtime configured for snapshot instantiation serves correct responses
// and reports snapshot-tier startups and registry hits in its snapshot().
TEST_F(SnapshotTest, RuntimeServesSnapshotTier) {
  const char* src = R"(
char out[2];
int main() { out[0] = 111; out[1] = 107; resp_write(out, 2); return 0; }
)";
  auto wasm = minicc::compile_to_wasm(src);
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();

  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.num_listeners = 1;
  cfg.engine.tier = engine::Tier::kInterpFast;
  cfg.instantiation = InstantiationMode::kSnapshot;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ok", *wasm).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  for (int i = 0; i < 8; ++i) {
    int status = 0;
    auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ok",
                                        {}, &status);
    ASSERT_TRUE(resp.ok()) << resp.error_message();
    EXPECT_EQ(status, 200);
    EXPECT_EQ(std::string(resp->begin(), resp->end()), "ok");
  }
  rt.stop();

  Runtime::StatsSnapshot snap = rt.snapshot();
  ASSERT_EQ(snap.modules.size(), 1u);
  EXPECT_EQ(snap.modules[0].requests, 8u);
  EXPECT_EQ(snap.modules[0].startup_snapshot.count, 8u)
      << "requests not recorded on the snapshot startup tier";
  SnapshotRegistry::Counters c = SnapshotRegistry::instance().counters();
  EXPECT_EQ(c.builds, 1u);
  EXPECT_GE(c.hits, 8u);
}

}  // namespace
}  // namespace sledge::runtime
