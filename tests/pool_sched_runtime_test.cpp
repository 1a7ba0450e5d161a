// Pool + scheduling policy through the full runtime: cross-request
// isolation under warm reuse (every bounds strategy), cold starts that
// bypass the pool, EDF ordering under contention, FIFO's no-preemption
// guarantee, round-robin parity with the seed, and the stats surface.
// Uses ucontext dispatch, so not sanitizer-labeled.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

std::vector<uint8_t> compile(const std::string& src) {
  auto wasm = minicc::compile_to_wasm(src);
  EXPECT_TRUE(wasm.ok()) << wasm.error_message();
  return wasm.ok() ? wasm.value() : std::vector<uint8_t>{};
}

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

// Answers 'z' when its state is pristine (all zeros), 'x' when a previous
// request's write leaked through — the cross-tenant canary.
const char* kCanarySrc = R"(
int state[4];
char out[1];
int main() {
  if (state[0] == 0) { out[0] = 122; } else { out[0] = 120; }
  state[0] = 1234;
  resp_write(out, 1);
  return 0;
}
)";

class PoolSchedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SandboxResourcePool& pool = SandboxResourcePool::instance();
    pool.configure(SandboxResourcePool::Config{});
    pool.purge();
    pool.reset_counters();
  }
};

// Warm starts must be indistinguishable from cold ones to the tenant: a
// stateful module sees zeros on every request even though (counter-checked)
// its memory came off the free list, under all four bounds strategies.
TEST_F(PoolSchedTest, PooledRequestsStayIsolatedAllStrategies) {
  auto wasm = compile(kCanarySrc);
  ASSERT_FALSE(wasm.empty());
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (engine::BoundsStrategy strategy :
       {engine::BoundsStrategy::kNone, engine::BoundsStrategy::kSoftware,
        engine::BoundsStrategy::kMpxSim, engine::BoundsStrategy::kVmGuard}) {
    SCOPED_TRACE(engine::to_string(strategy));
    engine::WasmModule::Config cfg;  // default kAot tier
    cfg.strategy = strategy;
    auto mod = engine::WasmModule::load(wasm, cfg);
    ASSERT_TRUE(mod.ok()) << mod.error_message();

    pool.purge();
    pool.reset_counters();
    for (int i = 0; i < 6; ++i) {
      auto sb = Sandbox::create(&mod.value(), {});
      ASSERT_NE(sb, nullptr);
      EXPECT_EQ(sb->pooled(), i > 0);  // first request is the cold one
      ASSERT_TRUE(run_sandbox_inline(sb.get()).is_ok());
      EXPECT_EQ(sb->state(), SandboxState::kComplete);
      ASSERT_EQ(sb->response().size(), 1u);
      EXPECT_EQ(sb->response()[0], 'z') << "request " << i
                                        << " saw a previous tenant's write";
    }
    SandboxResourcePool::Counters c = pool.counters();
    EXPECT_EQ(c.memory_hits, 5u);
    EXPECT_EQ(c.memory_misses, 1u);
  }
}

// The cold tier is the paper's cold start: every request maps a fresh
// memory and stack and hands both back to the OS, so it neither draws from
// the pool nor leaves anything in it for the next pooled create.
TEST_F(PoolSchedTest, ColdStartsBypassPool) {
  auto wasm = compile(kCanarySrc);
  ASSERT_FALSE(wasm.empty());
  auto mod = engine::WasmModule::load(wasm, engine::WasmModule::Config{});
  ASSERT_TRUE(mod.ok()) << mod.error_message();
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  for (int i = 0; i < 4; ++i) {
    auto sb = Sandbox::create(&mod.value(), {}, -1, false,
                              InstantiationMode::kCold);
    ASSERT_NE(sb, nullptr);
    EXPECT_FALSE(sb->pooled());
    ASSERT_TRUE(run_sandbox_inline(sb.get()).is_ok());
    EXPECT_EQ(sb->state(), SandboxState::kComplete);
  }
  SandboxResourcePool::Counters c = pool.counters();
  EXPECT_EQ(c.memory_hits, 0u);
  EXPECT_EQ(c.stack_hits, 0u);

  auto warm = Sandbox::create(&mod.value(), {});
  ASSERT_NE(warm, nullptr);
  EXPECT_FALSE(warm->pooled());
  c = pool.counters();
  EXPECT_EQ(c.memory_hits, 0u);
  EXPECT_EQ(c.memory_misses, 1u);
  EXPECT_EQ(c.stack_hits, 0u);
  EXPECT_EQ(c.stack_misses, 1u);
}

// EDF must run the tighter-deadline request first even when it arrives
// last (the blocker is descheduled at quantum expiry).
TEST_F(PoolSchedTest, EdfRunsTighterDeadlineFirstUnderContention) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.sched = SchedPolicy::kEdf;
  cfg.quantum_us = 2000;
  Runtime rt(cfg);
  // The blocker must keep the worker busy for the whole submission window
  // (its only job is to let loose and tight queue up behind it), so it
  // spins well past the setup sleeps. Deadlines are far above actual
  // runtime so nothing is killed, but tight (3 s) must be ordered before
  // loose (10 s).
  ASSERT_TRUE(rt.register_module("blocker",
                                 compile(testutil::spin_src(80000000)))
                  .is_ok());
  ModuleLimits tight_limits;
  tight_limits.deadline_ns = 3'000'000'000;
  ASSERT_TRUE(rt.register_module("tight",
                                 compile(testutil::spin_src(20000000)),
                                 tight_limits)
                  .is_ok());
  ModuleLimits loose_limits;
  loose_limits.deadline_ns = 10'000'000'000;
  ASSERT_TRUE(rt.register_module("loose",
                                 compile(testutil::spin_src(20000000)),
                                 loose_limits)
                  .is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  uint64_t tight_end = 0, loose_end = 0;
  std::thread blocker([&] {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(),
                                     "/blocker", {}, &status);
    EXPECT_TRUE(r.ok()) << r.error_message();
    EXPECT_EQ(status, 200);
  });
  // Let the blocker occupy the single worker (admission is counted before
  // dispatch, so give the worker a moment to actually pick it up), then
  // queue loose BEFORE tight: completion order must still be tight first.
  while (rt.inflight() == 0) ::usleep(200);
  ::usleep(5000);
  std::thread loose([&] {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/loose",
                                     {}, &status);
    loose_end = now_ns();
    EXPECT_TRUE(r.ok()) << r.error_message();
    EXPECT_EQ(status, 200);
  });
  ::usleep(5000);
  std::thread tight([&] {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/tight",
                                     {}, &status);
    tight_end = now_ns();
    EXPECT_TRUE(r.ok()) << r.error_message();
    EXPECT_EQ(status, 200);
  });
  blocker.join();
  loose.join();
  tight.join();
  EXPECT_LT(tight_end, loose_end)
      << "EDF served the looser deadline first";
  rt.stop();
  EXPECT_EQ(rt.totals().killed, 0u);
}

// FIFO run-to-completion: the quantum timer is never armed, so even a long
// request under a short quantum finishes with zero preemptions and
// everything still completes.
TEST_F(PoolSchedTest, FifoNeverPreempts) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.sched = SchedPolicy::kFifoRunToCompletion;
  cfg.quantum_us = 1000;
  Runtime rt(cfg);
  ASSERT_TRUE(
      rt.register_module("spin", compile(testutil::spin_src(30000000)))
          .is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::thread spinner([&] {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/spin",
                                     {}, &status);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(status, 200);
  });
  while (rt.inflight() == 0) ::usleep(200);
  int status = 0;
  auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping", {},
                                   &status);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(status, 200);
  spinner.join();
  rt.stop();
  EXPECT_EQ(rt.totals().preemptions, 0u);
  EXPECT_EQ(rt.totals().completed, 2u);
}

// Round-robin keeps the seed's behavior: a long request under a short
// quantum gets preempted, and short requests interleave past it.
TEST_F(PoolSchedTest, RoundRobinStillPreempts) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.sched = SchedPolicy::kRoundRobin;
  cfg.quantum_us = 1000;
  Runtime rt(cfg);
  ASSERT_TRUE(
      rt.register_module("spin", compile(testutil::spin_src(30000000)))
          .is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::thread spinner([&] {
    int status = 0;
    (void)loadgen::single_request("127.0.0.1", rt.bound_port(), "/spin", {},
                                  &status);
    EXPECT_EQ(status, 200);
  });
  while (rt.inflight() == 0) ::usleep(200);
  for (int i = 0; i < 3; ++i) {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                     {}, &status);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(status, 200);
  }
  spinner.join();
  rt.stop();
  EXPECT_GT(rt.totals().preemptions, 0u);
}

// The cold-start ablation: instantiation=cold in the runtime config makes
// every request a cold start; pooled (default) warms up after the first.
TEST_F(PoolSchedTest, PoolKnobControlsWarmStarts) {
  for (bool enabled : {false, true}) {
    SCOPED_TRACE(enabled ? "pool on" : "pool off");
    RuntimeConfig cfg;
    cfg.workers = 1;
    if (!enabled) cfg.instantiation = InstantiationMode::kCold;
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
    ASSERT_TRUE(rt.start().is_ok());
    for (int i = 0; i < 5; ++i) {
      int status = 0;
      auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                       {}, &status);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(status, 200);
    }
    rt.stop();
    Runtime::Totals t = rt.totals();
    EXPECT_EQ(t.completed, 5u);
    if (enabled) {
      EXPECT_GE(t.pool_hits, 3u);  // all but the cold start(s)
    } else {
      EXPECT_EQ(t.pool_hits, 0u);
      EXPECT_EQ(t.pool_misses, 5u);
    }
  }
}

// The operator-facing stats surface names the scheduler and reports the
// warm/cold split.
TEST_F(PoolSchedTest, StatsReportShowsSchedulerAndPool) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.sched = SchedPolicy::kEdf;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  for (int i = 0; i < 3; ++i) {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                     {}, &status);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(status, 200);
  }
  rt.stop();
  std::string report = rt.stats_report();
  EXPECT_NE(report.find("sched=edf"), std::string::npos) << report;
  EXPECT_NE(report.find(" pool_hits="), std::string::npos) << report;
  EXPECT_NE(report.find(" startup_pooled(n="), std::string::npos) << report;
}

}  // namespace
}  // namespace sledge::runtime
