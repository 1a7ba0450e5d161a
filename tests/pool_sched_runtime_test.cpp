// Pool + scheduling policy through the full runtime: cross-request
// isolation under warm reuse (every bounds strategy), cold starts that
// bypass the pool, FIFO's no-preemption guarantee and admission order,
// round robin's preemption and its rotation of a preempted sandbox to the
// queue's tail, guest state that survives preemption bit for bit on every
// served tier, and the stats surface. Runs the SIGALRM quantum timer, so not
// sanitizer-labeled.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "apps/workloads.hpp"
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

// Sleeps 30 ms, then spins a few ms before answering.
const char* kNapThenSpinSrc = R"(
int acc[1];
char out[1];
int main() {
  sleep_ms(30);
  int i = 0;
  while (i < 5000000) { acc[0] = acc[0] + i; i = i + 1; }
  out[0] = 110;
  resp_write(out, 1);
  return acc[0];
}
)";

// Iterations of testutil::spin_src that keep one core busy for well over
// 100 ms.
constexpr long long kLongSpin = 200000000;

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

// The round-robin policy's ordering, checked on the worker's run queue
// through the runtime.
class SchedPolicyTest : public PoolSchedTest {};

// Round robin rotates a preempted sandbox to the run queue's tail: pings
// admitted behind a long spinner on the one worker complete while the
// spinner still has most of its work left. Were the spinner put back at the
// head, each ping would wait for it to finish.
TEST_F(SchedPolicyTest, RoundRobinRotatesPreemptedToTail) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.sched = SchedPolicy::kRoundRobin;
  cfg.quantum_us = 1000;
  Runtime rt(cfg);
  ASSERT_TRUE(
      rt.register_module("spin", compile(testutil::spin_src(kLongSpin)))
          .is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  uint64_t spin_end = 0;
  std::thread spinner([&] {
    int status = 0;
    (void)loadgen::single_request("127.0.0.1", rt.bound_port(), "/spin", {},
                                  &status);
    spin_end = now_ns();
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
  const uint64_t pings_end = now_ns();
  spinner.join();
  rt.stop();
  EXPECT_LT(pings_end, spin_end) << "the pings waited for the spinner";
  EXPECT_GT(rt.totals().preemptions, 0u);
}

// FIFO runs its queue in arrival order. Three nappers on the one worker go
// to sleep in order a, b, c; a long spinner then holds the core (FIFO never
// preempts) while all three wake, so they queue up behind it in wake order
// and must complete in that order.
TEST_F(PoolSchedTest, FifoRunsQueueInArrivalOrder) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.sched = SchedPolicy::kFifoRunToCompletion;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("nap", compile(kNapThenSpinSrc)).is_ok());
  ASSERT_TRUE(
      rt.register_module("spin", compile(testutil::spin_src(kLongSpin)))
          .is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  auto request = [&](const char* path, uint64_t* end) {
    return std::thread([&rt, path, end] {
      int status = 0;
      auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), path, {},
                                       &status);
      *end = now_ns();
      EXPECT_TRUE(r.ok()) << r.error_message();
      EXPECT_EQ(status, 200);
    });
  };
  uint64_t ends[3] = {0, 0, 0}, spin_end = 0;
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(request("/nap", &ends[i]));
    while (rt.inflight() < i + 1) ::usleep(200);
    ::usleep(2000);  // napper i is asleep before napper i+1 arrives
  }
  clients.push_back(request("/spin", &spin_end));
  for (std::thread& t : clients) t.join();
  rt.stop();
  EXPECT_LT(spin_end, ends[0]) << "a napper woke after the spinner finished";
  EXPECT_LT(ends[0], ends[1]);
  EXPECT_LT(ends[1], ends[2]);
  EXPECT_EQ(rt.totals().preemptions, 0u);
}

// Preemption is invisible to the guest. CIFAR-10 (a floating-point CNN) is
// served on 3 workers under a 200 us quantum, so every request is switched
// out many times at arbitrary guest instructions from inside the SIGALRM
// handler; each response must match, byte for byte, the same request run to
// completion under FIFO, on every tier the runtime serves. This pins the
// integer, FP and vector state a preemption has to carry across the switch.
TEST_F(PoolSchedTest, PreemptedCifar10MatchesRunToCompletion) {
  auto wasm = apps::app_wasm("cifar10");
  ASSERT_TRUE(wasm.ok()) << wasm.error_message();
  std::vector<std::vector<uint8_t>> requests;
  for (int i = 0; i < 9; ++i) {
    std::vector<uint8_t> image = apps::app_request("cifar10");
    for (size_t j = static_cast<size_t>(i); j < image.size(); j += 5) {
      image[j] = static_cast<uint8_t>(image[j] + 17 * i);
    }
    requests.push_back(std::move(image));
  }

  auto serve = [&](engine::Tier tier, SchedPolicy sched,
                   uint64_t* preemptions) {
    RuntimeConfig cfg;
    cfg.workers = 3;
    cfg.sched = sched;
    cfg.quantum_us = 200;
    cfg.engine.tier = tier;
    Runtime rt(cfg);
    EXPECT_TRUE(rt.register_module("cifar10", wasm.value()).is_ok());
    EXPECT_TRUE(rt.start().is_ok());
    std::vector<std::vector<uint8_t>> responses(requests.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests.size(); ++i) {
      clients.emplace_back([&, i] {
        int status = 0;
        auto r = loadgen::single_request("127.0.0.1", rt.bound_port(),
                                         "/cifar10", requests[i], &status);
        EXPECT_TRUE(r.ok()) << r.error_message();
        EXPECT_EQ(status, 200);
        if (r.ok()) responses[i] = r.value();
      });
    }
    for (std::thread& t : clients) t.join();
    rt.stop();
    *preemptions = 0;
    for (const auto& w : rt.snapshot().workers) *preemptions += w.preemptions;
    return responses;
  };

  for (engine::Tier tier : {engine::Tier::kAot, engine::Tier::kAotO0}) {
    SCOPED_TRACE(engine::to_string(tier));
    uint64_t fifo_preemptions = 0, rr_preemptions = 0;
    const auto expected =
        serve(tier, SchedPolicy::kFifoRunToCompletion, &fifo_preemptions);
    const auto preempted =
        serve(tier, SchedPolicy::kRoundRobin, &rr_preemptions);
    EXPECT_EQ(fifo_preemptions, 0u);
    EXPECT_GT(rr_preemptions, 0u);
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_FALSE(expected[i].empty()) << "request " << i;
      EXPECT_EQ(preempted[i], expected[i]) << "request " << i;
    }
  }
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
  cfg.sched = SchedPolicy::kFifoRunToCompletion;
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
  EXPECT_NE(report.find("sched=fifo"), std::string::npos) << report;
  EXPECT_NE(report.find(" pool_hits="), std::string::npos) << report;
  EXPECT_NE(report.find(" startup_pooled(n="), std::string::npos) << report;
}

}  // namespace
}  // namespace sledge::runtime
