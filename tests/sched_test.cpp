// SchedulerPolicy unit tests: ordering and preemption contracts of the
// three per-worker policies (round-robin, FIFO run-to-completion, EDF) at
// the data-structure level. Sandboxes are created but never dispatched, so
// this binary is sanitizer-safe (no SIGALRM).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "minicc/minicc.hpp"
#include "sledge/sandbox.hpp"
#include "sledge/scheduler_policy.hpp"

namespace sledge::runtime {
namespace {

// One interpreter-tier module shared by every test; sandboxes over it are
// pure queue entries here (never run).
const engine::WasmModule* test_module() {
  static engine::WasmModule* mod = [] {
    auto wasm = minicc::compile_to_wasm("int state[1]; int main() { return state[0]; }");
    if (!wasm.ok()) return static_cast<engine::WasmModule*>(nullptr);
    engine::WasmModule::Config cfg;
    cfg.tier = engine::Tier::kInterp;
    cfg.strategy = engine::BoundsStrategy::kSoftware;
    auto m = engine::WasmModule::load(*wasm, cfg);
    if (!m.ok()) return static_cast<engine::WasmModule*>(nullptr);
    return new engine::WasmModule(m.take());
  }();
  return mod;
}

// deadline_abs_ns = 0 means "no deadline" (EDF sorts these last).
std::unique_ptr<Sandbox> make_sandbox(uint64_t deadline_abs_ns = 0) {
  auto sb = Sandbox::create(test_module(), {});
  EXPECT_NE(sb, nullptr);
  if (sb) sb->set_limits(0, deadline_abs_ns);
  return sb;
}

TEST(SchedPolicyTest, FactoryAndContracts) {
  auto rr = SchedulerPolicy::make(SchedPolicy::kRoundRobin);
  EXPECT_EQ(rr->kind(), SchedPolicy::kRoundRobin);
  EXPECT_TRUE(rr->allows_preemption());
  EXPECT_FALSE(rr->admit_eagerly());

  auto fifo = SchedulerPolicy::make(SchedPolicy::kFifoRunToCompletion);
  EXPECT_EQ(fifo->kind(), SchedPolicy::kFifoRunToCompletion);
  EXPECT_FALSE(fifo->allows_preemption());  // timer must never be armed
  EXPECT_FALSE(fifo->admit_eagerly());

  auto edf = SchedulerPolicy::make(SchedPolicy::kEdf);
  EXPECT_EQ(edf->kind(), SchedPolicy::kEdf);
  EXPECT_TRUE(edf->allows_preemption());
  EXPECT_TRUE(edf->admit_eagerly());  // needs the full candidate set

  for (auto* p : {rr.get(), fifo.get(), edf.get()}) {
    EXPECT_TRUE(p->empty());
    EXPECT_EQ(p->pick_next(), nullptr);
  }

  EXPECT_STREQ(to_string(SchedPolicy::kRoundRobin), "round_robin");
  EXPECT_STREQ(to_string(SchedPolicy::kFifoRunToCompletion), "fifo");
  EXPECT_STREQ(to_string(SchedPolicy::kEdf), "edf");
}

TEST(SchedPolicyTest, RoundRobinRotatesPreemptedToTail) {
  ASSERT_NE(test_module(), nullptr);
  auto a = make_sandbox(), b = make_sandbox(), c = make_sandbox();
  auto rr = SchedulerPolicy::make(SchedPolicy::kRoundRobin);
  rr->enqueue(a.get());
  rr->enqueue(b.get());
  rr->enqueue(c.get());
  EXPECT_EQ(rr->size(), 3u);

  EXPECT_EQ(rr->pick_next(), a.get());
  rr->enqueue(a.get());  // quantum expired: rotate to the tail
  EXPECT_EQ(rr->pick_next(), b.get());
  EXPECT_EQ(rr->pick_next(), c.get());
  EXPECT_EQ(rr->pick_next(), a.get());
  EXPECT_TRUE(rr->empty());
}

TEST(SchedPolicyTest, FifoPicksInAdmissionOrder) {
  ASSERT_NE(test_module(), nullptr);
  // Deadlines must NOT reorder FIFO: tightest-deadline sandbox last in,
  // still last out.
  auto a = make_sandbox(300), b = make_sandbox(200), c = make_sandbox(100);
  auto fifo = SchedulerPolicy::make(SchedPolicy::kFifoRunToCompletion);
  fifo->enqueue(a.get());
  fifo->enqueue(b.get());
  fifo->enqueue(c.get());
  EXPECT_EQ(fifo->pick_next(), a.get());
  EXPECT_EQ(fifo->pick_next(), b.get());
  EXPECT_EQ(fifo->pick_next(), c.get());
  EXPECT_EQ(fifo->pick_next(), nullptr);
}

TEST(SchedPolicyTest, EdfPicksEarliestDeadlineFirst) {
  ASSERT_NE(test_module(), nullptr);
  auto loose = make_sandbox(300), tight = make_sandbox(100),
       mid = make_sandbox(200);
  auto edf = SchedulerPolicy::make(SchedPolicy::kEdf);
  edf->enqueue(loose.get());
  edf->enqueue(tight.get());
  edf->enqueue(mid.get());
  EXPECT_EQ(edf->size(), 3u);

  EXPECT_EQ(edf->pick_next(), tight.get());
  EXPECT_EQ(edf->pick_next(), mid.get());
  EXPECT_EQ(edf->pick_next(), loose.get());
  EXPECT_TRUE(edf->empty());
}

TEST(SchedPolicyTest, EdfDeadlineLessSandboxesSortLast) {
  ASSERT_NE(test_module(), nullptr);
  auto none = make_sandbox(0);  // no deadline
  auto late = make_sandbox(7), early = make_sandbox(5);
  auto edf = SchedulerPolicy::make(SchedPolicy::kEdf);
  edf->enqueue(none.get());  // admitted first, must still lose
  edf->enqueue(late.get());
  edf->enqueue(early.get());
  EXPECT_EQ(edf->pick_next(), early.get());
  EXPECT_EQ(edf->pick_next(), late.get());
  EXPECT_EQ(edf->pick_next(), none.get());
}

TEST(SchedPolicyTest, EdfBreaksTiesInAdmissionOrder) {
  ASSERT_NE(test_module(), nullptr);
  auto a = make_sandbox(500), b = make_sandbox(500), c = make_sandbox(500);
  auto edf = SchedulerPolicy::make(SchedPolicy::kEdf);
  edf->enqueue(a.get());
  edf->enqueue(b.get());
  edf->enqueue(c.get());
  EXPECT_EQ(edf->pick_next(), a.get());
  EXPECT_EQ(edf->pick_next(), b.get());
  EXPECT_EQ(edf->pick_next(), c.get());
}

TEST(SchedPolicyTest, EdfReenqueueKeepsOrderingAcrossPreemptions) {
  ASSERT_NE(test_module(), nullptr);
  auto tight = make_sandbox(100), loose = make_sandbox(200);
  auto edf = SchedulerPolicy::make(SchedPolicy::kEdf);
  edf->enqueue(loose.get());
  edf->enqueue(tight.get());
  // The tight sandbox is preempted at quantum expiry and re-enqueued; it
  // must still beat the loose one.
  EXPECT_EQ(edf->pick_next(), tight.get());
  edf->enqueue(tight.get());
  EXPECT_EQ(edf->pick_next(), tight.get());
  edf->enqueue(tight.get());
  EXPECT_EQ(edf->size(), 2u);
  EXPECT_EQ(edf->pick_next(), tight.get());
  EXPECT_EQ(edf->pick_next(), loose.get());
}

}  // namespace
}  // namespace sledge::runtime
