// Green-thread context switch and the one preemption rule.
//
// The switch is checked at the register level (every callee-saved GPR,
// MXCSR and the x87 control word survive a ping-pong with a side that
// scrambles them all), its first entry through context_init, and a real
// sandbox dispatch. preemptible() is checked branch by branch. Sanitizer
// labelled: under ASan/TSan every switch here goes through the fiber
// annotations in context.cpp.
#include <gtest/gtest.h>

#include <signal.h>
#include <xmmintrin.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "engine/trap.hpp"
#include "minicc/minicc.hpp"
#include "sledge/context.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/runtime.hpp"
#include "sledge/sandbox.hpp"

using sledge::runtime::Context;

// probe_switch(from, to, fn, out): loads a known pattern into rbx, rbp and
// r12-r15, calls fn(from, to), and stores what those registers hold once
// fn returns into out[0..5].
// scramble_switch(from, to, fn): loads a different pattern into the same
// registers, then calls fn(from, to).
// Both preserve the callee-saved registers for their own caller.
asm(R"(
  .text
  .p2align 4
  .type probe_switch, @function
probe_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  pushq %rcx
  movq %rdx, %rax
  movabsq $0x1111111111111111, %rbx
  movabsq $0x2222222222222222, %rbp
  movabsq $0x3333333333333333, %r12
  movabsq $0x4444444444444444, %r13
  movabsq $0x5555555555555555, %r14
  movabsq $0x6666666666666666, %r15
  call *%rax
  movq (%rsp), %rcx
  movq %rbx, 0(%rcx)
  movq %rbp, 8(%rcx)
  movq %r12, 16(%rcx)
  movq %r13, 24(%rcx)
  movq %r14, 32(%rcx)
  movq %r15, 40(%rcx)
  popq %rcx
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size probe_switch, .-probe_switch

  .p2align 4
  .type scramble_switch, @function
scramble_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  movq %rdx, %rax
  movabsq $0xdead0000000000d1, %rbx
  movabsq $0xdead0000000000d2, %rbp
  movabsq $0xdead0000000000d3, %r12
  movabsq $0xdead0000000000d4, %r13
  movabsq $0xdead0000000000d5, %r14
  movabsq $0xdead0000000000d6, %r15
  call *%rax
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size scramble_switch, .-scramble_switch
)");

using SwitchFn = void (*)(Context*, Context*);
extern "C" void probe_switch(Context* from, Context* to, SwitchFn fn,
                             uint64_t* out);
extern "C" void scramble_switch(Context* from, Context* to, SwitchFn fn);

namespace sledge::runtime {
namespace {

constexpr size_t kStackSize = 64 * 1024;
constexpr size_t kGuardSize = 4096;

uint16_t read_fpu_cw() {
  uint16_t cw;
  asm volatile("fnstcw %0" : "=m"(cw));
  return cw;
}
void write_fpu_cw(uint16_t cw) { asm volatile("fldcw %0" : : "m"(cw)); }

// ---- Register-level ping-pong ----

struct PingPong {
  Context main_ctx;
  Context co_ctx;
  int rounds = 0;
  bool co_kept_own_fp = true;  // the other side's FP control survived too
};

// The other side: on every turn it sets its own MXCSR / x87 CW (different
// from the main side's), scrambles all callee-saved GPRs and switches back.
void co_main(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  const unsigned co_mxcsr = 0x7F80;   // round toward zero, all masked
  const uint16_t co_fpucw = 0x0C7F;   // x87 round toward zero
  for (;;) {
    _mm_setcsr(co_mxcsr);
    write_fpu_cw(co_fpucw);
    ++pp->rounds;
    scramble_switch(&pp->co_ctx, &pp->main_ctx, &context_switch);
    if (_mm_getcsr() != co_mxcsr || read_fpu_cw() != co_fpucw) {
      pp->co_kept_own_fp = false;
    }
  }
}

TEST(ContextTest, PingPongKeepsCalleeSavedState) {
  ExecStack* stack = create_stack(kStackSize, kGuardSize);
  ASSERT_NE(stack, nullptr);
  PingPong pp;
  context_init(&pp.co_ctx, stack->base + kGuardSize, kStackSize, &co_main,
               &pp);
  const unsigned main_mxcsr = _mm_getcsr();
  const uint16_t main_fpucw = read_fpu_cw();
  for (int i = 0; i < 1000; ++i) {
    uint64_t regs[6] = {};
    probe_switch(&pp.main_ctx, &pp.co_ctx, &context_switch, regs);
    ASSERT_EQ(regs[0], 0x1111111111111111u) << "rbx, round " << i;
    ASSERT_EQ(regs[1], 0x2222222222222222u) << "rbp, round " << i;
    ASSERT_EQ(regs[2], 0x3333333333333333u) << "r12, round " << i;
    ASSERT_EQ(regs[3], 0x4444444444444444u) << "r13, round " << i;
    ASSERT_EQ(regs[4], 0x5555555555555555u) << "r14, round " << i;
    ASSERT_EQ(regs[5], 0x6666666666666666u) << "r15, round " << i;
    ASSERT_EQ(_mm_getcsr(), main_mxcsr) << "round " << i;
    ASSERT_EQ(read_fpu_cw(), main_fpucw) << "round " << i;
  }
  EXPECT_EQ(pp.rounds, 1000);
  EXPECT_TRUE(pp.co_kept_own_fp);
  context_destroy(&pp.co_ctx);
  destroy_stack(stack);
}

// ---- First entry ----

struct FirstEntry {
  Context main_ctx;
  Context co_ctx;
  void* arg_seen = nullptr;
  uintptr_t local_addr = 0;
  unsigned mxcsr = 0;
  uint16_t fpucw = 0;
  char printed[32] = {};
};

void first_entry(void* arg) {
  auto* fe = static_cast<FirstEntry*>(arg);
  fe->arg_seen = arg;
  fe->local_addr = reinterpret_cast<uintptr_t>(&fe);
  fe->mxcsr = _mm_getcsr();
  fe->fpucw = read_fpu_cw();
  // Varargs doubles are spilled with aligned SSE stores: this faults on a
  // misaligned first frame.
  std::snprintf(fe->printed, sizeof(fe->printed), "%.2f", 2.5);
  context_switch(&fe->co_ctx, &fe->main_ctx);  // for good
}

TEST(ContextTest, FirstEntryRunsOnTheGivenStack) {
  ExecStack* stack = create_stack(kStackSize, kGuardSize);
  ASSERT_NE(stack, nullptr);
  // Runs twice on the same stack: a pooled stack is re-laid per request.
  for (int run = 0; run < 2; ++run) {
    FirstEntry fe;
    uint8_t* lo = stack->base + kGuardSize;
    context_init(&fe.co_ctx, lo, kStackSize, &first_entry, &fe);
    EXPECT_GE(reinterpret_cast<uintptr_t>(fe.co_ctx.sp),
              reinterpret_cast<uintptr_t>(lo));
    EXPECT_LT(reinterpret_cast<uintptr_t>(fe.co_ctx.sp),
              reinterpret_cast<uintptr_t>(lo + kStackSize));
    context_switch(&fe.main_ctx, &fe.co_ctx);
    EXPECT_EQ(fe.arg_seen, &fe);
    EXPECT_GE(fe.local_addr, reinterpret_cast<uintptr_t>(lo));
    EXPECT_LT(fe.local_addr, reinterpret_cast<uintptr_t>(lo + kStackSize));
    EXPECT_EQ(fe.mxcsr & 0xFFC0u, 0x1F80u);  // masked, round-to-nearest
    EXPECT_EQ(fe.fpucw, 0x037F);
    EXPECT_STREQ(fe.printed, "2.50");
    context_destroy(&fe.co_ctx);
  }
  destroy_stack(stack);
}

// ---- The preemption rule ----

TEST(ContextTest, PreemptibleNeedsOwnStackRunningAndNoHostCall) {
  ExecStack* stack = create_stack(kStackSize, kGuardSize);
  ASSERT_NE(stack, nullptr);
  const uintptr_t base = reinterpret_cast<uintptr_t>(stack->base);
  const uintptr_t on_stack = base + kGuardSize + kStackSize / 2;

  // Every condition holds.
  EXPECT_TRUE(preemptible(on_stack, *stack, SandboxState::kRunning, false));
  EXPECT_TRUE(preemptible(base + kGuardSize, *stack, SandboxState::kRunning,
                          false));
  EXPECT_TRUE(preemptible(base + stack->size - 8, *stack,
                          SandboxState::kRunning, false));

  // 1. Off the sandbox stack: this (scheduler) thread's stack, the trap
  // handler's sigaltstack, the guard page, one past the top.
  int local = 0;
  EXPECT_FALSE(preemptible(reinterpret_cast<uintptr_t>(&local), *stack,
                           SandboxState::kRunning, false));
  engine::ensure_sigaltstack();
  stack_t alt{};
  ASSERT_EQ(::sigaltstack(nullptr, &alt), 0);
  ASSERT_NE(alt.ss_sp, nullptr);
  const uintptr_t on_alt =
      reinterpret_cast<uintptr_t>(alt.ss_sp) + alt.ss_size / 2;
  EXPECT_FALSE(preemptible(on_alt, *stack, SandboxState::kRunning, false));
  EXPECT_FALSE(preemptible(base + kGuardSize / 2, *stack,
                           SandboxState::kRunning, false));
  EXPECT_FALSE(preemptible(base + stack->size, *stack, SandboxState::kRunning,
                           false));

  // 2. Not kRunning.
  for (SandboxState st :
       {SandboxState::kAllocated, SandboxState::kRunnable,
        SandboxState::kBlocked, SandboxState::kComplete, SandboxState::kFailed,
        SandboxState::kKilled}) {
    EXPECT_FALSE(preemptible(on_stack, *stack, st, false)) << to_string(st);
  }

  // 3. A host call in progress.
  EXPECT_FALSE(preemptible(on_stack, *stack, SandboxState::kRunning, true));
  destroy_stack(stack);
}

// ---- A real sandbox: dispatch, block inside a host call, resume ----

std::vector<uint8_t> compile(const char* src) {
  auto wasm = minicc::compile_to_wasm(src);
  EXPECT_TRUE(wasm.ok()) << wasm.error_message();
  return wasm.ok() ? wasm.value() : std::vector<uint8_t>{};
}

const char* kNapSrc = R"(
char out[1];
int main() { sleep_ms(1); out[0] = 122; resp_write(out, 1); return 0; }
)";

// On the AoT tier the rule's third clause reads the instance's HostDepth.
TEST(ContextTest, SandboxBlockedInHostCallIsNotPreemptible) {
  auto wasm = compile(kNapSrc);
  ASSERT_FALSE(wasm.empty());
  engine::WasmModule::Config cfg;
  cfg.tier = engine::Tier::kAot;
  auto mod = engine::WasmModule::load(wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();
  auto sb = Sandbox::create(&mod.value(), {});
  ASSERT_NE(sb, nullptr);
  // Before the first dispatch its saved stack pointer is on its own stack,
  // but it is neither running nor inside guest code.
  const auto fresh_sp = reinterpret_cast<uintptr_t>(sb->context()->sp);
  EXPECT_FALSE(sb->preemptible(fresh_sp));

  Context here;
  sb->dispatch(&here);
  ASSERT_EQ(sb->state(), SandboxState::kBlocked);
  const auto blocked_sp = reinterpret_cast<uintptr_t>(sb->context()->sp);
  EXPECT_FALSE(sb->preemptible(blocked_sp));
  // Even were it marked running, it is parked inside sleep_ms: a host call.
  sb->set_state(SandboxState::kRunning);
  EXPECT_FALSE(sb->preemptible(blocked_sp));
  sb->set_state(SandboxState::kBlocked);

  ASSERT_TRUE(run_sandbox_inline(sb.get()).is_ok());
  EXPECT_EQ(sb->response(), (std::vector<uint8_t>{'z'}));
}

// The interpreters keep no HostDepth (they allocate inside guest code), so
// an interpreter-tier sandbox counts as always inside a host call.
TEST(ContextTest, InterpreterSandboxIsNeverPreemptible) {
  auto wasm = compile(kNapSrc);
  ASSERT_FALSE(wasm.empty());
  engine::WasmModule::Config cfg;
  cfg.tier = engine::Tier::kInterpFast;
  cfg.strategy = engine::BoundsStrategy::kSoftware;
  auto mod = engine::WasmModule::load(wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();
  auto sb = Sandbox::create(&mod.value(), {});
  ASSERT_NE(sb, nullptr);
  const auto own_sp = reinterpret_cast<uintptr_t>(sb->context()->sp);
  const SandboxState fresh = sb->state();
  sb->set_state(SandboxState::kRunning);
  EXPECT_FALSE(sb->preemptible(own_sp));
  sb->set_state(fresh);
  ASSERT_TRUE(run_sandbox_inline(sb.get()).is_ok());
  EXPECT_EQ(sb->response(), (std::vector<uint8_t>{'z'}));
}

}  // namespace
}  // namespace sledge::runtime
