#include "sledge/context.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if SLEDGE_CONTEXT_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if SLEDGE_CONTEXT_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "context.cpp implements the x86-64 SysV context switch only"
#endif

// sledge_context_swap(from, to): push the callee-saved GPRs and the two
// FP control words, park %rsp in from->sp, load to->sp, pop the same
// frame. Context::sp is the struct's first member.
//
// sledge_context_start: where a fresh context's first switch "returns"
// to. context_init leaves the boot function in %r13 and entry/arg in
// %r14/%r15; the CFI marks it as the stack's outermost frame for debuggers
// and unwinders.
asm(R"(
  .text
  .globl sledge_context_swap
  .hidden sledge_context_swap
  .type sledge_context_swap, @function
  .p2align 4
sledge_context_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq (%rsi), %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size sledge_context_swap, .-sledge_context_swap

  .globl sledge_context_start
  .hidden sledge_context_start
  .type sledge_context_start, @function
  .p2align 4
sledge_context_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r14, %rdi
  movq %r15, %rsi
  call *%r13
  ud2
  .cfi_endproc
  .size sledge_context_start, .-sledge_context_start
)");

extern "C" void sledge_context_swap(sledge::runtime::Context* from,
                                    sledge::runtime::Context* to);
extern "C" void sledge_context_start();

namespace sledge::runtime {

namespace {

// Power-on values: all SSE exceptions masked, round-to-nearest; x87
// extended precision with all exceptions masked.
constexpr uint64_t kInitialMxcsr = 0x1F80;
constexpr uint64_t kInitialFpuCw = 0x037F;

#if SLEDGE_CONTEXT_ASAN
// The context that switched to this thread's current one. The landing side
// records the stack it came from there, which is how a default-constructed
// (thread-stack) Context learns its bounds.
thread_local Context* t_switch_from = nullptr;

void asan_landed(void* fake_stack) {
  Context* from = t_switch_from;
  __sanitizer_finish_switch_fiber(fake_stack, &from->stack_lo,
                                  &from->stack_size);
}
#endif

void context_boot(void (*entry)(void*), void* arg) {
#if SLEDGE_CONTEXT_ASAN
  asan_landed(nullptr);
#endif
  entry(arg);
  std::fprintf(stderr, "fatal: green-thread entry returned\n");
  std::abort();
}

}  // namespace

void context_init(Context* ctx, void* stack_lo, size_t stack_size,
                  void (*entry)(void*), void* arg) {
#if SLEDGE_CONTEXT_ASAN
  // A pooled stack still carries the shadow of the frames its previous
  // occupant never returned from.
  __asan_unpoison_memory_region(stack_lo, stack_size);
  ctx->stack_lo = stack_lo;
  ctx->stack_size = stack_size;
  ctx->fake_stack = nullptr;
#endif
  // Frame popped by the first swap into ctx, lowest address first: control
  // words, r15 r14 r13 r12 rbx rbp, return address. Two zero words above
  // it end the stack and leave %rsp 16-byte aligned when the start stub
  // makes its call.
  uintptr_t top =
      (reinterpret_cast<uintptr_t>(stack_lo) + stack_size) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top - 10 * sizeof(uint64_t));
  frame[0] = kInitialMxcsr | (kInitialFpuCw << 32);
  frame[1] = reinterpret_cast<uint64_t>(arg);    // r15
  frame[2] = reinterpret_cast<uint64_t>(entry);  // r14
  frame[3] = reinterpret_cast<uint64_t>(&context_boot);  // r13
  frame[4] = 0;                                  // r12
  frame[5] = 0;                                  // rbx
  frame[6] = 0;                                  // rbp: ends the fp chain
  frame[7] = reinterpret_cast<uint64_t>(&sledge_context_start);
  frame[8] = 0;
  frame[9] = 0;
  ctx->sp = frame;
#if SLEDGE_CONTEXT_TSAN
  // A fresh fiber per run: the previous occupant's shadow call stack never
  // unwound.
  if (ctx->fiber) __tsan_destroy_fiber(ctx->fiber);
  ctx->fiber = __tsan_create_fiber(0);
#endif
}

void context_switch(Context* from, Context* to) {
#if SLEDGE_CONTEXT_ASAN
  __sanitizer_start_switch_fiber(&from->fake_stack, to->stack_lo,
                                 to->stack_size);
  t_switch_from = from;
#endif
#if SLEDGE_CONTEXT_TSAN
  from->fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to->fiber, 0);
#endif
  sledge_context_swap(from, to);
#if SLEDGE_CONTEXT_ASAN
  asan_landed(from->fake_stack);
#endif
}

void context_destroy(Context* ctx) {
#if SLEDGE_CONTEXT_TSAN
  if (ctx->fiber) __tsan_destroy_fiber(ctx->fiber);
  ctx->fiber = nullptr;
#endif
  (void)ctx;
}

}  // namespace sledge::runtime
