// Green-thread contexts: one hand-written x86-64 SysV switch.
//
// context_switch saves only what the ABI makes callee-saved (rbx, rbp,
// r12-r15, MXCSR and the x87 control word) on the outgoing stack and keeps
// the stack pointer in a Context; everything caller-saved, vector registers
// included, is already dead across the call. It makes no syscall and never
// touches the signal mask (the glibc ucontext calls paid an rt_sigprocmask
// per switch, and that non-atomic mask switch made preemption racy).
//
// Preemption uses the same switch: the quantum handler calls
// context_switch from inside the SIGALRM handler, so the kernel's signal
// frame, with the full xsave state of the interrupted code, stays on the
// sandbox stack and is restored by sigreturn when the handler returns on
// resume (worker.cpp).
//
// Under ASan and TSan every switch is announced through the sanitizers'
// fiber APIs, so sandbox execution runs under both (tests/context_test.cpp).
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define SLEDGE_CONTEXT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SLEDGE_CONTEXT_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define SLEDGE_CONTEXT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SLEDGE_CONTEXT_TSAN 1
#endif
#endif

namespace sledge::runtime {

// A suspended green thread: its stack pointer (the saved registers sit just
// above it, on its own stack). A default-constructed Context is the
// thread's own stack, filled in when that thread first switches away.
struct Context {
  void* sp = nullptr;
#if SLEDGE_CONTEXT_ASAN
  const void* stack_lo = nullptr;  // learned on the first switch away
  size_t stack_size = 0;
  void* fake_stack = nullptr;
#endif
#if SLEDGE_CONTEXT_TSAN
  void* fiber = nullptr;
#endif
};

// Lays out a first frame on [stack_lo, stack_lo + stack_size) so that the
// first context_switch into `ctx` calls entry(arg). `entry` must never
// return: it leaves by switching away for good.
void context_init(Context* ctx, void* stack_lo, size_t stack_size,
                  void (*entry)(void*), void* arg);

// Saves the caller into `from` and resumes `to`; returns when something
// switches back to `from`. Async-signal-safe.
void context_switch(Context* from, Context* to);

// Releases sanitizer bookkeeping held by an initialized context (a no-op in
// normal builds). `ctx` must not be running.
void context_destroy(Context* ctx);

}  // namespace sledge::runtime
