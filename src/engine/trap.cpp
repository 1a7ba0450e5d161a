#include "engine/trap.hpp"

#include <signal.h>
#include <sys/mman.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace sledge::engine {

const char* trap_name(TrapCode code) {
  switch (code) {
    case TrapCode::kNone: return "none";
    case TrapCode::kUnreachable: return "unreachable executed";
    case TrapCode::kOutOfBoundsMemory: return "out-of-bounds memory access";
    case TrapCode::kDivByZero: return "integer divide by zero";
    case TrapCode::kIntegerOverflow: return "integer overflow";
    case TrapCode::kInvalidConversion: return "invalid float-to-int conversion";
    case TrapCode::kIndirectCallNull: return "indirect call to null table entry";
    case TrapCode::kIndirectCallType: return "indirect call type mismatch";
    case TrapCode::kIndirectCallOob: return "indirect call index out of range";
    case TrapCode::kCallStackExhausted: return "call stack exhausted";
    case TrapCode::kHostError: return "host function error";
    case TrapCode::kDeadlineExceeded: return "execution deadline exceeded";
  }
  return "?";
}

namespace trap_internal {
TrapFrame*& current_frame() {
  thread_local TrapFrame* frame = nullptr;
  return frame;
}
}  // namespace trap_internal

bool in_trap_scope() { return trap_internal::current_frame() != nullptr; }

TrapFrame* exchange_trap_chain(TrapFrame* frame) {
  TrapFrame* old = trap_internal::current_frame();
  trap_internal::current_frame() = frame;
  return old;
}

[[noreturn]] void raise_trap(TrapCode code) {
  TrapFrame* frame = trap_internal::current_frame();
  if (!frame) {
    std::fprintf(stderr, "fatal: trap '%s' with no active TrapScope\n",
                 trap_name(code));
    std::abort();
  }
  frame->code = code;
  // siglongjmp skips the TrapScope destructor: pop the frame here so the
  // chain never points at the dead stack frame after the unwind. (The
  // asynchronous deadline-kill path probes in_trap_scope() from a signal
  // handler and must not see a stale frame.)
  trap_internal::current_frame() = frame->prev;
  siglongjmp(frame->env, 1);
}

namespace {

// Guard-region registry. Fixed-size, lock-free reads: the SIGSEGV handler
// must not take locks. Slots are claimed under a mutex (writers only).
struct GuardRegion {
  std::atomic<uintptr_t> base{0};
  std::atomic<size_t> len{0};
  std::atomic<TrapCode> code{TrapCode::kOutOfBoundsMemory};
};

constexpr int kMaxGuardRegions = 4096;
GuardRegion g_regions[kMaxGuardRegions];
std::mutex g_regions_mutex;

struct sigaction g_prev_segv;
struct sigaction g_prev_bus;

// The trap a fault at `addr` stands for, or kNone when no guard region
// holds it.
TrapCode guard_region_trap(uintptr_t addr) {
  for (int i = 0; i < kMaxGuardRegions; ++i) {
    size_t len = g_regions[i].len.load(std::memory_order_acquire);
    if (len == 0) continue;
    uintptr_t base = g_regions[i].base.load(std::memory_order_relaxed);
    if (addr >= base && addr < base + len) {
      return g_regions[i].code.load(std::memory_order_relaxed);
    }
  }
  return TrapCode::kNone;
}

void segv_handler(int signo, siginfo_t* info, void* ucontext) {
  uintptr_t addr = reinterpret_cast<uintptr_t>(info->si_addr);
  if (trap_internal::current_frame()) {
    // Fault inside a sandbox guard region while sandboxed code was running:
    // the vm_guard bounds check firing, or the sandbox's execution stack
    // running into its guard page.
    TrapCode code = guard_region_trap(addr);
    if (code != TrapCode::kNone) raise_trap(code);
  }
  // Not ours: restore and re-raise so the default crash behavior (and
  // debuggers) see the original fault.
  const struct sigaction* prev = signo == SIGSEGV ? &g_prev_segv : &g_prev_bus;
  if (prev->sa_flags & SA_SIGINFO) {
    if (prev->sa_sigaction) {
      prev->sa_sigaction(signo, info, ucontext);
      return;
    }
  } else if (prev->sa_handler == SIG_IGN) {
    return;
  } else if (prev->sa_handler != SIG_DFL && prev->sa_handler) {
    prev->sa_handler(signo);
    return;
  }
  signal(signo, SIG_DFL);
  raise(signo);
}

}  // namespace

int register_guard_region(const void* base, size_t len, TrapCode code) {
  std::lock_guard<std::mutex> lock(g_regions_mutex);
  for (int i = 0; i < kMaxGuardRegions; ++i) {
    if (g_regions[i].len.load(std::memory_order_relaxed) == 0) {
      g_regions[i].base.store(reinterpret_cast<uintptr_t>(base),
                              std::memory_order_relaxed);
      g_regions[i].code.store(code, std::memory_order_relaxed);
      g_regions[i].len.store(len, std::memory_order_release);
      return i;
    }
  }
  std::fprintf(stderr, "fatal: guard region registry exhausted\n");
  std::abort();
}

void unregister_guard_region(int id) {
  if (id < 0 || id >= kMaxGuardRegions) return;
  g_regions[id].len.store(0, std::memory_order_release);
}

void install_trap_signal_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    sa.sa_sigaction = segv_handler;
    sigemptyset(&sa.sa_mask);
    // SA_NODEFER so a longjmp out of the handler leaves SIGSEGV deliverable;
    // SA_ONSTACK so stack-overflow faults can still run the handler (threads
    // that execute sandboxes call ensure_sigaltstack()).
    sa.sa_flags = SA_SIGINFO | SA_NODEFER | SA_ONSTACK;
    sigaction(SIGSEGV, &sa, &g_prev_segv);
    sigaction(SIGBUS, &sa, &g_prev_bus);
  });
}

namespace {

// A thread's alternate signal stack: mmap-backed, and disabled and unmapped
// at thread exit (before the thread's memory goes away). Whoever tears a
// thread down may munmap the installed alternate stack itself (ASan does),
// so it must be a mapping of its own and never heap memory.
struct AltStack {
  static constexpr size_t kSize = 64 * 1024;  // >= SIGSTKSZ on this platform
  void* mem = nullptr;

  ~AltStack() {
    if (mem == nullptr) return;
    stack_t cur{};
    // Only undo what is still ours: a runtime that already swapped the
    // stack out at thread exit has unmapped it too.
    if (sigaltstack(nullptr, &cur) == 0 && cur.ss_sp == mem &&
        !(cur.ss_flags & SS_DISABLE)) {
      stack_t off{};
      off.ss_flags = SS_DISABLE;
      sigaltstack(&off, nullptr);
      munmap(mem, kSize);
    }
  }
};

}  // namespace

void ensure_sigaltstack() {
  static thread_local AltStack alt;
  if (alt.mem != nullptr) return;
  void* mem = mmap(nullptr, AltStack::kSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  stack_t ss{};
  ss.ss_sp = mem;
  ss.ss_size = AltStack::kSize;
  ss.ss_flags = 0;
  if (sigaltstack(&ss, nullptr) != 0) {
    munmap(mem, AltStack::kSize);
    return;
  }
  alt.mem = mem;
}

}  // namespace sledge::engine
