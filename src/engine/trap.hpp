// Sandbox trap machinery.
//
// A trap is a fault the sandbox caused (out-of-bounds access, div/0, CFI
// violation, ...). Interpreters report traps through return codes; AoT
// native code reports them by calling into the runtime which unwinds with
// siglongjmp. The vm_guard bounds strategy additionally converts SIGSEGV
// faults that land inside a registered guard region into kOutOfBoundsMemory
// traps — this is the paper's "virtual memory based bounds management" —
// and faults on a sandbox stack's guard page into kCallStackExhausted.
#pragma once

#include <csetjmp>
#include <cstdint>
#include <string>

namespace sledge::engine {

enum class TrapCode : int {
  kNone = 0,
  kUnreachable,
  kOutOfBoundsMemory,
  kDivByZero,
  kIntegerOverflow,
  kInvalidConversion,     // f->i truncation of NaN or out-of-range value
  kIndirectCallNull,      // table slot empty
  kIndirectCallType,      // CFI: signature mismatch
  kIndirectCallOob,       // table index out of range
  kCallStackExhausted,
  kHostError,
  kDeadlineExceeded,      // runtime killed the sandbox (CPU budget / deadline)
};

const char* trap_name(TrapCode code);

// Per-thread trap unwind target. Scope-based: constructing a TrapScope makes
// this thread's current sigsetjmp buffer available to raise_trap().
struct TrapFrame {
  sigjmp_buf env;
  TrapCode code = TrapCode::kNone;
  TrapFrame* prev = nullptr;
};

namespace trap_internal {
TrapFrame*& current_frame();
}

// Installs `frame` as the innermost trap handler for this thread.
// Usage:
//   TrapFrame frame;
//   if (sigsetjmp(frame.env, 1) == 0) {
//     TrapScope scope(&frame);
//     ... run sandboxed code ...
//   } else {
//     ... frame.code holds the trap ...
//   }
class TrapScope {
 public:
  explicit TrapScope(TrapFrame* frame) : frame_(frame) {
    frame->prev = trap_internal::current_frame();
    trap_internal::current_frame() = frame;
  }
  ~TrapScope() { trap_internal::current_frame() = frame_->prev; }
  TrapScope(const TrapScope&) = delete;
  TrapScope& operator=(const TrapScope&) = delete;

 private:
  TrapFrame* frame_;
};

// Unwinds to the innermost TrapScope on this thread. Aborts the process if
// no scope is active (a runtime bug, not a sandbox bug).
[[noreturn]] void raise_trap(TrapCode code);

// True when a TrapScope is active on this thread, i.e. raise_trap() would
// unwind instead of aborting. Schedulers use this to decide whether an
// asynchronous kill (deadline enforcement) can unwind the sandbox right now.
bool in_trap_scope();

// Swaps the thread's innermost trap frame chain for `frame`, returning the
// old chain. User-level schedulers call this when switching sandbox
// contexts: the trap chain lives on a sandbox's stack and must travel with
// it, not with the OS thread, or interleaved preemption corrupts it.
TrapFrame* exchange_trap_chain(TrapFrame* frame);

// Registers [base, base+len) as a guard region: SIGSEGV faults inside it,
// taken while a TrapScope is active, are converted to `code` traps
// (kOutOfBoundsMemory for linear-memory guards, kCallStackExhausted for a
// sandbox stack's guard page). Returns a registration id.
int register_guard_region(const void* base, size_t len,
                          TrapCode code = TrapCode::kOutOfBoundsMemory);
void unregister_guard_region(int id);

// Installs the process-wide SIGSEGV/SIGBUS handler (idempotent, thread-safe).
void install_trap_signal_handler();

// Installs a per-thread alternate signal stack so stack-overflow faults in
// sandboxes can still be handled. Call once on every sandbox-running thread.
void ensure_sigaltstack();

}  // namespace sledge::engine
