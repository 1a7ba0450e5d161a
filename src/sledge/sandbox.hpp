// A Sledge sandbox: one client request executing one Wasm function.
//
// Creation is the paper's "optimized function startup" path — it only
// allocates linear memory (via the already-loaded module), a guarded
// execution stack, and a user-level context (§4: "allocation of required
// linear memory, a dedicated stack, and a user-level context"). The
// expensive link/load happened once in WasmModule::load. Outside the cold
// tier, all three per-request resources are acquired from the
// SandboxResourcePool and returned to it on destruction, so a warm start
// skips every mmap, mprotect, and guard-registration syscall of the cold
// path.
//
// Sandboxes are green threads: the worker context_switch()es into them,
// and they come back by completing, blocking (cooperative I/O / sleep), or
// being preempted by the quantum timer, whose handler switches out only
// where preemptible() allows.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "engine/engine.hpp"
#include "sledge/context.hpp"
#include "sledge/resource_pool.hpp"

namespace sledge::runtime {

enum class SandboxState : uint8_t {
  kAllocated,  // created, never run
  kRunnable,   // on a runqueue (or preempted)
  kRunning,    // currently on a worker core
  kBlocked,    // waiting on a wake condition (timer / fd / child sandbox)
  kComplete,   // function returned
  kFailed,     // trapped or errored
  kKilled,     // terminated by the runtime (CPU budget / deadline exceeded)
};

const char* to_string(SandboxState s);

// The one preemption rule. The quantum handler may preempt or deadline-kill
// a sandbox only when all three hold:
//   1. the interrupted stack pointer `sp` lies on the sandbox's own stack
//      (not the scheduler's, not the trap handler's sigaltstack);
//   2. the sandbox is kRunning (not mid-switch to block or complete);
//   3. no engine->host call is in progress: host code may hold a lock
//      (malloc's, the Distributor's queue mutex) that the scheduler, on the
//      same thread, takes next. Interpreter-tier sandboxes never qualify
//      (WasmSandbox::in_host_call).
// Anywhere else the tick is dropped and the next one retries.
inline bool preemptible(uintptr_t sp, const ExecStack& stack,
                        SandboxState state, bool in_host_call) {
  const uintptr_t lo = reinterpret_cast<uintptr_t>(stack.base) +
                       stack.guard_size;
  const uintptr_t hi = reinterpret_cast<uintptr_t>(stack.base) + stack.size;
  return sp >= lo && sp < hi && state == SandboxState::kRunning &&
         !in_host_call;
}

// Why a kBlocked sandbox is parked, i.e. what wakes it (io_loop.hpp):
//   kTimer   — wake_at_ns() passing (env.sleep_ms)
//   kFdRead  — wake_fd() readable (sb_recv)
//   kFdWrite — wake_fd() writable (sb_connect in progress, sb_send EAGAIN)
//   kChild   — pending_join()->done (sb_invoke child completion)
enum class WakeKind : uint8_t { kNone, kTimer, kFdRead, kFdWrite, kChild };

const char* to_string(WakeKind k);

// How Sandbox::create obtains a sandbox's initial state (the startup-tier
// A/B knob — RuntimeConfig::instantiation):
//   kCold     — fresh linear-memory mapping and fresh guarded stack, full
//               instantiation (mmap + globals + data segments + start
//               function); both go back to the OS at teardown. The
//               paper's cold start; never touches the resource pool.
//   kPooled   — recycled zeroed memory off the SandboxResourcePool, full
//               instantiation on top (the paper's warm start).
enum class InstantiationMode : uint8_t { kCold, kPooled };

const char* to_string(InstantiationMode m);

class Sandbox;

// Parent<->child rendezvous for sb_invoke. Shared (shared_ptr) between the
// blocked parent and the child sandbox so either side may die first — a
// parent killed at its wall deadline unwinds immediately and the child's
// completion signal lands on an orphaned (but live) join; a child abandoned
// at shutdown signals failure instead of leaving the parent parked forever.
struct InvokeJoin {
  // Written by the child's worker strictly before the `done` release-store;
  // read by the parent only after acquiring `done`.
  int32_t status = 0;  // 0 = child completed; else a SbIoError value
  std::vector<uint8_t> response;
  int waiter_worker = -1;  // worker index to notify on completion
  std::atomic<bool> done{false};

  // ---- Zero-copy (shm) dataplane ----
  //
  // When set, the request bytes live at xfer[0, request len) and the child
  // appends its response at xfer_resp_off. The loan is shared with the
  // parent's hostcall frame and the child sandbox, so the buffer returns to
  // the pool only after every party (in any death order) lets go.
  std::shared_ptr<TransferLoan> xfer;
  size_t xfer_resp_off = 0;   // response region start (16-byte aligned)
  size_t xfer_resp_len = 0;   // child's response bytes in the xfer region
  bool resp_in_xfer = false;  // response lives in xfer, not `response`
};

// How a sandbox reaches back into the runtime to spawn a child request
// (implemented by Runtime; an interface to keep sandbox.hpp free of a
// runtime.hpp cycle).
class InvokeBroker {
 public:
  virtual ~InvokeBroker() = default;
  // Admits one child request of module `name` through the normal dispatch
  // path. On success the child signals `join` when it retires. On failure
  // returns false with *err set (kSbErrNoModule / kSbErrOverload / ...).
  virtual bool invoke_child(Sandbox* parent, const std::string& name,
                            std::vector<uint8_t> request,
                            std::shared_ptr<InvokeJoin> join,
                            int32_t* err) = 0;
  // sb_invoke_stream: admits a child that INHERITS the parent's response
  // channel (HTTP connection or upstream join) — no join back to the
  // parent. On the shm dataplane `request` is empty and the payload rides
  // `loan`; otherwise `loan` is null. On failure (false, *err set) the
  // parent's channel is untouched.
  virtual bool invoke_stream_child(Sandbox* parent, const std::string& name,
                                   std::vector<uint8_t> request,
                                   std::shared_ptr<TransferLoan> loan,
                                   size_t req_len, int32_t* err) = 0;
};

class Sandbox {
 public:
  // Creation = the cheap per-request path. `module` must outlive the
  // sandbox. Returns nullptr only on resource exhaustion.
  static std::unique_ptr<Sandbox> create(
      const engine::WasmModule* module, std::vector<uint8_t> request,
      int conn_fd = -1, bool keep_alive = false,
      InstantiationMode mode = InstantiationMode::kPooled);
  ~Sandbox();

  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;

  // Worker-side: run/resume the sandbox on the calling thread. Returns when
  // the sandbox completes, blocks or is preempted; inspect state() after.
  void dispatch(Context* scheduler_ctx);

  // Sandbox-side (host hook): block for `ns`, yielding the worker core.
  void sleep_yield(uint64_t ns);

  // ---- Async host I/O (sb_* hostcall implementations) ----
  //
  // All run on the sandbox's green-thread stack inside the engine's
  // TrapScope; any of them may block cooperatively (kBlocked + wake
  // condition) and raise a deadline trap on resume. Descriptors are indices
  // into the per-sandbox fd table (never raw OS fds), capped at
  // max_fds(): the per-tenant isolation limit.
  int32_t io_connect(const uint8_t* host, uint32_t host_len, uint32_t port);
  int32_t io_send(int32_t vfd, const uint8_t* data, uint32_t len);
  int32_t io_recv(int32_t vfd, uint8_t* buf, uint32_t cap);
  int32_t io_close(int32_t vfd);
  int32_t io_invoke(const uint8_t* name, uint32_t name_len,
                    const uint8_t* req, uint32_t req_len, uint8_t* resp,
                    uint32_t resp_cap);
  int32_t io_invoke_stream(const uint8_t* name, uint32_t name_len,
                           const uint8_t* req, uint32_t req_len);

  // Per-sandbox I/O limits and the runtime broker for sb_invoke; set at
  // admission (before the first dispatch). `depth` is this request's
  // position in an invoke chain (0 = external request) — the invoke-cycle
  // guard rejects children at max_depth.
  void set_io_config(InvokeBroker* broker, uint32_t max_fds,
                     uint32_t depth, uint32_t max_depth) {
    broker_ = broker;
    max_fds_ = max_fds;
    invoke_depth_ = depth;
    max_invoke_depth_ = max_depth;
  }
  uint32_t invoke_depth() const { return invoke_depth_; }
  uint32_t max_invoke_depth() const { return max_invoke_depth_; }
  uint32_t max_fds() const { return max_fds_; }
  size_t open_fds() const;

  // ---- Wake condition (valid while state() == kBlocked) ----
  WakeKind wake_kind() const { return wake_kind_; }
  int wake_os_fd() const { return wake_fd_; }
  const std::shared_ptr<InvokeJoin>& pending_join() const {
    return pending_join_;
  }
  // Child side: set when this sandbox is an sb_invoke child; its worker
  // signals the join at retirement instead of writing an HTTP response.
  void set_result_join(std::shared_ptr<InvokeJoin> join) {
    result_join_ = std::move(join);
  }
  const std::shared_ptr<InvokeJoin>& result_join() const {
    return result_join_;
  }

  // ---- Zero-copy (shm) invoke dataplane ----
  //
  // Set at admission alongside set_io_config; when true, this sandbox's
  // outbound sb_invoke / sb_invoke_stream calls carry their request in a
  // pooled TransferBuffer instead of a heap vector.
  void set_invoke_shm(bool on) { invoke_shm_ = on; }
  bool invoke_shm() const { return invoke_shm_; }
  // Child side (shm): read the request straight out of the loaned transfer
  // buffer. The loan is retained so the bytes outlive every death order.
  void adopt_request_view(std::shared_ptr<TransferLoan> loan, size_t req_len) {
    env_.req_view = loan->get()->data;
    env_.req_view_len = req_len;
    req_hold_ = std::move(loan);
  }
  // Child side (shm): append response bytes into the result join's transfer
  // buffer so the waiting parent reads them without a heap hop. No-op when
  // there is no join or no buffer (HTTP-channeled or copy-dataplane child).
  void wire_result_sink() {
    if (!result_join_ || !result_join_->xfer) return;
    TransferBuffer* tb = result_join_->xfer->get();
    if (result_join_->xfer_resp_off >= tb->cap) return;
    env_.resp_sink = tb->data + result_join_->xfer_resp_off;
    env_.resp_sink_cap = tb->cap - result_join_->xfer_resp_off;
    env_.resp_sink_len = 0;
  }
  // Worker side, at retirement: hand the response to the waiting parent —
  // either by publishing the sink length (bytes are already in the transfer
  // buffer) or by moving the heap vector. Must run strictly before the
  // join's `done` release-store.
  void harvest_response(InvokeJoin* join) {
    if (env_.resp_sink && join == result_join_.get()) {
      if (env_.response.empty()) {
        join->xfer_resp_len = env_.resp_sink_len;
        join->resp_in_xfer = true;
      } else {
        // Sink overflow: the oversized response spilled to the heap
        // vector; hand it over without a further copy.
        join->response = std::move(env_.response);
      }
    } else {
      // Copy dataplane: the response crosses the sandbox boundary by
      // value — the join owns its own bytes, mirroring the request-side
      // hand-off (see Runtime::invoke_child).
      join->response = env_.response;
    }
  }

  // ---- Stream hand-off (sb_invoke_stream) ----
  //
  // The broker moves the parent's response channel to the child: exactly
  // one of an HTTP connection or an upstream join transfers.
  void adopt_connection(int fd, bool keep_alive) {
    conn_fd_ = fd;
    keep_alive_ = keep_alive;
  }
  void release_connection() {
    conn_fd_ = -1;
    keep_alive_ = false;
  }
  std::shared_ptr<InvokeJoin> take_result_join() {
    return std::move(result_join_);
  }

  // Marks sandboxes admitted via sb_invoke / sb_invoke_stream so completion
  // accounting can record the hand-off phase (created -> first run).
  void mark_invoke_child() { invoke_child_ = true; }
  bool is_invoke_child() const { return invoke_child_; }

  // Worker that currently owns this sandbox (dispatching it or holding it
  // blocked); -1 before first dispatch. Single-writer: the owning worker.
  void set_owner_worker(int index) { owner_worker_ = index; }
  int owner_worker() const { return owner_worker_; }
  // Worker that handed this sandbox to the distributor (the front-door
  // reader, or the parent's worker for an sb_invoke child); a fetch by any
  // other worker counts as a steal.
  void set_placer(int index) { placer_ = index; }
  int placer() const { return placer_; }

  // ---- Deadline enforcement ----
  //
  // `budget_ns` caps consumed CPU time across preemptions (0 = unlimited);
  // `deadline_abs_ns` is an absolute monotonic wall-clock deadline
  // (0 = none). Set once at admission, before the first dispatch.
  void set_limits(uint64_t budget_ns, uint64_t deadline_abs_ns) {
    budget_ns_ = budget_ns;
    deadline_at_ns_ = deadline_abs_ns;
  }
  uint64_t budget_ns() const { return budget_ns_; }
  uint64_t deadline_at_ns() const { return deadline_at_ns_; }

  // CPU time consumed so far; while running, includes the current slice.
  uint64_t cpu_consumed_ns(uint64_t now) const {
    uint64_t ns = cpu_ns_;
    if (run_started_ns_ != 0 && now > run_started_ns_) {
      ns += now - run_started_ns_;
    }
    return ns;
  }

  // True once the CPU budget or wall-clock deadline is blown. Called from
  // the quantum signal handler (same thread as the owning worker).
  bool deadline_exceeded(uint64_t now) const {
    if (budget_ns_ != 0 && cpu_consumed_ns(now) >= budget_ns_) return true;
    if (deadline_at_ns_ != 0 && now >= deadline_at_ns_) return true;
    return false;
  }

  // Asks the sandbox to die at its next safe unwind point (entry, sleep
  // resume, or quantum expiry). The worker that owns the sandbox acts on it.
  void request_kill() { kill_requested_.store(true, std::memory_order_release); }
  bool kill_requested() const {
    return kill_requested_.load(std::memory_order_acquire);
  }

  // Marks a never-run sandbox as killed without dispatching it (there is no
  // engine state to unwind yet). Only valid before the first dispatch.
  void mark_killed_undispatched();

  // Test-only fault injection: when set and returning true, create() fails
  // as if sandbox allocation were exhausted (the front door's 503 path).
  using CreateFaultHook = bool (*)();
  static void set_create_fault_hook(CreateFaultHook hook);

  // Test-only: fabricate a blocked state + wake condition without running
  // sandbox code (IoLoop unit tests park sandboxes no worker dispatched).
  void test_set_blocked(WakeKind kind, int os_fd, uint64_t wake_at_ns) {
    wake_kind_ = kind;
    wake_fd_ = os_fd;
    wake_at_ns_ = wake_at_ns;
    set_state(SandboxState::kBlocked);
  }

  SandboxState state() const { return state_.load(std::memory_order_acquire); }
  void set_state(SandboxState s) {
    state_.store(s, std::memory_order_release);
  }

  const engine::InvokeOutcome& outcome() const { return outcome_; }
  std::vector<uint8_t>& response() { return env_.response; }
  int conn_fd() const { return conn_fd_; }
  bool keep_alive() const { return keep_alive_; }
  uint64_t wake_at_ns() const { return wake_at_ns_; }

  uint64_t created_ns() const { return t_created_; }
  uint64_t first_run_ns() const { return t_first_run_; }
  uint64_t done_ns() const { return t_done_; }
  uint64_t startup_cost_ns() const { return startup_cost_ns_; }

  // ---- Phase tracing (observability plane) ----
  //
  // Every sandbox is stamped at admission (created_ns), first dispatch
  // (first_run_ns), each preemption/resume (dispatch/preempt counters plus
  // the cpu_ns accumulator), and completion (done_ns); the worker stamps
  // response-write-complete on the WriteJob that outlives the sandbox.
  // CPU time consumed over completed slices (== total once done).
  uint64_t cpu_ns() const { return cpu_ns_; }
  // Wall time spent blocked on I/O wake conditions (timer/fd/child),
  // measured block -> resume so it includes post-wake scheduling delay.
  uint64_t io_wait_ns() const { return io_wait_ns_; }
  uint32_t dispatch_count() const { return dispatch_count_; }
  uint32_t preempt_count() const { return preempt_count_; }
  // Quantum-handler side: runs on the owning worker's thread only.
  void note_preempted() { ++preempt_count_; }
  // Admission -> first dispatch, excluding the allocation work create()
  // itself performed (so queue_wait + startup + exec_cpu <= end_to_end).
  uint64_t queue_wait_ns() const {
    uint64_t start = t_first_run_ != 0 ? t_first_run_ : t_done_;
    uint64_t ready = t_created_ + startup_cost_ns_;
    return start > ready ? start - ready : 0;
  }
  // True when every pooled resource (memory if the module has one, stack)
  // came off a free list — the warm-start path, no allocation syscalls.
  bool pooled() const { return pooled_; }

  Context* context() { return &stack_->ctx; }

  // The preemption rule above, for the stack pointer the quantum signal
  // interrupted. Async-signal-safe.
  bool preemptible(uintptr_t interrupted_sp) const {
    return stack_ != nullptr &&
           runtime::preemptible(interrupted_sp, *stack_, state(),
                                wasm_.in_host_call());
  }

  // Opaque owner tag (the runtime stores its LoadedModule* here so workers
  // can attribute completions without a sandbox->runtime dependency).
  void* user_tag = nullptr;

 private:
  Sandbox() = default;
  static void entry_trampoline(void* self);
  void entry();
  // Parks the sandbox (kBlocked + wake condition), swaps to the scheduler,
  // and on resume accumulates io_wait and raises a deadline trap if a kill
  // arrived while blocked. The generalization of the old sleep-only yield.
  void block_yield(WakeKind kind, int os_fd, uint64_t wake_at_ns);
  void close_all_fds();
  int os_fd_of(int32_t vfd) const;  // -1 when vfd is invalid/closed

  const engine::WasmModule* module_ = nullptr;
  engine::WasmSandbox wasm_;
  engine::ServerlessEnv env_;
  engine::InvokeOutcome outcome_;

  std::atomic<SandboxState> state_{SandboxState::kAllocated};
  int conn_fd_ = -1;  // the client connection this sandbox holds, or -1
  bool keep_alive_ = false;

  ExecStack* stack_ = nullptr;  // pooled: guarded stack + its Context
  bool pooled_ = false;
  bool cold_ = false;  // kCold: memory and stack bypass the pool
  Context* scheduler_ctx_ = nullptr;  // valid while running
  uint64_t wake_at_ns_ = 0;
  WakeKind wake_kind_ = WakeKind::kNone;
  int wake_fd_ = -1;  // OS fd backing kFdRead/kFdWrite waits

  // ---- Async host I/O state ----
  std::vector<int> fd_table_;  // vfd -> OS fd (-1 = closed slot)
  uint32_t max_fds_ = 8;
  InvokeBroker* broker_ = nullptr;  // null outside the Sledge runtime
  uint32_t invoke_depth_ = 0;
  uint32_t max_invoke_depth_ = 4;
  // Held as a member (not a hostcall local) so a deadline trap's longjmp
  // unwind cannot leak the join: the destructor drops the reference.
  std::shared_ptr<InvokeJoin> pending_join_;
  std::shared_ptr<InvokeJoin> result_join_;  // set when we ARE the child
  // Keeps the transfer buffer backing env_.req_view alive (shm children).
  std::shared_ptr<TransferLoan> req_hold_;
  bool invoke_shm_ = false;
  bool invoke_child_ = false;
  int owner_worker_ = -1;
  int placer_ = -1;
  uint64_t io_wait_ns_ = 0;

  uint64_t budget_ns_ = 0;       // CPU budget (0 = unlimited)
  uint64_t deadline_at_ns_ = 0;  // absolute wall deadline (0 = none)
  uint64_t cpu_ns_ = 0;          // CPU consumed over completed slices
  uint64_t run_started_ns_ = 0;  // nonzero while on a core
  uint32_t dispatch_count_ = 0;  // run slices (first run + resumes)
  uint32_t preempt_count_ = 0;   // quantum expiries taken
  std::atomic<bool> kill_requested_{false};
  // The engine's trap-unwind chain lives on this stack; it parks here while
  // the sandbox is descheduled (see exchange_trap_chain).
  engine::TrapFrame* trap_chain_ = nullptr;

  uint64_t t_created_ = 0;
  uint64_t t_first_run_ = 0;
  uint64_t t_done_ = 0;
  uint64_t startup_cost_ns_ = 0;  // memory+stack+context allocation time
};

}  // namespace sledge::runtime
