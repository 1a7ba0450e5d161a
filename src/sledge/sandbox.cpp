#include "sledge/sandbox.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.hpp"
#include "engine/trap.hpp"

using sledge::engine::SbIoError;

namespace sledge::runtime {

namespace {
constexpr size_t kStackSize = 512 * 1024;
constexpr size_t kGuardSize = 4096;
std::atomic<Sandbox::CreateFaultHook> g_create_fault_hook{nullptr};

// Transfer-buffer sizing: leave room for a same-order response after the
// 16-byte-aligned request region so typical request->response chains never
// spill to the heap vector. The reserve scales with the request (echo-shaped
// responses are the common case); 4 KiB is the floor for tiny requests with
// larger replies. A response that still overflows spills to the heap vector.
constexpr size_t kTransferRespReserve = 4096;

size_t align16(size_t n) { return (n + 15) & ~size_t{15}; }

size_t transfer_acquire_size(size_t req_len) {
  size_t req_aligned = align16(req_len);
  return req_aligned + std::max(kTransferRespReserve, req_aligned);
}

// Tenant key for zero-on-reuse: a (caller module, callee name) pair. Two
// hops of the same chain shape share buffers without scrubbing; any other
// pair forces a zero fill before handout. splitmix64 over the caller tag.
uint64_t transfer_tenant_key(const void* caller_tag, const uint8_t* name,
                             uint32_t name_len) {
  uint64_t h = reinterpret_cast<uintptr_t>(caller_tag) + 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  for (uint32_t i = 0; i < name_len; ++i) {
    h = (h ^ name[i]) * 0x100000001b3ull;
  }
  return h ^ (h >> 31);
}
}  // namespace

const char* to_string(SandboxState s) {
  switch (s) {
    case SandboxState::kAllocated: return "allocated";
    case SandboxState::kRunnable: return "runnable";
    case SandboxState::kRunning: return "running";
    case SandboxState::kBlocked: return "blocked";
    case SandboxState::kComplete: return "complete";
    case SandboxState::kFailed: return "failed";
    case SandboxState::kKilled: return "killed";
  }
  return "?";
}

const char* to_string(InstantiationMode m) {
  switch (m) {
    case InstantiationMode::kCold: return "cold";
    case InstantiationMode::kPooled: return "pooled";
  }
  return "?";
}

const char* to_string(WakeKind k) {
  switch (k) {
    case WakeKind::kNone: return "none";
    case WakeKind::kTimer: return "timer";
    case WakeKind::kFdRead: return "fd_read";
    case WakeKind::kFdWrite: return "fd_write";
    case WakeKind::kChild: return "child";
  }
  return "?";
}

void Sandbox::set_create_fault_hook(CreateFaultHook hook) {
  g_create_fault_hook.store(hook, std::memory_order_release);
}

std::unique_ptr<Sandbox> Sandbox::create(const engine::WasmModule* module,
                                         std::vector<uint8_t> request,
                                         int conn_fd, bool keep_alive,
                                         InstantiationMode mode) {
  if (CreateFaultHook hook = g_create_fault_hook.load(std::memory_order_acquire);
      hook && hook()) {
    return nullptr;  // injected allocation failure (tests)
  }
  Stopwatch sw;
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  std::unique_ptr<Sandbox> sb(new Sandbox());
  sb->module_ = module;
  sb->env_.request = std::move(request);
  sb->conn_fd_ = conn_fd;
  sb->keep_alive_ = keep_alive;
  sb->t_created_ = now_ns();

  engine::WasmModule::MemorySpec spec = module->memory_spec();
  bool memory_pooled = !spec.has_memory;
  engine::LinearMemory memory;

  // Linear memory from the pool (warm regions are pre-zeroed and keep
  // their reservation + guard registration), then the instance on top of
  // it (cheap: the module is already linked/loaded). The cold tier maps
  // a fresh reservation per request instead — the paper's cold start.
  if (spec.has_memory) {
    if (mode == InstantiationMode::kCold) {
      auto fresh = engine::LinearMemory::create(spec.strategy,
                                                spec.min_pages,
                                                spec.max_pages);
      if (!fresh.ok()) return nullptr;
      memory = fresh.take();
    } else {
      memory = pool.acquire_memory(spec.strategy, spec.min_pages,
                                   spec.max_pages, &memory_pooled);
      if (!memory.valid()) return nullptr;
    }
  }
  Result<engine::WasmSandbox> wasm = module->instantiate(std::move(memory));
  if (!wasm.ok()) {
    SLEDGE_LOG_ERROR("sandbox instantiate failed: %s",
                     wasm.error_message().c_str());
    return nullptr;
  }
  sb->wasm_ = wasm.take();

  // Guarded execution stack, outside linear memory (Wasm's split-stack
  // design: the C stack is unreachable from sandboxed loads/stores).
  // Pooled stacks keep their mapping, guard page, and guard registration;
  // a cold start maps and registers a fresh one.
  bool stack_pooled = false;
  sb->cold_ = mode == InstantiationMode::kCold;
  sb->stack_ = sb->cold_
                   ? create_stack(kStackSize, kGuardSize)
                   : pool.acquire_stack(kStackSize, kGuardSize, &stack_pooled);
  if (!sb->stack_) return nullptr;
  sb->pooled_ = memory_pooled && stack_pooled;

  // User-level context (the paper's ip/sp pair); the storage is pooled
  // with the stack, the first frame is laid out per request.
  context_init(&sb->stack_->ctx, sb->stack_->base + kGuardSize, kStackSize,
               &entry_trampoline, sb.get());

  sb->startup_cost_ns_ = sw.elapsed_ns();
  sb->set_state(SandboxState::kRunnable);
  return sb;
}

Sandbox::~Sandbox() {
  // Close any outbound sockets the function leaked (or was killed holding):
  // the fd table dies with the request, never with the connection pool.
  close_all_fds();
  // A cold start hands its fresh memory and stack straight back to the OS
  // (the LinearMemory destructor unmaps it).
  engine::LinearMemory memory = wasm_.reclaim_memory();
  if (cold_) {
    destroy_stack(stack_);
    return;
  }
  // Otherwise return resources to the pool instead of unmapping: the linear
  // memory is zeroed on the way in (cross-tenant isolation), the stack
  // keeps its mapping and guard registration.
  SandboxResourcePool& pool = SandboxResourcePool::instance();
  pool.release_memory(std::move(memory));
  if (stack_) pool.release_stack(stack_);
}

void Sandbox::close_all_fds() {
  for (int& fd : fd_table_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

size_t Sandbox::open_fds() const {
  size_t n = 0;
  for (int fd : fd_table_) {
    if (fd >= 0) ++n;
  }
  return n;
}

int Sandbox::os_fd_of(int32_t vfd) const {
  if (vfd < 0 || static_cast<size_t>(vfd) >= fd_table_.size()) return -1;
  return fd_table_[vfd];
}

void Sandbox::entry_trampoline(void* self) {
  static_cast<Sandbox*>(self)->entry();
}

void Sandbox::entry() {
  if (t_first_run_ == 0) t_first_run_ = now_ns();
  env_.sleep_hook = [this](uint64_t ns) { sleep_yield(ns); };
  env_.connect_hook = [this](const uint8_t* h, uint32_t l, uint32_t p) {
    return io_connect(h, l, p);
  };
  env_.send_hook = [this](int32_t fd, const uint8_t* d, uint32_t l) {
    return io_send(fd, d, l);
  };
  env_.recv_hook = [this](int32_t fd, uint8_t* b, uint32_t c) {
    return io_recv(fd, b, c);
  };
  env_.close_hook = [this](int32_t fd) { return io_close(fd); };
  env_.invoke_hook = [this](const uint8_t* n, uint32_t nl, const uint8_t* rq,
                            uint32_t rl, uint8_t* rs, uint32_t rc) {
    return io_invoke(n, nl, rq, rl, rs, rc);
  };
  env_.invoke_stream_hook = [this](const uint8_t* n, uint32_t nl,
                                   const uint8_t* rq, uint32_t rl) {
    return io_invoke_stream(n, nl, rq, rl);
  };

  if (kill_requested()) {
    // Deadline blew before any engine state existed; nothing to unwind.
    outcome_ =
        engine::InvokeOutcome::trapped(engine::TrapCode::kDeadlineExceeded);
  } else {
    outcome_ = wasm_.call("run", {}, &env_);
  }

  t_done_ = now_ns();
  if (outcome_.trap == engine::TrapCode::kDeadlineExceeded) {
    set_state(SandboxState::kKilled);
  } else {
    set_state(outcome_.ok() ? SandboxState::kComplete : SandboxState::kFailed);
  }
  // Never returns: hand the core back to the scheduler for good.
  context_switch(&stack_->ctx, scheduler_ctx_);
  std::fprintf(stderr, "fatal: sandbox resumed after completion\n");
  std::abort();
}

void Sandbox::dispatch(Context* scheduler_ctx) {
  scheduler_ctx_ = scheduler_ctx;
  set_state(SandboxState::kRunning);
  ++dispatch_count_;
  run_started_ns_ = now_ns();
  // The trap-unwind chain is green-thread state, not OS-thread state: park
  // the scheduler's chain and install this sandbox's for the slice. Without
  // this, round-robin preemption interleaves TrapScopes of different
  // sandboxes on one thread-local chain and unwinds into the wrong stack.
  engine::TrapFrame* sched_chain = engine::exchange_trap_chain(trap_chain_);
  context_switch(scheduler_ctx, &stack_->ctx);
  trap_chain_ = engine::exchange_trap_chain(sched_chain);
  cpu_ns_ += now_ns() - run_started_ns_;
  run_started_ns_ = 0;
  // Back in the scheduler; state tells it what happened.
}

void Sandbox::sleep_yield(uint64_t ns) {
  block_yield(WakeKind::kTimer, -1, now_ns() + ns);
}

void Sandbox::block_yield(WakeKind kind, int os_fd, uint64_t wake_at_ns) {
  wake_kind_ = kind;
  wake_fd_ = os_fd;
  wake_at_ns_ = wake_at_ns;
  uint64_t blocked_at = now_ns();
  set_state(SandboxState::kBlocked);
  context_switch(&stack_->ctx, scheduler_ctx_);
  // Resumed (the worker's event loop observed our wake condition — or a
  // kill). Blocked time is the io_wait phase; the worker already excluded
  // it from cpu_ns by stamping slice boundaries in dispatch().
  io_wait_ns_ += now_ns() - blocked_at;
  wake_kind_ = WakeKind::kNone;
  wake_fd_ = -1;
  // A kill may have been requested while we were blocked (wall deadline
  // passing); we are inside the host call's TrapScope, so unwind.
  if (kill_requested() && engine::in_trap_scope()) {
    engine::raise_trap(engine::TrapCode::kDeadlineExceeded);
  }
}

// ---- Async host I/O (sb_* hostcalls) ----------------------------------
//
// These run on the green-thread stack. A deadline kill unwinds them with a
// longjmp (no destructors), so no frame below a potential block point may
// own heap memory: scratch buffers are fixed-size, and the sb_invoke join
// is parked in the pending_join_ member the Sandbox destructor releases.

int32_t Sandbox::io_connect(const uint8_t* host, uint32_t host_len,
                            uint32_t port) {
  if (port > 65535) return SbIoError::kSbErrConnect;
  char name[64];
  if (host_len >= sizeof(name)) return SbIoError::kSbErrConnect;
  std::memcpy(name, host, host_len);
  name[host_len] = '\0';

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // Numeric IPv4 only (plus "localhost"): edge functions talk to sidecars
  // and peers by address; DNS would need its own async path.
  const char* target = std::strcmp(name, "localhost") == 0 ? "127.0.0.1"
                                                           : name;
  if (::inet_pton(AF_INET, target, &addr.sin_addr) != 1) {
    return SbIoError::kSbErrConnect;
  }

  // Find a free fd-table slot under the per-sandbox cap (tenant isolation:
  // one function cannot hoard the process's descriptors).
  int32_t vfd = -1;
  for (size_t i = 0; i < fd_table_.size(); ++i) {
    if (fd_table_[i] < 0) {
      vfd = static_cast<int32_t>(i);
      break;
    }
  }
  if (vfd < 0) {
    if (fd_table_.size() >= max_fds_) return SbIoError::kSbErrFdLimit;
    fd_table_.push_back(-1);
    vfd = static_cast<int32_t>(fd_table_.size() - 1);
  }

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return SbIoError::kSbErrConnect;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Park the fd in the table before any block point so a mid-connect kill
  // still closes it via the destructor sweep.
  fd_table_[vfd] = fd;

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  // EINTR on a nonblocking connect means the attempt continues
  // asynchronously, exactly like EINPROGRESS.
  if (rc < 0 && (errno == EINPROGRESS || errno == EINTR)) {
    block_yield(WakeKind::kFdWrite, fd, 0);
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      rc = -1;
      errno = err;
    } else {
      rc = 0;
    }
  }
  if (rc < 0) {
    ::close(fd);
    fd_table_[vfd] = -1;
    return SbIoError::kSbErrConnect;
  }
  return vfd;
}

int32_t Sandbox::io_send(int32_t vfd, const uint8_t* data, uint32_t len) {
  int fd = os_fd_of(vfd);
  if (fd < 0) return SbIoError::kSbErrBadFd;
  uint32_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<uint32_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      block_yield(WakeKind::kFdWrite, fd, 0);
      continue;
    }
    return off > 0 ? static_cast<int32_t>(off) : SbIoError::kSbErrIo;
  }
  return static_cast<int32_t>(off);
}

int32_t Sandbox::io_recv(int32_t vfd, uint8_t* buf, uint32_t cap) {
  int fd = os_fd_of(vfd);
  if (fd < 0) return SbIoError::kSbErrBadFd;
  while (true) {
    ssize_t n = ::recv(fd, buf, cap, 0);
    if (n >= 0) return static_cast<int32_t>(n);  // 0 = orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      block_yield(WakeKind::kFdRead, fd, 0);
      continue;
    }
    return SbIoError::kSbErrIo;
  }
}

int32_t Sandbox::io_close(int32_t vfd) {
  int fd = os_fd_of(vfd);
  if (fd < 0) return SbIoError::kSbErrBadFd;
  ::close(fd);
  fd_table_[vfd] = -1;
  return 0;
}

int32_t Sandbox::io_invoke(const uint8_t* name, uint32_t name_len,
                           const uint8_t* req, uint32_t req_len,
                           uint8_t* resp, uint32_t resp_cap) {
  if (!broker_) return SbIoError::kSbErrUnsupported;
  if (invoke_depth_ + 1 > max_invoke_depth_) return SbIoError::kSbErrDepth;
  if (name_len >= 64) return SbIoError::kSbErrNoModule;

  // The join outlives any one party: held in pending_join_ (released by our
  // destructor even across a longjmp unwind) and by the child sandbox.
  pending_join_ = std::make_shared<InvokeJoin>();
  pending_join_->waiter_worker = owner_worker_;

  // Zero-copy (shm) dataplane: stage the request in a pooled transfer
  // buffer the child reads directly; its response comes back in the same
  // buffer. Acquire failure silently falls back to the copy dataplane.
  std::vector<uint8_t> request;
  if (invoke_shm_) {
    TransferBuffer* tb = SandboxResourcePool::instance().acquire_transfer(
        transfer_acquire_size(req_len),
        transfer_tenant_key(user_tag, name, name_len));
    if (tb) {
      if (req_len != 0) std::memcpy(tb->data, req, req_len);
      tb->len = req_len;
      pending_join_->xfer = std::make_shared<TransferLoan>(tb);
      pending_join_->xfer_resp_off = align16(req_len);
    }
  }
  if (!pending_join_->xfer) request.assign(req, req + req_len);

  int32_t err = 0;
  if (!broker_->invoke_child(
          this, std::string(reinterpret_cast<const char*>(name), name_len),
          std::move(request), pending_join_, &err)) {
    pending_join_.reset();
    return err;
  }
  while (!pending_join_->done.load(std::memory_order_acquire)) {
    block_yield(WakeKind::kChild, -1, 0);
  }
  int32_t status = pending_join_->status;
  if (status != 0) {
    pending_join_.reset();
    return status;
  }
  // Response location (published before the `done` release-store): the
  // transfer buffer's response region on the shm fast path, the heap
  // vector on the copy dataplane or after a sink spill.
  const uint8_t* src;
  size_t len;
  if (pending_join_->resp_in_xfer) {
    src = pending_join_->xfer->get()->data + pending_join_->xfer_resp_off;
    len = pending_join_->xfer_resp_len;
  } else {
    src = pending_join_->response.data();
    len = pending_join_->response.size();
  }
  uint32_t n = static_cast<uint32_t>(len < resp_cap ? len : resp_cap);
  if (n != 0) std::memcpy(resp, src, n);
  pending_join_.reset();  // drops the transfer loan with it
  return static_cast<int32_t>(n);
}

int32_t Sandbox::io_invoke_stream(const uint8_t* name, uint32_t name_len,
                                  const uint8_t* req, uint32_t req_len) {
  if (!broker_) return SbIoError::kSbErrUnsupported;
  if (invoke_depth_ + 1 > max_invoke_depth_) return SbIoError::kSbErrDepth;
  if (name_len >= 64) return SbIoError::kSbErrNoModule;
  // The hand-off needs a channel to give away: either our HTTP connection
  // or the upstream join we would have answered. Without one the child's
  // response would have nowhere to go.
  if (conn_fd_ < 0 && !result_join_) return SbIoError::kSbErrNoChannel;

  std::shared_ptr<TransferLoan> loan;
  std::vector<uint8_t> request;
  if (invoke_shm_) {
    TransferBuffer* tb = SandboxResourcePool::instance().acquire_transfer(
        transfer_acquire_size(req_len),
        transfer_tenant_key(user_tag, name, name_len));
    if (tb) {
      if (req_len != 0) std::memcpy(tb->data, req, req_len);
      tb->len = req_len;
      loan = std::make_shared<TransferLoan>(tb);
    }
  }
  if (!loan) request.assign(req, req + req_len);

  int32_t err = 0;
  if (!broker_->invoke_stream_child(
          this, std::string(reinterpret_cast<const char*>(name), name_len),
          std::move(request), std::move(loan), req_len, &err)) {
    return err;
  }
  // Channel transferred: we finish as a detached stage. Anything we
  // resp_write from here on is discarded at retirement.
  return 0;
}

void Sandbox::mark_killed_undispatched() {
  outcome_ =
      engine::InvokeOutcome::trapped(engine::TrapCode::kDeadlineExceeded);
  t_done_ = now_ns();
  set_state(SandboxState::kKilled);
}

}  // namespace sledge::runtime
