#include "sledge/worker.hpp"

#include <errno.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <cstring>

#include <algorithm>
#include <mutex>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "engine/host.hpp"
#include "engine/trap.hpp"
#include "http/http.hpp"
#include "sledge/front_door.hpp"
#include "sledge/runtime.hpp"

namespace sledge::runtime {

namespace {
thread_local Worker* tls_worker = nullptr;
}

// Quantum expiry, on whatever stack the tick interrupted. It acts only
// where the one preemption rule holds (preemptible(), sandbox.hpp) for the
// interrupted stack pointer; anywhere else it returns, and the timer's
// 100 us interval retries. Preempting switches to the scheduler from inside
// the handler: the kernel's signal frame, with the interrupted code's full
// register and xsave state, stays on the sandbox stack, and the sandbox
// resumes by returning from this handler through sigreturn.
//
// Deadline enforcement lives here too: an over-budget sandbox is not
// rotated but unwound via the engine's trap machinery (raise_trap longjmps
// to the TrapScope inside the sandbox's invoke), so Sandbox::entry observes
// a kDeadlineExceeded outcome and parks the sandbox in kKilled.
void worker_quantum_handler(int, siginfo_t*, void* uc) {
  Worker* w = tls_worker;
  if (!w) return;
  Sandbox* sb = w->current_;
  const auto sp = static_cast<uintptr_t>(
      static_cast<ucontext_t*>(uc)->uc_mcontext.gregs[REG_RSP]);
  if (!sb || !sb->preemptible(sp)) return;
  // Leaving kRunning first makes the rule false for a nested tick
  // (SA_NODEFER lets one in).
  sb->set_state(SandboxState::kRunnable);
  if (sb->kill_requested() || sb->deadline_exceeded(now_ns())) {
    sb->request_kill();
    engine::raise_trap(engine::TrapCode::kDeadlineExceeded);  // no return
  }
  sb->note_preempted();
  w->stats_.preemptions.fetch_add(1, std::memory_order_relaxed);
  context_switch(sb->context(), &w->sched_ctx_);
  // Returning re-enters the interrupted guest code — unless a kill arrived
  // while we were descheduled (wall deadline passing).
  if (sb->kill_requested()) {
    engine::raise_trap(engine::TrapCode::kDeadlineExceeded);
  }
}

namespace {

void install_quantum_handler_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    sa.sa_sigaction = worker_quantum_handler;
    sigemptyset(&sa.sa_mask);
    // SA_NODEFER: the handler may leave by switching (preemption) or by
    // longjmp (deadline kill), so SIGALRM must stay deliverable without a
    // mask change on either path.
    sa.sa_flags = SA_SIGINFO | SA_NODEFER | SA_RESTART;
    sigaction(SIGALRM, &sa, nullptr);
  });
}

}  // namespace

Worker::Worker(Runtime* rt, int index)
    : rt_(rt),
      index_(index),
      preempt_(rt->config().sched == SchedPolicy::kRoundRobin) {}

Worker::~Worker() { join(); }

Status Worker::start() {
  // The event loop is the worker's heartbeat; without it the worker cannot
  // sleep, park blocked sandboxes or see the front door.
  Status st = io_loop_.init();
  if (st.is_ok()) st = io_loop_.nest_ready_set(rt_->front_door().ready_fd());
  if (!st.is_ok()) return st;
  thread_ = std::thread([this] { thread_main(); });
  return Status::ok();
}

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::setup_timer() {
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = static_cast<pid_t>(::syscall(SYS_gettid));
  if (::timer_create(CLOCK_MONOTONIC, &sev, &timer_) == 0) {
    timer_valid_ = true;
  } else {
    SLEDGE_LOG_WARN("worker %d: timer_create failed; preemption disabled",
                    index_);
  }
}

void Worker::arm_timer(const Sandbox* sb) {
  if (!timer_valid_) return;
  uint64_t ns = rt_->config().quantum_us * 1000;
  // Clip the slice to the remaining budget/deadline (floor keeps the value
  // nonzero: a zero it_value would disarm the timer instead).
  constexpr uint64_t kMinSliceNs = 100'000;
  uint64_t now = now_ns();
  if (sb->budget_ns() != 0) {
    uint64_t used = sb->cpu_consumed_ns(now);
    uint64_t left = sb->budget_ns() > used ? sb->budget_ns() - used : 0;
    ns = std::min(ns, std::max(left, kMinSliceNs));
  }
  if (sb->deadline_at_ns() != 0) {
    uint64_t left =
        sb->deadline_at_ns() > now ? sb->deadline_at_ns() - now : 0;
    ns = std::min(ns, std::max(left, kMinSliceNs));
  }
  itimerspec its{};
  its.it_value.tv_sec = ns / 1'000'000'000;
  its.it_value.tv_nsec = ns % 1'000'000'000;
  // A tick the preemption rule drops (the sandbox is in a host call, or
  // mid-switch) is retried one floor slice later.
  its.it_interval.tv_nsec = kMinSliceNs;
  ::timer_settime(timer_, 0, &its, nullptr);
}

void Worker::disarm_timer() {
  if (!timer_valid_) return;
  itimerspec its{};  // zero = disarm
  ::timer_settime(timer_, 0, &its, nullptr);
}

void Worker::thread_main() {
  tls_worker = this;
  engine::ensure_sigaltstack();
  SandboxResourcePool::instance().share_thread_resources();

  // FIFO run-to-completion never arms the quantum timer: a dispatched
  // sandbox keeps the core until it completes, blocks, or traps.
  if (preempt_) {
    install_quantum_handler_once();
    setup_timer();
  }

  // Idle sleeps are capped so running()/draining() flips are noticed even
  // if a notify were lost; all expected wake sources (a ready front-door
  // fd, bound work, child completion, stop) wake the loop themselves, so
  // the cap is a backstop, not the latency floor.
  constexpr uint64_t kIdleSleepCapNs = 20'000'000;  // 20 ms

  FrontDoor& door = rt_->front_door();
  std::vector<Sandbox*> woken;
  while (rt_->running()) {
    woken.clear();
    bool writes_ready = false;
    bool door_ready = false;
    io_loop_.poll(0, &woken, &writes_ready, &door_ready);
    admit_woken(&woken);
    pump_writes();
    if (door_ready) serve_front_door();
    door.rearm_accept_if_due(now_ns());
    // Published for the invoke-locality slack check (racy by design: a
    // stale value only mis-places one child, which any worker can steal).
    backlog_hint_.store(static_cast<uint32_t>(run_queue_.size()),
                        std::memory_order_relaxed);

    Sandbox* sb = next_sandbox();
    if (sb) {
      dispatch(sb);
      continue;
    }

    // Nothing runnable: sleep in epoll until the nearest timer/deadline, a
    // watched fd turns ready (the front door's ready set included), or a
    // cross-thread notify — no busy-spinning (this is where new-request
    // dequeueing integrates with scheduling, paper §3.4, now without
    // burning the core while waiting). Flagging idle before one last fetch
    // pairs with the placer's fence (Runtime::wake_for): a placement either
    // sees this worker idle or this fetch sees the placed work.
    flush_access_log();  // off the hot path: only when the core is idle
    idle_.store(true, std::memory_order_seq_cst);
    if (Sandbox* late = next_sandbox()) {
      idle_.store(false, std::memory_order_relaxed);
      dispatch(late);
      continue;
    }
    uint64_t budget = io_loop_.sleep_budget_ns(now_ns(), kIdleSleepCapNs);
    woken.clear();
    writes_ready = false;
    door_ready = false;
    io_loop_.poll(budget, &woken, &writes_ready, &door_ready);
    idle_.store(false, std::memory_order_relaxed);
    admit_woken(&woken);
    if (writes_ready) pump_writes();
    if (door_ready) serve_front_door();
  }

  // Anything left after the drain grace period is abandoned; so are the
  // connections of responses still being written.
  Sandbox* sb = nullptr;
  while (rt_->distributor().fetch(index_, &sb)) abandon(sb);
  for (Sandbox* s : run_queue_) abandon(s);
  run_queue_.clear();
  std::vector<Sandbox*> blocked;
  io_loop_.drain_all(&blocked);
  for (Sandbox* s : blocked) abandon(s);
  for (WriteJob& w : writes_) {
    door.finish(w.fd, /*keep_open=*/false, this);
    rt_->note_write_done();
  }
  writes_.clear();
  flush_access_log();

  backlog_hint_.store(0, std::memory_order_relaxed);
  if (timer_valid_) ::timer_delete(timer_);
  tls_worker = nullptr;
}

void Worker::serve_front_door() {
  // One fd per iteration, so a stream of arrivals cannot starve the run
  // queue.
  rt_->front_door().serve_one(this);
  if (!writes_.empty()) pump_writes();
}

void Worker::respond(int fd, std::string header, std::vector<uint8_t> body,
                     bool keep_alive) {
  rt_->note_write_queued();
  writes_.push_back(WriteJob{fd, std::move(header), std::move(body), 0,
                             keep_alive, RequestTrace{}});
}

void Worker::admit(Sandbox* sb) {
  sb->set_placer(index_);
  int bound = rt_->distributor().push(sb);
  rt_->wake_for(bound, index_, /*placer_busy=*/!run_queue_.empty());
}

Sandbox* Worker::next_sandbox() {
  // Dequeueing of new requests is integrated into the scheduling loop
  // (paper §3.4): at most one fetched request joins the run queue per
  // iteration, so freshly arrived short functions rotate fairly with
  // long-running preempted ones.
  Sandbox* fetched = nullptr;
  if (rt_->distributor().fetch(index_, &fetched)) {
    if (fetched->placer() != index_) {
      stats_.steals.fetch_add(1, std::memory_order_relaxed);
    }
    run_queue_.push_back(fetched);
  }
  if (run_queue_.empty()) return nullptr;
  Sandbox* sb = run_queue_.front();
  run_queue_.pop_front();
  return sb;
}

void Worker::dispatch(Sandbox* sb) {
  // Wall-clock deadlines also cover queueing delay: check before burning a
  // slice. A sandbox that never entered the engine has nothing to unwind
  // and is killed in place; one that already ran must unwind on-stack, so
  // flag it and dispatch — the resume paths raise the trap.
  if (!sb->kill_requested() && sb->deadline_exceeded(now_ns())) {
    sb->request_kill();
  }
  if (sb->kill_requested() && sb->first_run_ns() == 0) {
    sb->mark_killed_undispatched();
    finalize(sb);
    return;
  }

  stats_.dispatches.fetch_add(1, std::memory_order_relaxed);
  sb->set_owner_worker(index_);  // children spawned via sb_invoke ping us
  current_ = sb;
  if (preempt_) arm_timer(sb);
  sb->dispatch(&sched_ctx_);
  if (preempt_) disarm_timer();
  current_ = nullptr;

  switch (sb->state()) {
    case SandboxState::kRunnable:  // preempted: rotate to the tail
      run_queue_.push_back(sb);
      break;
    case SandboxState::kBlocked:
      stats_.blocked.fetch_add(1, std::memory_order_relaxed);
      io_loop_.add_blocked(sb);
      // add_blocked fails open (bad fd, epoll error): the sandbox comes
      // back runnable and the hostcall retries to surface the error.
      if (sb->state() == SandboxState::kRunnable) run_queue_.push_back(sb);
      break;
    case SandboxState::kComplete:
    case SandboxState::kFailed:
    case SandboxState::kKilled:
      finalize(sb);
      break;
    default:
      SLEDGE_LOG_ERROR("worker %d: sandbox in unexpected state", index_);
      rt_->note_retired(static_cast<LoadedModule*>(sb->user_tag));
      delete sb;
      break;
  }
}

void Worker::finalize(Sandbox* sb) {
  if (sb->pooled()) {
    stats_.pool_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.pool_misses.fetch_add(1, std::memory_order_relaxed);
  }
  SandboxState st = sb->state();
  if (st == SandboxState::kComplete) {
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
  } else if (st == SandboxState::kKilled) {
    stats_.killed.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
  }

  rt_->record_completion(sb, st);

  // A child sandbox (sb_invoke) reports through its InvokeJoin instead of
  // an HTTP response; its parent may be blocked on another worker.
  signal_join(sb,
              st == SandboxState::kComplete ? 0 : engine::kSbErrChildFailed,
              /*take_response=*/st == SandboxState::kComplete);

  if (sb->conn_fd() >= 0) {
    // Header and body stay separate: the body is moved (not copied) out of
    // the sandbox and pump_writes sends both as one writev.
    int status;
    std::string header;
    std::vector<uint8_t> body;
    if (st == SandboxState::kComplete) {
      status = 200;
      body = std::move(sb->response());
      header = http::serialize_response_header(200, "OK", body.size(),
                                               sb->keep_alive());
    } else if (st == SandboxState::kKilled) {
      status = 504;
      std::string reason = sb->outcome().describe();
      body.assign(reason.begin(), reason.end());
      header = http::serialize_response_header(504, "Gateway Timeout",
                                               body.size(), sb->keep_alive());
    } else {
      status = 500;
      std::string reason = sb->outcome().describe();
      body.assign(reason.begin(), reason.end());
      header = http::serialize_response_header(500, "Function Error",
                                               body.size(), sb->keep_alive());
    }
    // The response-write phase outlives the sandbox: the breakdown rides on
    // the WriteJob and is recorded when the last byte reaches the kernel.
    RequestTrace trace;
    trace.mod = static_cast<LoadedModule*>(sb->user_tag);
    trace.status = status;
    trace.created_ns = sb->created_ns();
    trace.done_ns = sb->done_ns();
    trace.queue_wait_ns = sb->queue_wait_ns();
    trace.startup_ns = sb->startup_cost_ns();
    trace.exec_cpu_ns = sb->cpu_ns();
    trace.io_wait_ns = sb->io_wait_ns();
    trace.dispatches = sb->dispatch_count();
    trace.preempts = sb->preempt_count();
    rt_->note_write_queued();
    writes_.push_back(WriteJob{sb->conn_fd(), std::move(header),
                               std::move(body), 0, sb->keep_alive(), trace});
  }
  delete sb;
  pump_writes();
}

void Worker::abandon(Sandbox* sb) {
  stats_.drained.fetch_add(1, std::memory_order_relaxed);
  rt_->note_retired(static_cast<LoadedModule*>(sb->user_tag));
  signal_join(sb, engine::kSbErrChildFailed, /*take_response=*/false);
  if (sb->conn_fd() >= 0) {
    // No response is coming: hang up.
    rt_->front_door().finish(sb->conn_fd(), /*keep_open=*/false, this);
  }
  delete sb;
}

void Worker::admit_woken(std::vector<Sandbox*>* woken) {
  for (Sandbox* sb : *woken) {
    stats_.woken.fetch_add(1, std::memory_order_relaxed);
    run_queue_.push_back(sb);
  }
  woken->clear();
}

void Worker::signal_join(Sandbox* sb, int32_t status, bool take_response) {
  const std::shared_ptr<InvokeJoin>& join = sb->result_join();
  if (!join) return;
  // Status and payload must be visible before done flips: the parent reads
  // them after an acquire load of done.
  join->status = status;
  // On the shm dataplane the response bytes are already in the transfer
  // buffer; harvest publishes the length instead of moving a vector.
  if (take_response) sb->harvest_response(join.get());
  join->done.store(true, std::memory_order_release);
  rt_->notify_worker(join->waiter_worker);
}

void Worker::pump_writes() {
  do {
    finished_.clear();
    for (size_t i = 0; i < writes_.size();) {
      WriteJob& w = writes_[i];
      const size_t total = w.header.size() + w.body.size();
      bool dead = false;
      while (w.offset < total) {
        // Zero-copy: header and body leave as one writev, no concatenation.
        iovec iov[2];
        int cnt = 0;
        if (w.offset < w.header.size()) {
          iov[cnt].iov_base = const_cast<char*>(w.header.data()) + w.offset;
          iov[cnt].iov_len = w.header.size() - w.offset;
          ++cnt;
          if (!w.body.empty()) {
            iov[cnt].iov_base = w.body.data();
            iov[cnt].iov_len = w.body.size();
            ++cnt;
          }
        } else {
          size_t boff = w.offset - w.header.size();
          iov[cnt].iov_base = w.body.data() + boff;
          iov[cnt].iov_len = w.body.size() - boff;
          ++cnt;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<size_t>(cnt);
        ssize_t n = ::sendmsg(w.fd, &msg, MSG_NOSIGNAL);
        if (n > 0) {
          w.offset += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        dead = true;  // peer went away
        break;
      }
      const bool done = w.offset == total;
      if (!done && !dead) {
        io_loop_.watch_write_fd(w.fd);  // EAGAIN: park for EPOLLOUT
        ++i;
        continue;
      }
      io_loop_.unwatch_write_fd(w.fd);
      complete_write(w, now_ns(), done && !dead);
      finished_.emplace_back(w.fd, done && !dead && w.keep_alive);
      rt_->note_write_done();
      writes_[i] = std::move(writes_.back());
      writes_.pop_back();
    }
    // The writer of a response's last byte serves the connection's next
    // request, which may queue another response: go round again.
    for (const auto& [fd, keep_open] : finished_) {
      rt_->front_door().finish(fd, keep_open, this);
    }
  } while (!finished_.empty() && !writes_.empty());
}

void Worker::complete_write(const WriteJob& w, uint64_t now, bool write_ok) {
  const RequestTrace& t = w.trace;
  const size_t total = w.header.size() + w.body.size();
  uint64_t write_ns = now > t.done_ns ? now - t.done_ns : 0;
  if (write_ok) rt_->record_response_write(t.mod, write_ns, total);
  if (!rt_->access_log_enabled() || t.mod == nullptr) return;

  uint64_t e2e_ns = now > t.created_ns ? now - t.created_ns : 0;
  char line[512];
  int n = std::snprintf(
      line, sizeof(line),
      "{\"module\":\"%s\",\"status\":%d,\"bytes\":%zu,\"worker\":%d,"
      "\"queue_wait_us\":%.1f,\"startup_us\":%.1f,\"exec_cpu_us\":%.1f,"
      "\"io_wait_us\":%.1f,\"response_write_us\":%.1f,\"e2e_us\":%.1f,"
      "\"dispatches\":%u,\"preempts\":%u,\"write_ok\":%s}\n",
      t.mod->name.c_str(), t.status, total, index_,
      static_cast<double>(t.queue_wait_ns) / 1e3,
      static_cast<double>(t.startup_ns) / 1e3,
      static_cast<double>(t.exec_cpu_ns) / 1e3,
      static_cast<double>(t.io_wait_ns) / 1e3,
      static_cast<double>(write_ns) / 1e3, static_cast<double>(e2e_ns) / 1e3,
      t.dispatches, t.preempts, write_ok ? "true" : "false");
  if (n > 0) access_buf_.append(line, std::min(sizeof(line) - 1,
                                               static_cast<size_t>(n)));
  if (access_buf_.size() >= 32 * 1024) flush_access_log();
}

void Worker::flush_access_log() {
  if (access_buf_.empty()) return;
  rt_->access_log_write(access_buf_);
  access_buf_.clear();
}

}  // namespace sledge::runtime
