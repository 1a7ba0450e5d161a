#include "sledge/io_loop.hpp"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/clock.hpp"
#include "common/log.hpp"

namespace sledge::runtime {

IoLoop::~IoLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
}

Status IoLoop::init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::error("io_loop: epoll_create1 failed");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) return Status::error("io_loop: eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    return Status::error("io_loop: epoll_ctl(eventfd) failed");
  }
  return Status::ok();
}

Status IoLoop::nest_ready_set(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::error("io_loop: epoll_ctl(ready set) failed");
  }
  ready_set_fd_ = fd;
  return Status::ok();
}

void IoLoop::notify() {
  if (event_fd_ < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void IoLoop::push_timer(uint64_t when_ns, Sandbox* sb, uint64_t seq,
                        bool is_deadline) {
  timers_.push_back(TimerEntry{when_ns, sb, seq, is_deadline});
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
}

void IoLoop::add_blocked(Sandbox* sb) {
  Blocked entry;
  entry.seq = next_seq_++;
  entry.kind = sb->wake_kind();

  // Every blocked sandbox with a wall deadline gets a kill timer: deadline
  // enforcement (PR 1) must keep firing for sandboxes parked on I/O.
  if (sb->deadline_at_ns() != 0) {
    push_timer(sb->deadline_at_ns(), sb, entry.seq, /*is_deadline=*/true);
  }

  switch (entry.kind) {
    case WakeKind::kTimer:
      push_timer(sb->wake_at_ns(), sb, entry.seq, /*is_deadline=*/false);
      break;
    case WakeKind::kFdRead:
    case WakeKind::kFdWrite: {
      entry.fd = sb->wake_os_fd();
      epoll_event ev{};
      ev.events = entry.kind == WakeKind::kFdRead ? EPOLLIN : EPOLLOUT;
      ev.data.fd = entry.fd;
      if (entry.fd < 0 ||
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, entry.fd, &ev) < 0) {
        // Fail open: hand the sandbox right back so the hostcall retries
        // and surfaces the error through the normal I/O path.
        SLEDGE_LOG_WARN("io_loop: watch fd %d failed (%s); waking eagerly",
                        entry.fd, strerror(errno));
        sb->set_state(SandboxState::kRunnable);
        // No registry entry was added; the possible deadline timer entry
        // above is stale but harmless (seq never matches a live entry).
        return;
      }
      fd_waiters_[entry.fd] = sb;
      break;
    }
    case WakeKind::kChild:
      child_waiters_.push_back(sb);
      break;
    case WakeKind::kNone:
      // A sandbox that blocked without a condition would sleep forever;
      // treat as a runtime bug and keep it runnable.
      SLEDGE_LOG_ERROR("io_loop: blocked sandbox without a wake condition");
      sb->set_state(SandboxState::kRunnable);
      return;
  }
  blocked_[sb] = entry;
}

void IoLoop::wake(Sandbox* sb, std::vector<Sandbox*>* ready) {
  auto it = blocked_.find(sb);
  if (it == blocked_.end()) return;
  const Blocked& b = it->second;
  if (b.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, b.fd, nullptr);
    fd_waiters_.erase(b.fd);
  }
  if (b.kind == WakeKind::kChild) {
    child_waiters_.erase(
        std::remove(child_waiters_.begin(), child_waiters_.end(), sb),
        child_waiters_.end());
  }
  blocked_.erase(it);
  sb->set_state(SandboxState::kRunnable);
  ready->push_back(sb);
}

void IoLoop::pump_timers(uint64_t now, std::vector<Sandbox*>* ready) {
  while (!timers_.empty() && timers_.front().when_ns <= now) {
    TimerEntry e = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    timers_.pop_back();
    // Validate before ANY dereference: the sandbox may have woken (stale
    // seq), completed, or even been freed and its address recycled.
    auto it = blocked_.find(e.sb);
    if (it == blocked_.end() || it->second.seq != e.seq) continue;
    if (e.is_deadline) {
      // Wall deadline passed while blocked: kill. The wake delivers the
      // sandbox back to the worker, whose resume path raises the trap that
      // unwinds it (504). kChild parents wake immediately too — the shared
      // InvokeJoin keeps the child's completion signal safe.
      e.sb->request_kill();
    }
    wake(e.sb, ready);
  }
}

void IoLoop::pump_child_waiters(std::vector<Sandbox*>* ready) {
  for (size_t i = 0; i < child_waiters_.size();) {
    Sandbox* sb = child_waiters_[i];
    const std::shared_ptr<InvokeJoin>& join = sb->pending_join();
    bool done = join && join->done.load(std::memory_order_acquire);
    if (done || sb->kill_requested()) {
      wake(sb, ready);  // removes child_waiters_[i] (swap-free erase)
      continue;         // re-inspect index i
    }
    ++i;
  }
}

void IoLoop::poll(uint64_t timeout_ns, std::vector<Sandbox*>* ready,
                  bool* writes_ready, bool* door_ready) {
  epoll_event events[64];
  int timeout_ms = 0;
  if (timeout_ns > 0) {
    // Round up: returning early busy-loops; oversleeping is bounded by the
    // caller's budget math.
    uint64_t ms = (timeout_ns + 999'999) / 1'000'000;
    timeout_ms = static_cast<int>(std::min<uint64_t>(ms, 60'000));
  }
  int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    if (fd == event_fd_) {
      uint64_t junk;
      while (::read(event_fd_, &junk, sizeof(junk)) > 0) {
      }
      // A notify may signal new distributor work, a child completion, or a
      // stop; the worker re-checks all of those. Flag writes too: cheap.
      *writes_ready = true;
      continue;
    }
    if (fd == ready_set_fd_) {
      if (door_ready) *door_ready = true;
      continue;
    }
    auto w = fd_waiters_.find(fd);
    if (w != fd_waiters_.end()) {
      wake(w->second, ready);
      continue;
    }
    if (write_fds_.count(fd)) *writes_ready = true;
  }
  uint64_t now = now_ns();
  pump_timers(now, ready);
  pump_child_waiters(ready);
}

uint64_t IoLoop::sleep_budget_ns(uint64_t now, uint64_t cap_ns) const {
  if (timers_.empty()) return cap_ns;
  uint64_t next = timers_.front().when_ns;  // stale entries only wake early
  uint64_t until = next > now ? next - now : 1;
  return std::min(until, cap_ns);
}

void IoLoop::watch_write_fd(int fd) {
  if (!write_fds_.insert(fd).second) return;  // already parked
  epoll_event ev{};
  ev.events = EPOLLOUT;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void IoLoop::unwatch_write_fd(int fd) {
  if (write_fds_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void IoLoop::drain_all(std::vector<Sandbox*>* out) {
  for (auto& [sb, entry] : blocked_) {
    if (entry.fd >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, entry.fd, nullptr);
    out->push_back(sb);
  }
  blocked_.clear();
  fd_waiters_.clear();
  child_waiters_.clear();
  timers_.clear();
  for (int fd : write_fds_) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  write_fds_.clear();
}

}  // namespace sledge::runtime
