// Per-worker event loop for async host I/O (the libuv-style loop of paper
// §4, completing the preemptive+cooperative scheduler pairing).
//
// One IoLoop instance per Worker unifies what used to be three ad-hoc
// mechanisms — the O(n) sleeping_ timer scan, opportunistic response-write
// flushing, and idle busy-spinning — behind a single epoll instance:
//
//   * Blocked sandboxes register a wake condition (timer deadline, fd
//     readability/writability, or child-sandbox completion) and leave the
//     run queue entirely.
//   * Timers (sleep wakes AND wall-clock kill deadlines of blocked
//     sandboxes) live in a min-heap keyed on fire time, so pumping is
//     O(log n) per event instead of a linear scan per loop iteration.
//   * Response WriteJob fds that hit EAGAIN are parked for EPOLLOUT, so a
//     slow reader costs nothing until the kernel says the socket drained.
//   * The front door's ready set (one epoll instance shared by every
//     worker, front_door.hpp) is nested here, so a ready client connection
//     wakes an idle worker like any other event.
//   * When no sandbox is runnable the worker sleeps in epoll_wait with a
//     timeout clipped to the nearest timer; cross-thread events (work a
//     placement policy bound to this worker, a child completing on another
//     worker) land on an eventfd, so CPU-bound and I/O-bound requests
//     overlap on one core without busy-spinning.
//
// Threading: everything except notify() is owner-worker-only. notify() is
// async-signal- and cross-thread-safe (a single eventfd write).
//
// Lifetime safety: the heap may hold entries for sandboxes that woke (or
// died) before their timer fired. Entries are validated against the blocked
// registry by (pointer, block-sequence) pair before any dereference, so a
// stale entry — even one whose sandbox memory was recycled for a new
// request — is discarded without being touched.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::runtime {

class IoLoop {
 public:
  IoLoop() = default;
  ~IoLoop();

  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;

  Status init();
  // Nests the front door's ready set (an epoll fd) in this loop; poll()
  // then reports when it has a ready connection.
  Status nest_ready_set(int fd);

  // Cross-thread wake: makes a concurrent (or the next) poll() return
  // promptly. Safe from any thread while the loop exists.
  void notify();

  // Registers a sandbox the worker just observed entering kBlocked. Reads
  // the sandbox's wake condition (wake_kind/wake_os_fd/wake_at_ns) and its
  // wall deadline; the sandbox must not be dispatched again until this loop
  // hands it back from poll().
  void add_blocked(Sandbox* sb);

  // Parks/unparks a response-write fd for EPOLLOUT (WriteJob hit EAGAIN).
  void watch_write_fd(int fd);
  void unwatch_write_fd(int fd);

  // Drains ready events. Woken sandboxes (timer fired, fd ready, child
  // done, or deadline kill) are appended to *ready in kRunnable state;
  // *writes_ready is set when a parked write fd turned writable (or a
  // notify arrived, which may be a write-side signal); *door_ready (when
  // given) is set when the nested ready set has a ready fd. Blocks in
  // epoll_wait for at most `timeout_ns` (0 = non-blocking drain).
  void poll(uint64_t timeout_ns, std::vector<Sandbox*>* ready,
            bool* writes_ready, bool* door_ready = nullptr);

  // How long poll() may sleep without missing a timer: min(nearest heap
  // entry - now, cap_ns). Returns cap_ns when no timers are pending.
  uint64_t sleep_budget_ns(uint64_t now, uint64_t cap_ns) const;

  // Blocked-sandbox census (sb_invoke child waiters included).
  size_t blocked_count() const { return blocked_.size(); }
  bool empty() const { return blocked_.empty(); }

  // Shutdown: hands every still-blocked sandbox back (without state
  // changes) and clears all registrations.
  void drain_all(std::vector<Sandbox*>* out);

 private:
  struct Blocked {
    uint64_t seq = 0;   // block-episode id; validates heap entries
    WakeKind kind = WakeKind::kNone;
    int fd = -1;        // OS fd watched (kFdRead/kFdWrite only)
  };
  struct TimerEntry {
    uint64_t when_ns = 0;
    Sandbox* sb = nullptr;  // NEVER dereferenced until seq-validated
    uint64_t seq = 0;
    bool is_deadline = false;  // wall-deadline kill vs. cooperative timer
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.when_ns > b.when_ns;
    }
  };

  void push_timer(uint64_t when_ns, Sandbox* sb, uint64_t seq,
                  bool is_deadline);
  // Unregisters + marks runnable + appends to *ready. Requires a live
  // registry entry for sb.
  void wake(Sandbox* sb, std::vector<Sandbox*>* ready);
  void pump_timers(uint64_t now, std::vector<Sandbox*>* ready);
  void pump_child_waiters(std::vector<Sandbox*>* ready);

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int ready_set_fd_ = -1;
  uint64_t next_seq_ = 1;

  std::unordered_map<Sandbox*, Blocked> blocked_;
  std::unordered_map<int, Sandbox*> fd_waiters_;   // OS fd -> blocked sandbox
  std::unordered_set<int> write_fds_;              // parked WriteJob fds
  std::vector<Sandbox*> child_waiters_;            // kChild subset of blocked_
  std::vector<TimerEntry> timers_;                 // min-heap (TimerLater)
};

}  // namespace sledge::runtime
