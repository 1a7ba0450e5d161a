// A Sledge worker core: one FIFO run queue of sandbox contexts (paper §3.4),
// fused with a per-worker epoll event loop (IoLoop — the libuv-style loop
// of paper §4) that parks blocked sandboxes on wake conditions (timers,
// outbound-socket readiness, child-sandbox completion) and sleeps the core
// when nothing is runnable. The front door's ready set is nested in that
// loop: between dispatches the worker takes the next ready client
// connection and serves it itself (front_door.hpp). Under round robin the
// quantum timer preempts the running sandbox, which rotates to the queue's
// tail; under FIFO the timer is never armed.
#pragma once

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "sledge/context.hpp"
#include "sledge/io_loop.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::runtime {

class Runtime;
struct LoadedModule;

class Worker {
 public:
  Worker(Runtime* rt, int index);
  ~Worker();

  // Initialises the event loop (with the front door's ready set nested in
  // it) before the thread exists, so notify() is safe as soon as the
  // worker is reachable, then starts the thread.
  Status start();
  void join();

  // Cross-thread wake: interrupts an idle epoll sleep. Safe from any thread.
  void notify() { io_loop_.notify(); }
  // True while the worker sleeps in epoll with nothing runnable.
  bool idle() const { return idle_.load(std::memory_order_seq_cst); }

  // ---- Front-door hooks (called on this worker's thread) ----
  // Queues a control-path response on this worker's writer; the connection
  // stays held until its last byte is out (then FrontDoor::finish).
  void respond(int fd, std::string header, std::vector<uint8_t> body,
               bool keep_alive);
  // Hands an admitted sandbox to the Distributor and wakes only a worker a
  // placement bound it to (this one fetches next otherwise).
  void admit(Sandbox* sb);

  // Racy snapshot of this worker's runnable backlog (the run queue's
  // length), refreshed each scheduler iteration. The invoke locality check
  // reads it to decide whether the parent's worker has slack for a
  // co-located child.
  uint32_t backlog_hint() const {
    return backlog_hint_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::atomic<uint64_t> dispatches{0};
    std::atomic<uint64_t> preemptions{0};
    std::atomic<uint64_t> steals{0};  // fetches of another worker's placements
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> killed{0};   // deadline/budget terminations (504)
    std::atomic<uint64_t> drained{0};  // abandoned at shutdown
    std::atomic<uint64_t> blocked{0};  // sandboxes parked on a wake condition
    std::atomic<uint64_t> woken{0};    // sandboxes handed back by the IoLoop
    // Resource-pool split of retired sandboxes: warm (every resource off a
    // free list) vs cold (at least one fresh allocation).
    std::atomic<uint64_t> pool_hits{0};
    std::atomic<uint64_t> pool_misses{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  friend void worker_quantum_handler(int, siginfo_t*, void*);

  // Per-request phase breakdown, captured at finalize() so it outlives the
  // sandbox: the response-write phase completes after the sandbox is gone.
  struct RequestTrace {
    LoadedModule* mod = nullptr;
    int status = 0;
    uint64_t created_ns = 0;
    uint64_t done_ns = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t startup_ns = 0;
    uint64_t exec_cpu_ns = 0;
    uint64_t io_wait_ns = 0;
    uint32_t dispatches = 0;
    uint32_t preempts = 0;
  };

  // Response bytes are kept as header + body and written as a writev of
  // two iovecs (zero-copy: the body is moved out of the sandbox, never
  // concatenated into a temporary). `offset` indexes the logical
  // header·body concatenation.
  struct WriteJob {
    int fd;
    std::string header;
    std::vector<uint8_t> body;
    size_t offset = 0;
    bool keep_alive = false;
    RequestTrace trace;  // mod == nullptr: a front-door control response
  };

  void thread_main();
  Sandbox* next_sandbox();
  void dispatch(Sandbox* sb);
  void finalize(Sandbox* sb);
  void abandon(Sandbox* sb);  // shutdown: retire without a response
  // Re-enqueues sandboxes the IoLoop handed back from poll().
  void admit_woken(std::vector<Sandbox*>* woken);
  // Completes (or errors out) a child sandbox's InvokeJoin and pings the
  // parent's worker. No-op for front-door sandboxes.
  void signal_join(Sandbox* sb, int32_t status, bool take_response);
  // Writes what the sockets take; each finished response hands its
  // connection on (FrontDoor::finish), which may queue more responses.
  void pump_writes();
  // Takes at most one ready front-door fd per scheduling iteration.
  void serve_front_door();
  // A flushed (or failed) response: record the response_write phase and
  // append the structured access-log line to the worker-local buffer.
  void complete_write(const WriteJob& w, uint64_t now, bool write_ok);
  void flush_access_log();
  void setup_timer();
  // Arms the quantum timer, clipped to the sandbox's remaining CPU budget /
  // wall deadline so kills land promptly, not at the next full quantum.
  void arm_timer(const Sandbox* sb);
  void disarm_timer();

  Runtime* rt_;
  int index_;
  std::thread thread_;

  Context sched_ctx_;
  Sandbox* current_ = nullptr;

  // Runnable sandboxes: fresh admissions, preempted and woken ones, each
  // pushed at the tail and picked from the head.
  std::deque<Sandbox*> run_queue_;
  // Round robin: the quantum timer may preempt. FIFO: never armed.
  const bool preempt_;
  IoLoop io_loop_;
  std::vector<WriteJob> writes_;
  std::vector<std::pair<int, bool>> finished_;  // pump_writes scratch
  std::string access_buf_;  // buffered access-log lines (flushed off-path)

  timer_t timer_{};
  bool timer_valid_ = false;

  std::atomic<uint32_t> backlog_hint_{0};
  std::atomic<bool> idle_{false};

  Stats stats_;
};

}  // namespace sledge::runtime
