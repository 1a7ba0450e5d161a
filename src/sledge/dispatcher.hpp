// The dispatcher layer: how admitted sandboxes travel from the worker that
// admitted them (front door or sb_invoke) to the worker core that runs them. Sits above the per-worker SchedulerPolicy (which orders a
// worker's *local* runnable set) and decides the *global* hand-out:
//
//   kWorkStealing — the paper's design: a global Chase–Lev deque (or the
//                   lock/per-worker ablations of DistPolicy) that any idle
//                   worker drains. Deadline-blind but work-conserving.
//   kGlobalEdf    — one centralized deadline-sorted admit order: every
//                   fetch() pops the earliest absolute deadline across ALL
//                   queued requests (deadline-less requests sort last, FIFO
//                   ties). The SLEdgeScale-style "task-deadline-aware"
//                   hand-out; a mutexed binary heap, so scalability is
//                   traded for global deadline order.
//   kShardedByModule — requests are placed on a per-worker shard chosen by
//                   hashing the target module: one module's requests always
//                   land on the same core (cache locality, per-module
//                   isolation), no stealing, not work-conserving.
//
// Every dispatcher composes with every per-worker SchedulerPolicy: the
// dispatcher fixes the order in which a worker *receives* work, the policy
// the order in which the worker *runs* what it holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "sledge/deque.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::runtime {

// Work-distribution policy of the kWorkStealing dispatcher (the queue
// ablation of DESIGN.md):
//   kWorkStealing — lock-free global Chase–Lev deque (the paper's design)
//   kGlobalLock   — one mutex-protected FIFO (work-conserving, not scalable)
//   kPerWorker    — per-worker mutex FIFOs, round-robin assignment, no
//                   stealing (scalable, not work-conserving)
enum class DistPolicy : uint8_t { kWorkStealing, kGlobalLock, kPerWorker };

const char* to_string(DistPolicy p);

enum class DispatchPolicy : uint8_t {
  kWorkStealing = 0,
  kGlobalEdf = 1,
  kShardedByModule = 2,
};

const char* to_string(DispatchPolicy p);

// Work distribution with swappable policy. Every worker admits requests
// from the front door, so the Chase–Lev owner end of kWorkStealing has one
// producer per worker and owner-end sessions are serialized by `push_mu_`
// (steals stay lock-free). inject() is the side entrance for sb_invoke
// children. push() and inject() return the worker the sandbox is bound to,
// or -1 when any worker may fetch it.
class Distributor {
 public:
  Distributor(DistPolicy policy, int workers);

  int push(Sandbox* sb);
  // `worker_hint` >= 0 asks for placement on that worker's hinted queue
  // (invoke locality: the child runs where the parent's caches are warm).
  // The hint is advisory — a full hinted queue falls back to the shared
  // side entrance, and any worker's fetch() can still serve global work.
  int inject(Sandbox* sb, int worker_hint = -1);
  bool fetch(int worker_index, Sandbox** out);
  int64_t backlog_estimate() const;

 private:
  DistPolicy policy_;
  int workers_;
  // Serializes the Chase–Lev owner end across the admitting workers. The
  // deque's owner ops assume one thread; the mutex gives successive owners
  // a happens-before edge, which is all the algorithm needs.
  std::mutex push_mu_;
  WorkStealingDeque<Sandbox*> deque_;
  mutable std::mutex global_mu_;
  std::deque<Sandbox*> global_q_;
  mutable std::mutex inject_mu_;
  std::deque<Sandbox*> inject_q_;
  std::atomic<int64_t> inject_count_{0};  // lock-free emptiness probe
  struct PerWorkerQ {
    std::mutex mu;
    std::deque<Sandbox*> q;
  };
  std::vector<std::unique_ptr<PerWorkerQ>> per_worker_;
  // Locality-hinted inject queues, one per worker, drained by that worker's
  // fetch() ahead of everything else. Counts are lock-free probes so the
  // hot fetch path pays one relaxed load when locality is unused.
  struct HintQ {
    std::mutex mu;
    std::deque<Sandbox*> q;
    std::atomic<int32_t> count{0};
  };
  std::vector<std::unique_ptr<HintQ>> hinted_;
  std::atomic<uint64_t> rr_cursor_{0};
};

// The pluggable hand-out structure. Contracts shared by every
// implementation:
//   push()   — front-door admit, from any worker.
//   inject() — any-thread side entrance (sb_invoke children admitted from
//              worker threads).
//   Both return the worker a placement bound the sandbox to (per-worker
//   queue, module shard, honored locality hint), or -1 when any worker may
//   fetch it; the caller wakes only a bound worker.
//   fetch()  — worker-side dequeue; returns false when nothing is available
//              for `worker_index`. Each pushed sandbox is returned by
//              exactly one successful fetch (no loss, no duplication).
//   backlog_estimate() — racy size probe for drain/observability.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  virtual DispatchPolicy kind() const = 0;
  virtual int push(Sandbox* sb) = 0;
  // `worker_hint` >= 0 prefers that worker (invoke locality). Dispatchers
  // whose placement semantics dominate (global deadline order, module
  // affinity) may ignore it; work-stealing honors it.
  virtual int inject(Sandbox* sb, int worker_hint = -1) = 0;
  virtual bool fetch(int worker_index, Sandbox** out) = 0;
  virtual int64_t backlog_estimate() const = 0;

  // `dist` only affects kWorkStealing (the queue ablation rides along).
  static std::unique_ptr<Dispatcher> make(DispatchPolicy policy,
                                          DistPolicy dist, int workers);
};

}  // namespace sledge::runtime
