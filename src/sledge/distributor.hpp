// Work distribution: how admitted sandboxes travel from the worker that
// admitted them (front door or sb_invoke) to the worker core that runs them
// (paper §3.4). It sits above each worker's local run queue: the
// Distributor fixes the order in which a worker *receives* work, the run
// queue the order in which it *runs* what it holds. Every DistPolicy
// composes with every SchedPolicy.
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

// The queue ablation of DESIGN.md §3.4:
//   kWorkStealing — lock-free global Chase–Lev deque (the paper's design)
//   kGlobalLock   — one mutex-protected FIFO (work-conserving, not scalable)
//   kPerWorker    — per-worker mutex FIFOs, round-robin assignment, no
//                   stealing (scalable, not work-conserving)
enum class DistPolicy : uint8_t { kWorkStealing, kGlobalLock, kPerWorker };

const char* to_string(DistPolicy p);

// Contracts, under every DistPolicy:
//   push()   — front-door admit, from any worker. Every worker admits from
//              the front door, so the Chase–Lev owner end has one producer
//              per worker and owner-end sessions are serialized by
//              `push_mu_` (steals stay lock-free).
//   inject() — any-thread side entrance (sb_invoke children admitted from
//              worker threads), with an advisory locality hint.
//   Both return the worker a placement bound the sandbox to (per-worker
//   queue, honoured locality hint), or -1 when any worker may fetch it; the
//   caller wakes only a bound worker.
//   fetch()  — worker-side dequeue; returns false when nothing is available
//              for `worker_index`. Each placed sandbox is returned by
//              exactly one successful fetch (no loss, no duplication).
//   backlog_estimate() — racy size probe for drain/observability.
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

}  // namespace sledge::runtime
