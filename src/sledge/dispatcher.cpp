#include "sledge/dispatcher.hpp"

#include <algorithm>
#include <functional>

namespace sledge::runtime {

const char* to_string(DistPolicy p) {
  switch (p) {
    case DistPolicy::kWorkStealing: return "work_stealing";
    case DistPolicy::kGlobalLock: return "global_lock";
    case DistPolicy::kPerWorker: return "per_worker";
  }
  return "?";
}

const char* to_string(DispatchPolicy p) {
  switch (p) {
    case DispatchPolicy::kWorkStealing: return "work_stealing";
    case DispatchPolicy::kGlobalEdf: return "global_edf";
    case DispatchPolicy::kShardedByModule: return "sharded_module";
  }
  return "?";
}

// ---- Distributor -----------------------------------------------------

Distributor::Distributor(DistPolicy policy, int workers)
    : policy_(policy), workers_(workers) {
  if (policy_ == DistPolicy::kPerWorker) {
    for (int i = 0; i < workers; ++i) {
      per_worker_.push_back(std::make_unique<PerWorkerQ>());
    }
  }
  for (int i = 0; i < workers; ++i) {
    hinted_.push_back(std::make_unique<HintQ>());
  }
}

int Distributor::push(Sandbox* sb) {
  switch (policy_) {
    case DistPolicy::kWorkStealing: {
      std::lock_guard<std::mutex> lock(push_mu_);
      deque_.push(sb);
      return -1;
    }
    case DistPolicy::kGlobalLock: {
      std::lock_guard<std::mutex> lock(global_mu_);
      global_q_.push_back(sb);
      return -1;
    }
    case DistPolicy::kPerWorker: {
      uint64_t idx = rr_cursor_.fetch_add(1, std::memory_order_relaxed) %
                     static_cast<uint64_t>(workers_);
      PerWorkerQ& q = *per_worker_[idx];
      std::lock_guard<std::mutex> lock(q.mu);
      q.q.push_back(sb);
      return static_cast<int>(idx);
    }
  }
  return -1;
}

int Distributor::inject(Sandbox* sb, int worker_hint) {
  // Locality-hinted placement: land the child on its parent's worker so it
  // runs with warm caches and a zero-hop join wake. Advisory — a hinted
  // queue deeper than the cap means the worker is busier than the caller's
  // slack check believed, so fall back to the shared entrance where any
  // worker can pick the child up.
  if (worker_hint >= 0 && worker_hint < workers_) {
    HintQ& hq = *hinted_[worker_hint];
    if (hq.count.load(std::memory_order_relaxed) < 16) {
      std::lock_guard<std::mutex> lock(hq.mu);
      hq.q.push_back(sb);
      hq.count.fetch_add(1, std::memory_order_release);
      return worker_hint;
    }
  }
  // Side entrance: children bypass the Chase–Lev owner end through a small
  // mutexed queue that fetch() probes with a relaxed counter (zero-cost
  // when unused).
  std::lock_guard<std::mutex> lock(inject_mu_);
  inject_q_.push_back(sb);
  inject_count_.fetch_add(1, std::memory_order_release);
  return -1;
}

bool Distributor::fetch(int worker_index, Sandbox** out) {
  // Own hinted queue first: children placed here were aimed at this
  // worker specifically, and serving them before stolen/global work keeps
  // the parent->child locality the hint paid for.
  if (worker_index >= 0 && worker_index < workers_) {
    HintQ& hq = *hinted_[worker_index];
    if (hq.count.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(hq.mu);
      if (!hq.q.empty()) {
        *out = hq.q.front();
        hq.q.pop_front();
        hq.count.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
  }
  if (inject_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!inject_q_.empty()) {
      *out = inject_q_.front();
      inject_q_.pop_front();
      inject_count_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  switch (policy_) {
    case DistPolicy::kWorkStealing:
      return deque_.steal(out);
    case DistPolicy::kGlobalLock: {
      std::lock_guard<std::mutex> lock(global_mu_);
      if (global_q_.empty()) return false;
      *out = global_q_.front();
      global_q_.pop_front();
      return true;
    }
    case DistPolicy::kPerWorker: {
      PerWorkerQ& q = *per_worker_[worker_index];
      std::lock_guard<std::mutex> lock(q.mu);
      if (q.q.empty()) return false;
      *out = q.q.front();
      q.q.pop_front();
      return true;
    }
  }
  return false;
}

int64_t Distributor::backlog_estimate() const {
  int64_t injected = inject_count_.load(std::memory_order_acquire);
  for (const auto& hq : hinted_) {
    injected += hq->count.load(std::memory_order_acquire);
  }
  switch (policy_) {
    case DistPolicy::kWorkStealing:
      return injected + deque_.size_estimate();
    case DistPolicy::kGlobalLock: {
      std::lock_guard<std::mutex> lock(global_mu_);
      return injected + static_cast<int64_t>(global_q_.size());
    }
    case DistPolicy::kPerWorker: {
      int64_t total = injected;
      for (const auto& q : per_worker_) {
        std::lock_guard<std::mutex> lock(q->mu);
        total += static_cast<int64_t>(q->q.size());
      }
      return total;
    }
  }
  return injected;
}

// ---- Dispatchers ------------------------------------------------------

namespace {

// The paper's design, unchanged: the Distributor (and its DistPolicy queue
// ablation) behind the Dispatcher interface.
class WorkStealingDispatcher : public Dispatcher {
 public:
  WorkStealingDispatcher(DistPolicy dist, int workers)
      : dist_(dist, workers) {}

  DispatchPolicy kind() const override {
    return DispatchPolicy::kWorkStealing;
  }
  int push(Sandbox* sb) override { return dist_.push(sb); }
  int inject(Sandbox* sb, int worker_hint) override {
    return dist_.inject(sb, worker_hint);
  }
  bool fetch(int worker_index, Sandbox** out) override {
    return dist_.fetch(worker_index, out);
  }
  int64_t backlog_estimate() const override {
    return dist_.backlog_estimate();
  }

 private:
  Distributor dist_;
};

// Centralized deadline-sorted admit order: one mutexed min-heap on the
// absolute wall-clock deadline stamped at admission. Every fetch — from any
// worker — pops the globally earliest deadline, so under bursts the tightest
// requests reach a core first regardless of arrival order. Deadline-less
// requests sort last; equal deadlines break FIFO (seq).
class GlobalEdfDispatcher : public Dispatcher {
 public:
  DispatchPolicy kind() const override { return DispatchPolicy::kGlobalEdf; }

  int push(Sandbox* sb) override { return place(sb); }
  // Locality hints are ignored: global deadline order IS the policy here.
  int inject(Sandbox* sb, int) override { return place(sb); }

  bool fetch(int, Sandbox** out) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    *out = heap_.back().sb;
    heap_.pop_back();
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  int64_t backlog_estimate() const override {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uint64_t deadline;  // absolute ns; UINT64_MAX = no deadline
    uint64_t seq;       // FIFO tie-break
    Sandbox* sb;
  };
  // Min-heap on (deadline, seq) via std::*_heap's max-heap comparator.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  int place(Sandbox* sb) {
    uint64_t deadline = sb->deadline_at_ns();
    std::lock_guard<std::mutex> lock(mu_);
    heap_.push_back(Entry{deadline == 0 ? UINT64_MAX : deadline, seq_++, sb});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    size_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }

  mutable std::mutex mu_;
  std::vector<Entry> heap_;
  uint64_t seq_ = 0;
  std::atomic<int64_t> size_{0};
};

// Sharded-by-module placement: the target module (Sandbox::user_tag, set
// before push/inject) hashes to one worker's shard, so a module's requests
// always run on the same core — instruction/data locality and hard
// per-module isolation, at the price of work conservation (an idle worker
// never helps a loaded shard).
class ShardedByModuleDispatcher : public Dispatcher {
 public:
  explicit ShardedByModuleDispatcher(int workers) : workers_(workers) {
    for (int i = 0; i < workers; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  DispatchPolicy kind() const override {
    return DispatchPolicy::kShardedByModule;
  }

  int push(Sandbox* sb) override { return place(sb); }
  // Locality hints are ignored: module affinity IS the policy here.
  int inject(Sandbox* sb, int) override { return place(sb); }

  bool fetch(int worker_index, Sandbox** out) override {
    if (worker_index < 0 || worker_index >= workers_) return false;
    Shard& s = *shards_[worker_index];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.q.empty()) return false;
    *out = s.q.front();
    s.q.pop_front();
    return true;
  }

  int64_t backlog_estimate() const override {
    int64_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mu);
      total += static_cast<int64_t>(s->q.size());
    }
    return total;
  }

  int shard_of(const void* module_tag) const {
    // Mix the pointer bits (splitmix-style) so allocation alignment does
    // not funnel every module onto shard 0.
    uint64_t z = reinterpret_cast<uintptr_t>(module_tag);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<int>((z ^ (z >> 31)) %
                            static_cast<uint64_t>(workers_));
  }

 private:
  struct Shard {
    std::mutex mu;
    std::deque<Sandbox*> q;
  };

  int place(Sandbox* sb) {
    const int shard = shard_of(sb->user_tag);
    Shard& s = *shards_[shard];
    std::lock_guard<std::mutex> lock(s.mu);
    s.q.push_back(sb);
    return shard;
  }

  int workers_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace

std::unique_ptr<Dispatcher> Dispatcher::make(DispatchPolicy policy,
                                             DistPolicy dist, int workers) {
  switch (policy) {
    case DispatchPolicy::kGlobalEdf:
      return std::make_unique<GlobalEdfDispatcher>();
    case DispatchPolicy::kShardedByModule:
      return std::make_unique<ShardedByModuleDispatcher>(workers);
    case DispatchPolicy::kWorkStealing:
      break;
  }
  return std::make_unique<WorkStealingDispatcher>(dist, workers);
}

}  // namespace sledge::runtime
