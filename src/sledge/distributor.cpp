#include "sledge/distributor.hpp"

namespace sledge::runtime {

const char* to_string(DistPolicy p) {
  switch (p) {
    case DistPolicy::kWorkStealing: return "work_stealing";
    case DistPolicy::kGlobalLock: return "global_lock";
    case DistPolicy::kPerWorker: return "per_worker";
  }
  return "?";
}

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

}  // namespace sledge::runtime
