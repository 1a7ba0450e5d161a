// Expected-slack admission control (the SLEdgeScale-style "reject what
// cannot make its deadline anyway" gate) plus per-tenant weighted fair
// shares.
//
// The predictor keeps a sliding window of recent per-request phase samples
// (queue_wait, exec_cpu — the PR 3 histograms' inputs) per module and
// publishes their p99s lock-free. At admit time the controller computes
//
//   predicted_completion = now + queue_wait_p99 + exec_cpu_p99
//   slack               = deadline_abs - predicted_completion
//
// and sheds early instead of queueing a request that is predicted to miss:
// 504-early when exec_cpu_p99 alone exceeds the deadline (unmeetable even
// from an empty queue), 503 when the queueing component is what kills it
// (a retry after backoff may succeed). The window (not all-time histograms)
// matters: shedding drains the queue, fresh samples show small queue_wait,
// and the gate reopens — a self-regulating feedback loop instead of a
// sticky all-time p99 that would latch the server shut after one burst.
//
// Fair shares: with `admission = slack` and max_pending > 0, each module m
// holds at most share_m = max(1, max_pending * weight_m / total_weight)
// in-flight slots; a hot module saturates its share and gets 503s while
// cold tenants' shares stay free (hard reservation, see DESIGN.md §11 for
// the work-conservation trade-off).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace sledge::runtime {

enum class AdmissionPolicy : uint8_t {
  kQueueDepth = 0,    // raw inflight >= max_pending (the PR 1 behaviour)
  kExpectedSlack = 1, // + fair shares + predicted-slack gate
};

const char* to_string(AdmissionPolicy p);

// What the front door answers when a request is not admitted.
enum class AdmitVerdict : uint8_t {
  kAdmit = 0,
  kShedOverload = 1,  // 503: depth / fair-share cap / queueing kills slack
  kShedDeadline = 2,  // 504-early: deadline unmeetable even unqueued
};

const char* to_string(AdmitVerdict v);

// Sliding-window phase predictor, one per module. record() is called by
// workers under the module's stats mutex (serialized writers); the p99s are
// read lock-free on the front door's admit path. Samples from killed requests
// are included: their (truncated) exec and full queue_wait are exactly the
// congestion signal the gate needs.
class SlackPredictor {
 public:
  static constexpr size_t kWindow = 256;       // samples kept per phase
  static constexpr uint64_t kMinSamples = 16;  // gate is bypass below this
  static constexpr uint64_t kRefreshPeriod = 32;  // records between re-sorts

  // Owner-locked (module stats mutex). Publishes fresh p99s every
  // kRefreshPeriod records (and once at kMinSamples so ready() never reads
  // stale zeros).
  void record(uint64_t queue_wait_ns, uint64_t exec_cpu_ns);

  // Lock-free readers (front-door admit path, stats surfaces).
  uint64_t queue_wait_p99_ns() const {
    return queue_p99_.load(std::memory_order_acquire);
  }
  uint64_t exec_cpu_p99_ns() const {
    return exec_p99_.load(std::memory_order_acquire);
  }
  uint64_t samples() const {
    return published_.load(std::memory_order_acquire);
  }
  bool ready() const { return samples() >= kMinSamples; }

 private:
  void refresh();

  std::array<uint64_t, kWindow> queue_ring_{};
  std::array<uint64_t, kWindow> exec_ring_{};
  uint64_t count_ = 0;  // total records (ring cursor = count_ % kWindow)
  std::atomic<uint64_t> queue_p99_{0};
  std::atomic<uint64_t> exec_p99_{0};
  std::atomic<uint64_t> published_{0};  // records visible to readers
};

// Everything one admit decision needs, gathered by the caller (Runtime) so
// the controller itself is pure and property-testable without a server.
struct AdmitRequest {
  int64_t inflight = 0;         // global queued+running+blocked
  int64_t module_inflight = 0;  // the target module's in-flight slots
  uint32_t tenant_weight = 1;   // the target module's weight
  uint64_t total_weight = 1;    // sum of weights over registered modules
  uint64_t deadline_rel_ns = 0; // resolved wall deadline (0 = none)
  uint64_t queue_wait_p99_ns = 0;
  uint64_t exec_cpu_p99_ns = 0;
  bool predictor_ready = false; // >= kMinSamples recorded
};

class AdmissionController {
 public:
  AdmissionController(AdmissionPolicy policy, int64_t max_pending)
      : policy_(policy), max_pending_(max_pending) {}

  AdmissionPolicy policy() const { return policy_; }

  // Weighted fair share in slots; every module keeps at least one.
  static int64_t fair_share(int64_t max_pending, uint32_t weight,
                            uint64_t total_weight);

  // Pure decision: accepted => predicted slack >= 0 at admit time (when the
  // request has a deadline and the predictor is ready).
  AdmitVerdict check(const AdmitRequest& in) const;

 private:
  AdmissionPolicy policy_;
  int64_t max_pending_;  // 0 = depth/fair-share caps off
};

}  // namespace sledge::runtime
