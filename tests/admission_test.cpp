// Admission-control and work-distribution tests at the data-structure
// level: the expected-slack AdmissionController's admit invariant under
// randomized (seeded) workloads, the SlackPredictor's sliding-window
// behaviour (the guard against sticky all-time p99s latching the server
// shut), and the Distributor push/inject/fetch contract under every
// DistPolicy — including a multi-threaded overload soak. Sandboxes are
// created but never dispatched, so this binary is sanitizer-safe (no
// SIGALRM) and rides the TSan preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "minicc/minicc.hpp"
#include "sledge/admission.hpp"
#include "sledge/distributor.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::runtime {
namespace {

// One interpreter-tier module shared by every test; sandboxes over it are
// pure queue entries here (never run).
const engine::WasmModule* test_module() {
  static engine::WasmModule* mod = [] {
    auto wasm =
        minicc::compile_to_wasm("int state[1]; int main() { return state[0]; }");
    if (!wasm.ok()) return static_cast<engine::WasmModule*>(nullptr);
    engine::WasmModule::Config cfg;
    cfg.tier = engine::Tier::kInterp;
    cfg.strategy = engine::BoundsStrategy::kSoftware;
    auto m = engine::WasmModule::load(*wasm, cfg);
    if (!m.ok()) return static_cast<engine::WasmModule*>(nullptr);
    return new engine::WasmModule(m.take());
  }();
  return mod;
}

std::unique_ptr<Sandbox> make_sandbox(uint64_t deadline_abs_ns = 0) {
  auto sb = Sandbox::create(test_module(), {});
  EXPECT_NE(sb, nullptr);
  if (sb) sb->set_limits(0, deadline_abs_ns);
  return sb;
}

// ---- AdmissionController ----------------------------------------------

TEST(AdmissionTest, ToStringCoverage) {
  EXPECT_STREQ(to_string(AdmissionPolicy::kQueueDepth), "depth");
  EXPECT_STREQ(to_string(AdmissionPolicy::kExpectedSlack), "slack");
  EXPECT_STREQ(to_string(AdmitVerdict::kAdmit), "admit");
  EXPECT_STREQ(to_string(AdmitVerdict::kShedOverload), "shed_overload");
  EXPECT_STREQ(to_string(AdmitVerdict::kShedDeadline), "shed_deadline");
  EXPECT_STREQ(to_string(DistPolicy::kWorkStealing), "work_stealing");
  EXPECT_STREQ(to_string(DistPolicy::kGlobalLock), "global_lock");
  EXPECT_STREQ(to_string(DistPolicy::kPerWorker), "per_worker");
}

TEST(AdmissionTest, FairShareArithmetic) {
  // Equal weights split the window evenly; everyone keeps at least 1 slot.
  EXPECT_EQ(AdmissionController::fair_share(8, 1, 2), 4);
  EXPECT_EQ(AdmissionController::fair_share(8, 1, 8), 1);
  EXPECT_EQ(AdmissionController::fair_share(8, 1, 100), 1);  // floor of 1
  // Weighted: a weight-3 tenant out of total 4 gets 3/4 of the window.
  EXPECT_EQ(AdmissionController::fair_share(8, 3, 4), 6);
  // Weight 0 is "inherit": treated as 1.
  EXPECT_EQ(AdmissionController::fair_share(8, 0, 4), 2);
  // max_pending == 0 disables the cap entirely.
  EXPECT_EQ(AdmissionController::fair_share(0, 1, 2), INT64_MAX);
}

TEST(AdmissionTest, DepthPolicyMatchesLegacyBehaviour) {
  AdmissionController ctl(AdmissionPolicy::kQueueDepth, 4);
  AdmitRequest in;
  in.deadline_rel_ns = 1;  // hopeless deadline...
  in.exec_cpu_p99_ns = 1'000'000'000;
  in.queue_wait_p99_ns = 1'000'000'000;
  in.predictor_ready = true;
  in.module_inflight = 100;  // ...and way past any fair share
  for (int64_t inflight = 0; inflight < 8; ++inflight) {
    in.inflight = inflight;
    // Depth policy looks at nothing but the global count.
    EXPECT_EQ(ctl.check(in), inflight < 4 ? AdmitVerdict::kAdmit
                                          : AdmitVerdict::kShedOverload);
  }
}

// The tentpole invariant, stated over randomized workloads:
// accepted => predicted slack >= 0 at admit time (deadline present and
// predictor warm), and every rejection is attributable to a concrete rule.
TEST(AdmissionTest, PropertyAcceptedImpliesNonNegativeSlack) {
  Rng rng(0xad315510ull);
  for (int trial = 0; trial < 20000; ++trial) {
    int64_t max_pending = rng.below(3) == 0 ? 0 : rng.below(32);
    AdmissionController ctl(AdmissionPolicy::kExpectedSlack, max_pending);
    AdmitRequest in;
    in.inflight = rng.below(40);
    in.module_inflight = rng.below(20);
    in.tenant_weight = rng.below(4);  // 0 = inherit
    in.total_weight = 1 + rng.below(8);
    in.deadline_rel_ns = rng.chance(0.2) ? 0 : rng.below(2'000'000);
    in.queue_wait_p99_ns = rng.below(2'000'000);
    in.exec_cpu_p99_ns = rng.below(2'000'000);
    in.predictor_ready = rng.chance(0.8);

    AdmitVerdict v = ctl.check(in);
    bool gate_active = in.deadline_rel_ns != 0 && in.predictor_ready;
    switch (v) {
      case AdmitVerdict::kAdmit:
        if (gate_active) {
          // The headline property: predicted completion meets the deadline.
          EXPECT_LE(in.queue_wait_p99_ns + in.exec_cpu_p99_ns,
                    in.deadline_rel_ns);
        }
        if (max_pending > 0) {
          EXPECT_LT(in.inflight, max_pending);
          EXPECT_LT(in.module_inflight,
                    AdmissionController::fair_share(
                        max_pending, in.tenant_weight, in.total_weight));
        }
        break;
      case AdmitVerdict::kShedDeadline:
        // 504-early only ever means: unmeetable even from an empty queue.
        ASSERT_TRUE(gate_active);
        EXPECT_GT(in.exec_cpu_p99_ns, in.deadline_rel_ns);
        break;
      case AdmitVerdict::kShedOverload: {
        bool depth = max_pending > 0 && in.inflight >= max_pending;
        bool share =
            max_pending > 0 &&
            in.module_inflight >= AdmissionController::fair_share(
                                      max_pending, in.tenant_weight,
                                      in.total_weight);
        bool slack = gate_active &&
                     in.queue_wait_p99_ns + in.exec_cpu_p99_ns >
                         in.deadline_rel_ns;
        EXPECT_TRUE(depth || share || slack);
        break;
      }
    }
  }
}

TEST(AdmissionTest, DepthPolicyNeverShedsDeadline) {
  Rng rng(0xdeadbeefull);
  AdmissionController ctl(AdmissionPolicy::kQueueDepth, 8);
  for (int trial = 0; trial < 5000; ++trial) {
    AdmitRequest in;
    in.inflight = rng.below(16);
    in.module_inflight = rng.below(16);
    in.deadline_rel_ns = rng.below(1'000'000);
    in.queue_wait_p99_ns = rng.below(10'000'000);
    in.exec_cpu_p99_ns = rng.below(10'000'000);
    in.predictor_ready = true;
    EXPECT_NE(ctl.check(in), AdmitVerdict::kShedDeadline);
  }
}

// ---- SlackPredictor ----------------------------------------------------

TEST(SlackPredictorTest, NotReadyUntilMinSamples) {
  SlackPredictor p;
  for (uint64_t i = 0; i + 1 < SlackPredictor::kMinSamples; ++i) {
    p.record(100, 200);
    EXPECT_FALSE(p.ready());
  }
  p.record(100, 200);
  EXPECT_TRUE(p.ready());
  // ready() implies published percentiles, never stale zeros.
  EXPECT_EQ(p.queue_wait_p99_ns(), 100u);
  EXPECT_EQ(p.exec_cpu_p99_ns(), 200u);
}

TEST(SlackPredictorTest, WindowForgetsOldBursts) {
  // The self-regulation property: after an overload burst ages out of the
  // window, the published p99 drops back down. A cumulative histogram would
  // keep the burst's p99 forever and latch the admission gate shut.
  SlackPredictor p;
  for (size_t i = 0; i < SlackPredictor::kWindow; ++i) p.record(1000, 1000);
  EXPECT_EQ(p.queue_wait_p99_ns(), 1000u);

  for (size_t i = 0; i < SlackPredictor::kWindow; ++i) {
    p.record(9'000'000, 9'000'000);  // overload burst
  }
  EXPECT_EQ(p.queue_wait_p99_ns(), 9'000'000u);
  EXPECT_EQ(p.exec_cpu_p99_ns(), 9'000'000u);

  for (size_t i = 0; i < SlackPredictor::kWindow; ++i) p.record(1000, 1000);
  EXPECT_EQ(p.queue_wait_p99_ns(), 1000u);  // burst fully forgotten
  EXPECT_EQ(p.exec_cpu_p99_ns(), 1000u);
}

TEST(SlackPredictorTest, P99TracksOrderStatistic) {
  // 256-sample window, 1% outliers: the p99 must sit at/above the bulk and
  // at/below the max; with ~2 outliers in the window it lands on one.
  SlackPredictor p;
  Rng rng(7);
  for (int i = 0; i < 1024; ++i) {
    bool outlier = rng.below(100) >= 99;
    p.record(outlier ? 50'000 : 100, outlier ? 80'000 : 200);
  }
  EXPECT_GE(p.queue_wait_p99_ns(), 100u);
  EXPECT_LE(p.queue_wait_p99_ns(), 50'000u);
  EXPECT_GE(p.exec_cpu_p99_ns(), 200u);
  EXPECT_LE(p.exec_cpu_p99_ns(), 80'000u);
  EXPECT_TRUE(p.ready());
}

// ---- Distributor contracts ---------------------------------------------

constexpr DistPolicy kAllDistPolicies[] = {
    DistPolicy::kWorkStealing, DistPolicy::kGlobalLock, DistPolicy::kPerWorker};

std::string dist_name(const ::testing::TestParamInfo<DistPolicy>& info) {
  return to_string(info.param);
}

class DispatcherContractTest : public ::testing::TestWithParam<DistPolicy> {};

// Every pushed/injected sandbox comes back from exactly one fetch: no loss,
// no duplication, across all worker indices. A sandbox placement bound to a
// worker (per-worker queue, honoured locality hint) is fetched by that
// worker, the one the placer wakes.
TEST_P(DispatcherContractTest, NoLossNoDuplication) {
  ASSERT_NE(test_module(), nullptr);
  constexpr int kWorkers = 4;
  Distributor d(GetParam(), kWorkers);

  std::vector<std::unique_ptr<Sandbox>> owned;
  std::map<Sandbox*, int> bound_to;
  for (int i = 0; i < 60; ++i) {
    auto sb = make_sandbox(/*deadline_abs_ns=*/1000 + i);
    ASSERT_NE(sb, nullptr);
    int bound = -1;
    if (i % 5 == 0) {
      bound = d.inject(sb.get());  // the sb_invoke side entrance
      EXPECT_EQ(bound, -1);
    } else if (i % 5 == 1) {
      bound = d.inject(sb.get(), /*worker_hint=*/i % kWorkers);
      EXPECT_EQ(bound, i % kWorkers) << "locality hint not honoured";
    } else {
      bound = d.push(sb.get());
      if (GetParam() == DistPolicy::kPerWorker) {
        EXPECT_GE(bound, 0);
        EXPECT_LT(bound, kWorkers);
      } else {
        EXPECT_EQ(bound, -1);
      }
    }
    bound_to[sb.get()] = bound;
    owned.push_back(std::move(sb));
  }
  EXPECT_EQ(d.backlog_estimate(), 60);

  std::set<Sandbox*> fetched;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < kWorkers; ++w) {
      Sandbox* sb = nullptr;
      while (d.fetch(w, &sb)) {
        EXPECT_TRUE(fetched.insert(sb).second) << "double-fetched sandbox";
        auto it = bound_to.find(sb);
        ASSERT_NE(it, bound_to.end()) << "fetched a sandbox never placed";
        EXPECT_TRUE(it->second == -1 || it->second == w)
            << "bound to " << it->second << ", fetched by " << w;
        progress = true;
      }
    }
  }
  EXPECT_EQ(fetched.size(), bound_to.size());  // each placed one, once
  for (int w = 0; w < kWorkers; ++w) {
    Sandbox* sb = nullptr;
    EXPECT_FALSE(d.fetch(w, &sb));
  }
  EXPECT_EQ(d.backlog_estimate(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllDispatchers, DispatcherContractTest,
                         ::testing::ValuesIn(kAllDistPolicies), dist_name);

// ---- Multi-threaded overload soak (the TSan target) --------------------
//
// The full-server soak lives in dispatch_test.cpp (the SIGALRM quantum
// timer is not sanitizer-trackable); this one exercises the same Distributor
// and predictor concurrency with real threads: one front-door pusher, three
// worker-side injectors (half of their children locality-hinted), four
// fetching workers, 2k sandboxes of mixed deadlines, plus concurrent
// predictor reads against a recording writer.
class DispatcherSoakTest : public ::testing::TestWithParam<DistPolicy> {};

TEST_P(DispatcherSoakTest, ThreadedBurstNoLossNoDuplication) {
  ASSERT_NE(test_module(), nullptr);
  constexpr int kWorkers = 4;
  constexpr int kInjectors = 3;
  constexpr int kPerProducer = 500;
  constexpr int kTotal = (1 + kInjectors) * kPerProducer;  // 2000

  Distributor d(GetParam(), kWorkers);

  std::mutex owned_mu;
  std::vector<std::unique_ptr<Sandbox>> owned;
  owned.reserve(kTotal);

  auto produce = [&](int producer, bool via_push) {
    Rng rng(0x50a4 + static_cast<uint64_t>(producer));
    for (int i = 0; i < kPerProducer; ++i) {
      uint64_t deadline = rng.chance(0.2) ? 0 : 1000 + rng.below(1'000'000);
      auto sb = make_sandbox(deadline);
      ASSERT_NE(sb, nullptr);
      Sandbox* raw = sb.get();
      {
        std::lock_guard<std::mutex> lock(owned_mu);
        owned.push_back(std::move(sb));
      }
      if (via_push) {
        d.push(raw);  // front-door admission
      } else {
        d.inject(raw, rng.chance(0.5) ? static_cast<int>(rng.below(kWorkers))
                                      : -1);
      }
    }
  };

  std::atomic<int> fetched_total{0};
  std::array<std::vector<Sandbox*>, kWorkers> per_worker;
  auto consume = [&](int w) {
    while (fetched_total.load(std::memory_order_acquire) < kTotal) {
      Sandbox* sb = nullptr;
      if (d.fetch(w, &sb)) {
        per_worker[static_cast<size_t>(w)].push_back(sb);
        fetched_total.fetch_add(1, std::memory_order_acq_rel);
      } else {
        std::this_thread::yield();
      }
    }
  };

  // Concurrent predictor traffic rides along: a writer recording mixed
  // samples with lock-free readers polling the published p99s (the
  // admit-path vs. retire-path interaction).
  SlackPredictor predictor;
  std::atomic<bool> stop_predictor{false};
  std::thread predictor_writer([&] {
    Rng rng(99);
    while (!stop_predictor.load(std::memory_order_acquire)) {
      predictor.record(rng.below(100000), rng.below(100000));
    }
  });
  std::thread predictor_reader([&] {
    while (!stop_predictor.load(std::memory_order_acquire)) {
      (void)predictor.queue_wait_p99_ns();
      (void)predictor.exec_cpu_p99_ns();
      (void)predictor.ready();
    }
  });

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back(consume, w);
  threads.emplace_back(produce, 0, /*via_push=*/true);
  for (int p = 0; p < kInjectors; ++p) {
    threads.emplace_back(produce, 1 + p, /*via_push=*/false);
  }
  for (auto& t : threads) t.join();
  stop_predictor.store(true, std::memory_order_release);
  predictor_writer.join();
  predictor_reader.join();

  std::set<Sandbox*> fetched;
  for (const auto& v : per_worker) {
    for (Sandbox* sb : v) {
      EXPECT_TRUE(fetched.insert(sb).second) << "double-fetched sandbox";
    }
  }
  EXPECT_EQ(fetched.size(), static_cast<size_t>(kTotal));
  EXPECT_EQ(owned.size(), static_cast<size_t>(kTotal));
  for (const auto& sb : owned) EXPECT_EQ(fetched.count(sb.get()), 1u);
  EXPECT_EQ(d.backlog_estimate(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllDispatchers, DispatcherSoakTest,
                         ::testing::ValuesIn(kAllDistPolicies), dist_name);

}  // namespace
}  // namespace sledge::runtime
