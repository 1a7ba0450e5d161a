// Admission-control and dispatcher-layer tests at the data-structure level:
// the expected-slack AdmissionController's admit invariant under randomized
// (seeded) workloads, the SlackPredictor's sliding-window behaviour (the
// guard against sticky all-time p99s latching the server shut), and the
// Dispatcher push/inject/fetch contract — including a multi-threaded
// overload soak. Sandboxes are created but never dispatched, so this binary
// is sanitizer-safe (no SIGALRM) and rides the TSan preset.
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
#include "sledge/dispatcher.hpp"
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

std::unique_ptr<Sandbox> make_sandbox(uint64_t deadline_abs_ns = 0,
                                      void* tag = nullptr) {
  auto sb = Sandbox::create(test_module(), {});
  EXPECT_NE(sb, nullptr);
  if (sb) {
    sb->set_limits(0, deadline_abs_ns);
    sb->user_tag = tag;
  }
  return sb;
}

// ---- AdmissionController ----------------------------------------------

TEST(AdmissionTest, ToStringCoverage) {
  EXPECT_STREQ(to_string(AdmissionPolicy::kQueueDepth), "depth");
  EXPECT_STREQ(to_string(AdmissionPolicy::kExpectedSlack), "slack");
  EXPECT_STREQ(to_string(AdmitVerdict::kAdmit), "admit");
  EXPECT_STREQ(to_string(AdmitVerdict::kShedOverload), "shed_overload");
  EXPECT_STREQ(to_string(AdmitVerdict::kShedDeadline), "shed_deadline");
  EXPECT_STREQ(to_string(DispatchPolicy::kWorkStealing), "work_stealing");
  EXPECT_STREQ(to_string(DispatchPolicy::kGlobalEdf), "global_edf");
  EXPECT_STREQ(to_string(DispatchPolicy::kShardedByModule), "sharded_module");
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

// ---- Dispatcher contracts ----------------------------------------------

class DispatcherContractTest
    : public ::testing::TestWithParam<DispatchPolicy> {};

// Every pushed/injected sandbox comes back from exactly one fetch: no loss,
// no duplication, across all worker indices.
TEST_P(DispatcherContractTest, NoLossNoDuplication) {
  ASSERT_NE(test_module(), nullptr);
  constexpr int kWorkers = 4;
  auto d = Dispatcher::make(GetParam(), DistPolicy::kWorkStealing, kWorkers);
  ASSERT_EQ(d->kind(), GetParam());

  int tags[3];  // distinct module identities for the sharded dispatcher
  std::vector<std::unique_ptr<Sandbox>> owned;
  std::set<Sandbox*> expected;
  for (int i = 0; i < 60; ++i) {
    auto sb = make_sandbox(/*deadline_abs_ns=*/1000 + i, &tags[i % 3]);
    ASSERT_NE(sb, nullptr);
    expected.insert(sb.get());
    if (i % 5 == 0) {
      d->inject(sb.get());  // the sb_invoke side entrance
    } else {
      d->push(sb.get());
    }
    owned.push_back(std::move(sb));
  }
  EXPECT_GT(d->backlog_estimate(), 0);

  std::set<Sandbox*> fetched;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < kWorkers; ++w) {
      Sandbox* sb = nullptr;
      while (d->fetch(w, &sb)) {
        EXPECT_TRUE(fetched.insert(sb).second) << "double-fetched sandbox";
        progress = true;
      }
    }
  }
  EXPECT_EQ(fetched, expected);
  for (int w = 0; w < kWorkers; ++w) {
    Sandbox* sb = nullptr;
    EXPECT_FALSE(d->fetch(w, &sb));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDispatchers, DispatcherContractTest,
                         ::testing::Values(DispatchPolicy::kWorkStealing,
                                           DispatchPolicy::kGlobalEdf,
                                           DispatchPolicy::kShardedByModule),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(GlobalEdfDispatcherTest, FetchesInDeadlineOrder) {
  auto d = Dispatcher::make(DispatchPolicy::kGlobalEdf,
                            DistPolicy::kWorkStealing, 2);
  // Push out of order, with deadline-less entries mixed in (sort last).
  const uint64_t deadlines[] = {500, 100, 0, 300, 200, 0, 400};
  std::vector<std::unique_ptr<Sandbox>> owned;
  for (uint64_t dl : deadlines) {
    auto sb = make_sandbox(dl);
    ASSERT_NE(sb, nullptr);
    d->push(sb.get());
    owned.push_back(std::move(sb));
  }
  std::vector<uint64_t> order;
  Sandbox* sb = nullptr;
  // Alternate fetching workers: the admit order is global, not per-worker.
  for (int w = 0; d->fetch(w % 2, &sb); ++w) {
    order.push_back(sb->deadline_at_ns());
  }
  EXPECT_EQ(order,
            (std::vector<uint64_t>{100, 200, 300, 400, 500, 0, 0}));
}

TEST(GlobalEdfDispatcherTest, EqualDeadlinesBreakFifo) {
  auto d = Dispatcher::make(DispatchPolicy::kGlobalEdf,
                            DistPolicy::kWorkStealing, 1);
  std::vector<std::unique_ptr<Sandbox>> owned;
  std::vector<Sandbox*> in_order;
  for (int i = 0; i < 8; ++i) {
    auto sb = make_sandbox(777);  // all identical deadlines
    ASSERT_NE(sb, nullptr);
    in_order.push_back(sb.get());
    d->push(sb.get());
    owned.push_back(std::move(sb));
  }
  Sandbox* sb = nullptr;
  for (Sandbox* want : in_order) {
    ASSERT_TRUE(d->fetch(0, &sb));
    EXPECT_EQ(sb, want);  // seq tie-break preserves arrival order
  }
}

TEST(ShardedDispatcherTest, ModuleAlwaysLandsOnSameWorker) {
  constexpr int kWorkers = 3;
  auto d = Dispatcher::make(DispatchPolicy::kShardedByModule,
                            DistPolicy::kWorkStealing, kWorkers);
  int tags[5];
  std::vector<std::unique_ptr<Sandbox>> owned;
  for (int i = 0; i < 50; ++i) {
    auto sb = make_sandbox(0, &tags[i % 5]);
    ASSERT_NE(sb, nullptr);
    d->push(sb.get());
    owned.push_back(std::move(sb));
  }
  // Each tag's sandboxes must all come out of one and only one shard.
  std::map<void*, int> tag_to_worker;
  size_t fetched = 0;
  for (int w = 0; w < kWorkers; ++w) {
    Sandbox* sb = nullptr;
    while (d->fetch(w, &sb)) {
      ++fetched;
      auto [it, fresh] = tag_to_worker.emplace(sb->user_tag, w);
      if (!fresh) {
        EXPECT_EQ(it->second, w) << "module split across shards";
      }
    }
  }
  EXPECT_EQ(fetched, 50u);
  EXPECT_EQ(tag_to_worker.size(), 5u);
}

// ---- Multi-threaded overload soak (the TSan target) --------------------
//
// The full-server soak lives in dispatch_test.cpp (the SIGALRM quantum
// timer is not sanitizer-trackable); this one exercises the same dispatcher and
// predictor concurrency with real threads: one front-door pusher, three
// worker-side injectors, four fetching workers, 2k sandboxes of mixed
// deadlines, plus concurrent predictor reads against a recording writer.
class DispatcherSoakTest : public ::testing::TestWithParam<DispatchPolicy> {};

TEST_P(DispatcherSoakTest, ThreadedBurstNoLossNoDuplication) {
  ASSERT_NE(test_module(), nullptr);
  constexpr int kWorkers = 4;
  constexpr int kInjectors = 3;
  constexpr int kPerProducer = 500;
  constexpr int kTotal = (1 + kInjectors) * kPerProducer;  // 2000

  auto d = Dispatcher::make(GetParam(), DistPolicy::kWorkStealing, kWorkers);

  int tags[7];
  std::mutex owned_mu;
  std::vector<std::unique_ptr<Sandbox>> owned;
  owned.reserve(kTotal);

  auto produce = [&](int producer, bool via_push) {
    Rng rng(0x50a4 + static_cast<uint64_t>(producer));
    for (int i = 0; i < kPerProducer; ++i) {
      uint64_t deadline = rng.chance(0.2) ? 0 : 1000 + rng.below(1'000'000);
      auto sb = make_sandbox(deadline, &tags[rng.below(7)]);
      ASSERT_NE(sb, nullptr);
      Sandbox* raw = sb.get();
      {
        std::lock_guard<std::mutex> lock(owned_mu);
        owned.push_back(std::move(sb));
      }
      if (via_push) {
        d->push(raw);  // front-door admission
      } else {
        d->inject(raw);
      }
    }
  };

  std::atomic<int> fetched_total{0};
  std::array<std::vector<Sandbox*>, kWorkers> per_worker;
  auto consume = [&](int w) {
    while (fetched_total.load(std::memory_order_acquire) < kTotal) {
      Sandbox* sb = nullptr;
      if (d->fetch(w, &sb)) {
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
  EXPECT_EQ(d->backlog_estimate(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllDispatchers, DispatcherSoakTest,
                         ::testing::Values(DispatchPolicy::kWorkStealing,
                                           DispatchPolicy::kGlobalEdf,
                                           DispatchPolicy::kShardedByModule),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace sledge::runtime
