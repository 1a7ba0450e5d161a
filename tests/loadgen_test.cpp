// Load-generator tests: request accounting, latency recording, expect-body
// validation, connection-failure handling — against a live Sledge runtime.
#include <gtest/gtest.h>

#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"

namespace sledge::loadgen {
namespace {

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

class LoadgenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::RuntimeConfig cfg;
    cfg.workers = 2;
    rt_ = std::make_unique<runtime::Runtime>(cfg);
    auto wasm = minicc::compile_to_wasm(kPingSrc);
    ASSERT_TRUE(wasm.ok());
    ASSERT_TRUE(rt_->register_module("ping", wasm.value()).is_ok());
    ASSERT_TRUE(rt_->start().is_ok());
  }
  void TearDown() override { rt_->stop(); }

  std::unique_ptr<runtime::Runtime> rt_;
};

TEST_F(LoadgenTest, CountsExactlyTotalRequests) {
  Options opt;
  opt.port = rt_->bound_port();
  opt.path = "/ping";
  opt.concurrency = 3;
  opt.total_requests = 101;  // deliberately not divisible by concurrency
  auto report = run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok + report->errors, 101u);
  EXPECT_EQ(report->ok, 101u);
  EXPECT_EQ(report->latency.count(), 101u);
  EXPECT_GT(report->throughput_rps, 0.0);
  EXPECT_GT(report->latency.mean_ns(), 0u);
}

TEST_F(LoadgenTest, ExpectBodyMismatchCountsAsError) {
  Options opt;
  opt.port = rt_->bound_port();
  opt.path = "/ping";
  opt.concurrency = 1;
  opt.total_requests = 5;
  opt.expect_body = {'q'};  // function replies 'p'
  auto report = run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 0u);
  EXPECT_EQ(report->errors, 5u);
}

TEST_F(LoadgenTest, NonKeepAliveMode) {
  Options opt;
  opt.port = rt_->bound_port();
  opt.path = "/ping";
  opt.concurrency = 2;
  opt.total_requests = 20;
  opt.keep_alive = false;
  opt.expect_body = {'p'};
  auto report = run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 20u);
}

TEST_F(LoadgenTest, NotFoundRouteIsError) {
  Options opt;
  opt.port = rt_->bound_port();
  opt.path = "/missing";
  opt.concurrency = 1;
  opt.total_requests = 3;
  auto report = run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 0u);
  EXPECT_EQ(report->errors, 3u);
}

TEST(LoadgenStandaloneTest, ConnectFailureReported) {
  // A port with (almost certainly) no listener.
  auto resp = single_request("127.0.0.1", 1, "/x", {});
  EXPECT_FALSE(resp.ok());

  Options opt;
  opt.port = 1;
  opt.concurrency = 1;
  opt.total_requests = 2;
  auto report = run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 0u);
  EXPECT_EQ(report->errors, 2u);
}

TEST(LoadgenStandaloneTest, RejectsBadOptions) {
  Options opt;
  opt.concurrency = 0;
  EXPECT_FALSE(run_load(opt).ok());
  opt.concurrency = 1;
  opt.total_requests = 0;
  EXPECT_FALSE(run_load(opt).ok());
}

// ---- Open-loop arrival schedule math (deterministic, no sockets) ---------

TEST(ArrivalScheduleTest, FlatRateIsUniform) {
  ArrivalSchedule s;
  s.base_rps = 100.0;
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 12.34), 100.0);
  auto times = schedule_arrival_times(s, 5);
  ASSERT_EQ(times.size(), 5u);
  for (size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(times[i], 0.01 * static_cast<double>(i + 1), 1e-12);
  }
}

TEST(ArrivalScheduleTest, DiurnalSinusoid) {
  ArrivalSchedule s;
  s.base_rps = 100.0;
  s.diurnal_amplitude = 0.5;
  s.diurnal_period_s = 40.0;
  // Peak at a quarter period, trough at three quarters, base at the nodes.
  EXPECT_NEAR(schedule_rate_at(s, 0.0), 100.0, 1e-9);
  EXPECT_NEAR(schedule_rate_at(s, 10.0), 150.0, 1e-9);
  EXPECT_NEAR(schedule_rate_at(s, 20.0), 100.0, 1e-9);
  EXPECT_NEAR(schedule_rate_at(s, 30.0), 50.0, 1e-9);
  // Full-depth troughs never stall the schedule: rate floors at 0.1 rps.
  s.diurnal_amplitude = 0.9999;
  EXPECT_GE(schedule_rate_at(s, 30.0), 0.1);
}

TEST(ArrivalScheduleTest, BurstWindows) {
  ArrivalSchedule s;
  s.base_rps = 10.0;
  s.burst_multiplier = 5.0;
  s.burst_every_s = 10.0;
  s.burst_len_s = 2.0;
  // Bursting inside [k*10, k*10+2), base elsewhere.
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 1.999), 50.0);
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 2.0), 10.0);
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 9.9), 10.0);
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 10.1), 50.0);
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 21.5), 50.0);
  // Disabled bursts (every = 0) leave the rate flat.
  s.burst_every_s = 0.0;
  EXPECT_DOUBLE_EQ(schedule_rate_at(s, 0.5), 10.0);
}

TEST(ArrivalScheduleTest, ArrivalTimesFollowInstantaneousRate) {
  ArrivalSchedule s;
  s.base_rps = 10.0;
  s.burst_multiplier = 10.0;
  s.burst_every_s = 100.0;
  s.burst_len_s = 1.0;
  // Burst active for t in [0, 1): gaps of 10ms; after t = 1: gaps of 100ms.
  auto times = schedule_arrival_times(s, 120);
  ASSERT_EQ(times.size(), 120u);
  EXPECT_NEAR(times[0], 0.01, 1e-12);
  for (size_t i = 1; i < times.size(); ++i) {
    ASSERT_GT(times[i], times[i - 1]);  // strictly increasing
    double gap = times[i] - times[i - 1];
    if (times[i - 1] < 1.0) {
      EXPECT_NEAR(gap, 0.01, 1e-9) << "burst gap at arrival " << i;
    } else {
      EXPECT_NEAR(gap, 0.1, 1e-9) << "base gap at arrival " << i;
    }
  }
}

// Open-loop end-to-end: a short bursty schedule against the live runtime
// completes every request and takes at least the schedule's span.
TEST_F(LoadgenTest, OpenLoopScheduleCompletesAllRequests) {
  Options opt;
  opt.port = rt_->bound_port();
  opt.path = "/ping";
  opt.concurrency = 4;
  opt.total_requests = 60;
  opt.expect_body = {'p'};
  opt.schedule.enabled = true;
  opt.schedule.base_rps = 400.0;
  opt.schedule.burst_multiplier = 4.0;
  opt.schedule.burst_every_s = 0.1;
  opt.schedule.burst_len_s = 0.02;
  auto expected = schedule_arrival_times(opt.schedule, opt.total_requests);
  auto report = run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 60u);
  // Pacing actually happened: the run cannot beat the schedule's last
  // arrival offset.
  EXPECT_GE(report->duration_s, expected.back());
}

// Fixed-window closed loop: the clients stop issuing at max_duration_s,
// long before the request cap, and every issued request is answered.
TEST_F(LoadgenTest, MaxDurationEndsRunBeforeRequestCap) {
  Options opt;
  opt.port = rt_->bound_port();
  opt.path = "/ping";
  opt.concurrency = 2;
  opt.total_requests = 100'000'000;
  opt.max_duration_s = 0.1;
  auto report = run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->ok, 0u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_LT(report->ok, opt.total_requests);
  EXPECT_GE(report->duration_s, opt.max_duration_s);
  EXPECT_LT(report->duration_s, 10.0);
}

}  // namespace
}  // namespace sledge::loadgen
