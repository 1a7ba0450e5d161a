// Self-tests for the benchmark's own math and load generator: the
// percentile rule, open-loop due-time latency and lateness (against a fake
// server that stalls on purpose), the max-rate ladder rule, and the
// unattributed-time residual.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "client.hpp"
#include "http/http.hpp"

using namespace e2e;

namespace {

// ---- Percentile rule ----

TEST(PercentileRule, HighestQuantileWithTenSamplesBeyond) {
  EXPECT_EQ(supported_tail_quantile(5), 0.0);
  EXPECT_EQ(supported_tail_quantile(99), 0.0);     // p90 leaves 9 beyond
  EXPECT_EQ(supported_tail_quantile(100), 0.9);    // p90 leaves 10
  EXPECT_EQ(supported_tail_quantile(999), 0.9);    // p99 leaves 9
  EXPECT_EQ(supported_tail_quantile(1000), 0.99);  // p99 leaves 10
  EXPECT_EQ(supported_tail_quantile(9999), 0.99);
  EXPECT_EQ(supported_tail_quantile(10000), 0.999);
  EXPECT_EQ(supported_tail_quantile(100000), 0.9999);
  EXPECT_TRUE(supports_p99(1000));
  EXPECT_FALSE(supports_p99(999));
}

TEST(PercentileRule, SummaryCarriesCountMedianAndSupportedTail) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p90, 900.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  EXPECT_EQ(quantile_label(0.99), "p99");
  EXPECT_EQ(quantile_label(0.999), "p99.9");

  Summary small = summarize({3, 1, 2});
  EXPECT_EQ(small.n, 3u);
  EXPECT_EQ(small.p50, 2.0);
  EXPECT_EQ(small.tail_q, 0.0);
  EXPECT_EQ(summarize({}).n, 0u);
}

// ---- Open-loop accounting ----

TEST(OpenLoopMath, LatencyFromDueTimeLatenessFromSend) {
  OpenRecord r;
  r.due_ns = 1'000'000;
  r.sent_ns = 3'000'000;   // generator began 2 ms late
  r.done_ns = 10'000'000;  // reply 9 ms after the due time
  r.ok = true;
  EXPECT_DOUBLE_EQ(due_latency_ms(r), 9.0);
  EXPECT_DOUBLE_EQ(lateness_ms(r), 2.0);
  EXPECT_EQ(due_time_ns(100, 1000.0, 3), 100u + 3'000'000u);
}

TEST(OpenLoopMath, GrowingLatenessShowsInSecondHalf) {
  std::vector<OpenRecord> recs;
  for (uint64_t i = 0; i < 200; ++i) {
    OpenRecord r;
    r.due_ns = i * 1'000'000;
    r.sent_ns = r.due_ns + i * 20'000;  // falls 20 us further behind each send
    r.done_ns = r.sent_ns + 100'000;
    r.ok = true;
    recs.push_back(r);
  }
  OpenSummary s = summarize_open(recs);
  EXPECT_EQ(s.attempted, 200u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_LT(s.late_p99_first_ms, 2.1);
  EXPECT_GT(s.late_p99_second_ms, 3.5);
  RungResult rung;
  rung.open = s;
  EXPECT_FALSE(rung_passes(rung, /*limit=*/100.0, /*late_growth=*/0.5));
  EXPECT_TRUE(rung_passes(rung, 100.0, 5.0));
}

// A one-thread HTTP server that answers every request with "p", except
// that it sleeps `stall_ms` before answering request number `stall_at`.
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms) : stall_at_(stall_at), stall_ms_(stall_ms) {
    lfd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(lfd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }
  ~StallingServer() {
    stop_.store(true);
    thread_.join();
    for (auto& [fd, p] : parsers_) ::close(fd);
    ::close(lfd_);
  }
  uint16_t port() const { return port_; }
  int served() const { return served_.load(); }

 private:
  void loop() {
    while (!stop_.load()) {
      std::vector<pollfd> pfds{{lfd_, POLLIN, 0}};
      for (auto& [fd, p] : parsers_) pfds.push_back({fd, POLLIN, 0});
      if (::poll(pfds.data(), pfds.size(), 10) <= 0) continue;
      if (pfds[0].revents & POLLIN) {
        int fd = ::accept(lfd_, nullptr, nullptr);
        if (fd >= 0) parsers_[fd];
      }
      for (size_t i = 1; i < pfds.size(); ++i) {
        if (pfds[i].revents & (POLLIN | POLLHUP)) serve(pfds[i].fd);
      }
    }
  }
  void serve(int fd) {
    uint8_t buf[65536];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    size_t off = 0;
    sledge::http::RequestParser& p = parsers_[fd];
    while (off < static_cast<size_t>(n)) {
      int used = p.feed(buf + off, static_cast<size_t>(n) - off);
      if (used < 0) return;
      off += static_cast<size_t>(used);
      if (!p.done()) break;
      if (served_.load() == stall_at_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      }
      // Counted before the reply goes out: a client that has its reply must
      // already see it served.
      served_.fetch_add(1);
      static const char kReply[] = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\np";
      ::send(fd, kReply, sizeof(kReply) - 1, MSG_NOSIGNAL);
      p.reset();
    }
  }

  int lfd_ = -1;
  uint16_t port_ = 0;
  int stall_at_;
  int stall_ms_;
  std::atomic<bool> stop_{false};
  std::atomic<int> served_{0};
  std::map<int, sledge::http::RequestParser> parsers_;
  std::thread thread_;
};

TEST(OpenLoopClient, StallIsChargedFromDueTimeNotFromSend) {
  constexpr int kStallAt = 50;
  constexpr int kStallMs = 60;
  StallingServer server(kStallAt, kStallMs);
  std::string err;
  auto client = LoopbackClient::connect(server.port(), 4, &err);
  ASSERT_NE(client, nullptr) << err;
  WireRequest req;
  req.bytes = sledge::http::serialize_request("POST", "/ping", {}, true);
  NextRequest next = [&]() -> const WireRequest& { return req; };
  Checker check = [](const WireRequest&, int status, const uint8_t* b, size_t n) {
    return status == 200 && n == 1 && b[0] == 'p';
  };

  // 1000 rps for 200 ms: requests due during the 60 ms stall queue behind
  // it even though the generator keeps sending on schedule.
  OpenResult res = client->open_loop(1000.0, 200'000'000, next, check, 4096);
  ASSERT_EQ(res.records.size(), 200u);
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(res.tally.ok, 200u);
  EXPECT_EQ(server.served(), 200);

  OpenSummary s = summarize_open(res.records);
  EXPECT_EQ(s.failed, 0u);
  // The stalled request itself waited the whole stall.
  EXPECT_GE(s.latency_ms.p99, kStallMs * 0.8);
  // Requests due 10-30 ms into the stall still pay the rest of it from their
  // due time: a closed-loop client (timing from send) would hide them.
  int charged = 0;
  for (const OpenRecord& r : res.records) {
    if (due_latency_ms(r) >= 20.0) ++charged;
  }
  EXPECT_GE(charged, 25);
  // The generator itself never blocked on the stalled server.
  EXPECT_LT(s.late_p99_ms, 5.0);
}

TEST(ClosedLoopClient, OneOutstandingPerConnectionAndAllReplies) {
  StallingServer server(-1, 0);
  std::string err;
  auto client = LoopbackClient::connect(server.port(), 4, &err);
  ASSERT_NE(client, nullptr) << err;
  WireRequest req;
  req.bytes = sledge::http::serialize_request("POST", "/ping", {1, 2, 3}, true);
  req.kind = 7;
  NextRequest next = [&]() -> const WireRequest& { return req; };
  Checker check = [](const WireRequest&, int status, const uint8_t*, size_t n) {
    return status == 200 && n == 1;
  };
  std::vector<ClientSpan> spans;
  ClosedResult res = client->closed_loop(50'000'000, next, check, &spans);
  EXPECT_GT(res.tally.ok, 10u);
  EXPECT_EQ(res.tally.failed(), 0u);
  EXPECT_EQ(res.tally.attempted, res.tally.ok);
  EXPECT_EQ(res.tally.http200_by_kind[7], res.tally.ok);
  EXPECT_EQ(spans.size(), res.tally.ok);
  EXPECT_EQ(static_cast<uint64_t>(server.served()), res.tally.ok);
}

// ---- Max-rate ladder rule ----

RungResult rung(double offered, double achieved, double p99, uint64_t failed = 0,
                bool aborted = false) {
  RungResult r;
  r.offered_rps = offered;
  r.open.attempted = 100;
  r.open.failed = failed;
  r.open.achieved_rps = achieved;
  r.open.latency_ms.n = 100 - failed;
  r.open.latency_ms.p99 = p99;
  r.aborted = aborted;
  return r;
}

TEST(LadderRule, GeometricLadderIsFixedAndCoversBothEnds) {
  std::vector<double> l = geometric_ladder(1000, 8000);
  ASSERT_FALSE(l.empty());
  EXPECT_DOUBLE_EQ(l.front(), 1000.0);
  EXPECT_LE(l.back(), 8000.0);
  EXPECT_GT(l.back() * kLadderStep, 8000.0);
  for (size_t i = 1; i < l.size(); ++i) EXPECT_NEAR(l[i] / l[i - 1], kLadderStep, 1e-12);
  EXPECT_EQ(l, geometric_ladder(1000, 8000));
}

TEST(LadderRule, BisectionFindsHighestPassingRung) {
  std::vector<double> ladder = geometric_ladder(1000, 30000);
  for (double capacity : {999.0, 1000.0, 4321.0, 12000.0, 29999.0, 1e9}) {
    std::vector<size_t> visited;
    int got = ladder_search(ladder.size(), [&](size_t i) {
      visited.push_back(i);
      return ladder[i] <= capacity;
    });
    int want = -1;
    for (size_t i = 0; i < ladder.size(); ++i) {
      if (ladder[i] <= capacity) want = static_cast<int>(i);
    }
    EXPECT_EQ(got, want) << capacity;
    // log2(rungs) + 2 probes at most, and never the same rung twice.
    EXPECT_LE(visited.size(), 9u) << capacity;
    std::sort(visited.begin(), visited.end());
    EXPECT_EQ(std::unique(visited.begin(), visited.end()), visited.end());
  }
  EXPECT_LT(ladder.size(), 128u);
  EXPECT_EQ(ladder_search(0, [](size_t) { return true; }), -1);
  EXPECT_EQ(ladder_search(1, [](size_t) { return true; }), 0);
}

TEST(LadderRule, RungFailsOverLimitAtLimitAndOnLatenessGrowth) {
  EXPECT_TRUE(rung_passes(rung(100, 99, 0.5), 1.0, 0.5));
  EXPECT_FALSE(rung_passes(rung(100, 99, 1.5), 1.0, 0.5));
  EXPECT_FALSE(rung_passes(rung(100, 99, 1.0), 1.0, 0.5));  // strict limit
  RungResult late = rung(100, 99, 0.5);
  late.open.late_p99_first_ms = 0.1;
  late.open.late_p99_second_ms = 0.7;
  EXPECT_FALSE(rung_passes(late, 1.0, 0.5));
}

TEST(LadderRule, FailuresAbortsAndEmptyRungsFail) {
  EXPECT_TRUE(rung_passes(rung(100, 99, 0.5), 1.0, 0.5));
  EXPECT_FALSE(rung_passes(rung(100, 99, 0.5, /*failed=*/1), 1.0, 0.5));
  EXPECT_FALSE(rung_passes(rung(100, 99, 0.5, 0, /*aborted=*/true), 1.0, 0.5));
  RungResult empty;
  EXPECT_FALSE(rung_passes(empty, 1.0, 0.5));
}

// ---- Unattributed residual ----

TEST(Residual, ClientRttMinusServerStampedPhases) {
  EXPECT_DOUBLE_EQ(unattributed_us(130.0, 100.0, 10.0), 20.0);
  // Clock skew between client and server stamps can make it negative; it
  // is reported as measured, not clamped.
  EXPECT_DOUBLE_EQ(unattributed_us(100.0, 95.0, 10.0), -5.0);
  EXPECT_DOUBLE_EQ(ratio(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
}

}  // namespace
