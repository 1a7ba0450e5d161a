// Dispatch conformance + admission integration tests through the full
// server: one parameterized contract across every DistPolicy×scheduler
// combination (no request lost or double-executed), the weighted
// fair-share starvation bound with one hot and one cold module, the
// 504-early "never consumes a sandbox slot" property, and a 2k-request
// mixed-deadline overload soak whose client-observed response codes must
// reconcile exactly with the server's shed/kill counters.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "http/http.hpp"
#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

std::vector<uint8_t> compile(const std::string& src) {
  auto wasm = minicc::compile_to_wasm(src);
  EXPECT_TRUE(wasm.ok()) << wasm.error_message();
  return wasm.ok() ? wasm.value() : std::vector<uint8_t>{};
}

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

json::Value scrape_json(uint16_t port) {
  auto body = loadgen::http_get("127.0.0.1", port, "/admin/stats");
  EXPECT_TRUE(body.ok()) << body.error_message();
  auto doc = json::parse(body.ok() ? *body : "null");
  EXPECT_TRUE(doc.ok()) << doc.error_message();
  return doc.ok() ? *doc : json::Value();
}

int raw_connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads one full HTTP/1.1 response, returning the raw header block so tests
// can assert on Retry-After / Connection.
bool recv_response_full(int fd, int* status, std::string* headers,
                        std::string* body, std::string* carry) {
  std::string& buf = *carry;
  char chunk[4096];
  for (;;) {
    size_t header_end = buf.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      if (::sscanf(buf.c_str(), "HTTP/1.1 %d", status) != 1) return false;
      size_t cl = buf.find("Content-Length:");
      if (cl == std::string::npos || cl > header_end) return false;
      size_t content_len = std::strtoul(buf.c_str() + cl + 15, nullptr, 10);
      size_t body_start = header_end + 4;
      if (buf.size() >= body_start + content_len) {
        *headers = buf.substr(0, header_end);
        *body = buf.substr(body_start, content_len);
        buf.erase(0, body_start + content_len);
        return true;
      }
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

// ---- Conformance: every distribution queue × every scheduler -----------

class DispatchConformanceTest
    : public ::testing::TestWithParam<std::tuple<DistPolicy, SchedPolicy>> {};

// Replays one seeded arrival script over two modules through N concurrent
// clients. Contract: every request is answered exactly once with the right
// module's response, and the server's counters account for each admit
// exactly once (completed == admitted == sent: nothing lost, nothing run
// twice).
TEST_P(DispatchConformanceTest, SeededScriptNoLossNoDuplication) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.policy = std::get<0>(GetParam());
  cfg.sched = std::get<1>(GetParam());
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("alpha", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(
      rt.register_module("beta", compile(testutil::spin_src(20000))).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  const auto script =
      testutil::arrival_script(/*seed=*/1234, /*count=*/90, /*modules=*/2,
                               /*max_gap_us=*/150);
  int sent_per_module[2] = {0, 0};
  for (const auto& a : script) sent_per_module[a.module]++;

  constexpr int kClients = 3;
  std::atomic<int> ok_count{0};
  auto client = [&](int tid) {
    for (size_t i = static_cast<size_t>(tid); i < script.size();
         i += kClients) {
      const auto& a = script[i];
      ::usleep(static_cast<useconds_t>(a.gap_us));
      int status = 0;
      auto resp = loadgen::single_request(
          "127.0.0.1", rt.bound_port(), a.module == 0 ? "/alpha" : "/beta",
          {}, &status);
      ASSERT_TRUE(resp.ok()) << resp.error_message();
      EXPECT_EQ(status, 200);
      ASSERT_EQ(resp->size(), 1u);
      EXPECT_EQ((*resp)[0], a.module == 0 ? 'p' : 's')
          << "response from the wrong module";
      ok_count.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) clients.emplace_back(client, t);
  for (auto& t : clients) t.join();
  ASSERT_EQ(ok_count.load(), 90);

  // Quiesce, then reconcile: admitted == completed == sent, per module and
  // in total; nothing shed, nothing failed, nothing double-finalized.
  json::Value doc;
  for (int i = 0; i < 100; ++i) {
    doc = scrape_json(rt.bound_port());
    if (doc["totals"]["completed"].as_int() >= 90) break;
    ::usleep(5000);
  }
  EXPECT_EQ(doc["totals"]["completed"].as_int(), 90);
  EXPECT_EQ(doc["totals"]["failed"].as_int(), 0);
  EXPECT_EQ(doc["totals"]["killed"].as_int(), 0);
  EXPECT_EQ(doc["totals"]["shed"].as_int(), 0);
  EXPECT_EQ(doc["totals"]["shed_deadline"].as_int(), 0);
  EXPECT_EQ(doc["modules"]["alpha"]["requests"].as_int(),
            sent_per_module[0]);
  EXPECT_EQ(doc["modules"]["beta"]["requests"].as_int(), sent_per_module[1]);
  EXPECT_EQ(doc["modules"]["alpha"]["inflight"].as_int(), 0);
  EXPECT_EQ(doc["modules"]["beta"]["inflight"].as_int(), 0);
  rt.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DispatchConformanceTest,
    ::testing::Combine(::testing::Values(DistPolicy::kWorkStealing,
                                         DistPolicy::kGlobalLock,
                                         DistPolicy::kPerWorker),
                       ::testing::Values(SchedPolicy::kRoundRobin,
                                         SchedPolicy::kFifoRunToCompletion)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param));
    });

// ---- Weighted fair shares: starvation bound -----------------------------

// One hot module flooding from 6 clients against a cold tenant issuing
// sequential requests. With max_pending=8 and equal weights each module's
// share is 4 slots. A hot request spins for several quanta, so round-robin
// preemption hands the worker back to the front door mid-request and the
// hot backlog grows until the module saturates its share (concurrent
// admissions on the two workers can overshoot it by one); the cold
// module's slots can never be taken: all 20 cold requests MUST succeed
// while the hot module visibly sheds.
TEST(FairShareTest, ColdTenantNeverStarved) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.max_pending = 8;
  cfg.admission = AdmissionPolicy::kExpectedSlack;
  Runtime rt(cfg);
  ASSERT_TRUE(
      rt.register_module("hot", compile(testutil::spin_src(20'000'000)))
          .is_ok());
  ASSERT_TRUE(rt.register_module("cold", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hot_ok{0}, hot_shed{0};
  std::vector<std::thread> flood;
  for (int i = 0; i < 6; ++i) {
    flood.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        int status = 0;
        auto r = loadgen::single_request("127.0.0.1", rt.bound_port(),
                                         "/hot", {}, &status);
        if (r.ok() && status == 200) {
          hot_ok.fetch_add(1, std::memory_order_relaxed);
        } else if (status == 503) {
          hot_shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  ::usleep(30'000);  // let the flood saturate the hot module's share
  int cold_ok = 0;
  for (int i = 0; i < 20; ++i) {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/cold",
                                     {}, &status);
    ASSERT_TRUE(r.ok()) << "cold request " << i << ": " << r.error_message();
    EXPECT_EQ(status, 200) << "cold request " << i << " was shed";
    if (status == 200) ++cold_ok;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : flood) t.join();

  EXPECT_EQ(cold_ok, 20);  // the starvation bound
  EXPECT_GT(hot_ok.load(), 0u);
  EXPECT_GT(hot_shed.load(), 0u);  // the flood did hit the share cap

  json::Value doc = scrape_json(rt.bound_port());
  EXPECT_GT(doc["modules"]["hot"]["shed"].as_int(), 0);
  EXPECT_EQ(doc["modules"]["cold"]["shed"].as_int(), 0);
  rt.stop();
}

// ---- 504-early consumes no sandbox slot ---------------------------------

// Warm the predictor with an unconstrained module, then tighten its
// deadline below the observed exec p99: every subsequent request must be
// rejected 504-early by the front door — without ever building a sandbox
// (startup histogram frozen), with Retry-After, and honoring keep-alive.
TEST(SlackAdmissionTest, Early504ConsumesNoSandboxSlot) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.admission = AdmissionPolicy::kExpectedSlack;
  Runtime rt(cfg);
  ASSERT_TRUE(
      rt.register_module("tight", compile(testutil::spin_src(1'000'000)))
          .is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Warm-up: enough completions to publish window p99s (>= kMinSamples).
  loadgen::Options warm;
  warm.port = rt.bound_port();
  warm.path = "/tight";
  warm.concurrency = 2;
  warm.total_requests = 40;
  auto report = loadgen::run_load(warm);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->ok, 40u);

  json::Value before;
  for (int i = 0; i < 100; ++i) {
    before = scrape_json(rt.bound_port());
    if (before["totals"]["completed"].as_int() >= 40 &&
        before["inflight"].as_int() == 0) {
      break;
    }
    ::usleep(5000);
  }
  const int64_t startup_count =
      before["modules"]["tight"]["startup"]["count"].as_int();
  ASSERT_GE(startup_count, 40);
  // The predictor is live and visible: exec p99 of a ~ms spin loop is far
  // above the deadline we are about to impose.
  ASSERT_GT(before["modules"]["tight"]["predicted_exec_p99_ns"].as_number(),
            200e3);

  // Quiescent limit change: deadline far below exec p99.
  ModuleLimits lim;
  lim.deadline_ns = 200'000;  // 200 us
  ASSERT_TRUE(rt.update_module_limits("tight", lim).is_ok());

  // Two pipelined requests on ONE kept-alive connection: both must come
  // back 504 with Retry-After, on the same socket (keep-alive honored).
  int fd = raw_connect(rt.bound_port());
  std::string req =
      http::serialize_request("POST", "/tight", {}, /*keep_alive=*/true);
  ASSERT_TRUE(send_all(fd, req + req));
  std::string carry;
  for (int i = 0; i < 2; ++i) {
    int status = 0;
    std::string headers, body;
    ASSERT_TRUE(recv_response_full(fd, &status, &headers, &body, &carry))
        << "response " << i;
    EXPECT_EQ(status, 504);
    EXPECT_NE(headers.find("Retry-After: 1"), std::string::npos) << headers;
    EXPECT_NE(headers.find("Connection: keep-alive"), std::string::npos);
  }
  ::close(fd);

  int status = 0;
  auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/tight",
                                   {}, &status);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(status, 504);

  // No sandbox slot was consumed: startup/requests/completed all frozen,
  // and the sheds are accounted as 504-early exactly.
  json::Value after = scrape_json(rt.bound_port());
  EXPECT_EQ(after["modules"]["tight"]["startup"]["count"].as_int(),
            startup_count);
  EXPECT_EQ(after["modules"]["tight"]["requests"].as_int(),
            before["modules"]["tight"]["requests"].as_int());
  EXPECT_EQ(after["totals"]["completed"].as_int(),
            before["totals"]["completed"].as_int());
  EXPECT_EQ(after["totals"]["shed_deadline"].as_int(), 3);
  EXPECT_EQ(after["modules"]["tight"]["shed_deadline"].as_int(), 3);
  EXPECT_EQ(after["inflight"].as_int(), 0);
  rt.stop();
}

// ---- 2k-request mixed-deadline overload soak ----------------------------

// Work-stealing dispatch + round-robin workers + slack admission under a
// 2k-request two-tenant burst (tight-deadline CPU burner vs. loose-deadline
// ping). A worker takes one new request per scheduling iteration, so the
// burner must outlast its quantum for a backlog to build inside the runtime
// rather than unread in the kernel, where admission cannot see it.
// Regression contract: the client-observed response codes reconcile
// EXACTLY with the server's counters — 503s == shed, 504s == killed +
// shed_deadline, 200s == completed, 500s == failed — i.e. no response is
// lost, duplicated, or misaccounted even under sustained overload.
TEST(OverloadSoakTest, TwoThousandRequestReconciliation) {
  RuntimeConfig cfg;
  cfg.workers = 3;
  cfg.sched = SchedPolicy::kRoundRobin;
  cfg.quantum_us = 500;
  cfg.admission = AdmissionPolicy::kExpectedSlack;
  cfg.max_pending = 12;
  Runtime rt(cfg);

  ModuleLimits loose;
  loose.deadline_ns = 2'000'000'000;  // 2 s: effectively never missed
  ASSERT_TRUE(
      rt.register_module("svc_fast", compile(kPingSrc), loose).is_ok());
  ModuleLimits tight;
  tight.deadline_ns = 25'000'000;  // 25 ms against a multi-ms spin
  ASSERT_TRUE(rt.register_module("svc_slow",
                                 compile(testutil::spin_src(1'500'000)),
                                 tight)
                  .is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  auto drive = [&](const char* path, loadgen::Report* out) {
    loadgen::Options opt;
    opt.port = rt.bound_port();
    opt.path = path;
    opt.concurrency = 8;
    opt.total_requests = 1000;
    auto r = loadgen::run_load(opt);
    ASSERT_TRUE(r.ok());
    *out = std::move(*r);
  };
  loadgen::Report fast, slow;
  std::thread fast_t(drive, "/svc_fast", &fast);
  std::thread slow_t(drive, "/svc_slow", &slow);
  fast_t.join();
  slow_t.join();

  // Every issued request got an HTTP response (keep-alive survived every
  // control-path response; nothing needed the reconnect fallback).
  EXPECT_EQ(fast.count(0), 0u);
  EXPECT_EQ(slow.count(0), 0u);
  const uint64_t seen_200 = fast.count(200) + slow.count(200);
  const uint64_t seen_500 = fast.count(500) + slow.count(500);
  const uint64_t seen_503 = fast.count(503) + slow.count(503);
  const uint64_t seen_504 = fast.count(504) + slow.count(504);
  EXPECT_EQ(seen_200 + seen_500 + seen_503 + seen_504, 2000u);

  // Quiesce, then reconcile client-side observations with server counters.
  json::Value doc;
  for (int i = 0; i < 100; ++i) {
    doc = scrape_json(rt.bound_port());
    if (doc["inflight"].as_int() == 0) break;
    ::usleep(10000);
  }
  EXPECT_EQ(static_cast<uint64_t>(doc["totals"]["completed"].as_int()),
            seen_200);
  EXPECT_EQ(static_cast<uint64_t>(doc["totals"]["failed"].as_int()),
            seen_500);
  EXPECT_EQ(static_cast<uint64_t>(doc["totals"]["shed"].as_int()), seen_503);
  EXPECT_EQ(static_cast<uint64_t>(doc["totals"]["killed"].as_int()) +
                static_cast<uint64_t>(
                    doc["totals"]["shed_deadline"].as_int()),
            seen_504);
  // The overload was real: the slow tenant shed and/or missed deadlines.
  EXPECT_GT(seen_503 + seen_504, 0u);
  rt.stop();
}

}  // namespace
}  // namespace sledge::runtime
