// Observability-plane tests: live /admin/stats (JSON) and /admin/metrics
// (Prometheus) endpoints, per-request phase tracing (queue_wait / startup /
// exec_cpu / response_write histograms and their consistency), the
// structured access log, and the front-door data-path bugfixes — pipelined
// request bytes are replayed instead of dropped, and control-path
// responses (404/503) survive short writes to slow readers intact.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "http/http.hpp"
#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/runtime.hpp"
#include "test_util.hpp"

namespace sledge::runtime {
namespace {

std::vector<uint8_t> compile(const char* src) {
  auto wasm = minicc::compile_to_wasm(src);
  EXPECT_TRUE(wasm.ok()) << wasm.error_message();
  return wasm.ok() ? wasm.value() : std::vector<uint8_t>{};
}

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

const char* kSleepSrc = R"(
char out[1];
int main() { sleep_ms(5); out[0] = 122; resp_write(out, 1); return 0; }
)";

int raw_connect(uint16_t port, int rcvbuf = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
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

// Blocking read of exactly one HTTP/1.1 response (status + Content-Length
// body); returns false on connection error or malformed bytes.
bool recv_response(int fd, int* status, std::string* body,
                   std::string* carry) {
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

// Like recv_response, but also hands back the raw header block so tests can
// assert on control-path headers (Retry-After, Connection).
bool recv_response_headers(int fd, int* status, std::string* headers,
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

json::Value scrape_json(uint16_t port, const char* path = "/admin/stats") {
  auto body = loadgen::http_get("127.0.0.1", port, path);
  EXPECT_TRUE(body.ok()) << body.error_message();
  auto doc = json::parse(body.ok() ? *body : "null");
  EXPECT_TRUE(doc.ok()) << doc.error_message();
  return doc.ok() ? *doc : json::Value();
}

// ---- Tentpole: live admin endpoints + phase tracing ----

TEST(ObservabilityTest, AdminStatsLivePollDuringBurst) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.register_module("sleep", compile(kSleepSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::thread burst([&] {
    loadgen::Options opt;
    opt.port = rt.bound_port();
    opt.path = "/sleep";
    opt.concurrency = 4;
    opt.total_requests = 120;
    auto report = loadgen::run_load(opt);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->ok, 120u);
  });

  // Poll the live server repeatedly: every poll must parse, and the
  // counters must be monotone (never regress between polls).
  uint64_t last_completed = 0, last_requests = 0;
  for (int i = 0; i < 10; ++i) {
    json::Value doc = scrape_json(rt.bound_port());
    ASSERT_TRUE(doc.is_object());
    uint64_t completed =
        static_cast<uint64_t>(doc["totals"]["completed"].as_int());
    uint64_t requests = static_cast<uint64_t>(
        doc["modules"]["sleep"]["requests"].as_int());
    EXPECT_GE(completed, last_completed) << "poll " << i;
    EXPECT_GE(requests, last_requests) << "poll " << i;
    last_completed = completed;
    last_requests = requests;
    ::usleep(5000);
  }
  burst.join();

  // Quiesce (all completions + response writes recorded), then check the
  // phase histograms are populated and mutually consistent.
  json::Value doc;
  for (int i = 0; i < 100; ++i) {
    doc = scrape_json(rt.bound_port());
    if (doc["inflight"].as_int() == 0 &&
        doc["modules"]["sleep"]["response_write"]["count"].as_int() >= 120) {
      break;
    }
    ::usleep(10000);
  }
  // The root names the switches that selected this run's code paths.
  EXPECT_EQ(doc["sched"].as_string(), "round_robin");
  EXPECT_EQ(doc["instantiation"].as_string(), "pooled");
  const json::Value& mod = doc["modules"]["sleep"];
  EXPECT_EQ(mod["requests"].as_int(), 120);
  for (const char* phase :
       {"queue_wait", "startup", "exec_cpu", "response_write", "end_to_end"}) {
    EXPECT_GE(mod[phase]["count"].as_int(), 120) << phase;
    EXPECT_GE(mod[phase]["max_ns"].as_number(), mod[phase]["p50_ns"].as_number())
        << phase;
  }
  // The sleep module blocks 5 ms per request, so end-to-end dominates CPU.
  EXPECT_GT(mod["end_to_end"]["p50_ns"].as_number(), 5e6);
  // Acceptance: phase sums are consistent — queue + startup + exec never
  // exceed end-to-end (all four recorded for the same completed set).
  double queue = mod["queue_wait"]["sum_ns"].as_number();
  double startup = mod["startup"]["sum_ns"].as_number();
  double exec = mod["exec_cpu"]["sum_ns"].as_number();
  double e2e = mod["end_to_end"]["sum_ns"].as_number();
  EXPECT_LE(queue + startup + exec, e2e * 1.0001 + 1e3)
      << "queue=" << queue << " startup=" << startup << " exec=" << exec;
  EXPECT_GT(exec, 0.0);
  rt.stop();
}

TEST(ObservabilityTest, AdminMetricsPrometheusExposition) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  for (int i = 0; i < 3; ++i) {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                     {}, &status);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(status, 200);
  }
  // Let the response_write completions land before scraping.
  ::usleep(50000);

  auto body = loadgen::http_get("127.0.0.1", rt.bound_port(),
                                "/admin/metrics");
  ASSERT_TRUE(body.ok()) << body.error_message();
  const std::string& text = *body;
  for (const char* needle : {
           "# TYPE sledge_completed_total counter",
           "sledge_completed_total 3",
           "sledge_requests_total{module=\"ping\"} 3",
           "# TYPE sledge_queue_wait_seconds summary",
           "sledge_queue_wait_seconds{module=\"ping\",quantile=\"0.99\"}",
           "sledge_startup_seconds_count{module=\"ping\"} 3",
           "# TYPE sledge_startup_pooled_seconds summary",
           "# TYPE sledge_startup_cold_seconds summary",
           "sledge_exec_cpu_seconds_sum{module=\"ping\"}",
           "sledge_response_write_seconds_count{module=\"ping\"} 3",
           "sledge_end_to_end_seconds{module=\"ping\",quantile=\"0.5\"}",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
  // The startup splits partition the startup total. Which split the first
  // request lands in depends on whether the process-wide pool is already
  // warm, so only their sum is fixed.
  auto count_of = [&text](const std::string& series) -> long {
    const std::string key = series + "_count{module=\"ping\"} ";
    size_t at = text.find(key);
    return at == std::string::npos
               ? -1
               : std::strtol(text.c_str() + at + key.size(), nullptr, 10);
  };
  long pooled = count_of("sledge_startup_pooled_seconds");
  long cold = count_of("sledge_startup_cold_seconds");
  EXPECT_GE(pooled, 0);
  EXPECT_GE(cold, 0);
  EXPECT_EQ(pooled + cold, 3) << text;
  rt.stop();
}

TEST(ObservabilityTest, AdminEndpointCanBeDisabled) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.admin_endpoint = false;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  auto body = loadgen::http_get("127.0.0.1", rt.bound_port(), "/admin/stats",
                                &status);
  EXPECT_FALSE(body.ok());
  EXPECT_EQ(status, 404);
  rt.stop();
}

TEST(ObservabilityTest, LoadgenScrapesServerStats) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  loadgen::Options opt;
  opt.port = rt.bound_port();
  opt.path = "/ping";
  opt.concurrency = 4;
  opt.total_requests = 80;
  opt.expect_body = {'p'};
  opt.scrape_path = "/admin/stats";
  auto report = loadgen::run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 80u);
  ASSERT_FALSE(report->server_stats.empty());
  auto doc = json::parse(report->server_stats);
  ASSERT_TRUE(doc.ok()) << doc.error_message();
  EXPECT_EQ((*doc)["modules"]["ping"]["requests"].as_int(), 80);
  rt.stop();
}

// stop() destroys the front door and workers before the shutdown report is
// rendered; their last rows must still be in it, with the counts they ended
// on.
TEST(ObservabilityTest, ShutdownReportKeepsListenerAndWorkerLines) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  auto body = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                      {}, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  rt.stop();

  const std::string report = rt.stats_report();
  EXPECT_NE(report.find("\nlistener 0: accepted=1 "), std::string::npos)
      << report;
  EXPECT_NE(report.find("\nworker 0: dispatches=1 "), std::string::npos)
      << report;
  const Runtime::StatsSnapshot s = rt.snapshot();
  ASSERT_EQ(s.workers.size(), 1u);
  EXPECT_EQ(s.workers[0].completed, 1u);
  ASSERT_EQ(s.listeners.size(), 1u);
  EXPECT_EQ(s.listeners[0].accepted, 1u);
}

// ---- Structured access log ----

TEST(ObservabilityTest, AccessLogWritesOneJsonLinePerRequest) {
  std::string path = ::testing::TempDir() + "sledge_access_log_test.jsonl";
  ::unlink(path.c_str());

  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.access_log_path = path;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  loadgen::Options opt;
  opt.port = rt.bound_port();
  opt.path = "/ping";
  opt.concurrency = 3;
  opt.total_requests = 30;
  opt.expect_body = {'p'};
  auto report = loadgen::run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 30u);
  rt.stop();  // workers flush their buffered lines before joining

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << doc.error_message() << ": " << line;
    EXPECT_EQ((*doc)["module"].as_string(), "ping");
    EXPECT_EQ((*doc)["status"].as_int(), 200);
    EXPECT_GT((*doc)["bytes"].as_int(), 0);
    EXPECT_GE((*doc)["worker"].as_int(), 0);
    EXPECT_GE((*doc)["e2e_us"].as_number(), 0.0);
    EXPECT_GE((*doc)["exec_cpu_us"].as_number(), 0.0);
    EXPECT_GE((*doc)["dispatches"].as_int(), 1);
    EXPECT_TRUE((*doc)["write_ok"].as_bool());
  }
  EXPECT_EQ(lines, 30);
  ::unlink(path.c_str());
}

// ---- Listener bugfix: pipelined request bytes are replayed, not dropped --

TEST(ObservabilityTest, PipelinedRequestsOnOneConnectionAllAnswered) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int fd = raw_connect(rt.bound_port());
  // Six requests in one burst of bytes: before the fix the front door threw
  // away everything after the first admitted request, hanging the client.
  std::string burst;
  for (int i = 0; i < 6; ++i) {
    burst += http::serialize_request("POST", "/ping", {}, /*keep_alive=*/true);
  }
  ASSERT_TRUE(send_all(fd, burst));

  std::string carry;
  for (int i = 0; i < 6; ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << "response " << i;
    EXPECT_EQ(status, 200) << "response " << i;
    EXPECT_EQ(body, "p") << "response " << i;
  }
  ::close(fd);
  rt.stop();
  EXPECT_EQ(rt.totals().completed, 6u);
}

TEST(ObservabilityTest, PipelinedMixOfSandboxAndListenerResponses) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int fd = raw_connect(rt.bound_port());
  // Sandbox (200) and front-door (404) responses interleave;
  // pipelined bytes cross both admission and error paths.
  const char* targets[] = {"/ping", "/ghost", "/ping", "/ghost", "/ping"};
  int expect[] = {200, 404, 200, 404, 200};
  std::string burst;
  for (const char* t : targets) {
    burst += http::serialize_request("POST", t, {}, /*keep_alive=*/true);
  }
  ASSERT_TRUE(send_all(fd, burst));

  std::string carry;
  for (size_t i = 0; i < std::size(targets); ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << "response " << i;
    EXPECT_EQ(status, expect[i]) << "response " << i;
  }
  ::close(fd);
  rt.stop();
  EXPECT_EQ(rt.totals().completed, 3u);
}

// ---- Listener bugfix: short writes on control paths are completed ----

// A slow reader (tiny receive buffer, reads nothing until the end) pipelines
// enough 404s that the response writer must hit EAGAIN; every response
// must still arrive intact. Before the fix, the truncated remainder was
// silently dropped.
TEST(ObservabilityTest, SlowReaderReceivesEvery404Intact) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.start().is_ok());

  constexpr int kRequests = 2000;
  int fd = raw_connect(rt.bound_port(), /*rcvbuf=*/1024);
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += http::serialize_request("POST", "/ghost", {},
                                     /*keep_alive=*/true);
  }
  ASSERT_TRUE(send_all(fd, burst));

  std::string carry;
  for (int i = 0; i < kRequests; ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << "response " << i;
    ASSERT_EQ(status, 404) << "response " << i;
    if (i % 100 == 0) ::usleep(1000);  // stay slow: keep the window tight
  }
  ::close(fd);
  rt.stop();
}

TEST(ObservabilityTest, SlowReaderReceivesEvery503Intact) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  constexpr int kRequests = 500;
  testutil::ScopedSandboxAllocFault fault;  // every create -> 503 shed
  int fd = raw_connect(rt.bound_port(), /*rcvbuf=*/1024);
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += http::serialize_request("POST", "/ping", {},
                                     /*keep_alive=*/true);
  }
  ASSERT_TRUE(send_all(fd, burst));

  std::string carry;
  for (int i = 0; i < kRequests; ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << "response " << i;
    ASSERT_EQ(status, 503) << "response " << i;
  }
  ::close(fd);
  rt.stop();
  EXPECT_EQ(rt.totals().shed, static_cast<uint64_t>(kRequests));
}

// ---- Retry-After on admission rejections (overload vs. drain) ----

// An overload 503 tells the client the condition is transient: it carries
// "Retry-After: 1" and keeps the connection alive, so the SAME socket can
// retry successfully once the backlog clears.
TEST(ObservabilityTest, Overload503CarriesRetryAfterAndKeepsConnection) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.max_pending = 1;
  Runtime rt(cfg);
  const char* kSleep60Src = R"(
char out[1];
int main() { sleep_ms(60); out[0] = 122; resp_write(out, 1); return 0; }
)";
  ASSERT_TRUE(rt.register_module("sleep", compile(kSleep60Src)).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Connection A occupies the single admission slot with a blocked sandbox.
  int fd_a = raw_connect(rt.bound_port());
  ASSERT_TRUE(send_all(
      fd_a, http::serialize_request("POST", "/sleep", {}, true)));
  bool saturated = false;
  for (int i = 0; i < 500 && !saturated; ++i) {
    saturated = rt.inflight() >= 1;
    if (!saturated) ::usleep(1'000);
  }
  ASSERT_TRUE(saturated);

  // Connection B is shed: 503 + Retry-After: 1, connection kept alive.
  int fd_b = raw_connect(rt.bound_port());
  ASSERT_TRUE(
      send_all(fd_b, http::serialize_request("POST", "/ping", {}, true)));
  int status = 0;
  std::string headers, body, carry_b;
  ASSERT_TRUE(recv_response_headers(fd_b, &status, &headers, &body, &carry_b));
  EXPECT_EQ(status, 503);
  EXPECT_NE(headers.find("Retry-After: 1"), std::string::npos) << headers;
  EXPECT_NE(headers.find("Connection: keep-alive"), std::string::npos)
      << headers;

  // Drain connection A (the sleeper finishes), then retry on the SAME
  // socket B: the keep-alive promise must be real.
  std::string carry_a;
  ASSERT_TRUE(recv_response_headers(fd_a, &status, &headers, &body, &carry_a));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(
      send_all(fd_b, http::serialize_request("POST", "/ping", {}, true)));
  ASSERT_TRUE(recv_response_headers(fd_b, &status, &headers, &body, &carry_b));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "p");

  ::close(fd_a);
  ::close(fd_b);
  rt.stop();
  EXPECT_EQ(rt.totals().shed, 1u);
}

// A drain 503 is a different condition: the server is going away for the
// drain-grace window, so it advertises the longer "Retry-After: 5" —
// clients can distinguish "back off briefly" from "find another replica".
TEST(ObservabilityTest, Drain503CarriesLongerRetryAfter) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  const char* kSleep100Src = R"(
char out[1];
int main() { sleep_ms(100); out[0] = 122; resp_write(out, 1); return 0; }
)";
  ASSERT_TRUE(rt.register_module("sleep", compile(kSleep100Src)).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Keep one request in flight so stop() has something to drain, giving us
  // a window in which the front door is up but shedding.
  int fd_a = raw_connect(rt.bound_port());
  ASSERT_TRUE(send_all(
      fd_a, http::serialize_request("POST", "/sleep", {}, true)));
  for (int i = 0; i < 500 && rt.inflight() < 1; ++i) ::usleep(1'000);
  ASSERT_GE(rt.inflight(), 1);

  // Connect BEFORE the drain starts (accept behavior during drain is not
  // the contract under test), then wait for the draining flag.
  int fd_b = raw_connect(rt.bound_port());
  std::thread stopper([&] { rt.stop(); });
  for (int i = 0; i < 500 && !rt.draining(); ++i) ::usleep(1'000);
  ASSERT_TRUE(rt.draining());

  ASSERT_TRUE(
      send_all(fd_b, http::serialize_request("POST", "/ping", {}, true)));
  int status = 0;
  std::string headers, body, carry;
  ASSERT_TRUE(recv_response_headers(fd_b, &status, &headers, &body, &carry));
  EXPECT_EQ(status, 503);
  EXPECT_NE(headers.find("Retry-After: 5"), std::string::npos) << headers;
  EXPECT_NE(headers.find("Connection: keep-alive"), std::string::npos)
      << headers;

  stopper.join();
  ::close(fd_a);
  ::close(fd_b);
  EXPECT_EQ(rt.totals().shed, 1u);
  EXPECT_EQ(rt.totals().completed, 1u);  // the sleeper drained cleanly
}

// ---- Histogram percentile cache (sort once per snapshot) ----

TEST(ObservabilityTest, HistogramBatchPercentilesMatchSingle) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.record(1001 - i);  // reverse order
  auto batch = h.percentiles({0.0, 0.5, 0.9, 0.99, 1.0});
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[0], 1u);
  EXPECT_EQ(batch[1], h.percentile_ns(0.5));
  EXPECT_EQ(batch[2], h.percentile_ns(0.9));
  EXPECT_EQ(batch[3], h.percentile_ns(0.99));
  EXPECT_EQ(batch[4], 1000u);
  // Nearest-rank: p50 of 1..1000 is the 500th order statistic.
  EXPECT_EQ(batch[1], 500u);
  EXPECT_EQ(batch[3], 990u);

  // Interleaved record/percentile keeps the cache coherent.
  h.record(5000);
  EXPECT_EQ(h.max_ns(), 5000u);
  auto s = h.summary();
  EXPECT_EQ(s.count, 1001u);
  EXPECT_EQ(s.max_ns, 5000u);
  EXPECT_DOUBLE_EQ(s.sum_ns, (1000.0 * 1001.0) / 2 + 5000.0);
}

}  // namespace
}  // namespace sledge::runtime
