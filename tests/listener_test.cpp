// Front-door tests: the one-holder ready set the workers share, and its
// data-path guarantees — chunked requests
// answered 501 without desyncing the pipelined byte stream, strict
// Content-Length (400 on malformed / conflicting values), the EMFILE
// accept livelock (reserve-fd shed + bounded CPU + recovery), pipelined
// requests already buffered when the previous response completes (served
// in place by whichever worker wrote that response, chain3 stream children
// included), no fd left behind by stop(), and a 2k-connection
// mixed-status soak that reconciles exactly against runtime counters and
// the /admin/stats front-door row.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "apps/workloads.hpp"
#include "common/json.hpp"
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

json::Value scrape_json(uint16_t port) {
  auto body = loadgen::http_get("127.0.0.1", port, "/admin/stats");
  EXPECT_TRUE(body.ok()) << body.error_message();
  auto doc = json::parse(body.ok() ? *body : "null");
  EXPECT_TRUE(doc.ok()) << doc.error_message();
  return doc.ok() ? *doc : json::Value();
}

// ---- Chunked requests: 501 without desyncing the connection ----

TEST(ListenerTest, ChunkedRequest501ThenPipelinedRequestSurvives) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int fd = raw_connect(rt.bound_port());
  // A chunked POST and a normal keep-alive POST pipelined in one write. The
  // old parser treated the chunk bytes as the next request (garbage 400);
  // now the chunk framing is consumed, the chunked request answered 501,
  // and the pipelined successor still runs.
  std::string pipelined =
      "POST /ping HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
      "POST /ping HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(send_all(fd, pipelined));

  int status = 0;
  std::string body, carry;
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 501);
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "p");
  ::close(fd);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, 1u);  // only the non-chunked request ran
}

// ---- Strict Content-Length end to end ----

TEST(ListenerTest, MalformedContentLengthAnswered400) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  for (const char* cl : {"+5", "-1", "5x", "4 2"}) {
    int fd = raw_connect(rt.bound_port());
    std::string req = "POST /ping HTTP/1.1\r\nContent-Length: " +
                      std::string(cl) + "\r\n\r\n";
    ASSERT_TRUE(send_all(fd, req));
    int status = 0;
    std::string body, carry;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << cl;
    EXPECT_EQ(status, 400) << cl;
    // 400 closes the connection: the stream position is unknowable.
    char c;
    EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << cl;
    ::close(fd);
  }

  // Conflicting duplicate Content-Length values: smuggling vector, 400.
  int fd = raw_connect(rt.bound_port());
  ASSERT_TRUE(send_all(fd,
                       "POST /ping HTTP/1.1\r\nContent-Length: 5\r\n"
                       "Content-Length: 6\r\n\r\n"));
  int status = 0;
  std::string body, carry;
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 400);
  ::close(fd);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, 0u);
}

// ---- EMFILE accept livelock: shed, bounded CPU, recovery ----

int count_open_fds() {
  int n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (!d) return -1;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv_ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

// Restores RLIMIT_NOFILE and closes the filler fds even when an ASSERT
// aborts the test body early — later tests must not inherit fd pressure.
struct ScopedFdPressure {
  rlimit orig{};
  std::vector<int> fillers;
  bool active = false;
  ~ScopedFdPressure() { release(); }
  void release() {
    for (int fd : fillers) ::close(fd);
    fillers.clear();
    if (active) ::setrlimit(RLIMIT_NOFILE, &orig);
    active = false;
  }
};

TEST(ListenerTest, EmfileAcceptShedsAndRecovers) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Sanity: the path works before fd pressure.
  auto ok = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping", {});
  ASSERT_TRUE(ok.ok()) << ok.error_message();

  // Pre-allocate the client socket, then exhaust the process fd table under
  // a lowered RLIMIT_NOFILE (connect() itself needs no new fd).
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  timeval rcvto{2, 0};
  ::setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &rcvto, sizeof(rcvto));
  ScopedFdPressure pressure;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &pressure.orig), 0);
  int used = count_open_fds();
  ASSERT_GT(used, 0);
  rlimit low{static_cast<rlim_t>(used + 8), pressure.orig.rlim_max};
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  pressure.active = true;
  for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY)) {
    pressure.fillers.push_back(fd);
    ASSERT_LT(pressure.fillers.size(), 64u);  // the lowered limit must bite
  }
  ASSERT_EQ(errno, EMFILE);

  // The connection now pending in the accept backlog cannot get a normal
  // fd: the front door must shed it through its reserve fd (accept-and-
  // close) instead of spinning on the listen socket forever.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rt.bound_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  uint64_t deadline = now_ns() + 2'000'000'000ull;
  while (rt.totals().accept_errors == 0 && now_ns() < deadline) {
    ::usleep(1000);
  }
  EXPECT_GE(rt.totals().accept_errors, 1u);
  // The shed hangs up on the probe connection.
  char c;
  ssize_t r = ::recv(probe, &c, 1, 0);
  EXPECT_LE(r, 0);

  // Livelock regression: under persistent fd pressure the front door's
  // CPU stays bounded (the old code spun accept->EMFILE->return at 100%).
  uint64_t cpu0 = process_cpu_ns();
  uint64_t wall0 = now_ns();
  ::usleep(300'000);
  uint64_t cpu_spent = process_cpu_ns() - cpu0;
  uint64_t wall_spent = now_ns() - wall0;
  EXPECT_LT(cpu_spent, wall_spent / 2)
      << "front door burned " << cpu_spent << "ns CPU over " << wall_spent
      << "ns wall under fd pressure";

  // Recovery: free the fds, lift the limit — the next request must be
  // accepted and served normally.
  ::close(probe);
  pressure.release();
  auto again =
      loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping", {});
  ASSERT_TRUE(again.ok()) << again.error_message();
  rt.stop();
}

// ---- Pipelined successors buffered behind a response ----

// Each connection sends two requests in one write, then nothing more: the
// second request's bytes arrive with the first and are already buffered
// when the first response's last byte goes out. The worker that wrote it
// must parse them in place — re-arming the fd instead would wait for bytes
// that never come and hang the second response.
void ExpectBufferedSuccessorsServed(Runtime* rt, const std::string& target,
                                    const std::string& payload) {
  constexpr int kConns = 12;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) fds.push_back(raw_connect(rt->bound_port()));
  const std::string len = std::to_string(payload.size());
  const std::string two =
      "POST " + target + " HTTP/1.1\r\nContent-Length: " + len + "\r\n\r\n" +
      payload + "POST " + target + " HTTP/1.1\r\nContent-Length: " + len +
      "\r\nConnection: close\r\n\r\n" + payload;
  for (int fd : fds) ASSERT_TRUE(send_all(fd, two));
  for (int fd : fds) {
    std::string carry;
    for (int k = 0; k < 2; ++k) {
      int status = 0;
      std::string body;
      ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << target << k;
      EXPECT_EQ(status, 200);
      EXPECT_EQ(body, payload);
    }
    ::close(fd);
  }
}

TEST(ListenerTest, BufferedPipelinedRequestServedInPlace) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  ExpectBufferedSuccessorsServed(&rt, "/ping", "p");

  // /admin/stats shows the one front-door row: every connection opened
  // (ours + this scrape) was accepted there.
  json::Value stats = scrape_json(rt.bound_port());
  const json::Array& rows = stats["listeners"].as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]["id"].as_int(-1), 0);
  EXPECT_EQ(rows[0]["accepted"].as_int(0), 12 + 1);
  EXPECT_EQ(stats["totals"]["accepted"].as_int(0), 12 + 1);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, 2u * 12);
}

// The same with chain3 -> relay -> echo stream hand-offs: the response is
// written by the echo child, two stages downstream of the sandbox the
// front door admitted. Per-worker queues place front-door admits round
// robin while the front door's taker varies per connection, so most
// responses are written (and the buffered successor parsed) by a worker
// that did not read the first request.
TEST(ListenerTest, BufferedPipelinedRequestServedBehindChain3) {
  RuntimeConfig cfg;
  cfg.workers = 3;
  cfg.policy = DistPolicy::kPerWorker;
  Runtime rt(cfg);
  for (const char* m : {"chain3", "relay", "echo"}) {
    auto src = apps::load_app_source(m);
    ASSERT_TRUE(src.ok()) << src.error_message();
    ASSERT_TRUE(rt.register_module(m, compile(src.value().c_str())).is_ok());
  }
  ASSERT_TRUE(rt.start().is_ok());
  ExpectBufferedSuccessorsServed(&rt, "/chain3", "buffered behind a chain");
  rt.stop();
  EXPECT_EQ(rt.totals().invokes, 2u * 2 * 12);  // relay + echo per request
  EXPECT_EQ(rt.snapshot().pool.transfer_outstanding, 0u);
}

// ---- No fd outlives the runtime ----

// /proc/self/fd counts before start() and after stop() must match with
// connections in every state at stop: idle, half-written, a sandbox
// sleeping in flight, and a pipelined pair. A warm-up runtime runs first so
// that process-lifetime fds opened lazily on first use are not counted.
TEST(ListenerTest, FdCountMatchesBeforeStartAndAfterStop) {
  const char* kSleepSrc = R"(
char out[1];
int main() { sleep_ms(50); out[0] = 122; resp_write(out, 1); return 0; }
)";
  auto run = [&](bool leave_open) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.drain_grace_ns = 10'000'000;  // the sleeper may be abandoned
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
    ASSERT_TRUE(rt.register_module("sleep", compile(kSleepSrc)).is_ok());
    ASSERT_TRUE(rt.start().is_ok());
    auto ok = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                      {});
    ASSERT_TRUE(ok.ok()) << ok.error_message();
    std::vector<int> fds;
    if (leave_open) {
      fds.push_back(raw_connect(rt.bound_port()));  // idle
      fds.push_back(raw_connect(rt.bound_port()));  // half-written
      ASSERT_TRUE(send_all(fds.back(), "POST /ping HTTP/1.1\r\nConte"));
      fds.push_back(raw_connect(rt.bound_port()));  // sandbox in flight
      ASSERT_TRUE(send_all(fds.back(),
                           "POST /sleep HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
      fds.push_back(raw_connect(rt.bound_port()));  // pipelined pair
      ASSERT_TRUE(send_all(fds.back(),
                           "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
                           "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
      ::usleep(5'000);
    }
    rt.stop();
    for (int fd : fds) ::close(fd);
    EXPECT_EQ(rt.inflight(), 0);
  };
  run(false);  // warm-up
  const int before = count_open_fds();
  ASSERT_GT(before, 0);
  run(true);
  EXPECT_EQ(count_open_fds(), before);
}

// ---- 2k-connection mixed-status soak: exact reconciliation ----

TEST(ListenerTest, Soak2kConnectionsReconcilesExactly) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  constexpr int kRounds = 500;  // x4 connections per round = 2000
  uint64_t n200 = 0, n404 = 0, n503 = 0;
  auto one = [&](const std::string& target, bool fault) -> int {
    std::optional<testutil::ScopedSandboxAllocFault> f;
    if (fault) f.emplace();
    int fd = raw_connect(rt.bound_port());
    std::string req = "POST " + target +
                      " HTTP/1.1\r\nContent-Length: 0\r\n"
                      "Connection: close\r\n\r\n";
    EXPECT_TRUE(send_all(fd, req));
    int status = 0;
    std::string body, carry;
    EXPECT_TRUE(recv_response(fd, &status, &body, &carry));
    ::close(fd);
    return status;
  };
  for (int r = 0; r < kRounds; ++r) {
    int s1 = one("/ping", false);
    EXPECT_EQ(s1, 200);
    n200 += s1 == 200;
    int s2 = one("/ghost", false);
    EXPECT_EQ(s2, 404);
    n404 += s2 == 404;
    int s3 = one("/ping", true);  // alloc fault -> 503 Overloaded
    EXPECT_EQ(s3, 503);
    n503 += s3 == 503;
    int s4 = one("/ping", false);
    EXPECT_EQ(s4, 200);
    n200 += s4 == 200;
  }
  EXPECT_EQ(n200, 2u * kRounds);

  // Exact reconciliation against the runtime's own books.
  Runtime::Totals t = rt.totals();
  EXPECT_EQ(t.completed, n200);
  EXPECT_EQ(t.shed, n503);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.accepted, 4u * kRounds);
  EXPECT_EQ(t.accept_errors, 0u);
  EXPECT_EQ(rt.inflight(), 0);

  // And against the front-door row exposed over /admin/stats (ours + this
  // scrape).
  json::Value stats = scrape_json(rt.bound_port());
  const json::Array& rows = stats["listeners"].as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]["accepted"].as_int(0), 4 * kRounds + 1);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, n200);  // stable across stop()
}

}  // namespace
}  // namespace sledge::runtime
