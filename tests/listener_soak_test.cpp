// Sanitizer-safe front-door soak: exercises every control path (404,
// alloc-fault 503, chunked 501, malformed Content-Length 400, /admin
// scrapes) with pipelined keep-alive connections handed between two
// workers through the shared EPOLLONESHOT ready set, plus a ping soak whose
// sandboxes run under FIFO scheduling (real green-thread switches, no
// SIGALRM quantum timer, which sanitizers cannot deliver in place). This
// is the suite the `tsan-listener` preset races: the one-holder hand-offs
// (take, re-arm, Distributor hand-off, parse-in-place after a response),
// the writev control path, and the cross-thread stats plane.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

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

int count_open_fds() {
  int n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (!d) return -1;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

TEST(ListenerSoakTest, ControlPathSoak) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Every admitted /ping fails sandbox allocation for the whole soak: the
  // holder answers 503 inline and no sandbox ever runs.
  testutil::ScopedSandboxAllocFault fault;

  constexpr int kRounds = 100;
  uint64_t n404 = 0, n503 = 0, n501 = 0, n400 = 0;
  for (int r = 0; r < kRounds; ++r) {
    // One keep-alive connection per round, four requests pipelined in one
    // write: 404, 503, chunked 501, then a closing 404, each parsed in place
    // by the writer of the previous answer. A parse desync or a lost
    // buffered request breaks the sequence.
    int fd = raw_connect(rt.bound_port());
    const std::string burst =
        "POST /ghost HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        "POST /ping HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        "3\r\nabc\r\n0\r\n\r\n"
        "GET /ghost HTTP/1.1\r\nConnection: close\r\n\r\n";
    ASSERT_TRUE(send_all(fd, burst));
    int status = 0;
    std::string body, carry;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
    EXPECT_EQ(status, 404);
    n404 += status == 404;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
    EXPECT_EQ(status, 503);
    n503 += status == 503;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
    EXPECT_EQ(status, 501);
    n501 += status == 501;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
    EXPECT_EQ(status, 404);
    n404 += status == 404;
    ::close(fd);

    // Every 10th round, a malformed Content-Length on its own connection
    // (400 closes the stream, so it can't share the pipelined one).
    if (r % 10 == 0) {
      int bad = raw_connect(rt.bound_port());
      ASSERT_TRUE(
          send_all(bad, "POST /ping HTTP/1.1\r\nContent-Length: 5x\r\n\r\n"));
      ASSERT_TRUE(recv_response(bad, &status, &body, &carry));
      EXPECT_EQ(status, 400);
      n400 += status == 400;
      ::close(bad);
    }
  }
  EXPECT_EQ(n404, 2u * kRounds);
  EXPECT_EQ(n503, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(n501, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(n400, static_cast<uint64_t>(kRounds / 10));

  // The runtime's books agree: every 503 was a shed, nothing completed or
  // failed (no sandbox ever executed), and the front-door row matches the
  // totals. Once the server has seen every client close, the scrape's own
  // connection is the only one open, and no sandbox holds a request.
  Runtime::Totals t = rt.totals();
  EXPECT_EQ(t.shed, n503);
  EXPECT_EQ(t.completed, 0u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.accepted, static_cast<uint64_t>(kRounds) + n400);
  EXPECT_EQ(rt.inflight(), 0);

  for (int i = 0; i < 2000; ++i) {
    const Runtime::ListenerSnapshot row = rt.snapshot().listeners.at(0);
    if (row.open_conns + row.loaned_conns == 0) break;
    ::usleep(1000);
  }
  auto body = loadgen::http_get("127.0.0.1", rt.bound_port(), "/admin/stats");
  ASSERT_TRUE(body.ok()) << body.error_message();
  auto doc = json::parse(*body);
  ASSERT_TRUE(doc.ok()) << doc.error_message();
  const json::Array& rows = (*doc)["listeners"].as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]["accepted"].as_int(0),
            static_cast<int64_t>(kRounds + n400) + 1);
  EXPECT_EQ(rows[0]["open_conns"].as_int(-1), 1);
  EXPECT_EQ(rows[0]["loaned_conns"].as_int(-1), 0);

  rt.stop();
}

// Teardown regression: repeated full runtime start/stop cycles with
// connections still open — some answered and idle, some holding
// half-written requests, some never used — at the moment stop() runs. The
// front door is destroyed underneath them; heap checkers turn any
// double-close or leak into a hard fail, and the process fd count must
// come back to where it was before each cycle.
TEST(ListenerSoakTest, ShutdownWithConnectionsInEveryState) {
  testutil::ScopedSandboxAllocFault fault;  // no sandbox ever executes
  for (int cycle = 0; cycle < 10; ++cycle) {
    const int fds_before = count_open_fds();
    RuntimeConfig cfg;
    cfg.workers = 2;
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
    ASSERT_TRUE(rt.start().is_ok());

    std::vector<int> fds;
    for (int i = 0; i < 30; ++i) {
      int fd = raw_connect(rt.bound_port());
      switch (i % 3) {
        case 0:  // full admitted request, response read back
          ASSERT_TRUE(send_all(
              fd, "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
          {
            int status = 0;
            std::string body, carry;
            ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
            EXPECT_EQ(status, 503);  // alloc fault: shed inline
          }
          break;
        case 1:  // half-written request parked in the connection's parser
          ASSERT_TRUE(send_all(fd, "POST /ping HTTP/1.1\r\nContent-Le"));
          break;
        case 2:  // idle keep-alive connection
          break;
      }
      fds.push_back(fd);
    }
    // Stop with every connection still open.
    rt.stop();
    for (int fd : fds) ::close(fd);
    EXPECT_EQ(rt.inflight(), 0);
    EXPECT_EQ(count_open_fds(), fds_before) << "cycle " << cycle;
  }
}

// Real sandboxes across the hand-offs: four client threads, each on its own
// keep-alive connection, send pings two at a time in one write, so the
// second is always buffered when the first response completes. Three
// workers run the sandboxes run-to-completion (FIFO: no quantum timer).
TEST(ListenerSoakTest, FifoPingSoakAcrossWorkers) {
  RuntimeConfig cfg;
  cfg.workers = 3;
  cfg.sched = SchedPolicy::kFifoRunToCompletion;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  constexpr int kClients = 4;
  constexpr int kPairs = 50;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      int fd = raw_connect(rt.bound_port());
      const std::string two =
          "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
          "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
      std::string carry;
      for (int i = 0; i < kPairs; ++i) {
        if (!send_all(fd, two)) break;
        for (int k = 0; k < 2; ++k) {
          int status = 0;
          std::string body;
          if (recv_response(fd, &status, &body, &carry) && status == 200 &&
              body == "p") {
            ok.fetch_add(1);
          }
        }
      }
      ::close(fd);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok.load(), kClients * kPairs * 2);
  rt.stop();
  EXPECT_EQ(rt.totals().completed,
            static_cast<uint64_t>(kClients * kPairs * 2));
  EXPECT_EQ(rt.inflight(), 0);
}

}  // namespace
}  // namespace sledge::runtime
