// Sanitizer-safe multi-shard listener soak: exercises every listener
// control path (404, alloc-fault 503, chunked 501, malformed
// Content-Length 400, /admin scrapes) across two SO_REUSEPORT shards with
// interleaved keep-alive connections — without ever *executing* a sandbox,
// so no SIGALRM preemption runs under tsan/asan. This
// is the suite the `tsan-listener` preset races: shard epoll loops, batched
// admission, the writev control path, and the cross-thread stats plane.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
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

TEST(ListenerSoakTest, TwoShardControlPathSoak) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.num_listeners = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // Every admitted /ping fails sandbox allocation for the whole soak: the
  // listener answers 503 inline and no sandbox ever runs (sanitizer-safe).
  testutil::ScopedSandboxAllocFault fault;

  constexpr int kRounds = 100;
  uint64_t n404 = 0, n503 = 0, n501 = 0, n400 = 0;
  for (int r = 0; r < kRounds; ++r) {
    // One keep-alive connection per round, four requests pipelined through
    // the shard the kernel picked: 404, 503, chunked 501, then a closing
    // 404. A parse desync or wrong-shard return breaks the sequence.
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
  // failed (no sandbox ever executed), and the shard counters aggregate to
  // the totals under concurrent scraping.
  Runtime::Totals t = rt.totals();
  EXPECT_EQ(t.shed, n503);
  EXPECT_EQ(t.completed, 0u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.accepted, static_cast<uint64_t>(kRounds) + n400);
  EXPECT_EQ(rt.inflight(), 0);

  auto body = loadgen::http_get("127.0.0.1", rt.bound_port(), "/admin/stats");
  ASSERT_TRUE(body.ok()) << body.error_message();
  auto doc = json::parse(*body);
  ASSERT_TRUE(doc.ok()) << doc.error_message();
  const json::Array& shards = (*doc)["listeners"].as_array();
  ASSERT_EQ(shards.size(), 2u);
  int64_t accepted = 0;
  for (const json::Value& shard : shards) {
    accepted += shard["accepted"].as_int(0);
    EXPECT_EQ(shard["loaned_conns"].as_int(-1), 0);
  }
  EXPECT_EQ(accepted, static_cast<int64_t>(kRounds + n400) + 1);

  rt.stop();
}

// Teardown regression (the PR-7 ~1/15 heap abort hunt): repeated full
// runtime start/stop cycles with connections still open — some idle, some
// holding half-written requests, some with a full pipelined burst in
// flight — at the moment stop() runs. The original abort did not reproduce
// in 80 instrumented 9.8k-connection soaks, but static inspection found
// three shutdown-ordering bugs (stale fd-recycle discards, sandboxes
// stranded by the listener's final admission flush, and undrained
// return/discard queues at listener destruction); this cycle drives those
// paths every iteration, and heap checkers turn any double-close or leak
// into a hard fail.
TEST(ListenerSoakTest, ShutdownWithConnectionsInEveryState) {
  testutil::ScopedSandboxAllocFault fault;  // no sandbox ever executes
  for (int cycle = 0; cycle < 10; ++cycle) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.num_listeners = 2;
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
        case 1:  // half-written request parked in the shard's parser
          ASSERT_TRUE(send_all(fd, "POST /ping HTTP/1.1\r\nContent-Le"));
          break;
        case 2:  // idle keep-alive connection
          break;
      }
      fds.push_back(fd);
    }
    // Stop with every connection still open; the shards and their queues
    // are destroyed underneath them.
    rt.stop();
    for (int fd : fds) ::close(fd);
    EXPECT_EQ(rt.inflight(), 0);
  }
}

}  // namespace
}  // namespace sledge::runtime
