// Async host-I/O subsystem end-to-end: outbound sockets (sb_connect /
// sb_send / sb_recv / sb_close), cross-function invocation (sb_invoke), the
// per-worker event loop's overlap of blocked and CPU-bound sandboxes, wall
// deadlines firing for blocked sandboxes, per-sandbox fd limits, invoke
// depth limits, blocking semantics under every scheduling policy, and the
// idle-CPU win from sleeping in epoll instead of spinning.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "common/clock.hpp"
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

std::vector<uint8_t> compile_app(const std::string& name) {
  auto src = apps::load_app_source(name);
  EXPECT_TRUE(src.ok()) << src.error_message();
  return compile(src.ok() ? src.value() : std::string{});
}

const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";

const char* kSleeperSrc = R"(
char out[1];
int main() { sleep_ms(150); out[0] = 122; resp_write(out, 1); return 0; }
)";

void append_i32(std::vector<uint8_t>* out, int32_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + 4);
}

int32_t read_i32(const std::vector<uint8_t>& body) {
  int32_t v = 0;
  if (body.size() >= 4) std::memcpy(&v, body.data(), 4);
  return v;
}

// A loopback TCP peer for the fetch/connect workloads: listens on an
// ephemeral port, accepts one connection per call, and lets the test script
// the read/reply/close timing.
class TestPeer {
 public:
  TestPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~TestPeer() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  int accept_one() { return ::accept(listen_fd_, nullptr, nullptr); }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

std::vector<uint8_t> fetch_request(uint16_t port, const std::string& payload) {
  std::vector<uint8_t> body;
  append_i32(&body, port);
  body.insert(body.end(), payload.begin(), payload.end());
  return body;
}

// Acceptance: a sandbox blocked in sb_recv must not delay a CPU-bound
// sandbox on the same single worker — the core overlap the event loop buys.
TEST(IoHostTest, BlockedRecvOverlapsCpuWorkOnOneWorker) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("fetch", compile_app("fetch")).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  TestPeer peer;
  std::atomic<bool> fetch_done{false};
  std::thread server([&] {
    int fd = peer.accept_one();
    ASSERT_GE(fd, 0);
    char buf[64];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_EQ(n, 5);  // "hello"
    ::usleep(300'000);  // hold the sandbox in sb_recv while pings run
    ASSERT_EQ(::send(fd, buf, n, 0), n);
    ::close(fd);
  });
  int fetch_status = 0;
  std::vector<uint8_t> fetch_body;
  std::thread fetcher([&] {
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/fetch",
                                     fetch_request(peer.port(), "hello"),
                                     &fetch_status);
    ASSERT_TRUE(r.ok()) << r.error_message();
    fetch_body = *r;
    fetch_done.store(true);
  });

  // While the fetch waits on its peer, the single worker must keep serving.
  int pings_during_fetch = 0;
  for (int i = 0; i < 5; ++i) {
    int status = 0;
    uint64_t t0 = now_ns();
    auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                        {}, &status);
    ASSERT_TRUE(resp.ok()) << resp.error_message();
    EXPECT_EQ(status, 200);
    EXPECT_LT(ns_to_ms(now_ns() - t0), 150.0);
    if (!fetch_done.load()) ++pings_during_fetch;
  }
  EXPECT_GT(pings_during_fetch, 0);  // overlap actually happened

  fetcher.join();
  server.join();
  EXPECT_EQ(fetch_status, 200);
  EXPECT_EQ(fetch_body, (std::vector<uint8_t>{'h', 'e', 'l', 'l', 'o'}));

  Runtime::Totals t = rt.totals();
  EXPECT_GE(t.blocked, 1u);
  EXPECT_GE(t.woken, 1u);

  // The io_wait phase is visible on the admin plane.
  int status = 0;
  auto stats = loadgen::http_get("127.0.0.1", rt.bound_port(), "/admin/stats",
                                 &status);
  ASSERT_TRUE(stats.ok()) << stats.error_message();
  EXPECT_EQ(status, 200);
  EXPECT_NE(stats->find("\"io_wait\""), std::string::npos);
  EXPECT_NE(stats->find("\"blocked\""), std::string::npos);
  rt.stop();
}

// Acceptance: an sb_invoke chain A -> B returns B's payload to A's caller;
// it must work even on a single worker (parent parks, child runs, parent
// resumes) and the invoke shows up in the stats totals.
TEST(IoHostTest, InvokeChainReturnsChildPayload) {
  for (int workers : {1, 2}) {
    RuntimeConfig cfg;
    cfg.workers = workers;
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("chain", compile_app("chain")).is_ok());
    ASSERT_TRUE(rt.register_module("echo", compile_app("echo")).is_ok());
    ASSERT_TRUE(rt.start().is_ok());

    const std::string payload = "ride the sledge";
    int status = 0;
    auto resp = loadgen::single_request(
        "127.0.0.1", rt.bound_port(), "/chain",
        std::vector<uint8_t>(payload.begin(), payload.end()), &status);
    ASSERT_TRUE(resp.ok()) << resp.error_message();
    EXPECT_EQ(status, 200) << "workers=" << workers;
    EXPECT_EQ(std::string(resp->begin(), resp->end()), payload);

    Runtime::Totals t = rt.totals();
    EXPECT_EQ(t.invokes, 1u);
    EXPECT_GE(t.blocked, 1u);
    EXPECT_NE(rt.stats_json().find("\"invokes\""), std::string::npos);
    rt.stop();
  }
}

// Invoking a module that does not exist fails fast with kSbErrNoModule (-6)
// surfaced to the calling function, which still completes normally.
TEST(IoHostTest, InvokeUnknownModuleReturnsError) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("chain", compile_app("chain")).is_ok());
  // "echo" deliberately not registered.
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/chain",
                                      {'h', 'i'}, &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(read_i32(*resp), engine::kSbErrNoModule);
  EXPECT_EQ(rt.totals().invokes, 0u);
  rt.stop();
}

// Recursive self-invocation stops at max_invoke_depth with kSbErrDepth (-8)
// instead of exhausting sandboxes.
TEST(IoHostTest, InvokeDepthLimitStopsRecursion) {
  const char* kSelfSrc = R"(
char name[4];
char req[16];
char resp[16];
int main() {
  int len = req_len();
  if (len > 16) len = 16;
  req_read(req, 0, len);
  name[0] = 115;  // 's'
  name[1] = 101;  // 'e'
  name[2] = 108;  // 'l'
  name[3] = 102;  // 'f'
  int n = sb_invoke(name, 4, req, len, resp, 16);
  if (n < 0) {
    resp_i32(n);
    return n;
  }
  resp_write(resp, n);
  return n;
}
)";
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.max_invoke_depth = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("self", compile(kSelfSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/self",
                                      {'x'}, &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 200);
  // Depth 0 invokes depth 1 invokes depth 2; depth 2's own invoke is denied
  // and the -8 propagates back up as each child's (valid) response payload.
  EXPECT_EQ(read_i32(*resp), engine::kSbErrDepth);
  EXPECT_EQ(rt.totals().invokes, 2u);
  rt.stop();
}

// Acceptance: a sandbox blocked in sb_recv past its wall deadline is
// killed, answered 504, and its outbound fd is actually closed (the peer
// observes EOF); the runtime keeps serving afterwards.
TEST(IoHostTest, WallDeadlineKillsBlockedRecvAndClosesFds) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ModuleLimits limits;
  limits.deadline_ns = 100'000'000;  // 100 ms wall deadline
  ASSERT_TRUE(
      rt.register_module("fetch", compile_app("fetch"), limits).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  TestPeer peer;
  std::atomic<bool> peer_saw_eof{false};
  std::thread server([&] {
    int fd = peer.accept_one();
    ASSERT_GE(fd, 0);
    char buf[64];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_GT(n, 0);
    // Never reply. The sandbox's kill must close its socket: we see EOF.
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    n = ::recv(fd, buf, sizeof(buf), 0);
    peer_saw_eof.store(n == 0);
    ::close(fd);
  });

  int status = 0;
  uint64_t t0 = now_ns();
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/fetch",
                                      fetch_request(peer.port(), "hold"),
                                      &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 504);
  EXPECT_LT(ns_to_ms(now_ns() - t0), 1000.0);
  server.join();
  EXPECT_TRUE(peer_saw_eof.load());

  // Pooled resources were reclaimed and the worker is healthy: serve again.
  status = 0;
  auto again = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                       {}, &status);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(status, 200);
  EXPECT_GE(rt.totals().killed, 1u);
  rt.stop();
}

// Per-sandbox fd cap (tenant isolation): the N+1-th concurrently open
// socket is refused with kSbErrFdLimit (-3), not an OS error.
TEST(IoHostTest, PerSandboxFdLimitIsEnforced) {
  const char* kHoarderSrc = R"(
char host[9];
int main() {
  int port = req_i32(0);
  host[0] = 49; host[1] = 50; host[2] = 55; host[3] = 46;
  host[4] = 48; host[5] = 46; host[6] = 48; host[7] = 46;
  host[8] = 49;
  int a = sb_connect(host, 9, port);
  int b = sb_connect(host, 9, port);
  int c = sb_connect(host, 9, port);
  resp_i32(a);
  resp_i32(b);
  resp_i32(c);
  return c;
}
)";
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.max_sandbox_fds = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("hoard", compile(kHoarderSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  TestPeer peer;
  std::thread server([&] {
    // Accept the two allowed connections; they close with the sandbox.
    int a = peer.accept_one();
    int b = peer.accept_one();
    ::close(a);
    ::close(b);
  });
  std::vector<uint8_t> body;
  append_i32(&body, peer.port());
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/hoard",
                                      body, &status);
  server.join();
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 200);
  ASSERT_EQ(resp->size(), 12u);
  int32_t fds[3];
  std::memcpy(fds, resp->data(), 12);
  EXPECT_GE(fds[0], 0);
  EXPECT_GE(fds[1], 0);
  EXPECT_EQ(fds[2], engine::kSbErrFdLimit);
  rt.stop();
}

// Satellite: blocking semantics under both per-worker scheduling policies.
// FIFO is run-to-completion on CPU but must still yield the core on I/O. In
// both, sleepers must not starve quick requests sharing their single
// worker.
TEST(IoHostTest, BlockedSandboxesYieldUnderEveryPolicy) {
  for (SchedPolicy sched : {SchedPolicy::kRoundRobin,
                            SchedPolicy::kFifoRunToCompletion}) {
    RuntimeConfig cfg;
    cfg.workers = 1;
    cfg.sched = sched;
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("sleeper", compile(kSleeperSrc)).is_ok());
    ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
    ASSERT_TRUE(rt.start().is_ok());

    int sleeper_status = 0;
    std::thread sleeper([&] {
      auto r = loadgen::single_request("127.0.0.1", rt.bound_port(),
                                       "/sleeper", {}, &sleeper_status);
      EXPECT_TRUE(r.ok()) << r.error_message();
    });
    ::usleep(30'000);  // let the sleeper block in its 150 ms sleep
    for (int i = 0; i < 3; ++i) {
      int status = 0;
      uint64_t t0 = now_ns();
      auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(),
                                          "/ping", {}, &status);
      ASSERT_TRUE(resp.ok()) << resp.error_message();
      EXPECT_EQ(status, 200) << to_string(sched);
      // Served while the sleeper holds its block — not after it.
      EXPECT_LT(ns_to_ms(now_ns() - t0), 120.0) << to_string(sched);
    }
    sleeper.join();
    EXPECT_EQ(sleeper_status, 200) << to_string(sched);
    rt.stop();
  }
}

// Satellite: idle workers sleep in epoll_wait instead of busy-spinning.
// Two idle workers over ~400 ms of wall time must burn only a sliver of
// CPU; the old spin loop burned most of two cores.
TEST(IoHostTest, IdleWorkersDoNotBurnCpu) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  ASSERT_TRUE(loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                      {}, &status)
                  .ok());  // warm up, then go idle

  auto cpu_ns = [] {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto tv_ns = [](const timeval& tv) {
      return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000 +
             static_cast<uint64_t>(tv.tv_usec) * 1'000;
    };
    return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
  };
  uint64_t cpu0 = cpu_ns();
  ::usleep(400'000);
  uint64_t spent = cpu_ns() - cpu0;
  // Generous bound: 2 spinning workers would burn ~800 ms here; epoll
  // sleeping should cost well under a tenth of that.
  EXPECT_LT(spent, 200'000'000u) << "idle CPU burn: " << spent << " ns";
  rt.stop();
}

// sb_* error paths that need no runtime: connect to a dead port fails with
// kSbErrConnect after the async connect completes; a malformed host is
// rejected before any socket exists.
TEST(IoHostTest, ConnectFailuresSurfaceAsErrors) {
  const char* kBadConnectSrc = R"(
char host[9];
int main() {
  int port = req_i32(0);
  host[0] = 49; host[1] = 50; host[2] = 55; host[3] = 46;
  host[4] = 48; host[5] = 46; host[6] = 48; host[7] = 46;
  host[8] = 49;
  int fd = sb_connect(host, 9, port);
  resp_i32(fd);
  if (fd >= 0) { sb_close(fd); }
  return fd;
}
)";
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("dial", compile(kBadConnectSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // A port nothing listens on: RST -> kSbErrConnect via the event loop.
  uint16_t dead_port;
  {
    TestPeer p;
    dead_port = p.port();
  }  // destructor closed the listener; the port is now dead
  std::vector<uint8_t> body;
  append_i32(&body, dead_port);
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/dial",
                                      body, &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(read_i32(*resp), engine::kSbErrConnect);
  rt.stop();
}

}  // namespace
}  // namespace sledge::runtime
