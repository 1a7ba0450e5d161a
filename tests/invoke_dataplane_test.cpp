// Differential conformance suite for the inter-function dataplane: the
// same seeded chain workloads must produce byte-identical responses under
// the copy and shm (zero-copy transfer-buffer) dataplanes across every
// DistPolicy queue, with invoke counters that reconcile exactly and no transfer
// buffer left outstanding afterwards. Also covers the sb_invoke_stream
// pipelined hand-off (both the HTTP-connection and upstream-join channel
// paths), deadline kills mid-chain, keep-alive connection-loan recycling
// (generation-tag regression), and stop() with chains still in flight
// (shutdown orphan-drain regression).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "loadgen/loadgen.hpp"
#include "minicc/minicc.hpp"
#include "sledge/resource_pool.hpp"
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

// Seeded request payloads shared by every (dataplane, queue) leg so
// the legs are byte-comparable. Lengths span empty, sub-bucket, and
// several-KiB (the .mc chain stages cap at 4096).
std::vector<std::vector<uint8_t>> seeded_payloads(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < count; ++i) {
    std::vector<uint8_t> p(rng.below(3500));
    for (uint8_t& b : p) b = static_cast<uint8_t>(rng.next_u32());
    payloads.push_back(std::move(p));
  }
  payloads.emplace_back();  // empty request rides the dataplane too
  return payloads;
}

uint64_t transfer_outstanding() {
  return SandboxResourcePool::instance().counters().transfer_outstanding;
}

// The pool is process-global; releases race the HTTP response by a few
// scheduler ticks, so "no leak" is an eventually-zero property.
void expect_no_outstanding_transfers(const char* where) {
  for (int i = 0; i < 500 && transfer_outstanding() != 0; ++i) ::usleep(10'000);
  EXPECT_EQ(transfer_outstanding(), 0u) << where;
}

struct ChainRun {
  std::vector<std::vector<uint8_t>> chain;   // /chain responses, in order
  std::vector<std::vector<uint8_t>> nested;  // /chain_nested responses
  uint64_t invokes = 0;
  uint64_t zerocopy = 0;  // sum of per-module invoke_zerocopy
  uint64_t local = 0;     // sum of per-module invoke_local
};

ChainRun run_chain_workload(InvokeDataplane dataplane,
                            DistPolicy policy,
                            const std::vector<std::vector<uint8_t>>& payloads) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.policy = policy;
  cfg.invoke_dataplane = dataplane;
  Runtime rt(cfg);
  EXPECT_TRUE(rt.register_module("chain", compile_app("chain")).is_ok());
  EXPECT_TRUE(
      rt.register_module("chain_nested", compile_app("chain_nested")).is_ok());
  EXPECT_TRUE(rt.register_module("echo", compile_app("echo")).is_ok());
  EXPECT_TRUE(rt.start().is_ok());

  ChainRun run;
  for (const auto& payload : payloads) {
    for (bool nested : {false, true}) {
      int status = 0;
      const char* path = nested ? "/chain_nested" : "/chain";
      auto resp =
          loadgen::single_request("127.0.0.1", rt.bound_port(), path, payload,
                                  &status);
      EXPECT_TRUE(resp.ok()) << resp.error_message();
      EXPECT_EQ(status, 200)
          << path << " dataplane=" << to_string(dataplane)
          << " policy=" << to_string(policy);
      (nested ? run.nested : run.chain)
          .push_back(resp.ok() ? *resp : std::vector<uint8_t>{});
    }
  }
  run.invokes = rt.totals().invokes;

  auto doc = json::parse(rt.stats_json());
  EXPECT_TRUE(doc.ok()) << doc.error_message();
  if (doc.ok()) {
    for (const char* name : {"chain", "chain_nested", "echo"}) {
      const json::Value& m = (*doc)["modules"][name];
      run.zerocopy += static_cast<uint64_t>(m["invoke_zerocopy"].as_int(0));
      run.local += static_cast<uint64_t>(m["invoke_local"].as_int(0));
    }
  }
  rt.stop();
  return run;
}

// The dataplane is a transport, not a semantic — for every distribution
// queue, copy and shm runs of the same seeded workload return
// byte-identical responses (which also equal the payload: the chains
// terminate in /echo), the invoke ledger reconciles exactly (1 child per
// /chain, 2 per /chain_nested), shm actually rides transfer buffers
// (invoke_zerocopy > 0) while copy never does, every queue honours the
// locality hint (invoke_local > 0), and every loaned buffer is back in the
// pool afterwards.
TEST(InvokeDataplaneTest, DifferentialCopyVsShmAcrossDispatchers) {
  const auto payloads = seeded_payloads(0xD1FF, 8);
  const uint64_t expected_invokes = payloads.size() * 3;  // 1 + 2 per payload

  for (DistPolicy policy : {DistPolicy::kWorkStealing, DistPolicy::kGlobalLock,
                            DistPolicy::kPerWorker}) {
    ChainRun copy =
        run_chain_workload(InvokeDataplane::kCopy, policy, payloads);
    expect_no_outstanding_transfers("after copy run");
    ChainRun shm =
        run_chain_workload(InvokeDataplane::kShm, policy, payloads);
    expect_no_outstanding_transfers("after shm run");

    ASSERT_EQ(copy.chain.size(), payloads.size());
    ASSERT_EQ(shm.chain.size(), payloads.size());
    ASSERT_EQ(copy.nested.size(), payloads.size());
    ASSERT_EQ(shm.nested.size(), payloads.size());
    for (size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(copy.chain[i], shm.chain[i])
          << "chain payload " << i << " " << to_string(policy);
      EXPECT_EQ(copy.nested[i], shm.nested[i])
          << "nested payload " << i << " " << to_string(policy);
      EXPECT_EQ(shm.chain[i], payloads[i]);
      EXPECT_EQ(shm.nested[i], payloads[i]);
    }
    EXPECT_EQ(copy.invokes, expected_invokes) << to_string(policy);
    EXPECT_EQ(shm.invokes, expected_invokes) << to_string(policy);
    EXPECT_EQ(copy.zerocopy, 0u) << to_string(policy);
    EXPECT_GT(shm.zerocopy, 0u) << to_string(policy);
    EXPECT_GT(shm.local, 0u) << to_string(policy);
  }
}

// The runtime-wide dataplane picks the plane every chain rides, and the
// responses stay byte-identical either way. The invoke_zerocopy counter
// lands on the callee module, so it is the observable for which plane the
// caller's invokes actually used.
TEST(InvokeDataplaneTest, RuntimeDataplaneSelectsPlane) {
  const auto payloads = seeded_payloads(0x0E44, 4);
  std::vector<std::vector<uint8_t>> bodies[2];
  for (InvokeDataplane dataplane :
       {InvokeDataplane::kCopy, InvokeDataplane::kShm}) {
    SCOPED_TRACE(to_string(dataplane));
    RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.invoke_dataplane = dataplane;
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("chain", compile_app("chain")).is_ok());
    ASSERT_TRUE(rt.register_module("echo", compile_app("echo")).is_ok());
    ASSERT_TRUE(rt.start().is_ok());
    for (const auto& payload : payloads) {
      int status = 0;
      auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(),
                                          "/chain", payload, &status);
      ASSERT_TRUE(resp.ok()) << resp.error_message();
      EXPECT_EQ(status, 200);
      EXPECT_EQ(*resp, payload);
      bodies[static_cast<int>(dataplane)].push_back(*resp);
    }
    auto doc = json::parse(rt.stats_json());
    ASSERT_TRUE(doc.ok()) << doc.error_message();
    uint64_t zerocopy = static_cast<uint64_t>(
        (*doc)["modules"]["echo"]["invoke_zerocopy"].as_int(0));
    if (dataplane == InvokeDataplane::kShm) {
      EXPECT_GT(zerocopy, 0u) << "shm runtime never used a transfer buffer";
    } else {
      EXPECT_EQ(zerocopy, 0u) << "copy runtime used a transfer buffer";
    }
    rt.stop();
    expect_no_outstanding_transfers("after dataplane run");
  }
  EXPECT_EQ(bodies[static_cast<int>(InvokeDataplane::kCopy)],
            bodies[static_cast<int>(InvokeDataplane::kShm)]);
}

// sb_invoke_stream, HTTP-channel path: /chain3 -> relay -> echo, each hop a
// hand-off of both payload and response channel. The original caller's
// reply is written by echo two stages downstream; the head and middle
// stages retire without joining. Both new stats surfaces must show it.
TEST(InvokeDataplaneTest, StreamChainHandsOffHttpConnection) {
  for (int workers : {1, 2}) {
    RuntimeConfig cfg;
    cfg.workers = workers;
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("chain3", compile_app("chain3")).is_ok());
    ASSERT_TRUE(rt.register_module("relay", compile_app("relay")).is_ok());
    ASSERT_TRUE(rt.register_module("echo", compile_app("echo")).is_ok());
    ASSERT_TRUE(rt.start().is_ok());

    const std::string payload = "pipelined, not stop-and-wait";
    for (int i = 0; i < 5; ++i) {
      int status = 0;
      auto resp = loadgen::single_request(
          "127.0.0.1", rt.bound_port(), "/chain3",
          std::vector<uint8_t>(payload.begin(), payload.end()), &status);
      ASSERT_TRUE(resp.ok()) << resp.error_message();
      EXPECT_EQ(status, 200) << "workers=" << workers;
      EXPECT_EQ(std::string(resp->begin(), resp->end()), payload);
    }
    EXPECT_EQ(rt.totals().invokes, 10u);  // relay + echo per request

    int status = 0;
    auto metrics = loadgen::http_get("127.0.0.1", rt.bound_port(),
                                     "/admin/metrics", &status);
    ASSERT_TRUE(metrics.ok()) << metrics.error_message();
    EXPECT_EQ(status, 200);
    EXPECT_NE(metrics->find("sledge_invoke_zerocopy_total"),
              std::string::npos);
    EXPECT_NE(metrics->find("sledge_invoke_handoff_seconds"),
              std::string::npos);
    // Once the chain drains, the leak probe is scrapeable from the live
    // stats, not only from the shutdown report.
    expect_no_outstanding_transfers("stream chain drained");
    auto doc = json::parse(rt.stats_json());
    ASSERT_TRUE(doc.ok()) << doc.error_message();
    EXPECT_GT((*doc)["modules"]["echo"]["invoke_zerocopy"].as_int(0), 0);
    EXPECT_EQ((*doc)["pool"]["transfer_outstanding"].as_int(-1), 0);
    EXPECT_GT((*doc)["pool"]["transfer_hits"].as_int(0), 0);
    rt.stop();
    expect_no_outstanding_transfers("after stream chain");
  }
}

// sb_invoke_stream, join-channel path: a joining head (sb_invoke) calls
// relay, which streams to echo. Relay has no HTTP connection, so its
// hand-off must transfer the upstream InvokeJoin instead — echo's response
// lands directly in the head's join (on the shm dataplane, in the head's
// transfer buffer: true end-to-end zero-copy).
TEST(InvokeDataplaneTest, StreamChainHandsOffUpstreamJoin) {
  const char* kJoinHeadSrc = R"(
char name[5];
char req[4096];
char resp[4096];
int main() {
  int len = req_len();
  if (len > 4096) len = 4096;
  req_read(req, 0, len);
  name[0] = 114;  // 'r'
  name[1] = 101;  // 'e'
  name[2] = 108;  // 'l'
  name[3] = 97;   // 'a'
  name[4] = 121;  // 'y'
  int n = sb_invoke(name, 5, req, len, resp, 4096);
  if (n < 0) {
    resp_i32(n);
    return n;
  }
  resp_write(resp, n);
  return n;
}
)";
  for (InvokeDataplane dataplane :
       {InvokeDataplane::kCopy, InvokeDataplane::kShm}) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.invoke_dataplane = dataplane;
    Runtime rt(cfg);
    ASSERT_TRUE(rt.register_module("head", compile(kJoinHeadSrc)).is_ok());
    ASSERT_TRUE(rt.register_module("relay", compile_app("relay")).is_ok());
    ASSERT_TRUE(rt.register_module("echo", compile_app("echo")).is_ok());
    ASSERT_TRUE(rt.start().is_ok());

    const std::string payload = "join hand-off";
    int status = 0;
    auto resp = loadgen::single_request(
        "127.0.0.1", rt.bound_port(), "/head",
        std::vector<uint8_t>(payload.begin(), payload.end()), &status);
    ASSERT_TRUE(resp.ok()) << resp.error_message();
    EXPECT_EQ(status, 200) << to_string(dataplane);
    EXPECT_EQ(std::string(resp->begin(), resp->end()), payload)
        << to_string(dataplane);
    EXPECT_EQ(rt.totals().invokes, 2u);
    rt.stop();
    expect_no_outstanding_transfers("after join hand-off");
  }
}

// Deadline kill mid-chain: the head's wall deadline fires while it is
// parked on its child's join. The caller gets 504, the child (whose
// deadline was clipped to its parent's) dies too, and every transfer-buffer
// loan the chain held comes back to the pool. The runtime keeps serving.
TEST(InvokeDataplaneTest, DeadlineKillMidChainReturnsTransferBuffers) {
  const char* kStallHeadSrc = R"(
char name[3];
char req[8];
char resp[8];
int main() {
  name[0] = 122;  // 'z'
  name[1] = 122;  // 'z'
  name[2] = 122;  // 'z'
  int n = sb_invoke(name, 3, req, 4, resp, 8);
  resp_i32(n);
  return n;
}
)";
  const char* kSleeperSrc = R"(
char out[1];
int main() { sleep_ms(2000); out[0] = 122; resp_write(out, 1); return 0; }
)";
  const char* kPingSrc = R"(
char out[1];
int main() { out[0] = 112; resp_write(out, 1); return 0; }
)";
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ModuleLimits limits;
  limits.deadline_ns = 150'000'000;  // 150 ms wall deadline on the head
  ASSERT_TRUE(rt.register_module("stall", compile(kStallHeadSrc), limits)
                  .is_ok());
  ASSERT_TRUE(rt.register_module("zzz", compile(kSleeperSrc)).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int status = 0;
  auto resp =
      loadgen::single_request("127.0.0.1", rt.bound_port(), "/stall", {},
                              &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 504);

  // Both parties of the chain held loan references; all must come back.
  expect_no_outstanding_transfers("after mid-chain kill");
  EXPECT_GE(rt.totals().killed, 1u);

  status = 0;
  auto again = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                       {}, &status);
  ASSERT_TRUE(again.ok()) << again.error_message();
  EXPECT_EQ(status, 200);
  rt.stop();
}

// Regression (PR 7 teardown hunt, bug a): connection loans are generation-
// tagged so a worker's return reattaches parked parser state only to the
// same incarnation of the fd. Pipelined keep-alive pairs are the observable
// contract: request 2 of each pair rides bytes parked while request 1's fd
// was loaned out — a gen mismatch (or stale-discard) would strand them.
TEST(InvokeDataplaneTest, KeepAliveLoanRecycleServesPipelinedPairs) {
  const char* kEchoSrc = R"(
char buf[4096];
int main() {
  int len = req_len();
  if (len > 4096) len = 4096;
  req_read(buf, 0, len);
  resp_write(buf, len);
  return len;
}
)";
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("echo", compile(kEchoSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  // One long-lived keep-alive connection. Each round writes TWO pipelined
  // requests in a single send: request 1 is admitted into a sandbox with
  // request 2's bytes buffered on the connection; the worker that writes
  // response 1 must parse them in place for request 2 to ever be served.
  // Rounds repeat on the same fd.
  int fd = raw_connect(rt.bound_port());
  std::string carry;
  constexpr int kRounds = 40;
  for (int r = 0; r < kRounds; ++r) {
    std::string a = "pair-a-" + std::to_string(r);
    std::string b = "pair-b-" + std::to_string(r);
    auto post = [](const std::string& body) {
      return "POST /echo HTTP/1.1\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
    };
    ASSERT_TRUE(send_all(fd, post(a) + post(b))) << "round " << r;
    int status = 0;
    std::string body;
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << "round " << r;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, a);
    ASSERT_TRUE(recv_response(fd, &status, &body, &carry)) << "round " << r;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, b);
  }

  // No sandbox holds a request any more: the front-door ledger must read
  // zero. The scrape rides the same connection, so it is parsed only after
  // the last response was written and its loan booked back: no race.
  ASSERT_TRUE(send_all(fd, "GET /admin/stats HTTP/1.1\r\n\r\n"));
  int status = 0;
  std::string body;
  ASSERT_TRUE(recv_response(fd, &status, &body, &carry));
  EXPECT_EQ(status, 200);
  ::close(fd);
  auto doc = json::parse(body);
  ASSERT_TRUE(doc.ok()) << doc.error_message();
  for (const json::Value& row : (*doc)["listeners"].as_array()) {
    EXPECT_EQ(row["loaned_conns"].as_int(-1), 0);
  }
  rt.stop();
}

// Regression (PR 7 teardown hunt, bugs b+c): stop() while chains are still
// in flight. Admitted-but-never-fetched children are drained (their joins
// signalled, their connections closed) instead of leaking. Heap checkers
// (ASan / MALLOC_CHECK_) turn any double-close or leak into a hard fail.
TEST(InvokeDataplaneTest, StopWhileChainsInFlightDrainsCleanly) {
  const char* kSlowChainSrc = R"(
char name[3];
char req[8];
char resp[8];
int main() {
  name[0] = 122;  // 'z'
  name[1] = 122;  // 'z'
  name[2] = 122;  // 'z'
  int n = sb_invoke(name, 3, req, 4, resp, 8);
  resp_i32(n);
  return n;
}
)";
  const char* kSleeperSrc = R"(
char out[1];
int main() { sleep_ms(300); out[0] = 122; resp_write(out, 1); return 0; }
)";
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("slow", compile(kSlowChainSrc)).is_ok());
  ASSERT_TRUE(rt.register_module("zzz", compile(kSleeperSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&rt] {
      int status = 0;
      // The runtime is being torn down under us: errors and resets are
      // legitimate outcomes, crashing or hanging is not.
      (void)loadgen::single_request("127.0.0.1", rt.bound_port(), "/slow", {},
                                    &status);
    });
  }
  ::usleep(50'000);  // let the chains park on their joins
  rt.stop();
  for (std::thread& t : clients) t.join();
  expect_no_outstanding_transfers("after mid-flight stop");
}

}  // namespace
}  // namespace sledge::runtime
