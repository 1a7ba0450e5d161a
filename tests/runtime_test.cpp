// Sledge runtime tests: sandbox lifecycle, inline execution, the full
// HTTP -> sandbox -> response path under every distribution policy,
// keep-alive reuse, error responses, scheduler fairness under preemption,
// cooperative sleeping, and high-churn behavior.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "apps/workloads.hpp"
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

const char* kEchoSrc = R"(
char buf[65536];
int main() {
  int n = req_len();
  if (n > 65536) n = 65536;
  req_read(buf, 0, n);
  resp_write(buf, n);
  return n;
}
)";

const char* kTrapSrc = R"(
int main() { int zero = 0; return 1 / zero; }
)";

const char* kSleepSrc = R"(
char out[1];
int main() { sleep_ms(30); out[0] = 122; resp_write(out, 1); return 0; }
)";

// ---- Sandbox unit tests (no server) ----

TEST(SandboxTest, CreateRunTeardownInline) {
  auto wasm = compile(kEchoSrc);
  engine::WasmModule::Config cfg;
  auto mod = engine::WasmModule::load(wasm, cfg);
  ASSERT_TRUE(mod.ok()) << mod.error_message();

  auto sb = Sandbox::create(&mod.value(), {1, 2, 3});
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->state(), SandboxState::kRunnable);
  EXPECT_GT(sb->startup_cost_ns(), 0u);

  Status s = run_sandbox_inline(sb.get());
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_EQ(sb->state(), SandboxState::kComplete);
  EXPECT_EQ(sb->response(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_GE(sb->done_ns(), sb->first_run_ns());
}

TEST(SandboxTest, TrapBecomesFailedState) {
  auto wasm = compile(kTrapSrc);
  engine::WasmModule::Config cfg;
  auto mod = engine::WasmModule::load(wasm, cfg);
  ASSERT_TRUE(mod.ok());
  auto sb = Sandbox::create(&mod.value(), {});
  ASSERT_NE(sb, nullptr);
  Status s = run_sandbox_inline(sb.get());
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(sb->state(), SandboxState::kFailed);
  EXPECT_EQ(sb->outcome().trap, engine::TrapCode::kDivByZero);
}

TEST(SandboxTest, CooperativeSleepBlocksAndResumes) {
  auto wasm = compile(kSleepSrc);
  engine::WasmModule::Config cfg;
  auto mod = engine::WasmModule::load(wasm, cfg);
  ASSERT_TRUE(mod.ok());
  auto sb = Sandbox::create(&mod.value(), {});
  ASSERT_NE(sb, nullptr);

  // First dispatch must come back blocked, not complete.
  Context here;
  sb->dispatch(&here);
  EXPECT_EQ(sb->state(), SandboxState::kBlocked);
  EXPECT_GT(sb->wake_at_ns(), now_ns());

  Status s = run_sandbox_inline(sb.get());
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_EQ(sb->response(), (std::vector<uint8_t>{'z'}));
}

TEST(SandboxTest, ChurnHundredsOfSandboxes) {
  auto wasm = compile(kPingSrc);
  engine::WasmModule::Config cfg;
  auto mod = engine::WasmModule::load(wasm, cfg);
  ASSERT_TRUE(mod.ok());
  for (int i = 0; i < 300; ++i) {
    auto sb = Sandbox::create(&mod.value(), {});
    ASSERT_NE(sb, nullptr) << "iteration " << i;
    ASSERT_TRUE(run_sandbox_inline(sb.get()).is_ok());
  }
}

// ---- Full-runtime tests ----

class RuntimePolicyTest : public ::testing::TestWithParam<DistPolicy> {};

TEST_P(RuntimePolicyTest, EndToEndPingAndEcho) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.policy = GetParam();
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.register_module("echo", compile(kEchoSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                      {}, &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(*resp, (std::vector<uint8_t>{'p'}));

  std::vector<uint8_t> payload(5000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/echo",
                                 payload, &status);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(status, 200);
  EXPECT_EQ(*resp, payload);

  rt.stop();
  EXPECT_EQ(rt.totals().completed, 2u);
}

TEST_P(RuntimePolicyTest, ConcurrentLoadAllSucceed) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.policy = GetParam();
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  loadgen::Options opt;
  opt.port = rt.bound_port();
  opt.path = "/ping";
  opt.concurrency = 8;
  opt.total_requests = 400;
  opt.expect_body = {'p'};
  auto report = loadgen::run_load(opt);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(report->ok, 400u);
  EXPECT_EQ(report->errors, 0u);
  rt.stop();
}

INSTANTIATE_TEST_SUITE_P(Policies, RuntimePolicyTest,
                         ::testing::Values(DistPolicy::kWorkStealing,
                                           DistPolicy::kGlobalLock,
                                           DistPolicy::kPerWorker),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(RuntimeTest, UnknownRouteIs404) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  auto resp =
      loadgen::single_request("127.0.0.1", rt.bound_port(), "/ghost", {},
                              &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 404);
  rt.stop();
}

TEST(RuntimeTest, TrappingFunctionIs500) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("boom", compile(kTrapSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/boom",
                                      {}, &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 500);
  rt.stop();
  EXPECT_EQ(rt.totals().failed, 1u);
}

// Recursion as deep as the request is long. Each frame keeps 48 loaded
// values live across the recursive call (the Horner chain after it cannot
// be precomputed), so a frame is far above the 128 B at which 4096 frames
// fill the 512 KiB sandbox stack.
std::string deep_recursion_src() {
  std::string src = "int g[64];\nchar out[1];\nint rec(int n) {\n";
  src += "  if (n <= 0) return 0;\n";
  for (int i = 0; i < 48; ++i) {
    src += "  int a" + std::to_string(i) + " = g[" + std::to_string(i) + "];\n";
  }
  src += "  g[n & 63] = n;\n  int r = rec(n - 1);\n";
  for (int i = 0; i < 48; ++i) {
    src += "  r = r * 3 + a" + std::to_string(i) + ";\n";
  }
  src += "  return r;\n}\n";
  src += "int main() { rec(req_len()); out[0] = 100; resp_write(out, 1); "
         "return 0; }\n";
  return src;
}

TEST(RuntimeTest, SandboxStackOverflowIsCallStackExhausted) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  const std::string src = deep_recursion_src();
  ASSERT_TRUE(rt.register_module("deep", compile(src.c_str())).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  int status = 0;
  // Shallow enough for the stack.
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/deep",
                                      std::vector<uint8_t>(500, 'x'), &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 200);
  // Below the guest's 4096-frame call-depth limit, so only the stack's
  // guard page can stop it: that is stack exhaustion, not an out-of-bounds
  // memory access.
  resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/deep",
                                 std::vector<uint8_t>(3500, 'x'), &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 500);
  const std::string body(resp->begin(), resp->end());
  EXPECT_NE(body.find("call stack exhausted"), std::string::npos) << body;
  // The worker survives the fault: the stack is reusable afterwards.
  resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/deep",
                                 std::vector<uint8_t>(500, 'x'), &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 200);
  rt.stop();
  EXPECT_EQ(rt.totals().failed, 1u);
}

TEST(RuntimeTest, KeepAliveServesManyRequestsPerConnection) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  loadgen::Options opt;
  opt.port = rt.bound_port();
  opt.path = "/ping";
  opt.concurrency = 1;  // a single connection reused
  opt.total_requests = 50;
  opt.keep_alive = true;
  opt.expect_body = {'p'};
  auto report = loadgen::run_load(opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ok, 50u);
  rt.stop();
}

TEST(RuntimeTest, DuplicateModuleRejected) {
  RuntimeConfig cfg;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("x", compile(kPingSrc)).is_ok());
  EXPECT_FALSE(rt.register_module("x", compile(kPingSrc)).is_ok());
}

TEST(RuntimeTest, InvalidModuleRejected) {
  RuntimeConfig cfg;
  Runtime rt(cfg);
  EXPECT_FALSE(rt.register_module("bad", {0, 1, 2, 3}).is_ok());
}

// The paper's temporal-isolation property (§3.4): a short function must not
// be starved by a long-running one sharing the worker core.
TEST(RuntimeTest, PreemptionPreventsStarvation) {
  const char* spin_src = R"(
    char out[1];
    int main() {
      double x = 1.0;
      for (int i = 0; i < 120000000; i++) { x += 0.5; if (x > 1e16) x = 1.0; }
      out[0] = 115;
      resp_write(out, 1);
      return (int)x;
    }
  )";
  RuntimeConfig cfg;
  cfg.workers = 1;  // force sharing
  cfg.quantum_us = 5000;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("spin", compile(spin_src)).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::thread spinner([&] {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/spin",
                                     {}, &status);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(status, 200);
  });
  ::usleep(30000);  // let the spinner occupy the core

  uint64_t t0 = now_ns();
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                      {}, &status);
  double ping_ms = ns_to_ms(now_ns() - t0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(status, 200);
  // The spin function needs hundreds of ms; a preempted ping should finish
  // within a few quanta. Generous bound to avoid CI flakiness.
  EXPECT_LT(ping_ms, 100.0);

  spinner.join();
  EXPECT_GT(rt.totals().preemptions, 0u);
  rt.stop();
}

TEST(RuntimeTest, SleepingFunctionDoesNotHoldWorker) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("sleep", compile(kSleepSrc)).is_ok());
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::thread sleeper([&] {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/sleep",
                                     {}, &status);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(status, 200);
  });
  ::usleep(5000);  // sleeper should now be blocked on its timer

  uint64_t t0 = now_ns();
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                      {}, &status);
  double ping_ms = ns_to_ms(now_ns() - t0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(status, 200);
  EXPECT_LT(ping_ms, 25.0);  // well under the 30ms sleep
  sleeper.join();
  rt.stop();
}

// ---- Overload shedding (503) and keep-alive connection hand-back ----

// With max_pending=1 and a single worker occupied by a sleeping request, a
// second request must be shed with 503 instead of queuing; once the first
// completes, the runtime admits again.
TEST(RuntimeTest, OverloadShedsWith503AndRecovers) {
  const char* long_sleep_src = R"(
char out[1];
int main() { sleep_ms(150); out[0] = 122; resp_write(out, 1); return 0; }
)";
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.max_pending = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("sleep", compile(long_sleep_src)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  std::thread holder([&] {
    int status = 0;
    auto r = loadgen::single_request("127.0.0.1", rt.bound_port(), "/sleep",
                                     {}, &status);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(status, 200);
  });
  while (rt.inflight() == 0) ::usleep(200);  // holder admitted

  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/sleep",
                                      {}, &status);
  ASSERT_TRUE(resp.ok()) << resp.error_message();
  EXPECT_EQ(status, 503);
  holder.join();

  // Capacity is back: the next request is admitted and served.
  resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/sleep", {},
                                 &status);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(status, 200);

  rt.stop();
  EXPECT_EQ(rt.totals().shed, 1u);
  EXPECT_EQ(rt.totals().completed, 2u);
  EXPECT_NE(rt.stats_report().find("shed=1"), std::string::npos);
}

// Resource exhaustion at sandbox creation (fault-injected) also sheds with
// 503, and service resumes once the pressure clears.
TEST(RuntimeTest, SandboxCreateFailureSheds503) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  {
    testutil::ScopedSandboxAllocFault fault;
    int status = 0;
    auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                        {}, &status);
    ASSERT_TRUE(resp.ok()) << resp.error_message();
    EXPECT_EQ(status, 503);
  }
  int status = 0;
  auto resp = loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping",
                                      {}, &status);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(status, 200);
  rt.stop();
  EXPECT_EQ(rt.totals().shed, 1u);
}

namespace rawhttp {

// Blocking one-response read off a raw socket: enough parsing (status line +
// Content-Length) to verify pipelined keep-alive behavior byte-for-byte.
bool recv_response(int fd, int* status, std::string* body) {
  std::string buf;
  char chunk[4096];
  size_t header_end = std::string::npos;
  size_t content_len = 0;
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buf.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        if (::sscanf(buf.c_str(), "HTTP/1.1 %d", status) != 1) return false;
        size_t cl = buf.find("Content-Length:");
        if (cl == std::string::npos || cl > header_end) return false;
        content_len = std::strtoul(buf.c_str() + cl + 15, nullptr, 10);
      }
    }
    if (header_end != std::string::npos) {
      size_t body_start = header_end + 4;
      if (buf.size() >= body_start + content_len) {
        *body = buf.substr(body_start, content_len);
        return true;
      }
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace rawhttp

// One raw connection, many requests: sandbox responses (200) interleave
// with responses the front door answers itself (404), and every request on
// the shared socket gets exactly one in-order answer.
TEST(RuntimeTest, KeepAliveRoundTripMixesWorkerAndListenerResponses) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rt.bound_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const char* targets[] = {"/ping", "/ghost", "/ping", "/ghost", "/ping",
                           "/ping"};
  int expect[] = {200, 404, 200, 404, 200, 200};
  for (size_t i = 0; i < std::size(targets); ++i) {
    std::string req = http::serialize_request("POST", targets[i], {},
                                              /*keep_alive=*/true);
    ASSERT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(req.size()))
        << "request " << i;
    int status = 0;
    std::string body;
    ASSERT_TRUE(rawhttp::recv_response(fd, &status, &body)) << "request " << i;
    EXPECT_EQ(status, expect[i]) << "request " << i;
    if (expect[i] == 200) EXPECT_EQ(body, "p") << "request " << i;
  }
  ::close(fd);
  rt.stop();
  EXPECT_EQ(rt.totals().completed, 4u);
}

TEST(RuntimeTest, StatsReportMentionsModules) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);
  ASSERT_TRUE(rt.register_module("ping", compile(kPingSrc)).is_ok());
  ASSERT_TRUE(rt.start().is_ok());
  (void)loadgen::single_request("127.0.0.1", rt.bound_port(), "/ping", {});
  rt.stop();
  std::string report = rt.stats_report();
  EXPECT_NE(report.find("ping"), std::string::npos);
  EXPECT_NE(report.find("completed=1"), std::string::npos);
}

}  // namespace
}  // namespace sledge::runtime
