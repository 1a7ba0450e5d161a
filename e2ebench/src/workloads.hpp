// The benchmark's three workloads. Each is a seeded pool of inputs over a
// fixed set of functions plus a seeded request stream that draws from it;
// the server only ever sees the serialized HTTP requests.
//
//   light — GPS-EKF and ping: guest exec is a small share of the RTT, so the
//           front door, admission, dispatch, sandbox create and green-thread
//           switches dominate.
//   heavy — GOCR, CIFAR-10, RESIZE, LPD with 3-77 KB bodies: engine/AoT code
//           dominates; large request and response bodies.
//   chain — chain3 (3-stage sb_invoke_stream) and chain_nested (3 nested
//           sb_invoke joins) with 256 B-4 KB payloads: the invoke dataplane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace e2e {

enum class CheckKind : uint8_t {
  kExact,  // body == native twin output
  kF64,    // body == native twin output as f64s within kF64Tolerance
  kEcho,   // body == request payload (chains end in echo)
  kPing,   // body == "p"
};

// Native-vs-Wasm tolerance for f64 outputs (the apps twin test's bound),
// relative for magnitudes above 1.
constexpr double kF64Tolerance = 1e-9;

struct Function {
  std::string module;  // request path and module name
  int sandboxes = 1;   // sandboxes one client request creates
  CheckKind check = CheckKind::kExact;
  double weight = 1.0;
  // Module the single-thread replay runs for this function (chain heads
  // need the server's invoke broker, so their replay runs the leaf stage).
  std::string replay_module;
};

struct Entry {
  uint32_t fn = 0;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> expected;  // filled by compute_expected()
  WireRequest wire;
};

struct Workload {
  std::string name;
  std::vector<std::string> modules;  // every module registered with the runtime
  std::vector<Function> fns;
  std::vector<Entry> pool;
  std::vector<std::vector<uint32_t>> pool_by_fn;
  // Open-loop plan: the fixed mid rate, the fixed max-rate ladder
  // (geometric_ladder), and the due-time p99 limit a rung must meet.
  double mid_rate_rps = 0;
  std::vector<double> ladder_rps;
  double latency_limit_ms = 0;
  // Closed-loop requests that warm the server up before anything is timed.
  size_t warmup_requests = 0;
  // Requests the traced run replays on one thread, layer by layer.
  size_t replay_requests = 0;
};

// Builds the workload's seeded input pool (payloads and wire requests).
sledge::Result<Workload> make_workload(const std::string& name, uint64_t seed);

// Fills Entry::expected: native twin output (fn_<app>) for app inputs, the
// payload for chains, "p" for ping.
sledge::Status compute_expected(Workload* w);

// The body check for one reply.
bool check_reply(const Workload& w, const WireRequest& req, int status,
                 const uint8_t* body, size_t len);

// Seeded draw over the pool: function by weight, then input uniformly.
class RequestStream {
 public:
  RequestStream(const Workload& w, uint64_t seed);
  const Entry& next_entry();
  const WireRequest& next() { return next_entry().wire; }

 private:
  const Workload& w_;
  sledge::Rng rng_;
  double total_weight_ = 0;
};

}  // namespace e2e
