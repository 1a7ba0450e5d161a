// The benchmark's load generator: ONE client thread driving a few
// keep-alive loopback connections through one epoll set.
//
//   closed loop — each connection keeps exactly one request outstanding and
//                 sends the next as soon as the reply is parsed.
//   open loop   — requests fall due on a fixed-rate schedule and are sent
//                 when due on the least-loaded connection, pipelined behind
//                 any replies still outstanding there (HTTP/1.1 keeps
//                 replies in order per connection). Latency is timed from
//                 the due time; lateness is how far behind schedule the
//                 generator began the write.
//
// The server sees only the serialized HTTP requests the caller supplies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.hpp"

namespace e2e {

// A ready-to-send HTTP request. `kind` and `entry` are opaque to the client
// and handed back to the checker (workload function / input-pool index).
struct WireRequest {
  std::string bytes;
  uint32_t kind = 0;
  uint32_t entry = 0;
};

// True when (status, body) is the correct reply to `req`.
using Checker = std::function<bool(const WireRequest& req, int status,
                                   const uint8_t* body, size_t len)>;
// Picks the next request to send (the caller's seeded stream).
using NextRequest = std::function<const WireRequest&()>;

struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;           // 200 with the expected body
  uint64_t bad_status = 0;   // any non-200 reply
  uint64_t no_response = 0;  // connection lost or reply never came
  uint64_t wrong_body = 0;   // 200 whose body failed the check
  std::map<int, uint64_t> status_counts;  // 0 = no response
  std::map<uint32_t, uint64_t> http200_by_kind;  // 200s, right body or not

  uint64_t failed() const { return bad_status + no_response + wrong_body; }
};

// One request's client-side span (traced served phases only).
struct ClientSpan {
  uint64_t id = 0;
  uint32_t kind = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int status = 0;
};

struct ClosedResult {
  Tally tally;
  std::vector<double> latency_ms;  // RTT of each correct reply
  double duration_s = 0;           // first send -> last reply of the phase
};

struct OpenResult {
  Tally tally;
  std::vector<OpenRecord> records;  // one per attempted request, in due order
  bool aborted = false;             // backlog cap hit; later sends skipped
};

class LoopbackClient {
 public:
  // Opens `conns` keep-alive connections to 127.0.0.1:port. nullptr + *err
  // on failure.
  static std::unique_ptr<LoopbackClient> connect(uint16_t port, int conns,
                                                 std::string* err);
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  // Closed loop for `duration_ns` (or until `max_requests` were sent, when
  // nonzero), then drains outstanding replies.
  ClosedResult closed_loop(uint64_t duration_ns, const NextRequest& next,
                           const Checker& check,
                           std::vector<ClientSpan>* spans = nullptr,
                           uint64_t max_requests = 0);

  // Open loop at `rate_rps` for `duration_ns` of schedule. Stops sending
  // (aborted) once `max_outstanding` replies are pending.
  OpenResult open_loop(double rate_rps, uint64_t duration_ns,
                       const NextRequest& next, const Checker& check,
                       size_t max_outstanding);

  // Sends one request on the first connection and waits for its reply.
  bool request_once(const WireRequest& req, uint64_t timeout_ns, int* status,
                    std::vector<uint8_t>* body);

  // Closes / (re)opens connection i (between phases only).
  void close_conn(size_t i);
  bool open_conn(size_t i, std::string* err);
  size_t connections() const { return conns_.size(); }

  // Upper bound on how long a phase waits for its outstanding replies.
  static constexpr uint64_t kDrainTimeoutNs = 10'000'000'000ull;

 private:
  struct Inflight {
    const WireRequest* req = nullptr;
    uint64_t start_ns = 0;  // closed loop: send start; open loop: due time
    size_t open_index = SIZE_MAX;
    uint64_t id = 0;
  };
  struct Conn {
    int fd = -1;
    std::string out;  // bytes not yet accepted by the kernel
    size_t out_off = 0;
    bool want_out = false;
    std::deque<Inflight> inflight;
    std::vector<uint8_t> in;
    size_t in_off = 0;
  };
  // A parsed reply, handed to the phase's completion hook.
  struct Reply {
    Inflight req;
    int status = 0;  // 0 = no response
    const uint8_t* body = nullptr;
    size_t len = 0;
    uint64_t done_ns = 0;
  };
  using OnReply = std::function<void(size_t conn, const Reply& reply)>;

  LoopbackClient() = default;
  // Queues the request on connection i and writes what the kernel takes.
  void issue(size_t i, const Inflight& f);
  void flush(size_t i);
  void set_want_out(size_t i, bool on);
  // Reads and parses replies; connection loss fails everything in flight
  // and reconnects.
  void on_readable(size_t i, const OnReply& on_reply);
  void fail_conn(size_t i, const OnReply& on_reply);
  // One epoll round: waits up to timeout_ms (0 = poll) and services events.
  void poll_once(int timeout_ms, const OnReply& on_reply);
  size_t outstanding() const;
  size_t least_loaded();
  void drain(uint64_t deadline_ns, const OnReply& on_reply);
  static void score(const Checker& check, const Reply& r, Tally* t, bool* ok);

  uint16_t port_ = 0;
  int epfd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<uint8_t> scratch_ = std::vector<uint8_t>(65536);  // recv buffer
  size_t rr_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace e2e
