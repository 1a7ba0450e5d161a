// Inter-function dataplane bench (the CWASI headline comparison): the same
// 2-stage chain measured three ways —
//
//   copy     — sb_invoke with the copy dataplane (per-invoke heap vectors
//              carry request and response)
//   shm      — sb_invoke with the zero-copy transfer-buffer dataplane and
//              locality-hinted child placement (the tentpole)
//   loopback — the "network-shaped" equivalent: the head function reaches
//              its peer over a loopback TCP socket (sb_connect/send/recv),
//              the way co-located functions talk when the runtime offers no
//              function-to-function fast path
//
// Each request makes SLEDGE_INVOKE_CALLS chained calls so the dataplane
// cost is amplified above HTTP/listener noise. A second experiment measures
// 3-stage chain shapes: nested stop-and-wait joins (chain_nested) vs the
// pipelined sb_invoke_stream hand-off (chain3), where latency should be
// bounded by the longest stage rather than the sum of joins.
//
// Emits BENCH_invoke.json. `--smoke` runs a scaled-down pass and exits
// nonzero unless the shm p50 beats the copy p50 for the 2-stage local
// chain (the acceptance gate wired into scripts/check.sh).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_server_util.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

// 2-stage head: `calls` sequential sb_invokes of /echo per request.
std::string chainloop_src(int calls) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
char name[4];
char req[65536];
char resp[65536];
int main() {
  int len = req_len();
  if (len > 65536) len = 65536;
  req_read(req, 0, len);
  name[0] = 101;
  name[1] = 99;
  name[2] = 104;
  name[3] = 111;
  int i = 0;
  int n = 0;
  while (i < %d) {
    n = sb_invoke(name, 4, req, len, resp, 65536);
    if (n < 0) { resp_i32(n); return n; }
    i = i + 1;
  }
  resp_write(resp, n);
  return n;
}
)",
                calls);
  return std::string(buf);
}

// Loopback-socket head: one connection, `calls` send/recv round trips of
// the same payload against the bench-side echo peer.
std::string fetchloop_src(int calls) {
  char buf[2048];
  std::snprintf(buf, sizeof(buf), R"(
char host[9];
char out[65536];
char in[65536];
int main() {
  int port = req_i32(0);
  int len = req_len() - 4;
  if (len < 1) len = 1;
  if (len > 65536) len = 65536;
  req_read(out, 4, len);
  host[0] = 49;
  host[1] = 50;
  host[2] = 55;
  host[3] = 46;
  host[4] = 48;
  host[5] = 46;
  host[6] = 48;
  host[7] = 46;
  host[8] = 49;
  int fd = sb_connect(host, 9, port);
  if (fd < 0) { resp_i32(fd); return fd; }
  int r = 0;
  int got = 0;
  int n = 0;
  int sent = 0;
  while (r < %d) {
    sent = sb_send(fd, out, len);
    if (sent < 0) { sb_close(fd); resp_i32(sent); return sent; }
    got = 0;
    while (got < len) {
      n = sb_recv(fd, in, 65536);
      if (n < 1) { sb_close(fd); resp_i32(n); return n; }
      got = got + n;
    }
    r = r + 1;
  }
  sb_close(fd);
  resp_write(in, got);
  return got;
}
)",
                calls);
  return std::string(buf);
}

// Bench-side echo peer: one thread per connection, echoing bytes until the
// client closes. Stands in for the co-located "second function" of the
// loopback leg.
class EchoPeer {
 public:
  EchoPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 64);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;  // listener closed: shut down
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns_.emplace_back([fd] {
          char buf[8192];
          for (;;) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0) break;
            ssize_t off = 0;
            while (off < n) {
              ssize_t w = ::send(fd, buf + off, n - off, MSG_NOSIGNAL);
              if (w <= 0) { off = n; break; }
              off += w;
            }
          }
          ::close(fd);
        });
      }
    });
  }
  ~EchoPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    for (std::thread& t : conns_) t.join();
  }
  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> conns_;
};

struct Leg {
  std::string name;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double throughput_rps = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
};

// Batched, interleaved measurement: on this class of host, machine-level
// drift (frequency scaling, background load, scheduler placement) between
// two back-to-back measurement phases is larger than the dataplane delta
// the bench exists to show. So the legs are measured round-robin in short
// batches — adjacent batches of different legs see the same drift — and
// each leg reports the median of its batch p50s, which discards the
// batches a hiccup poisoned.
struct BatchLeg {
  std::string name;
  uint16_t port = 0;
  std::string path;
  std::vector<uint8_t> body;
  std::vector<double> p50s{}, p99s{}, means{}, rpss{}, mins{};
  uint64_t ok = 0, errors = 0;
};

void run_batch(BatchLeg& leg, int conc, uint64_t batch_reqs) {
  loadgen::Report rep = drive(leg.port, leg.path, leg.body, conc, batch_reqs);
  leg.p50s.push_back(static_cast<double>(rep.latency.percentile_ns(0.5)) /
                     1e6);
  leg.p99s.push_back(rep.p99_ms());
  leg.mins.push_back(static_cast<double>(rep.latency.min_ns()) / 1e6);
  leg.means.push_back(rep.mean_ms());
  leg.rpss.push_back(rep.throughput_rps);
  leg.ok += rep.count(200);
  leg.errors += rep.errors + rep.count(500) + rep.count(503) + rep.count(504);
}

Leg finish(const BatchLeg& b) {
  Leg leg;
  leg.name = b.name;
  leg.p50_ms = median(b.p50s);
  leg.p99_ms = median(b.p99s);
  double msum = 0;
  for (double m : b.means) msum += m;
  leg.mean_ms = b.means.empty() ? 0 : msum / b.means.size();
  double rsum = 0;
  for (double r : b.rpss) rsum += r;
  leg.throughput_rps = b.rpss.empty() ? 0 : rsum / b.rpss.size();
  leg.ok = b.ok;
  leg.errors = b.errors;
  std::printf("%-22s | %8.3f %8.3f %8.3f | %7llu ok %4llu err\n",
              leg.name.c_str(), leg.p50_ms, leg.p99_ms, leg.mean_ms,
              static_cast<unsigned long long>(leg.ok),
              static_cast<unsigned long long>(leg.errors));
  return leg;
}

// One runtime per dataplane, identical but for `invoke_dataplane`: the
// copy leg runs on its own kCopy runtime, every other leg on the kShm one.
// An idle runtime's workers sleep in epoll, so the one not being driven
// costs the other nothing.
std::unique_ptr<runtime::Runtime> start_runtime(
    int calls, runtime::InvokeDataplane dataplane) {
  runtime::RuntimeConfig cfg;
  cfg.workers = 3;
  cfg.invoke_dataplane = dataplane;
  auto rt = std::make_unique<runtime::Runtime>(cfg);
  struct Mod {
    const char* name;
    std::string src;
  };
  auto echo = apps::load_app_source("echo");
  auto chain_nested = apps::load_app_source("chain_nested");
  auto chain = apps::load_app_source("chain");
  auto chain3 = apps::load_app_source("chain3");
  auto relay = apps::load_app_source("relay");
  if (!echo.ok() || !chain_nested.ok() || !chain.ok() || !chain3.ok() ||
      !relay.ok()) {
    std::fprintf(stderr, "app sources missing\n");
    return nullptr;
  }
  const Mod mods[] = {
      {"chainloop", chainloop_src(calls)},
      {"fetchloop", fetchloop_src(calls)},
      {"echo", echo.value()},
      {"chain", chain.value()},
      {"chain_nested", chain_nested.value()},
      {"chain3", chain3.value()},
      {"relay", relay.value()},
  };
  for (const Mod& m : mods) {
    auto wasm = minicc::compile_to_wasm(m.src);
    if (!wasm.ok()) {
      std::fprintf(stderr, "%s: %s\n", m.name, wasm.error_message().c_str());
      return nullptr;
    }
    if (!rt->register_module(m.name, wasm.value()).is_ok()) {
      return nullptr;
    }
  }
  if (!rt->start().is_ok()) return nullptr;
  return rt;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  print_header("Inter-function dataplane: copy vs shm vs loopback socket",
               "DESIGN.md §13 (CWASI comparison)");

  const uint64_t reqs =
      static_cast<uint64_t>(env_long("SLEDGE_BENCH_REQS", smoke ? 120 : 600));
  const int conc = static_cast<int>(env_long("SLEDGE_BENCH_CONC", 2));
  const int calls = static_cast<int>(env_long("SLEDGE_INVOKE_CALLS", 16));
  // Big enough that the per-invoke payload copies the copy dataplane pays
  // are visible above fixed per-invoke costs (child spawn, dispatch, join).
  const size_t payload_len =
      static_cast<size_t>(env_long("SLEDGE_BENCH_PAYLOAD", 60'000));

  std::vector<uint8_t> payload(payload_len);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>('a' + i % 26);
  }

  std::printf("%llu reqs x %d chained calls, %zu B payload, conc %d\n\n",
              static_cast<unsigned long long>(reqs), calls, payload_len,
              conc);
  std::printf("%-22s | %8s %8s %8s |\n", "leg", "p50 ms", "p99 ms", "mean");

  auto rt = start_runtime(calls, runtime::InvokeDataplane::kShm);
  auto rt_copy = start_runtime(calls, runtime::InvokeDataplane::kCopy);
  if (!rt || !rt_copy) return 1;
  EchoPeer peer;

  std::vector<uint8_t> loop_body;
  {
    int32_t port = peer.port();
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&port);
    loop_body.insert(loop_body.end(), p, p + 4);
    loop_body.insert(loop_body.end(), payload.begin(), payload.end());
  }
  // 3-stage chain shapes run a single chain per request; the .mc chain
  // stages cap payloads at 4 KiB.
  std::vector<uint8_t> payload3(
      payload.begin(),
      payload.begin() + (payload.size() < 3000 ? payload.size() : 3000));

  BatchLeg batch_legs[] = {
      {"2stage_copy", rt_copy->bound_port(), "/chainloop", payload},
      {"2stage_shm", rt->bound_port(), "/chainloop", payload},
      {"2stage_loopback", rt->bound_port(), "/fetchloop", loop_body},
      {"3stage_nested_join", rt->bound_port(), "/chain_nested", payload3},
      {"3stage_stream", rt->bound_port(), "/chain3", payload3},
  };
  BatchLeg& leg_copy = batch_legs[0];
  BatchLeg& leg_shm = batch_legs[1];
  constexpr int kBatches = 7;
  const uint64_t batch_reqs = reqs / kBatches > 0 ? reqs / kBatches : 1;
  for (BatchLeg& leg : batch_legs) {  // warm pools, tiers, predictor
    drive(leg.port, leg.path, leg.body, 2, batch_reqs / 2 + 8);
  }

  // Phase 1 — the copy/shm comparison the smoke gate rides on. The two
  // legs run as adjacent paired rounds (order alternating per round) and
  // the verdict is the median of the per-round p50 deltas: pairing
  // subtracts out whatever the host was doing that round, which run-level
  // or batch-level medians cannot. The p50 (not the min) is the right
  // metric here: at the noise floor the two dataplanes cost the same four
  // payload copies, and what the pooled carriers buy is freedom from
  // allocator jitter — visible from the median up.
  constexpr int kPairRounds = 17;
  const uint64_t pair_reqs = reqs / 20 > 48 ? reqs / 20 : 48;
  std::vector<double> pair_delta_ms;
  for (int r = 0; r < kPairRounds; ++r) {
    BatchLeg& first = (r % 2 == 0) ? leg_copy : leg_shm;
    BatchLeg& second = (r % 2 == 0) ? leg_shm : leg_copy;
    run_batch(first, conc, pair_reqs);
    run_batch(second, conc, pair_reqs);
    pair_delta_ms.push_back(leg_copy.p50s.back() - leg_shm.p50s.back());
  }
  const double gate_delta_ms = median(pair_delta_ms);

  // Phase 2 — the remaining legs, round-robin so drift is shared.
  for (int b = 0; b < kBatches; ++b) {
    for (size_t i = 2; i < 5; ++i) run_batch(batch_legs[i], conc, batch_reqs);
  }

  std::vector<Leg> legs;
  for (const BatchLeg& leg : batch_legs) legs.push_back(finish(leg));
  uint64_t zerocopy_invokes = rt->totals().invokes;
  const auto pool_counters =
      runtime::SandboxResourcePool::instance().counters();
  rt->stop();
  rt_copy->stop();

  const Leg& copy = legs[0];
  const Leg& shm = legs[1];
  const Leg& loop = legs[2];
  const Leg& nested = legs[3];
  const Leg& stream = legs[4];

  const char* out_path = std::getenv("SLEDGE_BENCH_OUT");
  if (!out_path || !out_path[0]) out_path = "BENCH_invoke.json";
  FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"invoke\",\n"
               "  \"rev\": \"%s\",\n  \"host_cores\": %u,\n"
               "  \"mode\": \"%s\",\n"
               "  \"workload\": {\"reqs\": %llu, \"conc\": %d, "
               "\"chained_calls\": %d, \"payload_bytes\": %zu, "
               "\"workers\": 3, \"batches\": %d, "
               "\"invokes_shm_run\": %llu},\n"
               "  \"legs\": [\n",
               git_rev().c_str(), std::thread::hardware_concurrency(),
               smoke ? "smoke" : "full",
               static_cast<unsigned long long>(reqs), conc, calls,
               payload_len, kBatches,
               static_cast<unsigned long long>(zerocopy_invokes));
  for (size_t i = 0; i < legs.size(); ++i) {
    const Leg& l = legs[i];
    std::fprintf(f,
                 "    {\"leg\": \"%s\", \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"mean_ms\": %.4f, \"throughput_rps\": %.1f, "
                 "\"ok\": %llu, \"errors\": %llu}%s\n",
                 l.name.c_str(), l.p50_ms, l.p99_ms, l.mean_ms,
                 l.throughput_rps, static_cast<unsigned long long>(l.ok),
                 static_cast<unsigned long long>(l.errors),
                 i + 1 < legs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"headline\": {\"shm_vs_copy_p50\": %.3f, "
               "\"shm_vs_loopback_p50\": %.3f, "
               "\"stream_vs_nested_p50\": %.3f, "
               "\"copy_minus_shm_paired_p50_ms\": %.4f}\n}\n",
               copy.p50_ms > 0 ? shm.p50_ms / copy.p50_ms : 0,
               loop.p50_ms > 0 ? shm.p50_ms / loop.p50_ms : 0,
               nested.p50_ms > 0 ? stream.p50_ms / nested.p50_ms : 0,
               gate_delta_ms);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  std::printf("transfer pool: %llu hits, %llu misses, %llu outstanding\n",
              static_cast<unsigned long long>(pool_counters.transfer_hits),
              static_cast<unsigned long long>(pool_counters.transfer_misses),
              static_cast<unsigned long long>(
                  pool_counters.transfer_outstanding));

  std::printf(
      "2-stage p50: shm %.3f ms vs copy %.3f ms vs loopback %.3f ms; "
      "paired copy-shm delta %.4f ms (%s)\n",
      shm.p50_ms, copy.p50_ms, loop.p50_ms, gate_delta_ms,
      gate_delta_ms > 0 && shm.p50_ms < loop.p50_ms
          ? "zero-copy wins"
          : "UNEXPECTED: zero-copy did not win");
  std::printf("3-stage p50: stream %.3f ms vs nested joins %.3f ms (%s)\n",
              stream.p50_ms, nested.p50_ms,
              stream.p50_ms < nested.p50_ms
                  ? "pipelined hand-off wins"
                  : "UNEXPECTED: stream did not win");

  if (shm.errors != 0 || copy.errors != 0) {
    std::fprintf(stderr, "FAIL: errors in measured legs\n");
    return 2;
  }
  if (smoke && !(gate_delta_ms > 0)) {
    std::fprintf(stderr,
                 "FAIL: shm did not beat copy on the paired 2-stage chain "
                 "(median copy-shm p50 delta %.4f ms; shm %.3f ms, copy "
                 "%.3f ms)\n",
                 gate_delta_ms, shm.p50_ms, copy.p50_ms);
    return 2;
  }
  return 0;
}
