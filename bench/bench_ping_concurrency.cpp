// Figure 6: throughput and average/p99 latency of a ping function with
// varying client concurrency — Sledge vs the procfaas (Nuclio-model)
// baseline — plus the front-door saturation bench (BENCH_listener.json):
// an epoll client holding thousands of concurrent keep-alive connections
// against the workers' shared ready set.
//
// Request count per point: SLEDGE_BENCH_REQS (default 1000; the paper used
// 10k). Saturation knobs: SLEDGE_BENCH_SAT_CONNS (default 10000, clamped to
// the fd budget — client and server share one process fd table, so each
// connection costs two fds), SLEDGE_BENCH_SAT_MS (measure window, default
// 5000), SLEDGE_BENCH_SAT_PENDING (admission cap, default 1024). `--smoke`
// runs a seconds-long miniature of both sections for CI. The JSON records
// the source rev, host_cores and full/smoke mode next to the numbers.
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_server_util.hpp"

using namespace sledge;
using namespace sledge::bench;

namespace {

// ---- Saturation client: N keep-alive connections, request depth 1 ----

struct SatConn {
  int fd = -1;
  size_t sent = 0;       // bytes of the request written so far
  std::string inbuf;     // response bytes accumulated
  uint64_t sent_at = 0;  // for latency, stamped when the request completes
  bool connected = false;
};

struct SatResult {
  int conns = 0;
  uint64_t responses = 0;  // HTTP 200 within the measured window
  uint64_t shed = 0;       // non-200 (admission 503s under saturation)
  uint64_t errors = 0;
  double window_s = 0;
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

const char kSatRequest[] = "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n";

// One complete HTTP/1.1 response (header + Content-Length body) parsed off
// the front of `buf`? Trim it, store its status, and return true.
bool consume_response(std::string* buf, int* status) {
  size_t header_end = buf->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  size_t cl = buf->find("Content-Length:");
  if (cl == std::string::npos || cl > header_end) return false;
  size_t content_len = std::strtoul(buf->c_str() + cl + 15, nullptr, 10);
  size_t total = header_end + 4 + content_len;
  if (buf->size() < total) return false;
  *status = 0;
  std::sscanf(buf->c_str(), "HTTP/1.1 %d", status);
  buf->erase(0, total);
  return true;
}

// Caps the connection count to what the shared fd table can hold: client
// end + server end both live in this process, plus headroom for the
// runtime's own fds (epoll sets, eventfds, modules, the reserve fd).
int clamp_conns(int want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return want;
  long budget = (static_cast<long>(rl.rlim_cur) - 400) / 2;
  if (budget < 1) budget = 1;
  return want < budget ? want : static_cast<int>(budget);
}

SatResult saturate(uint16_t port, int conns, int window_ms) {
  SatResult res;
  res.conns = conns;

  int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    std::perror("epoll_create1");
    return res;
  }
  std::vector<SatConn> cs(static_cast<size_t>(conns));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (size_t i = 0; i < cs.size(); ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      res.errors++;
      continue;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      res.errors++;
      continue;
    }
    cs[i].fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  }

  // Warm-up until every surviving connection has served one response (bounds
  // the connect/accept ramp out of the measured window), then measure.
  LatencyHistogram lat;
  uint64_t warm_left = 0;
  for (const SatConn& c : cs) warm_left += c.fd >= 0;
  bool measuring = false;
  uint64_t window_end = 0;
  uint64_t warm_deadline = now_ns() + 30ull * 1'000'000'000;
  std::vector<epoll_event> events(1024);

  while (true) {
    uint64_t now = now_ns();
    if (measuring && now >= window_end) break;
    if (!measuring && (warm_left == 0 || now >= warm_deadline)) {
      measuring = true;
      window_end = now + static_cast<uint64_t>(window_ms) * 1'000'000;
      res.responses = 0;  // ramp responses don't count
      res.shed = 0;
    }
    int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()),
                         50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    uint64_t stamp = now_ns();
    for (int e = 0; e < n; ++e) {
      SatConn& c = cs[events[e].data.u64];
      if (c.fd < 0) continue;
      uint32_t ev = events[e].events;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        ::close(c.fd);
        c.fd = -1;
        res.errors++;
        warm_left -= !c.connected;
        continue;
      }
      if (ev & EPOLLOUT) {
        while (c.sent < sizeof(kSatRequest) - 1) {
          ssize_t w = ::send(c.fd, kSatRequest + c.sent,
                             sizeof(kSatRequest) - 1 - c.sent, MSG_NOSIGNAL);
          if (w > 0) {
            c.sent += static_cast<size_t>(w);
            continue;
          }
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          ::close(c.fd);
          c.fd = -1;
          res.errors++;
          warm_left -= !c.connected;
          break;
        }
        if (c.fd < 0) continue;
        if (c.sent == sizeof(kSatRequest) - 1 && c.sent_at == 0) {
          c.sent_at = stamp;
          // Request fully out: only readability matters until the reply.
          epoll_event mod{};
          mod.events = EPOLLIN;
          mod.data.u64 = events[e].data.u64;
          ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &mod);
        }
      }
      if (ev & EPOLLIN) {
        char buf[4096];
        for (;;) {
          ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
          if (r > 0) {
            c.inbuf.append(buf, static_cast<size_t>(r));
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          ::close(c.fd);
          c.fd = -1;
          res.errors++;
          warm_left -= !c.connected;
          break;
        }
        if (c.fd < 0) continue;
        int status = 0;
        if (consume_response(&c.inbuf, &status)) {
          if (measuring) {
            if (status == 200) {
              res.responses++;
              lat.record(stamp - c.sent_at);
            } else {
              res.shed++;
            }
          }
          if (!c.connected) {
            c.connected = true;
            warm_left--;
          }
          // Issue the next keep-alive request on this connection.
          c.sent = 0;
          c.sent_at = 0;
          epoll_event mod{};
          mod.events = EPOLLIN | EPOLLOUT;
          mod.data.u64 = events[e].data.u64;
          ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &mod);
        }
      }
    }
  }

  for (SatConn& c : cs) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(ep);
  res.window_s = window_ms / 1e3;
  res.throughput_rps = res.responses / res.window_s;
  res.p50_ms = static_cast<double>(lat.percentile_ns(0.5)) / 1e6;
  res.p99_ms = lat.p99_ms();
  return res;
}

std::unique_ptr<runtime::Runtime> start_front_door(int max_pending) {
  runtime::RuntimeConfig cfg;
  cfg.workers = 3;
  // Saturation guard: at 10k depth-1 connections the admitted-sandbox plane
  // must stay bounded (each in-flight sandbox pins two VM guard regions —
  // linear memory + stack — against a 4096-slot registry), so any overflow
  // is shed with fast 503s on the front door's own writer path.
  cfg.max_pending = max_pending;
  auto wasm = apps::app_wasm("ping");
  if (!wasm.ok()) {
    std::fprintf(stderr, "app ping: %s\n", wasm.error_message().c_str());
    return nullptr;
  }
  auto rt = std::make_unique<runtime::Runtime>(cfg);
  if (!rt->register_module("ping", wasm.value()).is_ok()) return nullptr;
  if (!rt->start().is_ok()) return nullptr;
  return rt;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  // ---- Section 1: Figure 6, Sledge vs procfaas across concurrency ----
  print_header("Ping throughput/latency vs concurrency (Sledge vs procfaas)",
               "Figure 6");

  const uint64_t reqs = static_cast<uint64_t>(
      env_long("SLEDGE_BENCH_REQS", smoke ? 100 : 1000));
  auto sledge_rt = start_sledge({"ping"});
  auto baseline = start_procfaas({"ping"});
  if (!sledge_rt || !baseline) return 1;

  std::printf("%-6s | %12s %10s %10s | %12s %10s %10s | %7s\n", "conc",
              "sledge r/s", "avg ms", "p99 ms", "procfs r/s", "avg ms",
              "p99 ms", "ratio");

  std::vector<int> concs = smoke ? std::vector<int>{1, 10}
                                 : std::vector<int>{1, 5, 10, 20, 40, 60, 80,
                                                    100};
  for (int conc : concs) {
    auto s = drive(sledge_rt->bound_port(), "/ping", {}, conc, reqs);
    auto n = drive(baseline->bound_port(), "/ping", {}, conc, reqs);
    double ratio = n.throughput_rps > 0 ? s.throughput_rps / n.throughput_rps
                                        : 0;
    std::printf("%-6d | %12.0f %10.3f %10.3f | %12.0f %10.3f %10.3f | %6.2fx\n",
                conc, s.throughput_rps, s.mean_ms(), s.p99_ms(),
                n.throughput_rps, n.mean_ms(), n.p99_ms(), ratio);
    if (s.errors || n.errors) {
      std::printf("       (errors: sledge=%llu procfaas=%llu)\n",
                  static_cast<unsigned long long>(s.errors),
                  static_cast<unsigned long long>(n.errors));
    }
  }
  sledge_rt->stop();
  sledge_rt.reset();
  baseline->stop();
  baseline.reset();

  std::printf("\nPaper (Fig. 6): Sledge ~3x the throughput of Nuclio and "
              "markedly lower avg/p99 latency across all concurrency "
              "levels.\n");

  // ---- Section 2: front-door saturation (BENCH_listener.json) ----
  print_header("Front-door saturation: thousands of keep-alive connections",
               "front-door saturation");

  const int host_cores = static_cast<int>(std::thread::hardware_concurrency());
  int want_conns = static_cast<int>(
      env_long("SLEDGE_BENCH_SAT_CONNS", smoke ? 64 : 10000));
  const int sat_conns = clamp_conns(want_conns);
  const int window_ms = static_cast<int>(
      env_long("SLEDGE_BENCH_SAT_MS", smoke ? 500 : 5000));
  const int max_pending =
      static_cast<int>(env_long("SLEDGE_BENCH_SAT_PENDING", 1024));
  if (sat_conns < want_conns) {
    std::printf("(fd budget clamps connections: %d -> %d; client+server "
                "share one fd table)\n",
                want_conns, sat_conns);
  }

  auto rt = start_front_door(max_pending);
  if (!rt) return 1;
  const SatResult r = saturate(rt->bound_port(), sat_conns, window_ms);
  rt->stop();
  std::printf("%6s | %12s %10s %10s | %9s %9s %7s\n", "conns", "ok r/s",
              "p50 ms", "p99 ms", "ok", "shed", "errors");
  std::printf("%6d | %12.0f %10.3f %10.3f | %9llu %9llu %7llu\n", r.conns,
              r.throughput_rps, r.p50_ms, r.p99_ms,
              static_cast<unsigned long long>(r.responses),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.errors));

  const char* out_path = std::getenv("SLEDGE_BENCH_OUT");
  if (!out_path || !out_path[0]) out_path = "BENCH_listener.json";
  FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"listener\",\n"
               "  \"rev\": \"%s\",\n  \"host_cores\": %d,\n"
               "  \"mode\": \"%s\",\n"
               "  \"workload\": {\"conns\": %d, \"window_ms\": %d, "
               "\"workers\": 3, \"max_pending\": %d},\n"
               "  \"front_door\": {\"throughput_rps\": %.1f, "
               "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"ok\": %llu, "
               "\"shed\": %llu, \"errors\": %llu}\n}\n",
               git_rev().c_str(), host_cores, smoke ? "smoke" : "full",
               sat_conns, window_ms, max_pending, r.throughput_rps, r.p50_ms,
               r.p99_ms, static_cast<unsigned long long>(r.responses),
               static_cast<unsigned long long>(r.shed),
               static_cast<unsigned long long>(r.errors));
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // Smoke mode gates CI: the front door must serve and must not leak
  // connection errors.
  if (smoke && (r.responses == 0 || r.errors != 0)) {
    std::fprintf(stderr, "smoke: %llu responses, %llu errors\n",
                 static_cast<unsigned long long>(r.responses),
                 static_cast<unsigned long long>(r.errors));
    return 1;
  }
  return 0;
}
