#include "loadgen/loadgen.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/clock.hpp"
#include "http/http.hpp"

namespace sledge::loadgen {

namespace {

int connect_to(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Minimal HTTP/1.1 response reader: status line + headers + Content-Length
// body. Returns false on connection error or malformed response.
bool read_response(int fd, int* status, std::vector<uint8_t>* body,
                   bool* keep_alive) {
  std::string head;
  std::vector<uint8_t> pending;
  char buf[65536];
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    head.append(buf, static_cast<size_t>(n));
    header_end = head.find("\r\n\r\n");
    if (head.size() > 64 * 1024 && header_end == std::string::npos) {
      return false;
    }
  }
  std::string headers = head.substr(0, header_end);
  pending.assign(head.begin() + static_cast<long>(header_end) + 4, head.end());

  // status line: HTTP/1.1 NNN reason
  if (headers.size() < 12 || headers.compare(0, 5, "HTTP/") != 0) return false;
  *status = std::atoi(headers.c_str() + 9);

  size_t content_length = 0;
  {
    std::string lower;
    lower.reserve(headers.size());
    for (char c : headers) {
      lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    size_t pos = lower.find("content-length:");
    if (pos != std::string::npos) {
      content_length =
          static_cast<size_t>(std::atoll(lower.c_str() + pos + 15));
    }
    *keep_alive = lower.find("connection: close") == std::string::npos;
  }

  body->clear();
  body->reserve(content_length);
  body->insert(body->end(), pending.begin(), pending.end());
  while (body->size() < content_length) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    body->insert(body->end(), buf, buf + n);
  }
  return body->size() == content_length;
}

}  // namespace

double schedule_rate_at(const ArrivalSchedule& schedule, double t_s) {
  double rate = schedule.base_rps;
  if (schedule.diurnal_amplitude > 0.0 && schedule.diurnal_period_s > 0.0) {
    rate *= 1.0 + schedule.diurnal_amplitude *
                      std::sin(2.0 * M_PI * t_s / schedule.diurnal_period_s);
  }
  if (schedule.burst_every_s > 0.0 && schedule.burst_len_s > 0.0 &&
      schedule.burst_multiplier > 1.0) {
    if (std::fmod(t_s, schedule.burst_every_s) < schedule.burst_len_s) {
      rate *= schedule.burst_multiplier;
    }
  }
  return rate < 0.1 ? 0.1 : rate;
}

std::vector<double> schedule_arrival_times(const ArrivalSchedule& schedule,
                                           uint64_t n) {
  std::vector<double> out;
  out.reserve(n);
  double t = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    // Inter-arrival gap from the rate at the *previous* arrival: the
    // discrete analogue of a time-varying Poisson mean, deterministic so
    // runs (and tests) are reproducible.
    t += 1.0 / schedule_rate_at(schedule, t);
    out.push_back(t);
  }
  return out;
}

Result<std::vector<uint8_t>> single_request(const std::string& host,
                                            uint16_t port,
                                            const std::string& path,
                                            const std::vector<uint8_t>& body,
                                            int* status_out) {
  int fd = connect_to(host, port);
  if (fd < 0) return Result<std::vector<uint8_t>>::error("connect failed");
  std::string req = http::serialize_request("POST", path, body, false);
  if (!send_all(fd, req.data(), req.size())) {
    ::close(fd);
    return Result<std::vector<uint8_t>>::error("send failed");
  }
  int status = 0;
  std::vector<uint8_t> resp;
  bool keep_alive = false;
  bool ok = read_response(fd, &status, &resp, &keep_alive);
  ::close(fd);
  if (!ok) return Result<std::vector<uint8_t>>::error("bad response");
  if (status_out) *status_out = status;
  return Result<std::vector<uint8_t>>(std::move(resp));
}

Result<std::string> http_get(const std::string& host, uint16_t port,
                             const std::string& path, int* status_out) {
  int fd = connect_to(host, port);
  if (fd < 0) return Result<std::string>::error("connect failed");
  std::string req = http::serialize_request("GET", path, {}, false);
  if (!send_all(fd, req.data(), req.size())) {
    ::close(fd);
    return Result<std::string>::error("send failed");
  }
  int status = 0;
  std::vector<uint8_t> resp;
  bool keep_alive = false;
  bool ok = read_response(fd, &status, &resp, &keep_alive);
  ::close(fd);
  if (!ok) return Result<std::string>::error("bad response");
  if (status_out) *status_out = status;
  if (status < 200 || status >= 300) {
    return Result<std::string>::error("status " + std::to_string(status));
  }
  return Result<std::string>(std::string(resp.begin(), resp.end()));
}

Result<Report> run_load(const Options& options) {
  if (options.concurrency < 1 || options.total_requests == 0) {
    return Result<Report>::error("bad loadgen options");
  }

  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> err_count{0};
  std::mutex merge_mu;
  LatencyHistogram merged;
  std::map<int, uint64_t> merged_statuses;

  std::string request_bytes = http::serialize_request(
      "POST", options.path, options.body, options.keep_alive);

  // Open-loop mode: precompute the deterministic arrival offsets; clients
  // sleep until each ticket's scheduled time and measure latency from it,
  // so a slow server shows up as latency instead of a lower offered rate.
  std::vector<double> arrivals;
  if (options.schedule.enabled) {
    arrivals = schedule_arrival_times(options.schedule,
                                      options.total_requests);
  }
  uint64_t t_start = 0;  // schedule epoch; set when the clock starts below
  uint64_t t_stop = UINT64_MAX;  // no new request at or after this time

  auto client = [&]() {
    LatencyHistogram local;
    std::map<int, uint64_t> local_statuses;
    int fd = -1;
    while (true) {
      uint64_t ticket = issued.fetch_add(1, std::memory_order_relaxed);
      if (ticket >= options.total_requests || now_ns() >= t_stop) break;

      uint64_t t0 = now_ns();
      if (!arrivals.empty()) {
        uint64_t due =
            t_start + static_cast<uint64_t>(arrivals[ticket] * 1e9);
        while (true) {
          uint64_t now = now_ns();
          if (now >= due) break;
          uint64_t gap = due - now;
          ::usleep(static_cast<useconds_t>(
              gap > 1'000'000 ? 1000 : gap / 1000 + 1));
        }
        t0 = due;
      }
      bool success = false;
      int observed = 0;  // 0 = no HTTP response at all
      for (int attempt = 0; attempt < 2 && !success; ++attempt) {
        if (fd < 0) {
          fd = connect_to(options.host, options.port);
          if (fd < 0) break;
        }
        int status = 0;
        std::vector<uint8_t> body;
        bool keep = false;
        if (send_all(fd, request_bytes.data(), request_bytes.size()) &&
            read_response(fd, &status, &body, &keep)) {
          observed = status;
          success = status == 200 &&
                    (options.expect_body.empty() ||
                     body == options.expect_body);
          if (!keep || !options.keep_alive) {
            ::close(fd);
            fd = -1;
          }
          break;  // got a response; don't retry
        }
        // Connection died (e.g. server rotated it): reconnect once.
        ::close(fd);
        fd = -1;
      }
      local_statuses[observed]++;
      if (success) {
        local.record(now_ns() - t0);
        ok_count.fetch_add(1, std::memory_order_relaxed);
      } else {
        err_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (fd >= 0) ::close(fd);
    std::lock_guard<std::mutex> lock(merge_mu);
    merged.merge(local);
    for (const auto& [status, n] : local_statuses) {
      merged_statuses[status] += n;
    }
  };

  Stopwatch sw;
  t_start = now_ns();
  if (options.max_duration_s > 0) {
    t_stop = t_start + static_cast<uint64_t>(options.max_duration_s * 1e9);
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.concurrency));
  for (int i = 0; i < options.concurrency; ++i) {
    threads.emplace_back(client);
  }
  for (std::thread& t : threads) t.join();

  Report report;
  report.duration_s = static_cast<double>(sw.elapsed_ns()) / 1e9;
  report.ok = ok_count.load();
  report.errors = err_count.load();
  report.latency = std::move(merged);
  report.status_counts = std::move(merged_statuses);
  report.throughput_rps =
      report.duration_s > 0 ? static_cast<double>(report.ok) / report.duration_s
                            : 0;
  if (!options.scrape_path.empty()) {
    auto stats = http_get(options.host, options.port, options.scrape_path);
    if (stats.ok()) report.server_stats = stats.take();
  }
  return Result<Report>(std::move(report));
}

}  // namespace sledge::loadgen
