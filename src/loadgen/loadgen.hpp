// Closed-loop HTTP load generator (Apache Bench stand-in): N concurrent
// connections, each issuing requests back-to-back until the total request
// budget is exhausted; reports throughput and the average/p99 latencies the
// paper's figures plot.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/status.hpp"

namespace sledge::loadgen {

// Open-loop arrival process: a base rate modulated by a sinusoidal diurnal
// cycle and periodic burst spikes (edge traffic shapes). Fully
// deterministic — arrival times follow t += 1/rate(t) — so tests can
// assert the schedule math exactly.
struct ArrivalSchedule {
  bool enabled = false;  // false = closed-loop back-to-back clients
  double base_rps = 100.0;
  // rate(t) *= 1 + amplitude * sin(2*pi*t / period): 0 disables.
  double diurnal_amplitude = 0.0;  // fraction of base, [0, 1)
  double diurnal_period_s = 60.0;
  // Every burst_every_s seconds the rate is multiplied by burst_multiplier
  // for burst_len_s seconds (burst_every_s = 0 disables).
  double burst_multiplier = 1.0;
  double burst_every_s = 0.0;
  double burst_len_s = 0.0;
};

// Instantaneous target arrival rate at time t (seconds since load start),
// floored at 0.1 rps so a deep diurnal trough cannot stall the schedule.
double schedule_rate_at(const ArrivalSchedule& schedule, double t_s);

// The first n arrival offsets (seconds since load start) of the schedule.
std::vector<double> schedule_arrival_times(const ArrivalSchedule& schedule,
                                           uint64_t n);

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string path = "/ping";
  std::vector<uint8_t> body;
  int concurrency = 10;
  uint64_t total_requests = 1000;
  // > 0: no request is issued after this many seconds (a fixed-window run;
  // total_requests stays the cap).
  double max_duration_s = 0;
  bool keep_alive = true;
  // Treat a 200 with this exact body as success when non-empty.
  std::vector<uint8_t> expect_body;
  // When non-empty (e.g. "/admin/stats"), GET this path once the load
  // phase finishes and store the body in Report::server_stats, so benches
  // can print server-side phase breakdowns next to client-side latency.
  std::string scrape_path;
  // When schedule.enabled, clients pace requests open-loop to the schedule
  // instead of issuing back-to-back; latency is measured from each
  // request's *scheduled* arrival (counts client-side lag — no
  // coordinated omission).
  ArrivalSchedule schedule;
};

struct Report {
  uint64_t ok = 0;
  uint64_t errors = 0;
  double duration_s = 0;
  double throughput_rps = 0;
  LatencyHistogram latency;
  // Responses observed per HTTP status code (0 = no response at all:
  // connect/send/read failure). Lets tests reconcile client-observed
  // 503/504 counts against the server's shed/kill counters.
  std::map<int, uint64_t> status_counts;
  // Body of Options::scrape_path (server-side stats JSON), if requested.
  std::string server_stats;

  double mean_ms() const { return latency.mean_ms(); }
  double p99_ms() const { return latency.p99_ms(); }
  uint64_t count(int status) const {
    auto it = status_counts.find(status);
    return it == status_counts.end() ? 0 : it->second;
  }
};

Result<Report> run_load(const Options& options);

// One blocking GET over a fresh connection (admin/stats scraping); returns
// the response body on any 2xx status.
Result<std::string> http_get(const std::string& host, uint16_t port,
                             const std::string& path,
                             int* status_out = nullptr);

// One blocking request/response over a fresh connection; for tests.
Result<std::vector<uint8_t>> single_request(const std::string& host,
                                            uint16_t port,
                                            const std::string& path,
                                            const std::vector<uint8_t>& body,
                                            int* status_out = nullptr);

}  // namespace sledge::loadgen
