// The benchmark's own arithmetic, kept free of sockets and threads so the
// self-tests can pin it: the percentile rule, the open-loop due-time
// accounting, the max-rate ladder rule and the unattributed-time residual.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

// ---- Percentile rule ----
//
// A timing is reported as its median plus the highest percentile of the
// fixed list {99.99, 99.9, 99, 90} that still has at least ten samples
// beyond it, together with the sample count. Quantiles are nearest-rank
// order statistics (the runtime's LatencyHistogram convention).
constexpr size_t kMinBeyond = 10;

// Highest supported tail quantile for `n` samples, or 0 when even p90 has
// fewer than kMinBeyond samples beyond it.
double supported_tail_quantile(size_t n);

// Nearest-rank quantile of an ascending-sorted vector (0 when empty).
double quantile_sorted(const std::vector<double>& sorted, double q);

struct Summary {
  size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;     // nearest-rank p99 (whether or not n supports it)
  double tail_q = 0;  // supported_tail_quantile(n)
  double tail = 0;    // value at tail_q (0 when tail_q == 0)
};

Summary summarize(std::vector<double> samples);

// True when the sample count supports reporting p99 (>= 10 samples beyond).
inline bool supports_p99(size_t n) {
  return supported_tail_quantile(n) >= 0.99;
}

// "p99.9" / "p99" / "p90" label for a quantile from the fixed list.
std::string quantile_label(double q);

// ---- Open-loop due-time accounting ----
//
// Each open-loop request has a due time on the fixed-rate schedule. Its
// latency runs from the due time (not from when it was actually written),
// so a stall that delays later sends is charged to those requests; its
// lateness is how far behind schedule the generator began writing it.
struct OpenRecord {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;  // generator began writing the request
  uint64_t done_ns = 0;  // last response byte parsed (0 = no response)
  bool ok = false;       // 200 with the expected body
};

inline double due_latency_ms(const OpenRecord& r) {
  return r.done_ns > r.due_ns ? static_cast<double>(r.done_ns - r.due_ns) / 1e6
                              : 0.0;
}
inline double lateness_ms(const OpenRecord& r) {
  return r.sent_ns > r.due_ns ? static_cast<double>(r.sent_ns - r.due_ns) / 1e6
                              : 0.0;
}

// Due time of request i on a fixed-rate schedule starting at t0.
inline uint64_t due_time_ns(uint64_t t0_ns, double rate_rps, uint64_t i) {
  return t0_ns + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / rate_rps);
}

struct OpenSummary {
  Summary latency_ms;    // due-time latency of requests that succeeded
  double late_p99_ms = 0;
  // Lateness p99 over the first and the second half of the schedule: a
  // generator that cannot keep up falls further behind in the second half.
  double late_p99_first_ms = 0;
  double late_p99_second_ms = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // no response, non-200 or wrong body
  double achieved_rps = 0;  // successes / (last done - first due)
};

OpenSummary summarize_open(const std::vector<OpenRecord>& records);

// ---- Max-rate ladder rule ----
//
// Each workload fixes a ladder: geometric rates from lo to hi in steps of
// kLadderStep. A rung passes when every request it attempted succeeded, it
// was not cut short, its due-time p99 stays under the workload's latency
// limit, and generator lateness did not grow from the first half of the
// rung to the second by more than `late_growth_ms`. max_rate is the
// achieved rate of the highest passing rung. Passing is taken to be
// monotone in the rate, so the highest passing rung is found by bisection:
// rung 0 (fails -> no passing rung), the top rung (passes -> it is the
// highest), then halving the interval between the highest known pass and
// the lowest known fail. That visits about log2(rungs) + 2 rungs.
constexpr double kLadderStep = 1.03;

std::vector<double> geometric_ladder(double lo_rps, double hi_rps,
                                     double step = kLadderStep);

struct RungResult {
  double offered_rps = 0;
  OpenSummary open;
  bool aborted = false;  // backlog cap hit; remaining sends skipped
};

bool rung_passes(const RungResult& rung, double latency_limit_ms,
                 double late_growth_ms);

// Highest index in [0, n) for which passes(i) holds, assuming passes is
// monotone (true up to some index, false after); -1 when passes(0) fails.
// `passes` is called once per visited rung, in visiting order.
int ladder_search(size_t n, const std::function<bool(size_t)>& passes);

// ---- Unattributed front-door time ----
//
// What the client saw minus what the server stamped: client mean RTT minus
// the mean of (sandbox end_to_end + response_write). Whatever the server
// does before Sandbox::create (kernel, recv, parse, admit, fd loan) and
// after the last byte reaches the kernel lands here.
inline double unattributed_us(double client_mean_rtt_us,
                              double server_end_to_end_mean_us,
                              double server_response_write_mean_us) {
  return client_mean_rtt_us -
         (server_end_to_end_mean_us + server_response_write_mean_us);
}

// Ratio with a zero base reported as 0 (e.g. hit ratio with no lookups).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace e2e
