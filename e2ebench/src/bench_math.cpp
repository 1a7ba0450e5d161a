#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

double supported_tail_quantile(size_t n) {
  for (double q : {0.9999, 0.999, 0.99, 0.9}) {
    // Samples strictly beyond the nearest-rank q-quantile: n - ceil(q*n).
    double at = std::ceil(q * static_cast<double>(n) - 1e-9);
    if (static_cast<double>(n) - at >= static_cast<double>(kMinBeyond)) {
      return q;
    }
  }
  return 0.0;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.p50 = quantile_sorted(samples, 0.5);
  s.p90 = quantile_sorted(samples, 0.9);
  s.p99 = quantile_sorted(samples, 0.99);
  s.tail_q = supported_tail_quantile(s.n);
  s.tail = s.tail_q > 0 ? quantile_sorted(samples, s.tail_q) : 0.0;
  return s;
}

std::string quantile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

OpenSummary summarize_open(const std::vector<OpenRecord>& records) {
  OpenSummary out;
  out.attempted = records.size();
  if (records.empty()) return out;
  std::vector<double> lat, late_all, late_first, late_second;
  uint64_t first_due = records.front().due_ns;
  uint64_t last_due = records.back().due_ns;
  uint64_t mid_due = first_due + (last_due - first_due) / 2;
  uint64_t last_done = 0;
  for (const OpenRecord& r : records) {
    double late = lateness_ms(r);
    late_all.push_back(late);
    (r.due_ns <= mid_due ? late_first : late_second).push_back(late);
    if (!r.ok || r.done_ns == 0) {
      ++out.failed;
      continue;
    }
    lat.push_back(due_latency_ms(r));
    last_done = std::max(last_done, r.done_ns);
  }
  out.latency_ms = summarize(std::move(lat));
  auto p99 = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return quantile_sorted(v, 0.99);
  };
  out.late_p99_ms = p99(late_all);
  out.late_p99_first_ms = p99(late_first);
  out.late_p99_second_ms = p99(late_second);
  if (last_done > first_due) {
    out.achieved_rps = static_cast<double>(out.latency_ms.n) /
                       (static_cast<double>(last_done - first_due) / 1e9);
  }
  return out;
}

bool rung_passes(const RungResult& rung, double latency_limit_ms,
                 double late_growth_ms) {
  const OpenSummary& o = rung.open;
  if (rung.aborted || o.attempted == 0 || o.failed != 0) return false;
  if (o.latency_ms.p99 >= latency_limit_ms) return false;
  return o.late_p99_second_ms - o.late_p99_first_ms <= late_growth_ms;
}

std::vector<double> geometric_ladder(double lo_rps, double hi_rps,
                                     double step) {
  std::vector<double> out;
  for (double r = lo_rps; r < hi_rps * (1 + 1e-9); r *= step) out.push_back(r);
  return out;
}

int ladder_search(size_t n, const std::function<bool(size_t)>& passes) {
  if (n == 0 || !passes(0)) return -1;
  if (n == 1 || passes(n - 1)) return static_cast<int>(n) - 1;
  size_t pass = 0, fail = n - 1;
  while (fail - pass > 1) {
    size_t mid = pass + (fail - pass) / 2;
    (passes(mid) ? pass : fail) = mid;
  }
  return static_cast<int>(pass);
}

}  // namespace e2e
