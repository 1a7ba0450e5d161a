// Traced single-thread replay: one workload request at a time through the
// runtime's public per-layer calls, with a span around each call.
//
//   parse -> admission check -> create -> dispatcher push/fetch -> run ->
//   serialize -> teardown
//
// Spans of one request share its id and sit under a root "request" span;
// each layer's self time is its duration minus what its children cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

class Tracer {
 public:
  struct Span {
    uint32_t req = 0;
    int32_t parent = -1;  // index of the enclosing span, -1 for roots
    const char* name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t ops = 1;  // calls covered (batched ns-scale calls)
  };

  int begin(const char* name, uint32_t req, int parent = -1);
  void end(int span, uint32_t ops = 1);

  // Self time per op of every span named `name`, in ns.
  std::vector<double> self_ns_per_op(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }
  double duration_ms(int span) const {
    const Span& s = spans_[static_cast<size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  // Drops every span recorded after the first n (discards warm-up spans).
  void truncate(size_t n) { spans_.resize(n); }
  // Writes the spans as CSV (req,parent,name,start_ns,end_ns,ops).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct ReplayMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ReplayResult {
  bool ok = false;        // every replayed output matched its reference
  std::string error;      // first failure, when !ok
  uint64_t requests = 0;
  std::vector<ReplayMetric> metrics;
};

// Compiles and loads every module of `w` (minicc.compile_ms and
// engine.load_ms spans) and replays `requests` seeded requests.
ReplayResult replay(const Workload& w, uint64_t seed, size_t requests,
                    Tracer* tracer);

}  // namespace e2e
