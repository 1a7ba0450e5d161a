#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/workloads.hpp"
#include "http/http.hpp"
#include "procfaas/procfaas.hpp"

#ifndef SLEDGE_FN_BINDIR
#define SLEDGE_FN_BINDIR "build/src/apps"
#endif

namespace e2e {

namespace {

using sledge::Rng;

uint8_t clamp_u8(int v) { return static_cast<uint8_t>(std::clamp(v, 0, 255)); }

double read_f64(const std::vector<uint8_t>& b, size_t i) {
  double v;
  std::memcpy(&v, b.data() + i * 8, 8);
  return v;
}
void write_f64(std::vector<uint8_t>* b, size_t i, double v) {
  std::memcpy(b->data() + i * 8, &v, 8);
}

// GPS-EKF state (x[8], P[8][8], z[4]) around the shipped request: jittered
// state and fix, positive-scaled covariance diagonal.
std::vector<uint8_t> ekf_input(Rng& rng) {
  std::vector<uint8_t> b = sledge::apps::app_request("ekf");
  for (size_t i = 0; i < 8; ++i) {
    write_f64(&b, i, read_f64(b, i) + (rng.next_double() - 0.5));
  }
  for (size_t i = 0; i < 8; ++i) {
    size_t d = 8 + i * 8 + i;
    write_f64(&b, d, read_f64(b, d) * (0.5 + 1.5 * rng.next_double()));
  }
  for (size_t i = 72; i < 76; ++i) {
    write_f64(&b, i, read_f64(b, i) + (rng.next_double() - 0.5));
  }
  return b;
}

std::vector<uint8_t> random_bytes(Rng& rng, size_t n) {
  std::vector<uint8_t> b(n);
  for (auto& x : b) x = static_cast<uint8_t>(rng.next_u32());
  return b;
}

// The shipped app_request with seeded noise: ink specks for GOCR's binary
// page, +-amplitude jitter for the raster inputs.
std::vector<uint8_t> noisy_app_input(const std::string& app, Rng& rng) {
  std::vector<uint8_t> b = sledge::apps::app_request(app);
  if (app == "gocr") {
    for (int k = 0; k < 82; ++k) b[rng.below(static_cast<uint32_t>(b.size()))] = 1;
    return b;
  }
  const int amp = app == "cifar10" ? 6 : 4;
  for (auto& x : b) x = clamp_u8(x + rng.range(-amp, amp));
  return b;
}

Function fn(std::string module, int sandboxes, CheckKind check, double weight,
            std::string replay_module = "") {
  Function f;
  f.module = std::move(module);
  f.sandboxes = sandboxes;
  f.check = check;
  f.weight = weight;
  f.replay_module = replay_module.empty() ? f.module : std::move(replay_module);
  return f;
}

void add_entry(Workload* w, uint32_t fn_index, std::vector<uint8_t> payload) {
  Entry e;
  e.fn = fn_index;
  e.payload = std::move(payload);
  e.wire.bytes = sledge::http::serialize_request(
      "POST", "/" + w->fns[fn_index].module, e.payload, /*keep_alive=*/true);
  e.wire.kind = fn_index;
  e.wire.entry = static_cast<uint32_t>(w->pool.size());
  w->pool_by_fn[fn_index].push_back(e.wire.entry);
  w->pool.push_back(std::move(e));
}

bool f64_close(const uint8_t* got, const std::vector<uint8_t>& want,
               size_t len) {
  if (len != want.size() || len % 8 != 0) return false;
  for (size_t i = 0; i < len / 8; ++i) {
    double a, b;
    std::memcpy(&a, got + i * 8, 8);
    std::memcpy(&b, want.data() + i * 8, 8);
    if (std::isnan(a) != std::isnan(b)) return false;
    if (std::isnan(a)) continue;
    if (std::fabs(a - b) > kF64Tolerance * std::max(1.0, std::fabs(b))) {
      return false;
    }
  }
  return true;
}

}  // namespace

sledge::Result<Workload> make_workload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  if (name == "light") {
    w.modules = {"ekf", "ping"};
    w.fns = {fn("ekf", 1, CheckKind::kF64, 0.5), fn("ping", 1, CheckKind::kPing, 0.5)};
    w.pool_by_fn.resize(w.fns.size());
    for (int i = 0; i < 48; ++i) add_entry(&w, 0, ekf_input(rng));
    for (int i = 0; i < 16; ++i) add_entry(&w, 1, random_bytes(rng, rng.below(33)));
    w.mid_rate_rps = 10000;
    w.ladder_rps = geometric_ladder(4000, 80000);
    w.latency_limit_ms = 20.0;
    w.warmup_requests = 20000;
    w.replay_requests = 4000;
  } else if (name == "heavy") {
    w.modules = {"gocr", "cifar10", "resize", "lpd"};
    for (const std::string& app : w.modules) {
      w.fns.push_back(fn(app, 1, CheckKind::kExact, 0.25));
    }
    w.pool_by_fn.resize(w.fns.size());
    for (uint32_t f = 0; f < w.fns.size(); ++f) {
      for (int i = 0; i < 16; ++i) add_entry(&w, f, noisy_app_input(w.fns[f].module, rng));
    }
    w.mid_rate_rps = 600;
    w.ladder_rps = geometric_ladder(400, 6000);
    w.latency_limit_ms = 50.0;
    w.warmup_requests = 2000;
    w.replay_requests = 300;
  } else if (name == "chain") {
    w.modules = {"chain3", "relay", "echo", "chain_nested", "chain"};
    w.fns = {fn("chain3", 3, CheckKind::kEcho, 0.5, "echo"),
             fn("chain_nested", 3, CheckKind::kEcho, 0.5, "echo")};
    w.pool_by_fn.resize(w.fns.size());
    for (uint32_t f = 0; f < w.fns.size(); ++f) {
      for (int i = 0; i < 32; ++i) {
        add_entry(&w, f, random_bytes(rng, static_cast<size_t>(rng.range(256, 4096))));
      }
    }
    w.mid_rate_rps = 3000;
    w.ladder_rps = geometric_ladder(2000, 40000);
    w.latency_limit_ms = 20.0;
    w.warmup_requests = 20000;
    w.replay_requests = 4000;
  } else {
    return sledge::Result<Workload>::error("unknown workload '" + name +
                                           "' (light, heavy, chain)");
  }
  return w;
}

sledge::Status compute_expected(Workload* w) {
  for (Entry& e : w->pool) {
    const Function& f = w->fns[e.fn];
    switch (f.check) {
      case CheckKind::kEcho:
        e.expected = e.payload;
        break;
      case CheckKind::kPing:
        e.expected = {'p'};
        break;
      case CheckKind::kExact:
      case CheckKind::kF64: {
        std::string bin = std::string(SLEDGE_FN_BINDIR) + "/fn_" + f.module;
        if (!sledge::procfaas::spawn_function_process(bin, e.payload,
                                                      &e.expected)) {
          return sledge::Status::error("native twin failed: " + bin);
        }
        if (e.expected.empty()) {
          return sledge::Status::error("native twin gave no output: " + bin);
        }
        break;
      }
    }
  }
  return sledge::Status::ok();
}

bool check_reply(const Workload& w, const WireRequest& req, int status,
                 const uint8_t* body, size_t len) {
  if (status != 200) return false;
  const Entry& e = w.pool[req.entry];
  if (w.fns[e.fn].check == CheckKind::kF64) return f64_close(body, e.expected, len);
  return len == e.expected.size() &&
         (len == 0 || std::memcmp(body, e.expected.data(), len) == 0);
}

RequestStream::RequestStream(const Workload& w, uint64_t seed)
    : w_(w), rng_(seed * 0xd1b54a32d192ed03ull + 0x7a11) {
  for (const Function& f : w.fns) total_weight_ += f.weight;
}

const Entry& RequestStream::next_entry() {
  double x = rng_.next_double() * total_weight_;
  size_t f = 0;
  while (f + 1 < w_.fns.size() && x >= w_.fns[f].weight) {
    x -= w_.fns[f].weight;
    ++f;
  }
  const std::vector<uint32_t>& ids = w_.pool_by_fn[f];
  return w_.pool[ids[rng_.below(static_cast<uint32_t>(ids.size()))]];
}

}  // namespace e2e
