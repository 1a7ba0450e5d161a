#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "apps/workloads.hpp"
#include "bench_math.hpp"
#include "common/clock.hpp"
#include "engine/engine.hpp"
#include "http/http.hpp"
#include "minicc/minicc.hpp"
#include "sledge/admission.hpp"
#include "sledge/dispatcher.hpp"
#include "sledge/runtime.hpp"
#include "sledge/sandbox.hpp"

namespace e2e {

using sledge::now_ns;
namespace rt = sledge::runtime;

int Tracer::begin(const char* name, uint32_t req, int parent) {
  Span s;
  s.req = req;
  s.parent = parent;
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span, uint32_t ops) {
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_ns = now_ns();
  s.ops = ops;
}

std::vector<double> Tracer::self_ns_per_op(const std::string& name) const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name || s.end_ns < s.start_ns) continue;
    uint64_t dur = s.end_ns - s.start_ns;
    uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    out.push_back(static_cast<double>(self) / s.ops);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "req,parent,name,start_ns,end_ns,ops\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%d,%s,%llu,%llu,%u\n", s.req, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.ops);
  }
  return std::fclose(f) == 0;
}

namespace {

// Batch size for ns-scale calls (admission check, dispatcher push+fetch):
// one span covers kBatch calls so the clock read does not dominate.
constexpr uint32_t kBatch = 64;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

}  // namespace

ReplayResult replay(const Workload& w, uint64_t seed, size_t requests,
                    Tracer* tracer) {
  ReplayResult res;
  const rt::RuntimeConfig cfg;  // the defaults the served runs use

  // Setup layers: minicc compile and engine load (decode, validate, AoT
  // cc + dlopen) of every module the workload registers.
  std::map<std::string, std::unique_ptr<sledge::engine::WasmModule>> mods;
  double compile_ms = 0, load_ms = 0;
  for (const std::string& m : w.modules) {
    auto src = sledge::apps::load_app_source(m);
    if (!src.ok()) {
      res.error = "source " + m + ": " + src.error_message();
      return res;
    }
    int s = tracer->begin("minicc.compile", 0);
    auto wasm = sledge::minicc::compile_to_wasm(src.value());
    tracer->end(s);
    if (!wasm.ok()) {
      res.error = "minicc " + m + ": " + wasm.error_message();
      return res;
    }
    compile_ms += tracer->duration_ms(s);
    s = tracer->begin("engine.load", 0);
    auto mod = sledge::engine::WasmModule::load(wasm.value(), cfg.engine);
    tracer->end(s);
    if (!mod.ok()) {
      res.error = "load " + m + ": " + mod.error_message();
      return res;
    }
    load_ms += tracer->duration_ms(s);
    mods[m] = std::make_unique<sledge::engine::WasmModule>(mod.take());
  }

  rt::AdmissionController admission(cfg.admission, cfg.max_pending);
  std::unique_ptr<rt::Dispatcher> dispatcher =
      rt::Dispatcher::make(cfg.dispatcher, cfg.policy, cfg.workers);
  RequestStream stream(w, seed ^ 0x5eedu);

  // Warm-up requests are replayed identically but their spans are dropped.
  const size_t warmup = std::max<size_t>(requests / 10, 8);
  const size_t setup_spans = tracer->spans().size();
  for (size_t i = 0; i < warmup + requests; ++i) {
    if (i == warmup) tracer->truncate(setup_spans);
    const Entry& e = stream.next_entry();
    const Function& f = w.fns[e.fn];
    const sledge::engine::WasmModule* mod = mods.at(f.replay_module).get();
    const uint32_t id = static_cast<uint32_t>(i + 1);

    int root = tracer->begin("request", id);

    int s = tracer->begin("http.parse", id, root);
    sledge::http::RequestParser parser;
    int used = parser.feed(e.wire.bytes.data(), e.wire.bytes.size());
    tracer->end(s);
    if (used < 0 || !parser.done()) {
      res.error = "parse failed: " + parser.error();
      return res;
    }

    s = tracer->begin("admission.check", id, root);
    uint32_t admitted = 0;
    for (uint32_t k = 0; k < kBatch; ++k) {
      rt::AdmitRequest in;
      in.inflight = k & 3;
      admitted += admission.check(in) == rt::AdmitVerdict::kAdmit;
    }
    tracer->end(s, kBatch);
    if (admitted != kBatch) {
      res.error = "admission refused a request under default config";
      return res;
    }

    s = tracer->begin("sandbox.create", id, root);
    std::unique_ptr<rt::Sandbox> sb = rt::Sandbox::create(
        mod, std::move(parser.request().body), -1, false, cfg.instantiation);
    tracer->end(s);
    if (!sb) {
      res.error = "sandbox create failed";
      return res;
    }

    s = tracer->begin("dispatcher.push_fetch", id, root);
    uint32_t fetched = 0;
    for (uint32_t k = 0; k < kBatch; ++k) {
      dispatcher->push(sb.get());
      rt::Sandbox* out = nullptr;
      fetched += dispatcher->fetch(static_cast<int>(k % cfg.workers), &out) &&
                 out == sb.get();
    }
    tracer->end(s, kBatch);
    if (fetched != kBatch) {
      res.error = "dispatcher lost or duplicated a sandbox";
      return res;
    }

    s = tracer->begin("sandbox.run", id, root);
    sledge::Status run = rt::run_sandbox_inline(sb.get());
    tracer->end(s);
    const std::vector<uint8_t>& out = sb->response();
    if (!run.is_ok() || !check_reply(w, e.wire, 200, out.data(), out.size())) {
      res.error = "replayed output mismatch for " + f.replay_module;
      return res;
    }

    s = tracer->begin("http.serialize", id, root);
    [[maybe_unused]] std::string header =
        sledge::http::serialize_response_header(200, "OK", out.size(),
                                                /*keep_alive=*/true);
    tracer->end(s);

    s = tracer->begin("sandbox.teardown", id, root);
    sb.reset();
    tracer->end(s);
    tracer->end(root);
  }
  res.requests = requests;

  auto med_us = [&](const char* name) {
    return median(tracer->self_ns_per_op(name)) / 1e3;
  };
  auto med_ns = [&](const char* name) {
    return median(tracer->self_ns_per_op(name));
  };
  res.metrics = {
      {"http.parse_us", med_us("http.parse"), "us"},
      {"http.serialize_us", med_us("http.serialize"), "us"},
      {"admission.check_ns", med_ns("admission.check"), "ns"},
      {"dispatcher.push_fetch_ns", med_ns("dispatcher.push_fetch"), "ns"},
      {"sandbox.create_us", med_us("sandbox.create"), "us"},
      {"sandbox.run_us", med_us("sandbox.run"), "us"},
      {"sandbox.teardown_us", med_us("sandbox.teardown"), "us"},
      {"replay.glue_us", med_us("request"), "us"},
      {"engine.load_ms", load_ms, "ms"},
      {"minicc.compile_ms", compile_ms, "ms"},
  };
  res.ok = true;
  return res;
}

}  // namespace e2e
