// Shared helpers for the test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::testutil {

// ---- Deterministic concurrency/fault fixtures (deadline & overload tests) --

// A runaway request: loops forever, with a linear-memory store each
// iteration so no tier can optimize the loop away. state[1] is never
// written, so the condition never becomes false. Only deadline enforcement
// (or process death) ends it.
inline const char* kInfiniteLoopSrc = R"(
int state[2];
int main() {
  while (state[1] == 0) { state[0] = state[0] + 1; }
  return state[0];
}
)";

// A configurable CPU burner: ~`iters` loop iterations of linear-memory
// arithmetic, then a 1-byte response ('s'). Calibrate per test; 1e7 iters
// is tens of milliseconds on any recent CPU under the AoT tier.
inline std::string spin_src(long long iters) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
int acc[2];
char out[1];
int main() {
  int i = 0;
  while (i < %lld) { acc[0] = acc[0] + i; i = i + 1; }
  out[0] = 115;
  resp_write(out, 1);
  return acc[0];
}
)",
                iters);
  return std::string(buf);
}

// One step of a deterministic arrival script: wait `gap_us`, then issue a
// request against module index `module`. Scripts are generated from a seed
// so dispatcher/admission tests replay the exact same interleaved workload
// on every run (and across dispatcher×scheduler parameterizations).
struct Arrival {
  int module = 0;
  uint64_t gap_us = 0;
};

inline std::vector<Arrival> arrival_script(uint64_t seed, size_t count,
                                           int modules,
                                           uint64_t max_gap_us) {
  Rng rng(seed);
  std::vector<Arrival> script;
  script.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Arrival a;
    a.module = static_cast<int>(rng.below(static_cast<uint32_t>(
        modules < 1 ? 1 : modules)));
    a.gap_us = rng.below(static_cast<uint32_t>(max_gap_us + 1));
    script.push_back(a);
  }
  return script;
}

// Scoped fault injection into the sandbox allocation path: while alive,
// every Nth (default: every) Sandbox::create fails as if resources were
// exhausted, driving the listener's 503 path deterministically.
class ScopedSandboxAllocFault {
 public:
  ScopedSandboxAllocFault() {
    runtime::Sandbox::set_create_fault_hook(&always_fail);
  }
  ~ScopedSandboxAllocFault() {
    runtime::Sandbox::set_create_fault_hook(nullptr);
  }
  ScopedSandboxAllocFault(const ScopedSandboxAllocFault&) = delete;
  ScopedSandboxAllocFault& operator=(const ScopedSandboxAllocFault&) = delete;

 private:
  static bool always_fail() { return true; }
};

// Loads + instantiates + invokes in one step; fails the current test on
// load/instantiation errors (invoke outcomes are returned for inspection).
inline engine::InvokeOutcome run_module(
    const std::vector<uint8_t>& wasm_bytes,
    const engine::WasmModule::Config& config, const std::string& export_name,
    const std::vector<engine::Value>& args,
    engine::ServerlessEnv* env = nullptr) {
  auto mod = engine::WasmModule::load(wasm_bytes, config);
  if (!mod.ok()) {
    return engine::InvokeOutcome::failed("load: " + mod.error_message());
  }
  auto sandbox = mod->instantiate();
  if (!sandbox.ok()) {
    return engine::InvokeOutcome::failed("instantiate: " +
                                         sandbox.error_message());
  }
  return sandbox->call(export_name, args, env);
}

inline std::string param_name(
    const ::testing::TestParamInfo<
        std::tuple<engine::Tier, engine::BoundsStrategy>>& info) {
  return std::string(engine::to_string(std::get<0>(info.param))) + "_" +
         engine::to_string(std::get<1>(info.param));
}

// The read/write parts of [base, base + len) according to /proc/self/maps,
// as offsets from base, with adjacent ranges merged (a file mapping and
// the anonymous reservation above it are separate VMAs). A linear memory
// must expose exactly {{0, size_bytes()}} — anything more is address space
// a vm_guard out-of-bounds access could reach without faulting.
inline std::vector<std::pair<uint64_t, uint64_t>> writable_ranges(
    const void* base, uint64_t len) {
  const uint64_t lo = reinterpret_cast<uintptr_t>(base);
  const uint64_t hi = lo + len;
  std::vector<std::pair<uint64_t, uint64_t>> out;
  FILE* f = std::fopen("/proc/self/maps", "r");
  if (!f) return out;
  char line[512];
  while (std::fgets(line, sizeof(line), f)) {
    unsigned long long start = 0, end = 0;
    char perms[5] = {};
    if (std::sscanf(line, "%llx-%llx %4s", &start, &end, perms) != 3) continue;
    if (perms[0] != 'r' || perms[1] != 'w') continue;
    uint64_t s = start < lo ? lo : start;
    uint64_t e = end > hi ? hi : end;
    if (s >= e) continue;
    if (!out.empty() && out.back().second == s - lo) {
      out.back().second = e - lo;
    } else {
      out.emplace_back(s - lo, e - lo);
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace sledge::testutil
