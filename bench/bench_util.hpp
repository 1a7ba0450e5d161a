// Shared plumbing for the benchmark harnesses (one binary per paper
// table/figure — see DESIGN.md's per-experiment index).
#pragma once

#include <dlfcn.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/native_host.hpp"
#include "apps/workloads.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "engine/cc_driver.hpp"
#include "engine/engine.hpp"
#include "minicc/minicc.hpp"

#ifndef SLEDGE_FN_BINDIR
#define SLEDGE_FN_BINDIR "build/src/apps"
#endif
#ifndef SLEDGE_SOURCE_DIR
#define SLEDGE_SOURCE_DIR "."
#endif

namespace sledge::bench {

inline std::string fn_path(const std::string& app) {
  return std::string(SLEDGE_FN_BINDIR) + "/fn_" + app;
}

// Environment-tunable knob with a default (benchmarks default to quick
// runs; export e.g. SLEDGE_BENCH_REQS=10000 to reproduce paper-scale runs).
inline long env_long(const char* name, long dflt) {
  const char* v = std::getenv(name);
  return v && v[0] ? std::atol(v) : dflt;
}

// The source revision a bench record was measured on: `git describe
// --always --dirty` of the tree the bench was built from ("unknown" when
// git or the checkout is unavailable).
inline std::string git_rev() {
  std::string rev;
  if (FILE* p = ::popen("git -C '" SLEDGE_SOURCE_DIR
                        "' describe --always --dirty 2>/dev/null",
                        "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p)) rev = buf;
    ::pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

// A natively compiled mini-C program loaded via dlopen: the "native"
// baseline of the paper's tables (clang -O3 equivalent).
class NativeProgram {
 public:
  static NativeProgram* load(const std::string& minicc_source,
                             const std::string& prefix) {
    // Force the mc_* host symbols into this binary (static-library objects
    // are otherwise dropped) so the dlopen'd native twins can resolve them.
    apps::native_host_reset();
    auto c = minicc::compile_to_c(minicc_source, prefix);
    if (!c.ok()) {
      std::fprintf(stderr, "native codegen failed: %s\n",
                   c.error_message().c_str());
      return nullptr;
    }
    engine::CcOptions opts;
    opts.opt_level = 3;
    auto so = engine::compile_c_to_so(*c, opts);
    if (!so.ok()) {
      std::fprintf(stderr, "native cc failed: %s\n", so.error_message().c_str());
      return nullptr;
    }
    void* handle = ::dlopen(so->so_path.c_str(), RTLD_NOW | RTLD_GLOBAL);
    if (!handle) {
      std::fprintf(stderr, "dlopen failed: %s\n", ::dlerror());
      engine::remove_work_dir(*so);
      return nullptr;
    }
    auto* prog = new NativeProgram();
    prog->cc_ = so.take();
    prog->handle_ = handle;
    prog->main_ = reinterpret_cast<int32_t (*)()>(
        ::dlsym(handle, (prefix + "main").c_str()));
    if (!prog->main_) {
      std::fprintf(stderr, "missing %smain symbol\n", prefix.c_str());
      delete prog;
      return nullptr;
    }
    return prog;
  }

  ~NativeProgram() {
    if (handle_) ::dlclose(handle_);
    engine::remove_work_dir(cc_);
  }

  int32_t run() { return main_(); }

 private:
  NativeProgram() = default;
  engine::CcResult cc_;
  void* handle_ = nullptr;
  int32_t (*main_)() = nullptr;
};

// Median of `v` (the upper middle for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Times `fn` over `iters` iterations; returns the median seconds of one
// iteration, so a single slow iteration cannot swing the result.
template <typename Fn>
double time_median_s(int iters, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < iters; ++i) {
    Stopwatch sw;
    fn();
    s.push_back(static_cast<double>(sw.elapsed_ns()) / 1e9);
  }
  return median(std::move(s));
}

inline void print_header(const char* title, const char* paper_ref) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // stream rows when redirected
  std::printf("\n==============================================================\n");
  std::printf("%s\n  (reproduces %s; see EXPERIMENTS.md)\n", title, paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace sledge::bench
