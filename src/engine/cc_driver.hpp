// Drives the system C compiler to turn aWsm-generated C into a shared
// object. This is the "heavyweight linking & loading" half of the paper's
// pipeline — it happens once per module at registration time, never on the
// request path.
#pragma once

#include <string>

#include "common/status.hpp"

namespace sledge::engine {

struct CcOptions {
  // -O1 models fast-compile tiers, -O2 is aWsm: with GCC it also gets
  // complete loop peeling and O3's small-function inline limit.
  int opt_level = 2;
  bool debug_keep = false;  // keep the temp dir for inspection
};

struct CcResult {
  std::string so_path;   // compiled shared object
  std::string work_dir;  // owning temp dir (remove_work_dir cleans it)
  uint64_t compile_ns = 0;
  int64_t so_size = 0;
};

// Returns true when a usable C compiler is available on this host.
bool cc_available();

// True when the compiler (SLEDGE_CC, else `cc`) is GCC and not a
// GCC-compatible front end such as clang; only GCC gets the aWsm tier's
// `--param` options. Probed once per compiler path.
bool cc_is_gcc();

Result<CcResult> compile_c_to_so(const std::string& c_source,
                                 const CcOptions& options);

void remove_work_dir(const CcResult& result);

}  // namespace sledge::engine
