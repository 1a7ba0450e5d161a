// Drives the system C compiler to turn aWsm-generated C into a shared
// object. This is the "heavyweight linking & loading" half of the paper's
// pipeline — it happens once per module at registration time, never on the
// request path. start_compile() forks the compiler and returns at once, so
// a caller with several modules can let their compilers run side by side
// and reap each with finish_compile().
#pragma once

#include <sys/types.h>

#include <string>
#include <utility>

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
  int64_t so_size = 0;
};

// A compiler running in a child process. Move-only; destroying a job that
// finish_compile() never took waits for the compiler and removes its temp
// dir, so an abandoned compile leaves neither a zombie nor files behind.
class CcJob {
 public:
  CcJob() = default;
  ~CcJob() { reset(); }
  CcJob(CcJob&& o) noexcept { *this = std::move(o); }
  CcJob& operator=(CcJob&& o) noexcept;
  CcJob(const CcJob&) = delete;
  CcJob& operator=(const CcJob&) = delete;

 private:
  friend Result<CcJob> start_compile(const std::string&, const CcOptions&);
  friend Result<CcResult> finish_compile(CcJob job);

  void reset();

  pid_t pid_ = -1;
  CcResult result_;
  bool debug_keep_ = false;
};

// Returns true when a usable C compiler is available on this host.
bool cc_available();

// True when the compiler (SLEDGE_CC, else `cc`) is GCC and not a
// GCC-compatible front end such as clang; only GCC gets the aWsm tier's
// `--param` options. Probed once per compiler path.
bool cc_is_gcc();

// Writes `c_source` to a fresh temp dir and forks the compiler on it.
Result<CcJob> start_compile(const std::string& c_source,
                            const CcOptions& options);
// Waits for the compiler; fails with its exit status and stderr.
Result<CcResult> finish_compile(CcJob job);
// start_compile() + finish_compile().
Result<CcResult> compile_c_to_so(const std::string& c_source,
                                 const CcOptions& options);

void remove_work_dir(const CcResult& result);

}  // namespace sledge::engine
