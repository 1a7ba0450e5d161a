#include "engine/cc_driver.hpp"

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/clock.hpp"
#include "common/file_util.hpp"
#include "common/log.hpp"

namespace sledge::engine {

namespace {

const char* compiler_path() {
  const char* env = std::getenv("SLEDGE_CC");
  return env && env[0] ? env : "cc";
}

// fork+exec the compiler with stderr captured to `err_path`.
Status run_compiler(const std::vector<std::string>& argv,
                    const std::string& err_path) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) return Status::error("fork failed");
  if (pid == 0) {
    // Child: redirect stderr into the capture file.
    FILE* err = std::fopen(err_path.c_str(), "w");
    if (err) {
      ::dup2(fileno(err), 2);
      std::fclose(err);
    }
    ::execvp(cargv[0], cargv.data());
    _exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return Status::error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::string diag;
    auto contents = read_file(err_path);
    if (contents.ok()) diag = contents.value().substr(0, 2000);
    return Status::error("compiler failed (exit " +
                         std::to_string(WIFEXITED(status)
                                            ? WEXITSTATUS(status)
                                            : -1) +
                         "): " + diag);
  }
  return Status::ok();
}

// True when the configured compiler is GCC proper. clang and other
// GCC-compatible front ends also define __GNUC__, so the probe asks for the
// compiler's predefined macros and requires __GNUC__ without __clang__.
bool probe_gcc(const std::string& cc) {
  auto dir = make_temp_dir("awsm-probe");
  if (!dir.ok()) return false;
  const std::string out_path = dir.value() + "/macros.h";
  const std::string err_path = dir.value() + "/probe.err";
  bool gcc = false;
  if (run_compiler({cc, "-dM", "-E", "-x", "c", "/dev/null", "-o", out_path},
                   err_path)
          .is_ok()) {
    auto macros = read_file(out_path);
    gcc = macros.ok() &&
          macros.value().find("#define __GNUC__ ") != std::string::npos &&
          macros.value().find("#define __clang__ ") == std::string::npos;
  }
  ::unlink(out_path.c_str());
  ::unlink(err_path.c_str());
  ::rmdir(dir.value().c_str());
  return gcc;
}

}  // namespace

bool cc_is_gcc() {
  // Keyed by the compiler path: SLEDGE_CC may change between loads in one
  // process.
  static std::mutex mu;
  static std::string probed_cc;
  static bool probed_gcc = false;
  const std::string cc = compiler_path();
  std::lock_guard<std::mutex> lock(mu);
  if (cc != probed_cc) {
    probed_gcc = probe_gcc(cc);
    probed_cc = cc;
  }
  return probed_gcc;
}

bool cc_available() {
  static const bool available = [] {
    std::string path = compiler_path();
    if (path.find('/') != std::string::npos) {
      return ::access(path.c_str(), X_OK) == 0;
    }
    const char* env_path = std::getenv("PATH");
    if (!env_path) return false;
    std::string dirs(env_path);
    size_t start = 0;
    while (start <= dirs.size()) {
      size_t end = dirs.find(':', start);
      if (end == std::string::npos) end = dirs.size();
      std::string candidate = dirs.substr(start, end - start) + "/" + path;
      if (::access(candidate.c_str(), X_OK) == 0) return true;
      start = end + 1;
    }
    return false;
  }();
  return available;
}

Result<CcResult> compile_c_to_so(const std::string& c_source,
                                 const CcOptions& options) {
  auto dir = make_temp_dir("awsm");
  if (!dir.ok()) return Result<CcResult>::error(dir.error_message());

  CcResult result;
  result.work_dir = dir.value();
  std::string c_path = result.work_dir + "/module.c";
  std::string err_path = result.work_dir + "/cc.err";
  result.so_path = result.work_dir + "/module.so";

  Status s = write_file(c_path, c_source);
  if (!s.is_ok()) return Result<CcResult>::error(s.message());

  std::vector<std::string> argv = {
      compiler_path(),
      "-std=c99",
      options.opt_level == 0 ? "-O0" : ("-O" + std::to_string(options.opt_level)),
  };
  if (options.opt_level == 2 && cc_is_gcc()) {
    // The aWsm tier: two gcc heuristics that -O2 holds back, and nothing
    // else of -O3 (blanket -O3 makes the polybench kernels slower).
    //  - Complete peeling of short fixed-trip loops (GOCR's 8x8 glyph
    //    scoring, CIFAR-10's conv windows); the cap bounds compile time,
    //    which every module pays at registration.
    //  - O3's inline limit for small functions: the call_depth prologue and
    //    epilogue of each Wasm function push small helpers (RESIZE's) past
    //    the -O2 limit of 15.
    // The generated C is UB-free and -std=c99 keeps FP contraction off, so
    // these change speed, never results.
    argv.insert(argv.end(), {"-fpeel-loops",
                             "--param=max-completely-peeled-insns=100",
                             "--param=max-inline-insns-auto=30"});
  }
  argv.insert(argv.end(), {
      "-fPIC",
      "-shared",
      // Loads/stores in generated code go through memcpy (alias-safe);
      // -fno-math-errno lets sqrt/floor/ceil inline to single instructions.
      "-fno-math-errno",
      "-w",
      "-o",
      result.so_path,
      c_path,
      "-lm",
  });

  Stopwatch sw;
  s = run_compiler(argv, err_path);
  if (!s.is_ok()) {
    if (!options.debug_keep) remove_work_dir(result);
    return Result<CcResult>::error(s.message());
  }
  result.compile_ns = sw.elapsed_ns();
  result.so_size = file_size(result.so_path);
  return Result<CcResult>(std::move(result));
}

void remove_work_dir(const CcResult& result) {
  if (result.work_dir.empty()) return;
  for (const char* name : {"/module.c", "/module.so", "/cc.err"}) {
    ::unlink((result.work_dir + name).c_str());
  }
  ::rmdir(result.work_dir.c_str());
}

}  // namespace sledge::engine
