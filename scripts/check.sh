#!/usr/bin/env bash
# One-command CI gate: tier-1 configure + build + full ctest, the quick
# preset, and the sanitizer-safe suites under ASan. Exits nonzero on the
# first failure. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

# A sanitizer pass is only real if its binaries carry the sanitizer runtime:
# fail when any given binary does not link `lib` (e.g. libtsan).
require_runtime() {
  local lib=$1
  shift
  for bin in "$@"; do
    if ! ldd "$bin" | grep "$lib" >/dev/null; then
      echo "FAIL: $bin does not link $lib (sanitizer flags not applied)" >&2
      exit 1
    fi
  done
}

echo "== tier-1: configure + build (preset: default) =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"

echo "== tier-1: full test suite =="
ctest --preset default -j "$(nproc)"

echo "== quick preset =="
ctest --preset quick -j "$(nproc)"

# Smoke benches run inside build/: each writes its BENCH_*.json into the
# working directory, and a smoke record must never overwrite the committed
# full-mode baselines at the repo root.
echo "== front-door saturation bench (smoke) =="
(cd build && ./bench/bench_ping_concurrency --smoke)

echo "== invoke dataplane bench (smoke: shm p50 must beat copy p50) =="
(cd build && ./bench/bench_invoke --smoke)

echo "== churn bench (smoke: cold p50 > pooled p50) =="
(cd build && ./bench/bench_churn --smoke)

echo "== end-to-end benchmark self-tests =="
python3 e2ebench/run.py --selftest

echo "== asan: configure + build + sanitizer-safe tests =="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
# Every binary the preset runs (stale binaries in the build tree are not).
mapfile -t asan_bins < <(ctest --preset asan --show-only=json-v1 |
  python3 -c 'import json, sys
print("\n".join(sorted({t["command"][0] for t in json.load(sys.stdin)["tests"]
                        if "command" in t})))')
require_runtime libasan "${asan_bins[@]}"
ctest --preset asan -j "$(nproc)"

echo "== tsan: io event-loop tests (cross-thread wakeups) =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target io_loop_test
require_runtime libtsan build-tsan/tests/io_loop_test
ctest --preset tsan-io -j "$(nproc)"

echo "== tsan: green-thread switch (fiber-annotated real sandbox dispatch) =="
cmake --build --preset tsan -j "$(nproc)" --target context_test
require_runtime libtsan build-tsan/tests/context_test
ctest --preset tsan -j "$(nproc)" -R '^ContextTest\.'

echo "== tsan: dispatcher/admission soak (concurrent push/inject/fetch) =="
cmake --build --preset tsan -j "$(nproc)" --target admission_test
require_runtime libtsan build-tsan/tests/admission_test
ctest --preset tsan-dispatch -j "$(nproc)"

echo "== tsan: front-door soak (one-holder hand-offs + stats plane) =="
cmake --build --preset tsan -j "$(nproc)" --target listener_soak_test http_test
require_runtime libtsan build-tsan/tests/listener_soak_test \
  build-tsan/tests/http_test
ctest --preset tsan-listener -j "$(nproc)"

echo "== tsan: invoke dataplane soak (transfer pool + hinted injection) =="
cmake --build --preset tsan -j "$(nproc)" --target invoke_soak_test
require_runtime libtsan build-tsan/tests/invoke_soak_test
ctest --preset tsan-invoke -j "$(nproc)"

echo "== tsan: resource-pool soak (threaded sandbox create/destroy) =="
cmake --build --preset tsan -j "$(nproc)" --target pool_test
require_runtime libtsan build-tsan/tests/pool_test
ctest --preset tsan-pool -j "$(nproc)"

echo "== all checks passed =="
