#!/usr/bin/env bash
# One-command CI gate: tier-1 configure + build + full ctest, the quick
# preset, and the sanitizer-safe suites under ASan. Exits nonzero on the
# first failure. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

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
echo "== listener saturation bench (smoke) =="
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
ctest --preset asan -j "$(nproc)"

echo "== tsan: io event-loop tests (cross-thread wakeups) =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target io_loop_test
ctest --preset tsan-io -j "$(nproc)"

echo "== tsan: green-thread switch (fiber-annotated real sandbox dispatch) =="
cmake --build --preset tsan -j "$(nproc)" --target context_test
ctest --preset tsan -j "$(nproc)" -R '^ContextTest\.'

echo "== tsan: dispatcher/admission soak (concurrent push/inject/fetch) =="
cmake --build --preset tsan -j "$(nproc)" --target admission_test
ctest --preset tsan-dispatch -j "$(nproc)"

echo "== tsan: multi-shard listener soak (REUSEPORT shards + stats plane) =="
cmake --build --preset tsan -j "$(nproc)" --target listener_soak_test http_test
ctest --preset tsan-listener -j "$(nproc)"

echo "== tsan: invoke dataplane soak (transfer pool + hinted injection) =="
cmake --build --preset tsan -j "$(nproc)" --target invoke_soak_test
ctest --preset tsan-invoke -j "$(nproc)"

echo "== tsan: resource-pool soak (threaded sandbox create/destroy) =="
cmake --build --preset tsan -j "$(nproc)" --target pool_test
ctest --preset tsan-pool -j "$(nproc)"

echo "== all checks passed =="
