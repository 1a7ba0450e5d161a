#!/usr/bin/env python3
"""Build and run the Sledge end-to-end benchmark.

From the repository root:

    python3 e2ebench/run.py --workload light --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload chain --seed 7 --seconds 20 --trace 1
    python3 e2ebench/run.py --selftest

The benchmark is its own CMake package (e2ebench/CMakeLists.txt) that
compiles the runtime from ../src. It is built into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench, relative to the
repository root); the AoT compiler's scratch files go to a tmp/ directory
there and every result record to its results/ directory. Nothing is written
anywhere else.

The last line of standard output is the result JSON
({"correct", "attempted", "failed", "metrics"}). The exit code is 0 only
when the run completed and every check passed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("light", "heavy", "chain")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(bdir):
    """Configures (once) and builds the benchmark; build output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2),
                  "--target", "sledge_e2e", "e2ebench_selftest"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_rev():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return None
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the runtime and benchmark sources (a rev for checkouts
    that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def valid_result(res):
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)
            and isinstance(res["metrics"], dict) and res["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: one setup, a tenth of the replay")
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("Sledge sources not found next to e2ebench/ (expected %s)" %
            os.path.join(ROOT, "src"))
        return 2

    bdir = build_dir()
    try:
        if not build(bdir):
            return 2
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 2

    tmp = os.path.join(bdir, "tmp")
    results = os.path.join(bdir, "results")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    if args.selftest:
        return subprocess.run([os.path.join(bdir, "e2ebench_selftest")],
                              env=env, check=False).returncode

    mode = "quick" if args.quick else "full"
    traced = "traced" if args.trace else "untraced"
    stem = "%s-seed%d-%s" % (args.workload, args.seed, traced)
    cmd = [os.path.join(bdir, "sledge_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + "-spans.csv")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark run timed out after %d s" % RUN_TIMEOUT_S)
        return 1

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if not valid_result(result):
        log("benchmark exited %d without a result" % proc.returncode)
        return 1

    record = {
        "rev": git_rev(),
        "source_digest": source_digest(),
        "host_cores": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": mode,
        "traced": bool(args.trace),
        "exit_code": proc.returncode,
        "result": result,
    }
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print("provenance: rev=%s source=%s host_cores=%s seed=%d mode=%s %s" %
          (record["rev"] or "unknown", record["source_digest"],
           record["host_cores"], args.seed, mode, traced))
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
