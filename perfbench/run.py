#!/usr/bin/env python3
"""Builds and runs the served-path benchmark for one workload.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository's library and the benchmark driver with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness self-checks, then the driver. Build output goes to stderr; the
driver's stdout is passed through, its last line being the result JSON.
Exits non-zero, without a result, if the build or the self-checks fail.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}", 3)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        rc = run(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                 stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    rc = run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S,
             stdout=sys.stderr)
    if rc != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)
    if run([os.path.join(build_dir, "harness_selftest")], RUN_TIMEOUT_S,
           stdout=sys.stderr) != 0:
        fail("harness self-checks failed")

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "served_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", out_dir]
    sys.stdout.flush()
    sys.exit(run(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
