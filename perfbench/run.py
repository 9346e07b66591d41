#!/usr/bin/env python3
"""Builds the TANGO benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload point|analytic|churn --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as a Release CMake build of perfbench/CMakeLists.txt, which compiles the
library from src/. Build output goes to stderr; the benchmark's report goes to
stdout and its last line is the JSON result. Scratch files (the churn
workload's WAL, span dumps and per-run reports) stay under the build
directory. Exits non-zero, without a result line, when the build or the run
fails.
"""

import argparse
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["point", "analytic", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, target)
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "run")
    os.makedirs(build_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1

    binary = os.path.join(build_dir, "tango_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work_dir]
    child = subprocess.Popen(command, cwd=root)

    def stop_child(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
