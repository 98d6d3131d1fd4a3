#!/usr/bin/env python3
"""Builds and runs the vdbperf benchmark from the root of a checkout.

    python3 perfbench/run.py --workload query_direct --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (which builds the library in src/ from
source, Release) into .bench_build/, builds the vdbperf harness, runs one
workload and relays its output. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}. Build output
goes to standard error. Exits non-zero, printing no result, if the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("ingest_live", "query_direct", "query_routed")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="1",
                        help="corpus scale in (0, 1]; the smoke test uses less")
    parser.add_argument("--corrupt", default="0",
                        help="corrupt the n-th checked answer (smoke test)")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "vdbperf-build")
    work_dir = os.path.join(root, ".bench_build", "vdbperf")
    binary = os.path.join(build_dir, "vdbperf")

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "vdbperf",
                  "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scale", args.scale, "--work-dir", work_dir,
               "--corrupt", args.corrupt]
    try:
        ran = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: vdbperf exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        sys.stderr.write(ran.stdout)
        print("run.py: vdbperf exited %d" % ran.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
