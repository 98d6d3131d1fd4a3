#!/usr/bin/env python3
"""Smoke test of the vdbperf benchmark at a tiny scale.

    python3 perfbench/smoke_test.py

Runs every workload once untraced and once traced at --scale 0.05 and
checks that:
  * each run is correct, with at least one op attempted and none failed;
  * every metric name matches [A-Za-z0-9_.-]+ and carries a unit;
  * each mode prints exactly the metrics BENCHMARK.json lists for it;
  * a traced run writes its span file;
  * a deliberately corrupted answer is counted in load.ops_failed.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]+$")
SCALE = "0.05"
SECONDS = "2"


def fail(why):
    print("smoke_test: FAIL: " + why)
    sys.exit(1)


def run(root, workload, trace, corrupt="0"):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", SECONDS,
               "--trace", trace, "--scale", SCALE, "--corrupt", corrupt]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        fail("%s --trace %s exited %d" % (workload, trace, done.returncode))
    lines = done.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    return context, json.loads(lines[-1])


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {
        "0": [m["name"] for m in spec["end_to_end"]],
        "1": [m["name"] for m in spec["per_layer"]],
    }
    listed_workloads = [w["name"] for w in spec["workloads"]]
    for workload in listed_workloads:
        for trace in ("0", "1"):
            context, result = run(root, workload, trace)
            label = "%s --trace %s" % (workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(label + ": result keys " + str(sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail(label + ": not correct")
            if result["attempted"] < 1:
                fail(label + ": nothing attempted")
            metrics = result["metrics"]
            for name, metric in metrics.items():
                if not NAME.match(name):
                    fail(label + ": bad metric name " + name)
                if not UNIT.match(metric.get("unit", "")):
                    fail(label + ": metric %s has no valid unit" % name)
                if not isinstance(metric.get("value"), (int, float)):
                    fail(label + ": metric %s has no value" % name)
            if sorted(metrics) != sorted(listed[trace]):
                fail(label + ": metrics differ from BENCHMARK.json: %s" %
                     sorted(set(metrics) ^ set(listed[trace])))
            if trace == "1":
                if metrics["load.ops_failed"]["value"] != 0:
                    fail(label + ": load.ops_failed is not 0")
                if not os.path.isfile(context.get("span_file", "")):
                    fail(label + ": no span file")
            print("smoke_test: ok: " + label)

    # A corrupted answer must be caught by the oracle and counted.
    for workload in listed_workloads:
        _, result = run(root, workload, "1", corrupt="3")
        if result["correct"] or result["failed"] < 1:
            fail(workload + ": corrupted answer was not counted as failed")
        if result["metrics"]["load.ops_failed"]["value"] < 1:
            fail(workload + ": corrupted answer missing from load.ops_failed")
        print("smoke_test: ok: %s counts a corrupted answer" % workload)
    print("smoke_test: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
