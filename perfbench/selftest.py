#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Runs every workload of BENCHMARK.json on tiny data, untraced and traced, and
checks that each run is correct, emits exactly the metrics BENCHMARK.json
names (with their units), and that every span of the traced run has a self
time >= 0. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)


# Trace times are written in us with 3 decimals; each rounds by 0.0005 us.
ROUNDING_US = 1e-3


def negative_self_times(trace_path):
    """Counts spans whose self time (duration minus the summed durations of
    their children) is below zero by more than rounding.

    A span's children run on its thread one after another, so they never
    overlap and their durations add up. Nothing is clipped: a child that
    outlives its parent, overlapping children, or a span left open (its end
    is 0) all make a self time negative."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    child_us = {e["args"]["span"]: [] for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_us[parent].append(e["dur"])
    negative = 0
    for e in events:
        kids = child_us[e["args"]["span"]]
        slack = ROUNDING_US * (len(kids) + 1)
        negative += e["dur"] - sum(kids) < -slack
    return negative


def check_run(binary, workload, trace, expected, trace_path):
    cmd = [binary, "--workload=" + workload, "--seed=3", "--seconds=0.5",
           "--trace=%d" % trace, "--smoke", "--trace-file=" + trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    errors = []
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return ["no JSON result line (exit %d)" % proc.returncode]
    if set(result) != run.RESULT_KEYS:
        errors.append("result keys %s" % sorted(result))
    if proc.returncode != 0 or result.get("correct") is not True:
        errors.append("run not correct (exit %d)" % proc.returncode)
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("attempted %s failed %s" % (result.get("attempted"),
                                                   result.get("failed")))
    metrics = result.get("metrics", {})
    missing = set(expected) - set(metrics)
    extra = set(metrics) - set(expected)
    if missing or extra:
        errors.append("missing %s extra %s" % (sorted(missing), sorted(extra)))
    for name, metric in metrics.items():
        if name in expected and metric.get("unit") != expected[name]:
            errors.append("%s unit %s" % (name, metric.get("unit")))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s value %r" % (name, value))
    if trace:
        negative = negative_self_times(trace_path)
        if negative:
            errors.append("%d spans with negative self time" % negative)
    return errors


def main():
    root = run.ROOT
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = run.build(build_root)
    if binary is None:
        print("FAIL: build")
        return 1
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            trace_path = os.path.join(trace_dir, "selftest-%s.json" % workload)
            errors = check_run(binary, workload, trace, expected, trace_path)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print("%-13s trace=%d %s" % (workload, trace, status))
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
