#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload, or all.

Run from the repository root:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory. Every metric is printed by name with its unit; the last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}. The exit code is nonzero when the build fails, when any output
differs from its reference, or on a usage error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_mix", "serve_adhoc", "batch_matrix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Seconds one workload may run, inside the 180 s a run is allowed.
TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the benchmark; returns the binary path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(binary, args, workload, build_root, source):
    """Runs one workload; returns (exit code, parsed result or None)."""
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--source-id=" + source,
           "--trace-file=" + os.path.join(
               trace_dir, "%s-seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, TIMEOUT_S))
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("%s: no result line (exit %d)" % (workload, proc.returncode))
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    if binary is None:
        log("build failed")
        return 1
    source = source_id()

    if args.workload != "all":
        code, result = run_workload(binary, args, args.workload, build_root,
                                    source)
        if result is None:
            return code
        print(json.dumps(result))
        return code

    # Every workload in turn; the summary line prefixes each metric with its
    # workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, args, workload, build_root, source)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            continue
        print(json.dumps(result))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "." + name] = metric
    print(json.dumps(summary))
    return worst or (0 if summary["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
