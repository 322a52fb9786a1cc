#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train|serve|decode --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild only what changed. Build output goes to stderr. The last
line of stdout is the JSON result: {"correct", "attempted", "failed",
"metrics"}, where metrics are exactly the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). A traced
run also passes every Perfetto trace it wrote through `trace_report --check`.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
TRACES = ("train", "serve", "decode")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["train", "serve", "decode"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for name in TRACES:
        path = os.path.join(trace_dir, name + ".trace.json")
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace:
        tool = os.path.join(build_dir, "repo", "trace_report")
        for name in TRACES:
            path = os.path.join(trace_dir, name + ".trace.json")
            check = subprocess.run([tool, path, "--check"],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   timeout=RUN_TIMEOUT_S)
            print(f"{name}: {check.stdout.strip()}")
            if check.returncode != 0:
                result["correct"] = False
                result["failed"] += 1

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} missing or not in "
                  f"{m['unit']}")
            result["correct"] = False
            continue
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
