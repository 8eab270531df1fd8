#!/usr/bin/env python3
"""mScopeBench runner: builds the benchmark, runs one workload for a fixed
time as repeated single-process iterations, and reports medians.

    python3 mscopebench/run.py --workload fleet_stream --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR), per-iteration scratch directories to .bench_build/tmp,
and traced runs' spans to .bench_build/spans. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
are BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1). Iteration k runs input seed 1000 * seed + k, so a run
is a median over several inputs drawn from its seed.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ITERATIONS = 5  # per kind (untraced / traced), so medians are medians
MIN_QUERY_SAMPLES = 1000  # >= 10 samples beyond p99
TIME_CAP_S = 150  # stop adding iterations past this, whatever the minimums
# End-to-end metrics shown with units in the report for the workloads they
# apply to, as (metric the binary reports, unit); not part of BENCHMARK.json's
# end_to_end because they are not defined on every workload.
EXTRA = {"recover_s": ("db.recover_s", "s"),
         "collect_lag_max_ms": ("fleet.collect_lag_max_ms", "virtual_ms")}


def fail(msg):
    print(f"mscopebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the package; serialized by a lock file so
    concurrent runs in one checkout never build over each other."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("milliScope sources (src/) not found next to mscopebench/")
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", cmake_dir, "-j", jobs, "--target",
               "mscopebench"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(cmake_dir, "mscopebench")


def iteration(binary, args, seed, traced):
    """One workload iteration in its own process; returns its JSON."""
    tmp = os.path.join(build_dir(), "tmp")
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-{seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--tmp", tmp, "--trace", "1" if traced else "0", "--spans", spans]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # The binary removes its scratch dir itself, unless it was killed.
        shutil.rmtree(os.path.join(
            tmp, f"mscopebench-{proc.pid}-{args.workload}-{seed}"),
            ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["spans_file"] = spans if traced else None
    return result


def percentile(values, q):
    """Nearest-rank percentile, and how many samples lie above it."""
    ranked = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ranked)))
    return ranked[rank - 1], len(ranked) - rank


def median_of(runs, name):
    values = [r["metrics"][name] for r in runs if name in r["metrics"]]
    if not values:
        fail(f"no iteration reported {name}")
    return statistics.median(values)


def self_time_breakdown(runs):
    """Median self time per span name inside the traced timed sequence (the
    spans under "wall"), over traced iterations."""
    per_name = {}
    for r in runs:
        with open(r["spans_file"]) as f:
            spans = json.load(f)
        totals = {}
        for s in spans:
            root = s
            while root["parent"] >= 0:
                root = spans[root["parent"]]
            if s is not root and root["name"] == "wall":
                totals[s["name"]] = totals.get(s["name"], 0) + s["self_s"]
        for name, v in totals.items():
            per_name.setdefault(name, []).append(v)
    return {n: statistics.median(v) for n, v in per_name.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized inputs, one iteration of each kind")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build()

    min_iters = 1 if args.smoke else MIN_ITERATIONS
    plain, traced = [], []
    start = time.monotonic()
    k = 0
    while True:
        seed = args.seed * 1000 + k
        plain.append(iteration(binary, args, seed, False))
        if args.trace:
            traced.append(iteration(binary, args, seed, True))
        k += 1
        elapsed = time.monotonic() - start
        samples = sum(len(r["query_ms"]) for r in plain)
        enough = k >= min_iters and (
            args.smoke or args.trace or samples >= MIN_QUERY_SAMPLES)
        if elapsed >= TIME_CAP_S or (enough and elapsed >= args.seconds):
            break

    runs = plain + traced
    attempted = sum(r["checks_run"] for r in runs)
    failed = sum(r["checks_failed"] for r in runs)
    for r in runs:
        for line in r["failures"]:
            print(f"CHECK FAILED: {line}")

    print(f"workload {args.workload}  seed {args.seed}  iterations "
          f"{len(plain)} untraced + {len(traced)} traced")
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                # Same inputs traced and untraced: the median paired cost.
                value = statistics.median(
                    t["metrics"]["wall_s"] - p["metrics"]["wall_s"]
                    for p, t in zip(plain, traced))
            else:
                value = median_of(traced, m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        breakdown = self_time_breakdown(traced)
        wall = metrics["trace.wall_s"]["value"]
        print("self time by span (median over traced iterations):")
        for name, s in sorted(breakdown.items(), key=lambda kv: -kv[1])[:12]:
            print(f"  {name:<24}{s:10.4f} s  {100 * s / wall:5.1f}% of wall")
        print("spans: " + ", ".join(r["spans_file"] for r in traced))
    else:
        latencies = [ms for r in plain for ms in r["query_ms"]]
        for m in spec["end_to_end"]:
            name = m["name"]
            if name in ("query_p50_ms", "query_p99_ms"):
                q = 50 if name == "query_p50_ms" else 99
                value, _ = percentile(latencies, q)
            else:
                value = median_of(plain, name)
            metrics[name] = {"value": value, "unit": m["unit"]}
        _, beyond = percentile(latencies, 99)
        print(f"query samples {len(latencies)} ({beyond} beyond p99)")
        for name, (source, unit) in EXTRA.items():
            if source in plain[0]["metrics"]:
                print(f"{name:<32}{median_of(plain, source):14.6f} {unit}")
        pinned = sum(r["metrics"]["core.pinned"] for r in plain)
        windows = sum(r["metrics"]["core.windows"] for r in plain)
        agreeing = sum(r["metrics"]["core.windows"] *
                       r["metrics"]["flow.drill_agreement"] for r in plain)
        print(f"verdict: db1/disk-io pinned in {pinned:.0f} of "
              f"{len(plain)} iterations; drill-down agrees on "
              f"{agreeing:.0f} of {windows:.0f} windows")
    for name, m in metrics.items():
        print(f"{name:<32}{m['value']:14.6f} {m['unit']}")
    print(f"{'failed_share':<32}{failed / max(attempted, 1):14.6f} ratio "
          f"({failed} of {attempted} checks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
