#!/usr/bin/env python3
"""Smoke-sized self-test of the mScopeBench runner.

    python3 mscopebench/selftest.py

Runs every workload of BENCHMARK.json at smoke size through run.py, once
untraced and once traced, and checks that:
  - the last stdout line is {"correct", "attempted", "failed", "metrics"},
    the run is correct, and the metrics are exactly BENCHMARK.json's
    end_to_end (untraced) or per_layer (traced) metrics, with their units;
  - the report prints each metric that applies to the workload by name and
    unit, including recover_s, collect_lag_max_ms and failed_share;
  - every span the traced run wrote lies inside its parent span.
Exits 1 on the first problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXTRA = {"fleet_stream": ["collect_lag_max_ms"],
         "online_durable": ["recover_s"],
         "batch_query": []}


def check(ok, what):
    if not ok:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    check(out.returncode == 0, f"{workload} trace={trace} exited "
          f"{out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(workload, trace, report, result, declared):
    tag = f"{workload} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, f"{tag}: not correct: {report}")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in declared},
          f"{tag}: metrics differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{tag}: unit of {m['name']}")
        check(isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]), f"{tag}: value of {m['name']}")
        check(any(line.split()[:1] == [m["name"]] and m["unit"] in line
                  for line in report), f"{tag}: {m['name']} not printed")
    extras = ["failed_share"] + (EXTRA[workload] if not trace else [])
    for name in extras:
        check(any(line.split()[:1] == [name] for line in report),
              f"{tag}: {name} not printed")


def check_spans(workload, report):
    files = [line[len("spans: "):].split(", ") for line in report
             if line.startswith("spans: ")]
    check(len(files) == 1 and files[0], f"{workload}: no spans written")
    for path in files[0]:
        with open(path) as f:
            spans = json.load(f)
        check(any(s["name"] == "wall" and s["parent"] < 0 for s in spans),
              f"{path}: no root 'wall' span")
        for s in spans:
            check(s["start_s"] <= s["end_s"], f"{path}: span {s['id']} ends "
                  "before it starts")
            if s["parent"] < 0:
                continue
            p = spans[s["parent"]]
            check(s["parent"] < s["id"] and p["start_s"] <= s["start_s"] and
                  s["end_s"] <= p["end_s"],
                  f"{path}: span {s['id']} ({s['name']}) escapes its parent "
                  f"{p['id']} ({p['name']})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            report, result = run(w["name"], trace)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            check_result(w["name"], trace, report, result, declared)
            if trace:
                check_spans(w["name"], report)
        print(f"selftest: {w['name']} ok")
    print("selftest: ok")


if __name__ == "__main__":
    main()
