#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_admission --seed 1 \
        --seconds 16 --trace 0

The build goes to .bench_build/perfbench (configured once, rebuilt
incrementally on every run). An untraced run is split into PARTS processes
of equal length, run one after another; each metric is the median over the
parts that report it, so one process that drew slow memory placement or a
noisy neighbour does not decide the run; latency percentiles are taken
over the pooled samples of all parts. The last line of stdout is the
result object
{"correct", "attempted", "failed", "metrics"}; it carries every end_to_end
metric of BENCHMARK.json when untraced and every per_layer metric when
traced. The exit code is non-zero when the build fails, a correctness check
fails, or the result does not match BENCHMARK.json. Traced runs also write
their spans to .bench_build/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_admission", "hot_recurring", "slo_schedule")
PARTS = 8
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def percentile_rank(n, q):
    """1-based nearest rank of the q-percentile of n samples (stats.h rule)."""
    return min(max(math.ceil(q * n), 1), n)


def pooled_latency(paths):
    """p50, p99 and sample count over the "<value> <count>" sample files."""
    counts = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                value, count = line.split()
                counts[float(value)] = counts.get(float(value), 0) + int(count)
    values = sorted(counts.items())
    n = sum(c for _, c in values)

    def at(q):
        rank, seen = percentile_rank(n, q), 0
        for value, count in values:
            seen += count
            if seen >= rank:
                return value
        return 0.0

    return at(0.5), at(0.99), n


def self_test():
    """The pooled percentile follows the same rule as the binary's."""
    assert percentile_rank(100, 0.5) == 50 and percentile_rank(100, 0.99) == 99
    assert 1000 - percentile_rank(1000, 0.99) == 10
    assert 999 - percentile_rank(999, 0.99) < 10
    assert percentile_rank(5, 0.5) == 3 and percentile_rank(1, 0.99) == 1


def combine(results):
    """One result from the parts: counts summed, each metric's median."""
    metrics = {}
    for name in dict.fromkeys(n for r in results for n in r["metrics"]):
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in results
                    if name in r["metrics"])
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return {"correct": all(r["correct"] is True for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def check_result(line, spec, traced):
    """Returns a list of problems with the result line against the spec."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("unexpected result keys %s" % sorted(res))
        return problems
    if res["correct"] is not True:
        problems.append("correctness checks failed")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    wanted = spec["per_layer" if traced else "end_to_end"]
    got = res["metrics"]
    for m in wanted:
        if m["name"] not in got:
            problems.append("missing metric %s" % m["name"])
        elif got[m["name"]].get("unit") != m["unit"]:
            problems.append("metric %s has unit %s, expected %s" % (
                m["name"], got[m["name"]].get("unit"), m["unit"]))
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % sorted(extra))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    self_test()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "core", "pipeline.h")):
        log("run.py: no library sources under ./src; "
            "run from the repository root")
        return 2
    if not os.path.isfile(spec_path):
        log("run.py: BENCHMARK.json not found in the current directory")
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    binary = build(root)
    if binary is None:
        log("run.py: build failed")
        return 3

    out_dir = os.path.join(root, ".bench_build", "traces")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-seed%d" % (args.workload, args.seed)
    parts = 1 if args.trace else PARTS
    sample_files = [os.path.join(out_dir, "%s-part%d.samples" % (name, k))
                    for k in range(parts)]
    results = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for part in range(parts):
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / parts),
               "--trace", str(args.trace), "--part", str(part),
               "--trace-out", os.path.join(out_dir, name + ".jsonl")]
        if not args.trace:
            cmd += ["--samples-out", sample_files[part]]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("run.py: benchmark did not finish within %d s" % RUN_TIMEOUT_S)
            return 4
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("run.py: part %d exited with %d" % (part, proc.returncode))
            return 1
        results.append(json.loads(lines[-1]))
    combined = combine(results)
    if not args.trace:
        # Latency percentiles over every request of the run, not a median
        # of per-process percentiles: the tail then rests on all samples.
        p50, p99, n = pooled_latency(sample_files)
        for path in sample_files:
            os.remove(path)
        if n - percentile_rank(n, 0.99) < 10:
            log("run.py: too few latency samples for a p99")
            return 1
        combined["metrics"]["latency_p50_us"]["value"] = p50
        combined["metrics"]["latency_p99_us"]["value"] = p99
    line = json.dumps(combined)
    problems = check_result(line, spec, args.trace == 1)
    if problems:
        for p in problems:
            log("run.py: " + p)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
