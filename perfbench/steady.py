#!/usr/bin/env python3
"""Steadiness of the benchmark: runs workloads N times and reports spreads.

Usage (from the root of a checkout):
  python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Each workload (all of BENCHMARK.json's, or each --workload) runs --runs
times, seeds 1, 2, ..., for BENCHMARK.json's run_seconds, the workloads
taking turns. For every metric it prints the median, the first
and third quartiles (as Python's statistics.quantiles(values, n=4) gives
them), the spread
(Q3 - Q1) / median and, for end-to-end metrics, that spread as a share of
the metric's bound in BENCHMARK.json. The figures of the runs'
`perfbench.detail` lines follow, prefixed `detail:`, with no bound. It
also prints the share of failed operations and the host fingerprint. The
last line is the whole summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print("%s seed %d exited %d:\n%s" % (
            workload, seed, proc.returncode,
            "\n".join(proc.stderr.strip().splitlines()[-5:])), flush=True)
    lines = proc.stdout.strip().splitlines()
    host, detail = None, {}
    for line in lines:
        if line.startswith("perfbench.host "):
            host = json.loads(line[len("perfbench.host "):])
        elif line.startswith("perfbench.detail "):
            detail = json.loads(line[len("perfbench.detail "):])
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, host, result, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    summary = {"host": None, "runs": args.runs, "seconds": seconds,
               "workloads": {}}
    # Round-robin over the workloads, so a slow spell of the host lands on
    # every workload's runs rather than on one workload's consecutive runs.
    values = {w: {} for w in workloads}
    shares = {w: [] for w in workloads}
    bad = {w: 0 for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            code, host, result, detail = run_once(workload, i + 1, seconds)
            summary["host"] = summary["host"] or host
            if code != 0 or not result or not result.get("correct"):
                bad[workload] += 1
                continue
            shares[workload].append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            for name, m in detail.items():
                if m["value"] is not None:
                    values[workload].setdefault("detail:" + name, []).append(
                        m["value"])
    for workload in workloads:
        print("== %s: %d runs, %d bad, failed share %s" % (
            workload, args.runs, bad[workload], sorted(set(shares[workload]))))
        print("%-40s %12s %12s %12s %8s %8s" % (
            "metric", "median", "q1", "q3", "spread", "/bound"))
        rows = {}
        metrics = values[workload]
        for name in sorted(metrics, key=lambda n: (n.startswith("detail:"), n)):
            vals = metrics[name]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            of_bound = spread / bound if bound else None
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "spread_of_bound": of_bound,
                          "values": vals}
            print("%-40s %12.6g %12.6g %12.6g %8.4f %8s" % (
                name, med, q1, q3, spread,
                "%.3f" % of_bound if of_bound is not None else "-"))
        summary["workloads"][workload] = {
            "bad_runs": bad[workload],
            "failed_shares": sorted(set(shares[workload])), "metrics": rows}
    print("host %s" % json.dumps(summary["host"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
