#!/usr/bin/env python3
"""Run workloads several times and report how steady their metrics are.

    python3 perfbench/steady.py --workload rpc --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 101

Each run uses its own seed (first-seed, first-seed + 1, ...).  Per end-to-end
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(n=4)), the spread (q3 - q1) / median, the metric's bound
from BENCHMARK.json, and whether the spread fits within the bound.  setup_s
is compared on its median between runs, not on its spread, so its spread is
shown but not judged.  It also prints the failed share of each run, which
must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         check=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def report(workload, results, spec):
    print("== %s (%d runs)" % (workload, len(results)))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("   failed share per run: %s  correct: %s" % (
        shares, all(r["correct"] for r in results)))
    steady = len(shares) == 1
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        judged = m["name"] != "setup_s"
        fits = spread <= m["bound"]
        verdict = ("fits" if fits else "TOO WIDE") if judged else "not judged"
        if judged and fits and spread > m["bound"] / 3:
            verdict += " (above a third of the bound)"
        steady = steady and (fits or not judged)
        print("   %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
              "bound %.2f  %s" % (m["name"], med, q1, q3, spread, m["bound"],
                                   verdict))
    return steady


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    steady = True
    for workload in names if args.workload == "all" else [args.workload]:
        results = [one_run(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        steady = report(workload, results, spec) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
