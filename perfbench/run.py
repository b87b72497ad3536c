#!/usr/bin/env python3
"""Build the runtime benchmark from source and run one workload.

    python3 perfbench/run.py --workload histogram --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the repository.  The benchmark is configured and built
with CMake under $CARGO_TARGET_DIR (default .bench_build), in a perfbench/
subdirectory.  Build output goes to stderr; stdout carries the benchmark's
ledger lines and, as its last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the run also writes its spans as Chrome trace-event JSON to
<build dir>/traces/<workload>-seed<seed>.json (open it in Perfetto).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("histogram", "indexgather", "rpc")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir, target):
    # Configuring again is quick and repairs a tree left by a failed one.
    subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, target)


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the output checks' own tests")
    args = ap.parse_args()

    bdir = build_dir()
    if args.self_test:
        exe = build(bdir, "perfbench_checks_test")
        return subprocess.run([exe]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    exe = build(bdir, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = check_result(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(1)
