#!/usr/bin/env python3
"""Summarize serving runs from lamellar telemetry / bench output.

Two input kinds, freely mixed on stdin or in the given files (one JSON
object per line, non-JSON lines ignored):

* telemetry JSONL — the time series written by
  LAMELLAR_METRICS_INTERVAL_MS / LAMELLAR_METRICS_FILE (lines tagged
  "telemetry": "lamellar").  Reported as a per-tick control-plane view:
  AM send rate, flush-cause mix, the adaptive controller's threshold
  trajectory (ctl.threshold gauge), and adjustments.

* bench_serving rows — the one-line JSON rows bench_serving prints (lines
  tagged "bench": "serving", the same rows committed as BENCH_pr10.json).
  Reported as an A/B table per shape, with the adaptive configs compared
  against the best and worst static threshold.

Usage:
    tools/serving_report.py [telemetry.jsonl ...]      # files or stdin
    tools/serving_report.py --check BENCH_pr10.json    # CI validation mode

--check validates the committed serving artifact: every row verified, all
requests completed, and on every shape adapt-agg within 10% of the best
static config's achieved throughput, no worse than the worst static config's
service p99, and making controller adjustments (the properties CI enforces).
"""

import json
import sys
from collections import defaultdict


def load_lines(paths):
    rows = []
    streams = [open(p) for p in paths] if paths else [sys.stdin]
    for stream in streams:
        for line in stream:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    for stream in streams:
        if stream is not sys.stdin:
            stream.close()
    return rows


# ---- telemetry time series -------------------------------------------------


def report_telemetry(lines):
    by_tick = defaultdict(list)
    for ln in lines:
        by_tick[ln.get("tick", 0)].append(ln)
    if not by_tick:
        return
    print("# control-plane time series "
          f"({len(by_tick)} ticks, {len(lines)} pe-samples)")
    hdr = (f"{'tick':>5} {'ms':>8} {'sent/tick':>10} {'thresh-fl':>10} "
           f"{'age-fl':>7} {'expl-fl':>8} {'ctl.thresh':>11} {'adj':>4}")
    print(hdr)
    for tick in sorted(by_tick):
        pes = by_tick[tick]
        ms = max(p.get("elapsed_ms", 0) for p in pes)

        def csum(name):
            return sum(p.get("counters", {}).get(name, 0) for p in pes)

        def gmax(name):
            # Gauge values are exported as [level, high-water] pairs.
            def level(g):
                return g[0] if isinstance(g, list) else g
            return max(
                (level(p.get("gauges", {}).get(name, [0, 0])) for p in pes),
                default=0)

        sent = csum("am.sent_remote") + csum("am.sent_local")
        print(f"{tick:>5} {ms:>8} {sent:>10} "
              f"{csum('cmdq.flush_threshold'):>10} "
              f"{csum('cmdq.flush_age'):>7} "
              f"{csum('cmdq.flush_explicit'):>8} "
              f"{gmax('ctl.threshold'):>11} "
              f"{csum('ctl.adjustments'):>4}")
    print()


# ---- bench_serving A/B rows ------------------------------------------------


def static_rows(rows):
    return [r for r in rows if r["config"].startswith("static-")]


def report_serving(rows):
    by_shape = defaultdict(list)
    for r in rows:
        by_shape[r["shape"]].append(r)
    for shape in sorted(by_shape):
        shaped = by_shape[shape]
        print(f"# shape: {shape}  (offered {shaped[0]['offered_rps']:.0f}"
              " req/s)")
        print(f"{'config':<14} {'achieved/s':>11} {'svc_p99us':>10} "
              f"{'arr_p99us':>10} {'adj':>5} {'ok':>3}")
        for r in shaped:
            print(f"{r['config']:<14} {r['achieved_rps']:>11.0f} "
                  f"{r['service_us']['p99']:>10.1f} "
                  f"{r['arrival_us']['p99']:>10.1f} "
                  f"{r['ctl_adjustments']:>5} "
                  f"{'yes' if r['verified'] else 'NO':>3}")
        statics = static_rows(shaped)
        adaptive = [r for r in shaped if r["config"].startswith("adapt-")]
        if statics and adaptive:
            best = max(statics, key=lambda r: r["achieved_rps"])
            worst_p99 = max(r["service_us"]["p99"] for r in statics)
            for r in adaptive:
                ratio = r["achieved_rps"] / max(1.0, best["achieved_rps"])
                p99_gain = worst_p99 / max(0.1, r["service_us"]["p99"])
                print(f"  {r['config']}: {ratio:.2f}x best-static "
                      f"({best['config']}) throughput, "
                      f"{p99_gain:.1f}x lower svc p99 than worst static")
        print()


def check_serving(rows):
    """CI validation of the committed BENCH_pr10.json properties."""
    failures = []
    by_shape = defaultdict(list)
    for r in rows:
        if not r.get("verified", False):
            failures.append(f"{r['shape']}/{r['config']}: not verified")
        if r.get("completed") != r.get("requests"):
            failures.append(f"{r['shape']}/{r['config']}: "
                            f"{r['completed']}/{r['requests']} completed")
        by_shape[r["shape"]].append(r)
    for shape, shaped in sorted(by_shape.items()):
        statics = static_rows(shaped)
        agg = [r for r in shaped if r["config"] == "adapt-agg"]
        if not statics or not agg:
            failures.append(f"{shape}: missing static or adapt-agg rows")
            continue
        best = max(r["achieved_rps"] for r in statics)
        worst_p99 = max(r["service_us"]["p99"] for r in statics)
        a = agg[0]
        if a["achieved_rps"] < 0.9 * best:
            failures.append(
                f"{shape}: adapt-agg {a['achieved_rps']:.0f} req/s < "
                f"0.9x best static {best:.0f}")
        if a["service_us"]["p99"] > worst_p99:
            failures.append(
                f"{shape}: adapt-agg svc p99 {a['service_us']['p99']:.1f}us "
                f"worse than worst static {worst_p99:.1f}us")
        if a["ctl_adjustments"] == 0:
            failures.append(f"{shape}: adapt-agg made no adjustments")
    for msg in failures:
        print(f"CHECK FAIL: {msg}", file=sys.stderr)
    return not failures


def main(argv):
    check = "--check" in argv
    paths = [a for a in argv[1:] if not a.startswith("--")]
    lines = load_lines(paths)
    serving = [r for r in lines if r.get("bench") == "serving"]
    telemetry = [r for r in lines if r.get("telemetry") == "lamellar"]
    if check:
        if not serving:
            print("CHECK FAIL: no serving rows found", file=sys.stderr)
            return 1
        return 0 if check_serving(serving) else 1
    if not serving and not telemetry:
        print("no telemetry or serving rows found", file=sys.stderr)
        return 1
    report_telemetry(telemetry)
    report_serving(serving)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
