#!/usr/bin/env python3
"""Spread report over saved benchmark runs.

    python3 perfbench/spread.py [PATH ...] [--all] [--compare PATH ...]

PATH is a run file saved by perfbench/run.py or a directory of them
(default: .bench_build/perfbench/runs). For each (workload, metric)
the report prints the run count, median, first and third quartile
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median. A
gated end-to-end metric whose spread exceeds its BENCHMARK.json bound
is flagged OVER (setup_s is shown but not judged: its bound limits
drift between sets, not spread), and one above a third of its bound is
marked noisy.

--all reports every metric the runs recorded (the workload's own
metric names, per-layer ones included) instead of the gated ones.

--compare PATH ... reads a second set and prints, per metric, how much
worse the second median is than the first (share of the first); a
gated metric worse by more than its bound is flagged WORSE. With --all
every metric whose better direction spec.json gives is compared.

Exit status 1 when anything is flagged OVER or WORSE.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_files(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            out += [os.path.join(p, f) for f in sorted(os.listdir(p))
                    if f.endswith(".json")]
        else:
            out.append(p)
    return out


def collect(paths, all_metrics):
    """{(workload, trace): {metric: [values]}} from saved runs."""
    groups = {}
    for path in run_files(paths):
        with open(path) as f:
            run = json.load(f)
        key = (run["workload"], run["trace"])
        g = groups.setdefault(key, {})
        if all_metrics:
            items = run["report"]["metrics"].items()
        else:
            items = ((k, v["value"]) for k, v in
                     run["result"]["metrics"].items())
        for name, v in items:
            if isinstance(v, (int, float)):
                g.setdefault(name, []).append(float(v))
        g.setdefault("_correct", []).append(
            1.0 if run["result"]["correct"] else 0.0)
    return groups


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("paths", nargs="*")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--compare", nargs="+", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    e2e = {e["name"]: e for e in bench["end_to_end"]}
    better = {n: e["better"] for n, e in spec["metrics"].items()}
    better.update({e["name"]: e["better"] for e in bench["per_layer"]})
    better.update({n: e["better"] for n, e in e2e.items()})
    default = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"),
                           "perfbench", "runs")
    first = collect(args.paths or [default], args.all)
    second = collect(args.compare, args.all) if args.compare else None
    bad = 0

    print("%-10s %-5s %-32s %3s %14s %14s %14s %7s  %s"
          % ("workload", "trace", "metric", "n", "q1", "median", "q3",
             "spread", "flag"))
    for (workload, trace), metrics in sorted(first.items()):
        runs = len(metrics["_correct"])
        wrong = runs - int(sum(metrics["_correct"]))
        if wrong:
            print("%-10s %-5d %d of %d runs not correct  WRONG"
                  % (workload, trace, wrong, runs))
            bad += 1
        for name in sorted(k for k in metrics if k != "_correct"):
            vals = metrics[name]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            e = e2e.get(name)
            if e is not None and trace == 0 and name != "setup_s":
                if spread > e["bound"]:
                    flag, bad = "OVER", bad + 1
                elif spread > e["bound"] / 3:
                    flag = "noisy"
            print("%-10s %-5d %-32s %3d %14.6g %14.6g %14.6g %7.3f  %s"
                  % (workload, trace, name, len(vals), q1, med, q3,
                     spread, flag))

    if second is not None:
        print("\n%-10s %-32s %14s %14s %8s  %s"
              % ("workload", "metric", "median A", "median B", "worse",
                 "flag"))
        for (workload, trace), metrics in sorted(first.items()):
            other = second.get((workload, trace), {})
            for name in sorted(k for k in metrics if k in better):
                if name not in other:
                    continue
                a = statistics.median(metrics[name])
                b = statistics.median(other[name])
                if a == 0:
                    continue
                worse = (b - a) / a if better[name] == "lower" \
                    else (a - b) / a
                flag = ""
                gated = e2e.get(name) if trace == 0 else None
                if gated is not None and worse > gated["bound"]:
                    flag, bad = "WORSE", bad + 1
                print("%-10s %-32s %14.6g %14.6g %8.3f  %s"
                      % (workload, name, a, b, worse, flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
