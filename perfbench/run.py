#!/usr/bin/env python3
"""End-to-end benchmark of the Clobber-NVM reproduction.

Builds perfbench/ (which compiles the repository's libraries from
src/), runs one workload and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. Every metric the workload measures is
printed above that line by name and unit (perfbench/spec.json).

    python3 perfbench/run.py --workload kv_write --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

--workload all runs the four workloads in turn and exits non-zero if
any output failed its check. Every run is saved under
<build>/runs/ for perfbench/spread.py; a traced run also writes its
spans to <build>/trace/. <build> is $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, relative to the checkout root.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kv_write", "kv_read", "tx_direct", "restart"]
DEADLINE_S = 175  # one invocation must end within 180 s


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(bdir):
    """Configure once, then build the benchmark binary incrementally."""
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "cnvm_perfbench",
                  "--parallel", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log)
                return None
    return os.path.join(bdir, "cnvm_perfbench")


def child_env():
    """The program sees no ambient CNVM_* knob: the binary pins its own."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LANG": "C"}
    if "HOME" in os.environ:
        env["HOME"] = os.environ["HOME"]
    return env


def run_binary(binary, workload, seed, seconds, trace, bdir, budget):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        tdir = os.path.join(bdir, "trace")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(tdir, "%s-seed%d.spans.tsv" % (workload, seed))]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                           cwd=ROOT, timeout=max(1.0, budget), text=True)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        return None, "no output (exit %d)" % p.returncode
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "unparsable output (exit %d)" % p.returncode
    if p.returncode != 0 and rep.get("failed", 0) == 0:
        return None, "exit %d" % p.returncode
    return rep, None


def fmt(v):
    if v is None:
        return "null"
    if isinstance(v, float) and not v.is_integer():
        return "%.6g" % v
    return "%d" % v


def gated_metrics(rep, trace, bench):
    """BENCHMARK.json's metrics for this run; None if one is missing."""
    m = rep["metrics"]
    out = {}
    if trace:
        for e in bench["per_layer"]:
            v = m.get(e["name"])
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                return None, e["name"]
            out[e["name"]] = {"value": v, "unit": e["unit"]}
        return out, None
    for e in bench["end_to_end"]:
        v = m.get(e["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
            return None, e["name"]
        out[e["name"]] = {"value": v, "unit": e["unit"]}
    return out, None


def null_rule(rep, workload, spec):
    """Names of metrics that break the rule: a metric the workload
    measures is a number, one it does not measure is null (never 0)."""
    return [name for name, e in spec["metrics"].items()
            if (rep["metrics"].get(name) is None)
            == (workload in e["workloads"])]


def print_detail(rep, workload, trace, spec):
    m = rep["metrics"]
    print("== %s (seed %s, trace %d): correct=%s attempted=%d failed=%d"
          % (workload, rep["config"].get("seed"), trace, rep["correct"],
             rep["attempted"], rep["failed"]))
    for why in rep.get("failures", []):
        print("   failure: %s" % why)
    print("-- end-to-end (null: not measured by this workload)")
    for name, e in spec["metrics"].items():
        print("   %-26s %14s %s" % (name, fmt(m.get(name)), e["unit"]))
    if trace:
        print("-- per-layer")
        for name, e in spec["per_layer"].items():
            print("   %-30s %14s %s" % (name, fmt(m.get(name)), e["unit"]))
        print("-- spans (self time by layer, ms)")
        for name in sorted(k for k in m if k.endswith(".self_ms")
                           and not k.startswith("span.")):
            print("   %-30s %14s" % (name, fmt(m[name])))
    for r in rep.get("rungs", []):
        print("   rung %8d ops/s: p50 %9.1f us  p99 %9.1f us  late p99 %7.1f us"
              "  backlog max %6d  meets %s"
              % (r["rate"], r["p50_us"], r["p99_us"], r["late_p99_us"],
                 r["backlog_max"], r["meets"]))
    print("-- config %s" % json.dumps(rep["config"], sort_keys=True))


def run_one(binary, args, workload, spec, bench, bdir, t0):
    budget = DEADLINE_S - (time.monotonic() - t0)
    rep, err = run_binary(binary, workload, args.seed, args.seconds,
                          args.trace, bdir, budget)
    if rep is None:
        sys.stderr.write("perfbench: %s: %s\n" % (workload, err))
        return None
    print_detail(rep, workload, args.trace, spec)
    metrics, missing = gated_metrics(rep, args.trace, bench)
    correct = bool(rep["correct"]) and rep["failed"] == 0
    if metrics is None:
        sys.stderr.write("perfbench: %s: metric %s missing or not positive\n"
                         % (workload, missing))
        correct = False
        metrics = {}
    broken = null_rule(rep, workload, spec)
    if broken:
        sys.stderr.write("perfbench: %s: measured/null mismatch: %s\n"
                         % (workload, ", ".join(broken)))
        correct = False
    result = {"correct": correct, "attempted": int(rep["attempted"]),
              "failed": int(rep["failed"]), "metrics": metrics}
    rdir = os.path.join(bdir, "runs")
    os.makedirs(rdir, exist_ok=True)
    path = os.path.join(rdir, "%s-seed%d-trace%d-%d.json"
                        % (workload, args.seed, args.trace,
                           int(time.time() * 1000)))
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "result": result, "report": rep}, f)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    t0 = time.monotonic()

    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1

    if args.workload != "all":
        result = run_one(binary, args, args.workload, spec, bench, bdir, t0)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {}
    for w in WORKLOADS:  # each workload gets its own time budget
        results[w] = run_one(binary, args, w, spec, bench, bdir,
                             time.monotonic())
    ok = all(r is not None and r["correct"] for r in results.values())
    summary = {"correct": ok,
               "attempted": sum(r["attempted"] for r in results.values() if r),
               "failed": sum(r["failed"] for r in results.values() if r),
               "metrics": {w: (r["metrics"] if r else None)
                           for w, r in results.items()}}
    with open(os.path.join(bdir, "suite.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
