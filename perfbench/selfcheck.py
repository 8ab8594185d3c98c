#!/usr/bin/env python3
"""Determinism and null self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Runs tx_direct and restart traced three times: twice with --seed N
and once with N + 1. The per-op counts named in spec.json
("determinism.exact": fences, flushes, log entries and bytes, NVM
write bytes, allocations, modeled stall) must be identical for the
same seed, and the generated input stream (input_digest) must differ
for the other seed. Every run must also keep the null rule (a metric
the workload does not measure is null, one it measures is a number).
Exit status 1 on any mismatch.
"""

import argparse
import os
import sys
import time

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()

    spec = run.load_json(os.path.join(run.HERE, "spec.json"))
    bdir = run.build_dir()
    binary = run.build(bdir)
    if binary is None:
        return 1
    bad = []

    def once(workload, seed):
        rep, err = run.run_binary(binary, workload, seed, args.seconds, 1,
                                  bdir, run.DEADLINE_S)
        if rep is None or not rep["correct"]:
            bad.append("%s seed %d: run failed (%s)" % (workload, seed, err))
            return None
        bad.extend("%s: %s breaks the null rule" % (workload, n)
                   for n in run.null_rule(rep, workload, spec))
        return rep

    for workload in spec["determinism"]["workloads"]:
        t0 = time.monotonic()
        a, b = once(workload, args.seed), once(workload, args.seed)
        c = once(workload, args.seed + 1)
        if None in (a, b, c):
            continue
        for name in spec["determinism"]["exact"]:
            va, vb = a["metrics"].get(name), b["metrics"].get(name)
            if va is None or va != vb:
                bad.append("%s: %s differs for one seed: %r vs %r"
                           % (workload, name, va, vb))
        da, db, dc = (r["config"].get("input_digest") for r in (a, b, c))
        if da != db or da == dc:
            bad.append("%s: input digests %s %s %s (same, same, other seed)"
                       % (workload, da, db, dc))
        print("%-10s counts %s for seed %d, inputs %s -> %s for seed %d "
              "(%.0f s)" % (workload, "repeat" if not bad else "checked",
                            args.seed, da, dc, args.seed + 1,
                            time.monotonic() - t0))
    for b in bad:
        print("FAIL: " + b)
    print("selfcheck: %s" % ("FAIL" if bad else "PASS"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
