#!/usr/bin/env python3
"""Summarize the fig*.csv outputs of the bench harness into markdown.

Usage: scripts/summarize_results.py [results-dir]

Reads the figN.csv files the bench binaries write (artifact-style rows)
and prints, per figure, the comparison table EXPERIMENTS.md embeds:
single-thread and max-thread throughputs with ratios for Figure 6/10,
per-transaction log volumes for Figures 7/8, and so on. The instant-
restart table comes from the BENCH_recovery.json fig9_recovery writes.
"""
import csv
import json
import os
import sys
from collections import defaultdict


def read(path):
    rows = []
    if not os.path.exists(path):
        return rows
    with open(path) as f:
        for row in csv.reader(f):
            if not row or row[0].startswith('#'):
                continue
            rows.append(row)
    return rows


def fig6(d):
    rows = read(os.path.join(d, 'fig6.csv'))
    if not rows:
        return
    # system,structure,threads,run,valsize,tput
    data = defaultdict(dict)
    threads = set()
    for sysname, structure, t, _run, _vs, tput in rows:
        data[structure][(sysname, int(t))] = float(tput)
        threads.add(int(t))
    tmax = max(threads)
    print('\n### Figure 6 — data-structure throughput (ops/s)\n')
    print('| structure | system | 1 thread | %d threads | clobber/x @1T |' % tmax)
    print('|---|---|---|---|---|')
    for structure in sorted(data):
        base = data[structure].get(('clobber', 1), 0)
        for sysname in ('clobber', 'pmdk', 'mnemosyne', 'atlas'):
            t1 = data[structure].get((sysname, 1))
            tn = data[structure].get((sysname, tmax))
            if t1 is None:
                continue
            ratio = base / t1 if t1 else float('nan')
            print('| %s | %s | %.0f | %.0f | %.2fx |' %
                  (structure, sysname, t1, tn or 0, ratio))


def fig7(d):
    rows = read(os.path.join(d, 'fig7.csv'))
    if not rows:
        return
    print('\n### Figure 7 — logging breakdown (single thread)\n')
    print('| config | structure | ops/s | entries/tx | bytes/tx |'
          ' fences/tx |')
    print('|---|---|---|---|---|---|')
    for cfg, structure, tput, entries, byts, fences in rows:
        print('| %s | %s | %.0f | %s | %s | %s |' %
              (cfg, structure, float(tput), entries, byts, fences))


def fig8(d):
    rows = read(os.path.join(d, 'fig8.csv'))
    if not rows:
        return
    data = defaultdict(dict)
    for sysname, structure, entries, byts in rows:
        data[structure][sysname] = (float(entries), float(byts))
    print('\n### Figure 8 — iDO vs Clobber log volume per transaction\n')
    print('| structure | ido bytes/tx | clobber bytes/tx | ratio |'
          ' entries ratio |')
    print('|---|---|---|---|---|')
    for structure in sorted(data):
        if 'ido' not in data[structure]:
            continue
        ie, ib = data[structure]['ido']
        ce, cb = data[structure]['clobber']
        print('| %s | %.0f | %.0f | %.1fx | %.1fx |' %
              (structure, ib, cb, ib / cb, ie / ce))


def fig9(d):
    rows = read(os.path.join(d, 'fig9.csv'))
    if not rows:
        return
    agg = defaultdict(lambda: [0.0, 0.0, 0])
    for sysname, structure, _crash, total, rebuild in rows:
        a = agg[(structure, sysname)]
        a[0] += float(total)
        a[1] += float(rebuild)
        a[2] += 1
    print('\n### Figure 9 — recovery latency (us, mean over runs)\n')
    print('| structure | system | recover | pool mgmt (rebuild) |')
    print('|---|---|---|---|')
    for (structure, sysname) in sorted(agg):
        t, r, n = agg[(structure, sysname)]
        print('| %s | %s | %.0f | %.0f |' %
              (structure, sysname, t / n, r / n))


def fig10(d):
    rows = read(os.path.join(d, 'fig10.csv'))
    if not rows:
        return
    data = defaultdict(dict)
    threads = set()
    for sysname, wl, lock, t, tput in rows:
        data[(wl, lock)][(sysname, int(t))] = float(tput)
        threads.add(int(t))
    tmax = max(threads)
    print('\n### Figure 10 — memcached model (ops/s)\n')
    print('| workload | lock | system | 1 thread | %d threads |' % tmax)
    print('|---|---|---|---|---|')
    for (wl, lock) in sorted(data):
        for sysname in ('clobber', 'pmdk', 'mnemosyne'):
            t1 = data[(wl, lock)].get((sysname, 1))
            tn = data[(wl, lock)].get((sysname, tmax))
            if t1 is None:
                continue
            print('| %s | %s | %s | %.0f | %.0f |' %
                  (wl, lock, sysname, t1, tn or 0))


def fig11(d):
    rows = read(os.path.join(d, 'fig11.csv'))
    if not rows:
        return
    print('\n### Figure 11 — vacation (tasks/s, overhead vs No-log)\n')
    print('| system | table | queries/task | tasks/s | overhead % |')
    print('|---|---|---|---|---|')
    for sysname, table, q, tput, ovh in rows:
        print('| %s | %s | %s | %.0f | %s |' %
              (sysname, table, q, float(tput), ovh))


def fig12(d):
    rows = read(os.path.join(d, 'fig12.csv'))
    if not rows:
        return
    print('\n### Figure 12 — yada (simulated seconds per full run)\n')
    print('| system | angle | elapsed (s) | steps | mesh size |'
          ' overhead % |')
    print('|---|---|---|---|---|---|')
    for sysname, angle, secs, steps, mesh, ovh in rows:
        print('| %s | %s | %s | %s | %s | %s |' %
              (sysname, angle, secs, steps, mesh, ovh))


def fig13(d):
    rows = read(os.path.join(d, 'fig13.csv'))
    if not rows:
        return
    print('\n### Figure 13 — refinement effectiveness\n')
    print('| workload | conservative ops/s | refined ops/s |'
          ' improvement % | unopt extra entries % | extra bytes % |')
    print('|---|---|---|---|---|---|')
    for wl, ct, rt, imp, ee, eb in rows:
        print('| %s | %.0f | %.0f | %s | %s | %s |' %
              (wl, float(ct), float(rt), imp, ee, eb))


def fig14(d):
    rows = read(os.path.join(d, 'fig14.csv'))
    if not rows:
        return
    print('\n### Figure 14 — compile-time overhead\n')
    print('| module | functions | baseline (ms) | with passes (ms) |'
          ' overhead % |')
    print('|---|---|---|---|---|')
    for mod, fns, base, full, ovh in rows:
        print('| %s | %s | %s | %s | %s |' % (mod, fns, base, full, ovh))


def ablation(d):
    rows = read(os.path.join(d, 'ablation_lazy_begin.csv'))
    if not rows:
        return
    print('\n### Ablation — lazy vs eager begin persistence\n')
    print('| system | workload | mode | ops/s | fences/op |')
    print('|---|---|---|---|---|')
    for sysname, wl, mode, tput, fences in rows:
        print('| %s | %s | %s | %.0f | %s |' %
              (sysname, wl, mode, float(tput), fences))


def read_json(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def recovery(d):
    doc = read_json(os.path.join(d, 'BENCH_recovery.json'))
    if not doc:
        return
    print('\n### Instant restart — time to first transaction '
          '(BENCH_recovery.json, median of %d reps [min-max])\n'
          % doc['reps'])
    print('| system | pool MB | full TTFT us | lazy TTFT us | speedup |'
          ' lazy admit us | pending @first tx |')
    print('|---|---|---|---|---|---|---|')
    cells = {}
    for row in doc['ttft']:
        cells.setdefault((row['system'], row['pool_mb']),
                         {})[row['mode']] = row
    for (sysname, mb) in sorted(cells):
        full = cells[(sysname, mb)].get('full')
        lazy = cells[(sysname, mb)].get('lazy')
        if full is None or lazy is None:
            continue
        sp = (full['ttft_us'] / lazy['ttft_us']
              if lazy['ttft_us'] else float('nan'))
        print('| %s | %d | %.0f [%.0f-%.0f] | %.0f [%.0f-%.0f] |'
              ' %.1fx | %.0f | %d |' %
              (sysname, mb, full['ttft_us'], full['ttft_min_us'],
               full['ttft_max_us'], lazy['ttft_us'],
               lazy['ttft_min_us'], lazy['ttft_max_us'], sp,
               lazy['recover_us'], lazy['pending_at_first_tx']))


def main():
    d = sys.argv[1] if len(sys.argv) > 1 else '.'
    for fn in (fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
               fig14, ablation, recovery):
        fn(d)


if __name__ == '__main__':
    main()
