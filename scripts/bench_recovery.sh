#!/usr/bin/env bash
# Rebuild and run the recovery benchmark's instant-restart sweep,
# merging the result into BENCH_recovery.json at the repo root under
# a label.
#
# usage: scripts/bench_recovery.sh [label]
#
# The default label is "current". One run sweeps full-vs-lazy restart
# (time-to-first-transaction) over clobber and pmdk at 64/256/512 MiB
# pools, so the full-restart rows of the same run are the ablation
# reference for the lazy rows — no pre-change capture is needed. The
# acceptance bar: lazy TTFT below full at every pool size, and >=10x
# below on the largest pool. Full restart is one word-stepping bitmap
# scan now (~1.9 ms at 512 MiB, lazy ~0.1 ms flat; 12-22x there over
# four runs); the bar used to stand against a per-granule scan
# (~73 ms, 25x).
#
# Knobs (env): CNVM_OPS (loaded pairs x2, default 20000), CNVM_REPS
# (per-cell repetitions, best kept, default 3), CNVM_SMOKE=1 (64 MiB
# pool only), BUILD_DIR (default build).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
LABEL="${1:-current}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target fig9_recovery -j "$(nproc)"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
# The TTFT sweep runs before the google-benchmark figure loop; the
# filter below skips the (slow) figure benchmarks themselves.
"$BUILD_DIR/bench/fig9_recovery" "$TMP" --benchmark_filter='^$' || true

python3 - "$TMP" "$LABEL" <<'EOF'
import json, os, sys

run_path, label = sys.argv[1], sys.argv[2]
out = "BENCH_recovery.json"
doc = {}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
with open(run_path) as f:
    doc[label] = json.load(f)
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF
echo "updated $(pwd)/BENCH_recovery.json (label: $LABEL)"
