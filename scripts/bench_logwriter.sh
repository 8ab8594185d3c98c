#!/usr/bin/env bash
# Rebuild and run the log-writer shootout microbenchmark, merging the
# result into BENCH_logwriter.json at the repo root under a label.
#
# usage: scripts/bench_logwriter.sh [label]
#
# The default label is "current". One run sweeps the full matrix
# internally (writer x protocol x op x threads via
# rt::selectLogWriter), so the baseline-writer rows double as the
# ablation reference for the zerocached rows of the same run —
# no pre-change capture is needed.
#
# Knobs (env): CNVM_OPS (txfunc calls/thread, default 400000),
# CNVM_MAXTHREADS, CNVM_POOL_MB, BUILD_DIR (default build).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
LABEL="${1:-current}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target micro_logwriter -j "$(nproc)"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
"$BUILD_DIR/bench/micro_logwriter" "$TMP"

python3 - "$TMP" "$LABEL" <<'EOF'
import json, os, sys

run_path, label = sys.argv[1], sys.argv[2]
out = "BENCH_logwriter.json"
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
echo "updated $(pwd)/BENCH_logwriter.json (label: $LABEL)"
