#!/usr/bin/env bash
# Clean-vs-worst-case parse throughput datapoint: runs the paper-sized
# campaign twice — once with pristine flash, once under the `worst`
# corruption profile — and merges the two `--timing-json` dumps into a
# single document that records the host's core count. Throughput =
# parse_bytes / parse_seconds of each arm, where parse_seconds is the
# per-phone parse time summed over workers; the default single worker
# keeps that sum free of oversubscription skew. The raw numbers are
# kept so CI can trend them.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_corruption.json}"
SEED="${SEED:-2005}"
PHONES="${PHONES:-25}"
DAYS="${DAYS:-425}"
WORKERS="${WORKERS:-1}"
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"

cargo build --release -p symfail-bench --bin repro >/dev/null
BIN=target/release/repro

tmp_clean="$(mktemp)"
tmp_worst="$(mktemp)"
trap 'rm -f "$tmp_clean" "$tmp_worst"' EXIT

"$BIN" --exp defects --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --workers "$WORKERS" --corruption none \
    --timing-json "$tmp_clean" >/dev/null
"$BIN" --exp defects --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --workers "$WORKERS" --corruption worst \
    --timing-json "$tmp_worst" >/dev/null

# Indent an embedded JSON document by two spaces (first line excluded,
# so it sits after the key on the same line).
embed() { sed -e 's/^/  /' -e '1s/^  //' "$1"; }

{
    printf '{\n'
    printf '  "schema": "symfail-bench-corruption/2",\n'
    printf '  "cores": %s,\n' "$CORES"
    printf '  "clean": %s,\n' "$(embed "$tmp_clean")"
    printf '  "worst": %s\n' "$(embed "$tmp_worst")"
    printf '}\n'
} >"$OUT"

echo "wrote $OUT"
