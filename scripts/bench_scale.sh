#!/usr/bin/env bash
# Fleet-scale pipeline datapoints: for each phone count in PHONES_LIST,
# runs the streaming campaign twice — once on one worker (the parse
# rate is per-thread CPU time, so only a single worker measures it
# without oversubscription skew) and once on WORKERS workers (wall
# clock, peak live heap and merge counters) — and assembles the
# per-scale numbers into one JSON document that records the host's
# core count.
#
# If a previous document exists (the committed baseline, or $BASELINE),
# the script gates on it: any phone count whose one-worker parsed lines
# per second fall below MIN_RATIO of the baseline's (its own
# w1_parse_lines over w1_parse_seconds) fails the run. Two within-run
# gates cover the streaming driver: at every phone count >=
# STREAM_GATE_MIN its peak live heap must stay at or under
# STREAM_PEAK_MAX_BYTES; and across the whole sweep the *last* point's
# WORKERS-worker parse MB/s must hold at least CLIFF_RATIO of the first
# point's — the anti-cliff gate that pins the sharded merger's flat
# throughput profile at fleet scale. A heterogeneous MIXED_PHONES-phone
# datapoint (`--fleet mixed`) rides under the same anti-cliff floor:
# device-class skew concentrates cost on communicator phones, and the
# grouped accumulators must not reopen the cliff. The fresh document is
# only written once every gate passes, so a failing run never
# overwrites the baseline it was judged against.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_scale.json}"
SEED="${SEED:-2005}"
DAYS="${DAYS:-425}"
WORKERS="${WORKERS:-4}"
PHONES_LIST="${PHONES_LIST:-25 250 1000}"
BASELINE="${BASELINE:-BENCH_scale.json}"
MIN_RATIO="${MIN_RATIO:-0.8}"
STREAM_GATE_MIN="${STREAM_GATE_MIN:-100}"
# 64 MiB: at least 1.6x the measured 4-worker streaming peak (~38 MB at
# 100-1000 phones x 425 days), and under half of what a materialized
# fleet needs from 250 phones x 425 days up (~556 MB there).
STREAM_PEAK_MAX_BYTES="${STREAM_PEAK_MAX_BYTES:-67108864}"
CLIFF_RATIO="${CLIFF_RATIO:-0.5}"
MIXED_PHONES="${MIXED_PHONES:-250}"
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"

cargo build --release -p symfail-bench --bin repro >/dev/null
BIN=target/release/repro

tmp_w1="$(mktemp)"
tmp_stream="$(mktemp)"
tmp_mixed="$(mktemp)"
tmp_out="$(mktemp)"
trap 'rm -f "$tmp_w1" "$tmp_stream" "$tmp_mixed" "$tmp_out"' EXIT

# First numeric value of a key in a timing-JSON dump.
jget() { grep -o "\"$2\": [0-9.]*" "$1" | head -n1 | awk '{print $2}'; }
# Wall-clock total: the sum of every stage's seconds.
jwall() {
    awk -F'"seconds": ' '/"stage"/ { split($2, a, ","); s += a[1] }
        END { printf "%.6f", s }' "$1"
}
# Parse MB/s of a timing-JSON dump.
jmbps() {
    awk -v b="$(jget "$1" parse_bytes)" -v s="$(jget "$1" parse_seconds)" \
        'BEGIN { printf "%.2f", (s > 0) ? b / s / 1048576 : 0 }'
}

{
    printf '{\n'
    printf '  "schema": "symfail-bench-scale/6",\n'
    printf '  "seed": %s,\n' "$SEED"
    printf '  "days": %s,\n' "$DAYS"
    printf '  "workers": %s,\n' "$WORKERS"
    printf '  "cores": %s,\n' "$CORES"
    printf '  "points": [\n'
    first=1
    for phones in $PHONES_LIST; do
        echo "bench_scale: $phones phones x $DAYS days..." >&2
        "$BIN" --exp defects --seed "$SEED" --phones "$phones" --days "$DAYS" \
            --workers 1 --timing-json "$tmp_w1" >/dev/null 2>&1
        "$BIN" --exp defects --seed "$SEED" --phones "$phones" --days "$DAYS" \
            --workers "$WORKERS" --timing-json "$tmp_stream" >/dev/null 2>&1
        worker_allocs="$(grep -o '"worker_alloc_calls": \[[^]]*\]' "$tmp_stream" \
            | head -n1 | sed 's/.*\[/[/')"

        [ "$first" = 1 ] || printf ',\n'
        first=0
        printf '    {"phones": %s,\n' "$phones"
        printf '     "w1_parse_seconds": %s,\n' "$(jget "$tmp_w1" parse_seconds)"
        printf '     "w1_parse_bytes": %s,\n' "$(jget "$tmp_w1" parse_bytes)"
        printf '     "w1_parse_lines": %s,\n' "$(jget "$tmp_w1" parse_lines)"
        printf '     "w1_parse_mb_per_s": %s,\n' "$(jmbps "$tmp_w1")"
        printf '     "w1_wall_seconds": %s,\n' "$(jwall "$tmp_w1")"
        printf '     "w1_peak_alloc_bytes": %s,\n' "$(jget "$tmp_w1" peak_alloc_bytes)"
        printf '     "streaming_wall_seconds": %s,\n' "$(jwall "$tmp_stream")"
        printf '     "streaming_total_allocs": %s,\n' "$(jget "$tmp_stream" total_allocs)"
        printf '     "streaming_parse_seconds": %s,\n' "$(jget "$tmp_stream" parse_seconds)"
        printf '     "streaming_parse_mb_per_s": %s,\n' "$(jmbps "$tmp_stream")"
        printf '     "streaming_merge_wait_seconds": %s,\n' \
            "$(jget "$tmp_stream" merge_wait_seconds)"
        printf '     "streaming_merge_absorbed_runs": %s,\n' \
            "$(jget "$tmp_stream" merge_absorbed_runs)"
        printf '     "streaming_peak_pending_runs": %s,\n' \
            "$(jget "$tmp_stream" peak_pending_runs)"
        printf '     "streaming_peak_pending_phones": %s,\n' \
            "$(jget "$tmp_stream" peak_pending_phones)"
        printf '     "streaming_worker_alloc_calls": %s,\n' "${worker_allocs:-[]}"
        printf '     "streaming_peak_alloc_bytes": %s}' \
            "$(jget "$tmp_stream" peak_alloc_bytes)"
    done
    printf '\n  ],\n'

    # The heterogeneous datapoint: same streaming path, mixed fleet.
    # Key names are deliberately distinct from the per-point keys so
    # the per-point gates above never pick this block up by accident.
    echo "bench_scale: mixed fleet $MIXED_PHONES phones x $DAYS days..." >&2
    "$BIN" --exp defects --seed "$SEED" --phones "$MIXED_PHONES" --days "$DAYS" \
        --workers "$WORKERS" --fleet mixed \
        --timing-json "$tmp_mixed" >/dev/null 2>&1
    printf '  "mixed_fleet": {"fleet": "mixed", "mixed_phones": %s,\n' "$MIXED_PHONES"
    printf '    "mixed_parse_seconds": %s,\n' "$(jget "$tmp_mixed" parse_seconds)"
    printf '    "mixed_parse_bytes": %s,\n' "$(jget "$tmp_mixed" parse_bytes)"
    printf '    "mixed_parse_mbps": %s,\n' "$(jmbps "$tmp_mixed")"
    printf '    "mixed_peak_alloc": %s}\n' "$(jget "$tmp_mixed" peak_alloc_bytes)"
    printf '}\n'
} >"$tmp_out"

# Within-run memory gate: the streaming driver's peak live heap stays
# under an absolute bound once fleets are big enough for the bound to
# mean something.
fail=0
while read -r phones speak; do
    [ "$phones" -ge "$STREAM_GATE_MIN" ] || continue
    if ! awk -v s="$speak" -v m="$STREAM_PEAK_MAX_BYTES" 'BEGIN { exit !(s + 0 <= m + 0) }'; then
        echo "bench_scale: MEMORY GATE at $phones phones:" \
            "streaming peak $speak B > $STREAM_PEAK_MAX_BYTES B" >&2
        fail=1
    else
        echo "bench_scale: $phones phones: streaming peak $speak B" \
            "<= $STREAM_PEAK_MAX_BYTES B ok" >&2
    fi
# Values stay strings end to end: awk's %d clamps 64-bit values to
# INT_MAX on some implementations (mawk).
done < <(awk -F'[:,}]' '/"phones"/ { p = $2 }
    /"streaming_peak_alloc_bytes"/ { printf "%s %s\n", p, $2 }' "$tmp_out")
[ "$fail" = 0 ] || exit 1

# Anti-cliff gate: streaming parse throughput must stay flat across
# the sweep — the last (largest) point holds >= CLIFF_RATIO of the
# first point's MB/s. This is the regression tripwire for the
# 1000-phone throughput cliff the sharded merger removed.
read -r first_mbps last_mbps < <(awk -F'[:,]' \
    '/"streaming_parse_mb_per_s"/ { if (f == "") f = $2 + 0; l = $2 + 0 }
     END { printf "%s %s\n", f, l }' "$tmp_out")
if ! awk -v f="$first_mbps" -v l="$last_mbps" -v r="$CLIFF_RATIO" \
    'BEGIN { exit !(l + 0 >= r * f) }'; then
    echo "bench_scale: CLIFF GATE: streaming $last_mbps MB/s at the" \
        "largest fleet < $CLIFF_RATIO x $first_mbps MB/s at the smallest" >&2
    exit 1
fi
echo "bench_scale: cliff gate ok: streaming $first_mbps MB/s ->" \
    "$last_mbps MB/s across the sweep" >&2

# The heterogeneous datapoint sits under the same anti-cliff floor:
# a mixed fleet's class-skewed per-phone cost must not reopen the
# throughput cliff the sharded merger removed.
mixed_mbps="$(awk -F'[:,]' '/"mixed_parse_mbps"/ { print $2 + 0 }' "$tmp_out")"
if ! awk -v f="$first_mbps" -v m="$mixed_mbps" -v r="$CLIFF_RATIO" \
    'BEGIN { exit !(m + 0 >= r * f) }'; then
    echo "bench_scale: MIXED-FLEET CLIFF GATE: $mixed_mbps MB/s at" \
        "$MIXED_PHONES heterogeneous phones < $CLIFF_RATIO x $first_mbps MB/s" >&2
    exit 1
fi
echo "bench_scale: mixed-fleet gate ok: $mixed_mbps MB/s at" \
    "$MIXED_PHONES heterogeneous phones" >&2

# Regression gate: one-worker parsed lines per second per phone count
# vs the baseline. Lines, not bytes: the driver's byte count moves with
# the set of files it parses, its line count does not, so the bound on
# parse seconds is the same whichever files a side parses.
pairs() {
    awk -F'[:,]' '/"phones"/ { p = $2 + 0 }
        /"w1_parse_seconds"/ { s = $2 + 0 }
        /"w1_parse_lines"/ { printf "%d %.0f\n", p, (s > 0) ? ($2 + 0) / s : 0 }' "$1"
}
if [ -f "$BASELINE" ]; then
    fail=0
    while read -r phones new_lps; do
        base_lps="$(pairs "$BASELINE" | awk -v p="$phones" '$1 == p { print $2 }')"
        [ -n "$base_lps" ] || continue
        if ! awk -v a="$new_lps" -v b="$base_lps" -v r="$MIN_RATIO" \
            'BEGIN { exit !(a + 0 >= r * b) }'; then
            echo "bench_scale: REGRESSION at $phones phones:" \
                "$new_lps lines/s < $MIN_RATIO x baseline $base_lps lines/s" >&2
            fail=1
        else
            echo "bench_scale: $phones phones: $new_lps lines/s" \
                "(baseline $base_lps lines/s) ok" >&2
        fi
    done < <(pairs "$tmp_out")
    [ "$fail" = 0 ] || exit 1
fi

cp "$tmp_out" "$OUT"
echo "wrote $OUT"
