#!/usr/bin/env bash
# Multi-process sharding datapoints: runs the 1000-phone campaign as
# 1, 2, 4 and 8 shard *processes* (real `repro --shard i/N`
# invocations, each writing a schema-v4 checkpoint), merges each set
# with `repro merge-checkpoints`, and demands the merged report is
# byte-identical to the single-process run at every shard count.
#
# Wall-clock model: one process per machine. The shards of one split
# run back to back on this host (CI runners expose few cores, and
# co-scheduling N CPU-bound processes on one core would measure the
# scheduler, not the pipeline), so the *distributed* wall-clock is the
# critical path — max(shard wall) + merge wall — exactly what N
# single-process machines plus one merge step would take. The speedup
# column is single wall / critical-path wall.
#
# BALANCE picks the shard planner (`uniform` is the fixed i/N formula
# split; `static` is the cost-balanced planner — the default, because
# stratified enrollment makes early phone ids ~3x more expensive and
# the uniform first shard dominates the critical path). SPEEDUP_FLOORS
# is a list of `processes:floor` pairs; each listed point must reach
# its floor or the run fails. The JSON is only written once the
# identity and speedup gates pass.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_shard.json}"
SEED="${SEED:-2005}"
PHONES="${PHONES:-1000}"
DAYS="${DAYS:-425}"
CORRUPTION="${CORRUPTION:-worst}"
SHARD_COUNTS="${SHARD_COUNTS:-2 4 8}"
BALANCE="${BALANCE:-static}"
SPEEDUP_FLOORS="${SPEEDUP_FLOORS:-2:1.7 4:3.0}"

cargo build --release -p symfail-bench --bin repro >/dev/null
BIN="$(pwd)/target/release/repro"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/symfail-shard.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

now() { date +%s.%N; }
elapsed() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", b - a }'; }

echo "bench_shard: single process, $PHONES phones x $DAYS days..." >&2
t0="$(now)"
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption "$CORRUPTION" --workers 1 \
    > report_single.txt
single_wall="$(elapsed "$t0" "$(now)")"
echo "bench_shard: single wall ${single_wall}s" >&2

points="    {\"processes\": 1, \"max_shard_wall_seconds\": $single_wall,
     \"merge_wall_seconds\": 0.0, \"wall_seconds\": $single_wall,
     \"speedup\": 1.00}"
fail=0
for n in $SHARD_COUNTS; do
    "$BIN" plan-shards --shards "$n" --seed "$SEED" --phones "$PHONES" \
        --days "$DAYS" --corruption "$CORRUPTION" --balance "$BALANCE" >&2
    max_shard=0
    files=""
    for i in $(seq 0 $((n - 1))); do
        rm -f "shard$i.bin"
        t0="$(now)"
        "$BIN" --exp targets --seed "$SEED" --phones "$PHONES" \
            --days "$DAYS" --corruption "$CORRUPTION" \
            --workers 1 --shard "$i/$n" --balance "$BALANCE" \
            --checkpoint "shard$i.bin" > /dev/null
        w="$(elapsed "$t0" "$(now)")"
        echo "bench_shard: $n-way shard $i wall ${w}s" >&2
        max_shard="$(awk -v a="$max_shard" -v b="$w" \
            'BEGIN { printf "%.3f", (b > a) ? b : a }')"
        files="$files shard$i.bin"
    done
    t0="$(now)"
    # shellcheck disable=SC2086 # $files is a deliberate word list
    "$BIN" merge-checkpoints merged.bin $files \
        --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
        --corruption "$CORRUPTION" > report_merged.txt 2>/dev/null
    merge_wall="$(elapsed "$t0" "$(now)")"
    if ! cmp report_single.txt report_merged.txt; then
        echo "bench_shard: IDENTITY GATE: $n-way merge differs from" \
            "the single-process report" >&2
        exit 1
    fi
    wall="$(awk -v m="$max_shard" -v g="$merge_wall" \
        'BEGIN { printf "%.3f", m + g }')"
    speedup="$(awk -v s="$single_wall" -v w="$wall" \
        'BEGIN { printf "%.2f", (w > 0) ? s / w : 0 }')"
    echo "bench_shard: $n processes: max shard ${max_shard}s +" \
        "merge ${merge_wall}s = ${wall}s (speedup ${speedup}x)" >&2
    for pair in $SPEEDUP_FLOORS; do
        at="${pair%%:*}"
        floor="${pair#*:}"
        if [ "$n" = "$at" ] && ! awk -v s="$speedup" -v f="$floor" \
            'BEGIN { exit !(s + 0 >= f) }'; then
            echo "bench_shard: SPEEDUP GATE: ${speedup}x at $n processes" \
                "< floor ${floor}x" >&2
            fail=1
        fi
    done
    points="$points,
    {\"processes\": $n, \"max_shard_wall_seconds\": $max_shard,
     \"merge_wall_seconds\": $merge_wall, \"wall_seconds\": $wall,
     \"speedup\": $speedup}"
done
[ "$fail" = 0 ] || exit 1

cd - >/dev/null
{
    printf '{\n'
    printf '  "schema": "symfail-bench-shard/2",\n'
    printf '  "seed": %s,\n' "$SEED"
    printf '  "phones": %s,\n' "$PHONES"
    printf '  "days": %s,\n' "$DAYS"
    printf '  "corruption": "%s",\n' "$CORRUPTION"
    printf '  "balance": "%s",\n' "$BALANCE"
    printf '  "workers_per_process": 1,\n'
    printf '  "model": "critical path: shards run back to back on one host; distributed wall = max(shard wall) + merge wall (one process per machine)",\n'
    printf '  "single_wall_seconds": %s,\n' "$single_wall"
    printf '  "points": [\n%s\n  ]\n}\n' "$points"
} >"$OUT"
echo "wrote $OUT"
