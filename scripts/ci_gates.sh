#!/usr/bin/env bash
# The tier-1 byte-identity, throughput and crash-resume gates, shared
# verbatim between CI (the tier1 job) and local runs
# (`scripts/tier1.sh --gates`). Everything the gates produce — reports,
# timing dumps, checkpoints — lives in a private temp directory removed
# on exit, so an aborted gate never litters the working tree the way
# the old inline ci.yml steps littered the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

SEED="${SEED:-2005}"
PHONES="${PHONES:-250}"
DAYS="${DAYS:-60}"
WORKERS="${WORKERS:-13}"
# Parsed lines per second, not bytes: the campaign driver parses only
# the files its analysis reads, so its byte count moved when the
# sampled files were dropped while its line count did not. The floor
# is the former 627.70 MB/s floor at this campaign's former 21.63 bytes
# per line (2,795,974 bytes and 129,263 lines at seed 2005, 250 x 60),
# so it allows the same parse seconds: a quarter of the slowest of five
# local runs of that rate (2616.73, 2621.88, 2647.91, 2510.78 and
# 2661.13 MB/s on a 2-vCPU VM), margin for slower CI runners, while a
# parse that slows four-fold fails.
LINES_PER_S_FLOOR="${LINES_PER_S_FLOOR:-30429383}"

cargo build --release -p symfail-bench --bin repro >/dev/null
BIN="$ROOT/target/release/repro"

# The minimizer's output for the whole seed-2005 catalog (190
# signatures x core/strict x clean/worst start), pinned by digest: the
# debug test run pins only every 19th signature.
echo "ci_gates: whole-catalog minimize output digest" >&2
cargo test -q --release --test minimize_golden -- --ignored

TMP="$(mktemp -d "${TMPDIR:-/tmp}/symfail-gates.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

# The report-vs-reference identity lives in the test suite
# (parallel_determinism's streaming_engine_report_identical_to_batch_*
# runs this same 250-phone worst-corruption campaign); here the CLI
# must give the same bytes for any worker count, with --workers 1 as
# the determinism oracle.
echo "ci_gates: --workers $WORKERS vs --workers 1 byte identity ($PHONES phones, worst corruption)" >&2
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" > report_stream.txt
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers 1 > report_w1.txt
cmp report_stream.txt report_w1.txt

echo "ci_gates: streaming parse throughput floor ($LINES_PER_S_FLOOR lines/s)" >&2
"$BIN" --exp defects --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --workers 1 --timing-json stream_250.json > /dev/null
awk -F'[:,]' -v floor="$LINES_PER_S_FLOOR" '/"parse_seconds":/ { s = $2 + 0 }
    /"parse_lines":/ { l = $2 + 0 }
    END {
      lps = (s > 0) ? l / s : 0
      printf "ci_gates: streaming parse: %.0f lines/s (floor %s)\n", lps, floor
      exit !(lps >= floor)
    }' stream_250.json >&2

echo "ci_gates: checkpoint interrupt/resume byte identity (kill at phone 97)" >&2
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" \
    --checkpoint ckpt.bin --checkpoint-every 10 --stop-after 97 > /dev/null
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" \
    --checkpoint ckpt.bin --mtbf-trace-json mtbf_trace.json > report_resumed.txt
cmp report_stream.txt report_resumed.txt
grep -q '"resumed_from": 97' mtbf_trace.json

echo "ci_gates: 4-process cost-balanced shard merge byte identity" >&2
for i in 0 1 2 3; do
    "$BIN" --exp targets --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
        --corruption worst \
        --shard "$i/4" --balance static --checkpoint "shard$i.bin" > /dev/null
done
"$BIN" merge-checkpoints merged.bin shard0.bin shard1.bin shard2.bin shard3.bin \
    --seed "$SEED" --phones "$PHONES" --days "$DAYS" --corruption worst \
    > report_merged.txt
cmp report_stream.txt report_merged.txt

echo "ci_gates: mixed-fleet --workers $WORKERS vs --workers 1 byte identity" >&2
# Heterogeneous composition: the device-class dimension must survive
# the multi-worker merge bit for bit, and the report must actually
# carry the device-class breakdown.
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" \
    --fleet mixed > report_mixed.txt
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers 1 \
    --fleet mixed > report_mixed_w1.txt
cmp report_mixed.txt report_mixed_w1.txt
grep -q "device class" report_mixed.txt
# And the default composition must NOT grow the section: the
# homogeneous report stays byte-compatible with the pre-fleet output.
if grep -q "device class" report_stream.txt; then
    echo "ci_gates: default fleet unexpectedly renders device classes" >&2
    exit 1
fi

echo "ci_gates: log-only pass subset at --workers $WORKERS vs full registry at --workers 1 byte identity" >&2
# Passes that read the log alone run log-only phones: their batteries
# drain lazily and their heartbeat ticks run uncut, while the full
# registry's phones also write beats. Each experiment the subset can
# render must print the full run's bytes.
SUBSET=shutdown,bursts,coalesce,activity,runapps,panics,firmware
for exp in table2 table3 table4 fig2 fig3 fig5 fig6; do
    "$BIN" --exp "$exp" --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
        --analyses "$SUBSET" --workers "$WORKERS" > "subset_$exp.txt"
    "$BIN" --exp "$exp" --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
        --workers 1 > "full_$exp.txt"
    cmp "subset_$exp.txt" "full_$exp.txt"
done

echo "ci_gates: partial merge smoke (shard 2 withheld)" >&2
# One shard file missing: strict merge must refuse; --partial must
# exit zero, fold the present shards, and name the hole.
if "$BIN" merge-checkpoints partial.bin shard0.bin shard1.bin shard3.bin \
    --seed "$SEED" --phones "$PHONES" --days "$DAYS" --corruption worst \
    > /dev/null 2>&1; then
    echo "ci_gates: strict merge accepted an incomplete cover" >&2
    exit 1
fi
"$BIN" merge-checkpoints partial.bin shard0.bin shard1.bin shard3.bin \
    --seed "$SEED" --phones "$PHONES" --days "$DAYS" --corruption worst \
    --partial > report_partial.txt
grep -q "missing phone interval" report_partial.txt
if cmp -s report_stream.txt report_partial.txt; then
    echo "ci_gates: partial report impossibly matches the full fleet" >&2
    exit 1
fi

echo "ci_gates: all gates passed" >&2
