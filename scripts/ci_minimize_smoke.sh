#!/usr/bin/env bash
# CI minimize-smoke gate: drive the fault-signature pipeline end to
# end at CI scale — extract the signature catalog from a 250-phone
# worst-corruption campaign, demand the same catalog from that
# campaign's checkpoint, minimize one signature under a wall-clock
# budget, and demand the emitted single-phone repro config is
# replay-verified, within the day budget, and byte-identical on a
# second run and from a reformatted copy of the catalog; a truncated
# catalog must be refused with the byte offset where it breaks.
# Shares the temp-dir discipline of ci_gates.sh: an aborted gate
# leaves no litter behind.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

SEED="${SEED:-2005}"
PHONES="${PHONES:-250}"
DAYS="${DAYS:-60}"
SIG_INDEX="${SIG_INDEX:-0}"
# Wall-clock budget for one minimize run. The search is bounded by
# --max-seeds x --max-days probes; the budget catches a probe-cost
# regression rather than racing the search itself.
BUDGET_SECS="${BUDGET_SECS:-180}"

cargo build --release -p symfail-bench --bin repro >/dev/null
BIN="$ROOT/target/release/repro"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/symfail-minimize.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

echo "minimize_smoke: extracting signatures ($PHONES phones, $DAYS days, worst corruption)" >&2
"$BIN" extract-signatures --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --signature-json sigs.json
grep -q '"signature"' sigs.json

echo "minimize_smoke: the checkpoint route must give the same catalog" >&2
"$BIN" --exp mtbf --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --checkpoint campaign.ckpt >/dev/null
"$BIN" extract-signatures --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --from-checkpoint campaign.ckpt --signature-json sigs_ckpt.json
cmp sigs.json sigs_ckpt.json

echo "minimize_smoke: minimizing signature $SIG_INDEX (budget ${BUDGET_SECS}s)" >&2
timeout "$BUDGET_SECS" "$BIN" minimize --signature-json sigs.json \
    --signature-index "$SIG_INDEX" --out min_a.json 2>min_a.log
cat min_a.log >&2
grep -q "replay-verified" min_a.log

echo "minimize_smoke: emitted config must fit the 10-day budget" >&2
grep -Eq '"days": (10|[1-9]),' min_a.json

echo "minimize_smoke: re-minimize must be byte-identical" >&2
timeout "$BUDGET_SECS" "$BIN" minimize --signature-json sigs.json \
    --signature-index "$SIG_INDEX" --out min_b.json 2>/dev/null
cmp min_a.json min_b.json

echo "minimize_smoke: a reformatted catalog must minimize to the same bytes" >&2
# Re-indent every line, put each signature's `{` and `"code"` on
# separate lines, and space every `:` (no signature string holds `": `).
sed -e 's/^ */&&/' -e 's/{"code"/{\n        "code"/g' -e 's/": /" : /g' \
    sigs.json >sigs_reformatted.json
if cmp -s sigs.json sigs_reformatted.json; then
    echo "minimize_smoke: the reformatted catalog is unchanged" >&2
    exit 1
fi
timeout "$BUDGET_SECS" "$BIN" minimize --signature-json sigs_reformatted.json \
    --signature-index "$SIG_INDEX" --out min_c.json 2>/dev/null
cmp min_a.json min_c.json

echo "minimize_smoke: a truncated catalog must be refused at a byte position" >&2
head -c "$(( $(wc -c <sigs.json) / 2 ))" sigs.json >sigs_cut.json
if "$BIN" minimize --signature-json sigs_cut.json --signature-index "$SIG_INDEX" \
    2>cut.log; then
    echo "minimize_smoke: a truncated catalog was accepted" >&2
    exit 1
fi
cat cut.log >&2
grep -Eq '^sigs_cut\.json: invalid JSON at byte [0-9]+: ' cut.log

echo "minimize_smoke: ok" >&2
