#!/usr/bin/env bash
# Alternating-pair comparison of the working tree against a base
# revision on one perfbench workload. A report, not a gate: it always
# exits 0 once every run has finished.
#
#   scripts/ab_pairs.sh BASE_REV WORKLOAD [PAIRS] [SECONDS] [SEED0]
#
# Builds perfbench twice in a private temp directory, each side with
# its own CARGO_TARGET_DIR: the base from `git archive BASE_REV`, the
# change from the working tree (uncommitted edits included). Then runs
# PAIRS pairs of untraced `--seconds SECONDS` runs on seeds SEED0,
# SEED0+1, ..., alternating which side runs first, each side from its
# own tree's root (perfbench reads `tests/golden/report_default.txt`).
# Prints every run's pass and op counts and metrics, each pair in the
# order it ran, then for each end-to-end metric of BENCHMARK.json both
# sides' quartiles and median, the median ratio (change / base), how
# many pairs the change won (ties count for neither side), the spread
# and a verdict, plus the runs' core count. Quartiles interpolate
# linearly between order statistics. The spread is the wider side's
# quartile distance (p75 - p25) as a fraction of the base median. The
# verdict weighs both against the metric's `bound` in BENCHMARK.json:
#
#   worse       the change median is worse than the base median by more
#               than the bound;
#   unresolved  otherwise, the spread exceeds the bound, unless every
#               change run beats every base run;
#   within      otherwise.
#
# A faster side runs more passes in the same SECONDS, and perfbench
# keeps every pass's op latencies, so its `peak_heap_mb` can read
# higher for that alone. Nothing is left behind: the temp directory
# goes on exit.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/ab_pairs.sh BASE_REV WORKLOAD [PAIRS] [SECONDS] [SEED0]" >&2
    exit 2
fi
BASE_REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
SECONDS_PER_RUN="${4:-20}"
SEED0="${5:-9001}"
for n in "$PAIRS" "$SECONDS_PER_RUN" "$SEED0"; do
    case "$n" in
        '' | *[!0-9]*)
            echo "ab_pairs: PAIRS, SECONDS and SEED0 must be unsigned integers, got '$n'" >&2
            exit 2
            ;;
    esac
done
BASE_SHA="$(git rev-parse --short "$BASE_REV^{commit}")"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/symfail-ab.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

echo "ab_pairs: building perfbench at $BASE_SHA and at the working tree" >&2
mkdir "$TMP/base"
git archive "$BASE_SHA" | tar -x -C "$TMP/base"
CARGO_TARGET_DIR="$TMP/base-target" cargo build --release --quiet --offline \
    --manifest-path "$TMP/base/perfbench/Cargo.toml"
CARGO_TARGET_DIR="$TMP/change-target" cargo build --release --quiet --offline \
    --manifest-path "$ROOT/perfbench/Cargo.toml"

# One untraced run of SIDE on SEED: appends "SIDE SEED METRIC VALUE"
# rows to runs.txt (with the run's pass and op counts as `passes` and
# `ops`) and the run's core count to cores.txt.
run() {
    local side="$1" seed="$2" dir out
    if [ "$side" = base ]; then dir="$TMP/base"; else dir="$ROOT"; fi
    # A run whose oracle fails exits non-zero; its metrics still count.
    out="$(cd "$dir" && "$TMP/$side-target/release/perfbench" --workload "$WORKLOAD" \
        --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -2)" || true
    awk -v side="$side" -v seed="$seed" -v cores="$TMP/cores.txt" '
        function field(key) {
            if (!match($0, "\"" key "\": [0-9]+")) return ""
            return substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 4)
        }
        /"cores":/ {
            print field("cores") >> cores
            print side, seed, "passes", field("passes")
            print side, seed, "ops", field("ops")
        }
        /"metrics":/ {
            line = substr($0, index($0, "\"metrics\":") + 11)
            while (match(line, /"[a-z_0-9]+": \{"value": [-+0-9.eE]+/)) {
                pair = substr(line, RSTART, RLENGTH)
                name = substr(pair, 2, index(pair, "\":") - 2)
                print side, seed, name, substr(pair, index(pair, "\"value\": ") + 9)
                line = substr(line, RSTART + RLENGTH)
            }
        }' <<<"$out" >>"$TMP/runs.txt"
}

touch "$TMP/runs.txt" "$TMP/cores.txt"
for ((i = 0; i < PAIRS; i++)); do
    seed=$((SEED0 + i))
    if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
    echo "ab_pairs: pair $((i + 1))/$PAIRS, seed $seed, first: ${order%% *}" >&2
    echo "$seed ${order%% *}" >>"$TMP/first.txt"
    for side in $order; do
        run "$side" "$seed"
    done
done

# The end-to-end metrics, which way is better and the bound by which
# each may worsen, from BENCHMARK.json.
awk '/"end_to_end"/ { on = 1 } on && /^  \]/ { on = 0 }
     on && /"name":/ { gsub(/[",]/, "", $2); name = $2 }
     on && /"better":/ { gsub(/[",]/, "", $2); better = $2 }
     on && /"bound":/ { gsub(/[",]/, "", $2); print name, better, $2 }' \
    "$ROOT/BENCHMARK.json" >"$TMP/metrics.txt"

awk -v base="$BASE_SHA" -v workload="$WORKLOAD" -v pairs="$PAIRS" \
    -v secs="$SECONDS_PER_RUN" -v seed0="$SEED0" '
    function quantile(arr, n, p,    pos, lo) {
        pos = p * (n - 1) + 1; lo = int(pos)
        return lo >= n ? arr[n] : arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])
    }
    function sort(arr, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = arr[i]
            for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
            arr[j + 1] = t
        }
    }
    FILENAME ~ /cores.txt$/ { cores[$1] = 1; next }
    FILENAME ~ /first.txt$/ { first[$1] = $2; next }
    # A difference as a fraction of the base median; any difference
    # from a zero median counts as unbounded.
    function frac(x, m) { return m != 0 ? x / (m < 0 ? -m : m) : (x == 0 ? 0 : 1e300) }
    FILENAME ~ /metrics.txt$/ { order[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
    { v[$1, $2, $3] = $4 }
    END {
        cs = ""; for (k in cores) cs = cs (cs == "" ? "" : ",") k
        printf "ab_pairs: %s, base %s vs working tree, %d pairs x %d s, seeds %d..%d, cores %s\n",
            workload, base, pairs, secs, seed0, seed0 + pairs - 1, cs
        printf "\n%-6s %-6s %6s %6s", "seed", "side", "passes", "ops"
        for (m = 1; m <= nm; m++) printf " %16s", order[m]
        printf "\n"
        for (s = seed0; s < seed0 + pairs; s++) {
            second = first[s] == "base" ? "change" : "base"
            for (k = 1; k <= 2; k++) {
                side = k == 1 ? first[s] : second
                printf "%-6d %-6s %6s %6s", s, side, v[side, s, "passes"], v[side, s, "ops"]
                # Test membership first: reading an absent entry would
                # create it, and the summary below would count it as 0.
                for (m = 1; m <= nm; m++)
                    printf " %16s", ((side, s, order[m]) in v) ? sprintf("%.6g", v[side, s, order[m]]) : "-"
                printf "\n"
            }
        }
        printf "\n"
        printf "%-17s %-6s %-6s %-32s %-32s %-8s %-6s %-7s %s\n", "metric", "better",
            "bound", "base p25 / median / p75", "change p25 / median / p75", "ratio", "wins",
            "spread", "verdict"
        for (m = 1; m <= nm; m++) {
            name = order[m]; n = 0; wins = 0
            for (s = seed0; s < seed0 + pairs; s++) {
                if (!(("base", s, name) in v) || !(("change", s, name) in v)) continue
                bv[++n] = v["base", s, name]; cv[n] = v["change", s, name]
                if (better[name] == "lower" ? cv[n] < bv[n] : cv[n] > bv[n]) wins++
            }
            if (n == 0) { printf "%-17s %-6s (no runs reported it)\n", name, better[name]; continue }
            sort(bv, n); sort(cv, n)
            bm = quantile(bv, n, 0.5); cm = quantile(cv, n, 0.5)
            b25 = quantile(bv, n, 0.25); b75 = quantile(bv, n, 0.75)
            c25 = quantile(cv, n, 0.25); c75 = quantile(cv, n, 0.75)
            spread = frac((b75 - b25 > c75 - c25) ? b75 - b25 : c75 - c25, bm)
            lower = (better[name] == "lower")
            # Every change run beats every base run.
            apart = lower ? (cv[n] < bv[1]) : (cv[1] > bv[n])
            if (frac(lower ? cm - bm : bm - cm, bm) > bound[name]) verdict = "worse"
            else if (spread > bound[name] && !apart) verdict = "unresolved"
            else verdict = "within"
            printf "%-17s %-6s %-6s %-32s %-32s %-8s %-6s %-7s %s\n", name, better[name],
                bound[name], sprintf("%.4g / %.4g / %.4g", b25, bm, b75),
                sprintf("%.4g / %.4g / %.4g", c25, cm, c75),
                bm == 0 ? "-" : sprintf("%.3f", cm / bm), wins "/" n,
                (spread >= 1e300) ? "inf" : sprintf("%.3f", spread), verdict
        }
    }' "$TMP/cores.txt" "$TMP/first.txt" "$TMP/metrics.txt" "$TMP/runs.txt"
