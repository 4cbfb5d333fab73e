#!/usr/bin/env bash
# Non-test Rust line count: for every `.rs` file under `crates/*/src`
# and `src`, the lines before the file's first `#[cfg(test)]` (the
# whole file when it has none), summed. This is the size measure the
# ROADMAP's quality-of-design aim tracks: a change that deletes code
# lowers it, and moving tests around does not move it.
#
# Usage: scripts/loc.sh        (prints one integer)
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ && !(FILENAME in cut) { cut[FILENAME] = FNR - 1 }
    { lines[FILENAME] = FNR }
    END {
        total = 0
        for (f in lines) total += (f in cut) ? cut[f] : lines[f]
        print total
    }'
