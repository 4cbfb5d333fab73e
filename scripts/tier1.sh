#!/usr/bin/env bash
# Tier-1 verification: lint gates first (cheap, catch style drift
# before a long build), then build, test, and smoke-run every
# benchmark in test mode (one iteration each, no timing) so a broken
# bench fails CI rather than the next profiling session.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test -q --workspace
# The crash-resume harness, the multi-process merge harness, the
# golden-report pin, the signature/minimize replay layer, the minimize
# output pin and the CLI pins (flags and messages, the
# ablations/extensions output) are the tier-1 gates; run them by name
# so a test filter or workspace change can never silently drop them.
cargo test -q --test checkpoint_resume
cargo test -q --test merge_checkpoints
cargo test -q --test golden_report
cargo test -q --test signature_props
cargo test -q --test minimize_repro
cargo test -q --test minimize_golden minimize_output_matches_golden_pin
cargo test -q -p symfail-bench --test cli_shard
cargo test -q -p symfail-bench --test cli_args
cargo test -q -p symfail-bench --test cli_golden
cargo bench --workspace -- --test
# The benchmark (perfbench/) is a workspace of its own that drives the
# public library API: build it and run its tests here, so a library
# change that breaks a call it makes fails tier-1 instead of the next
# benchmark run. `--locked`: a library change that would make its
# build rewrite perfbench/Cargo.lock fails here too, instead of
# dirtying the benchmark's files when the benchmark builds.
cargo test -q --locked --offline --manifest-path perfbench/Cargo.toml

# `--gates` additionally runs CI's rustdoc check (the rest of its lint
# job is fmt and clippy above; rustdoc stays off the default path
# because it re-documents the workspace, ≈20 s after a core change)
# and the CI byte-identity/throughput/resume gates (the exact script
# the tier1 CI job runs) — so a green `tier1.sh --gates` is a green
# CI, minus the runner.
if [ "${1:-}" = "--gates" ]; then
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    scripts/ci_gates.sh
fi
