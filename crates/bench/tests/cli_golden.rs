//! The default campaign's `repro --exp ablations` and
//! `repro --exp extensions` output, pinned byte for byte. These hold
//! the renderings EXPERIMENTS.md quotes that the golden report
//! (`render_all`) does not: the threshold and window sweeps, the
//! inter-arrival, firmware, severity and user-report summaries. Both
//! runs use two workers, so the pin also holds the campaign driver's
//! worker-count invariance. A change that means to move these numbers
//! rewrites the fixtures from a release run
//! (`repro --exp ablations > tests/golden/ablations_default.txt`, and
//! likewise for `extensions`), so the moved numbers show in its diff.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Runs `repro --exp EXP --workers 2` and demands exit 0, a silent
/// stderr and exactly the fixture's stdout.
fn assert_pinned(exp: &str, name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", exp, "--workers", "2"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "--exp {exp}: {stderr}");
    assert!(stderr.is_empty(), "--exp {exp} wrote to stderr: {stderr}");
    let got = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let want = fixture(name);
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "--exp {exp} differs from {name} at line {}", i + 1);
    }
    assert_eq!(got, want, "--exp {exp} differs from {name} in length");
}

#[test]
fn ablations_output_is_pinned() {
    assert_pinned("ablations", "ablations_default.txt");
}

#[test]
fn extensions_output_is_pinned() {
    assert_pinned("extensions", "extensions_default.txt");
}
