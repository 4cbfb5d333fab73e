//! Golden pin for the minimizer's search output.
//!
//! `tests/golden/minimize_default.txt` holds, for every
//! [`STRIDE`]th signature of the default 25-phone / 425-day seed-2005
//! catalog, what `repro minimize` would emit under each match mode,
//! started clean and started from worst-profile flash corruption: the
//! minimal [`ReproConfig`](symfail::phone::repro::ReproConfig) JSON,
//! the probe count and the trail length (or the no-repro verdict).
//! The same text for every signature of the catalog is pinned by its
//! digest and line count ([`whole_catalog_minimize_output_matches_its_digest`],
//! ignored by default: run it in release with `--ignored`, as
//! `scripts/ci_gates.sh` does).
//!
//! The search is a pure function of `(signature, options)`, so any
//! change to how probes are answered — which log bytes are parsed,
//! whether a probe is simulated afresh or cut from a kept harvest,
//! how a phone is matched — must leave every byte here unchanged. A
//! deliberate change to the search regenerates the fixture (run with
//! `GOLDEN_REGEN=1`) and the diff shows up in review.

use std::fmt::Write as _;
use std::path::PathBuf;

use symfail::core::analysis::checkpoint::fnv1a64;
use symfail::core::analysis::signature::MatchMode;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::FleetCampaign;
use symfail::phone::repro::{extract_fleet_signatures, minimize, MinimizeOptions};

/// Every `STRIDE`th catalog entry is pinned, starting at the first.
const STRIDE: usize = 19;

/// FNV-1a-64 of the whole catalog's rendering (`render(1)`).
const WHOLE_CATALOG_FNV: u64 = 0xd687_279d_5a7a_46e3;

/// Line count of the whole catalog's rendering (`render(1)`).
const WHOLE_CATALOG_LINES: usize = 8073;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/minimize_default.txt")
}

/// Minimizes every `stride`th signature of the default catalog and
/// renders the outcomes in fixture form.
fn render(stride: usize) -> String {
    let params = CalibrationParams::default();
    let config = params.analysis_config();
    let catalog = extract_fleet_signatures(&FleetCampaign::new(2005, params), &config);
    let sample = match stride {
        1 => "all".to_string(),
        n => format!("every {n}th"),
    };
    let mut out = format!(
        "# minimize, seed-2005 default catalog: {} signatures, {sample} pinned\n",
        catalog.len()
    );
    for (i, (sig, _)) in catalog.iter().enumerate().step_by(stride) {
        for mode in [MatchMode::Core, MatchMode::Strict] {
            for start in [CorruptionProfile::None, CorruptionProfile::Worst] {
                let opts = MinimizeOptions {
                    mode,
                    corruption: start,
                    config,
                    ..MinimizeOptions::default()
                };
                let _ = writeln!(
                    out,
                    "== signature {i}, match {}, start-corruption {} ==",
                    mode.as_str(),
                    start.as_str()
                );
                match minimize(sig, &opts) {
                    Ok(min) => {
                        let _ = writeln!(out, "probes {} trail {}", min.probes, min.trail.len());
                        out.push_str(&min.config.to_json());
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{e}");
                    }
                }
            }
        }
    }
    out
}

#[test]
fn minimize_output_matches_golden_pin() {
    let rendered = render(STRIDE);
    let path = fixture_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if rendered != want {
        let first = rendered
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(want.lines().count()));
        panic!(
            "minimize output diverges from {} at line {} (regenerate with GOLDEN_REGEN=1 \
             if intended):\n  got:  {:?}\n  want: {:?}",
            path.display(),
            first + 1,
            rendered.lines().nth(first),
            want.lines().nth(first)
        );
    }
}

/// The fixture's text for the whole catalog: 190 signatures × two
/// match modes × two starting profiles. Too slow for the debug test
/// run, so it is ignored there and run in release by
/// `scripts/ci_gates.sh`.
#[test]
#[ignore = "minimizes the whole catalog four times; run in release with --ignored"]
fn whole_catalog_minimize_output_matches_its_digest() {
    let rendered = render(1);
    let (fnv, lines) = (fnv1a64(rendered.as_bytes()), rendered.lines().count());
    assert_eq!(
        (fnv, lines),
        (WHOLE_CATALOG_FNV, WHOLE_CATALOG_LINES),
        "whole-catalog minimize output moved: digest {fnv:#018x}, {lines} lines"
    );
}
