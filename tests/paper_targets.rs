//! The headline reproduction test: run the full 25-phone, 14-month
//! campaign and the 533-post forum study, then assert that every
//! number the paper reports is reproduced within the shape tolerances
//! of `EXPERIMENTS.md`.
//!
//! The analysis pipeline sees only the flash files the logger wrote —
//! the simulator's ground-truth counters are never consulted — so this
//! test exercises the entire causal chain: fault class → failing OS
//! operation → panic → kernel recovery → heartbeat/log records →
//! parsing → filtering → coalescence → tables.

use symfail::core::analysis::dataset::HlKind;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::StudyReport;
use symfail::core::analysis::targets;
use symfail::forum::corpus::CorpusGenerator;
use symfail::forum::tables::ForumStudy;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::fleet::FleetCampaign;

fn full_campaign_report(seed: u64) -> StudyReport {
    let params = CalibrationParams::default();
    let campaign = FleetCampaign::new(seed, params);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let config = params.analysis_config();
    campaign
        .run_streaming(workers, config, &PassRegistry::all())
        .report
}

#[test]
fn campaign_reproduces_every_paper_target() {
    let report = full_campaign_report(2005);
    let shape = report.shape_report();
    assert!(
        shape.failures().is_empty(),
        "campaign targets missed:\n{}",
        shape
            .failures()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // A few hard structural claims beyond the tolerance checks:
    // the panic distribution is dominated by access violations...
    let ranked_top = report.panic_distribution.ranked()[0].0.to_string();
    assert_eq!(ranked_top, "KERN-EXEC 3");
    // ...the reboot-duration distribution is bimodal with the second
    // mode in the night-off region (Figure 2)...
    let hist = report.shutdowns.duration_histogram(40_000.0, 40).unwrap();
    // Modes: bins of at least 10 events that beat both neighbours.
    let bins: Vec<_> = hist.bins().collect();
    let count = |i: Option<usize>| i.and_then(|i| bins.get(i)).map_or(0, |b| b.count);
    let peaks: Vec<_> = bins
        .iter()
        .enumerate()
        .filter(|&(i, b)| {
            b.count >= 10 && count(i.checked_sub(1)) < b.count && count(Some(i + 1)) < b.count
        })
        .map(|(_, b)| b)
        .collect();
    assert!(
        peaks.iter().any(|p| p.lo < 2_000.0),
        "missing the self-shutdown mode below 2000 s"
    );
    assert!(
        peaks.iter().any(|p| (20_000.0..36_000.0).contains(&p.lo)),
        "missing the ~30000 s night mode"
    );
    // ...and the never-HL categories really never coalesce (Fig. 5a).
    let (related, _) = report.coalescence.by_category();
    for cat in targets::NEVER_HL_CATEGORIES {
        assert_eq!(
            related.count(cat),
            0,
            "{cat} panics must never relate to HL events"
        );
    }
    // Core-application panics always coalesce with a self-shutdown
    // (Fig. 5b: by code, then by the HL kind).
    let freezes_of = |code: &str| {
        report
            .coalescence
            .panics()
            .iter()
            .filter(|p| p.related == Some(HlKind::Freeze) && p.panic.code.to_string() == code)
            .count()
    };
    assert_eq!(freezes_of("MSGS Client 3"), 0);
    assert_eq!(freezes_of("Phone.app 2"), 0);
}

#[test]
fn forum_study_reproduces_table1_and_marginals() {
    let corpus = CorpusGenerator::paper_sized(2005).generate();
    let study = ForumStudy::classify(&corpus);
    assert_eq!(study.misclassified(), 0);
    let shape = study.shape_report();
    assert!(
        shape.failures().is_empty(),
        "forum targets missed:\n{}",
        shape
            .failures()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The paper's ordering of failure types by frequency.
    let ranked: Vec<&str> = study
        .failure_types()
        .ranked()
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    assert_eq!(
        ranked,
        vec![
            "output failure",
            "freeze",
            "unstable behavior",
            "self-shutdown",
            "input failure"
        ]
    );
}
