//! Cross-crate consistency of the full pipeline on a reduced campaign:
//! the analysis results (computed purely from flash files) must agree
//! with the simulator's ground-truth counters, and internal totals
//! must be conserved at every stage.

mod oracle;

use symfail::core::analysis::dataset::{HlKind, PhoneDataset};
use symfail::core::analysis::report::StudyReport;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::fleet::{total_stats, FleetCampaign, PhoneMeta};

fn small_params() -> CalibrationParams {
    CalibrationParams {
        phones: 6,
        campaign_days: 120,
        enrollment_spread_days: 20,
        attrition_spread_days: 20,
        // Accelerate failures so the small campaign has statistics.
        background_episode_rate_per_hour: 0.008,
        p_episode_per_call: 0.03,
        p_episode_per_message: 0.006,
        isolated_freeze_rate_per_hour: 0.01,
        isolated_self_shutdown_rate_per_hour: 0.012,
        ..CalibrationParams::default()
    }
}

fn analyze(
    seed: u64,
) -> (
    StudyReport,
    symfail::phone::device::PhoneStats,
    Vec<PhoneDataset>,
) {
    let campaign = FleetCampaign::new(seed, small_params());
    let harvest = oracle::harvest(&campaign);
    let metas: Vec<PhoneMeta> = harvest.iter().map(PhoneMeta::from_harvest).collect();
    let truth = total_stats(&metas);
    let fleet = oracle::parse(&harvest);
    let config = small_params().analysis_config();
    (oracle::analyze(&fleet, config), truth, fleet)
}

#[test]
fn analysis_agrees_with_simulator_ground_truth() {
    let (report, truth, fleet) = analyze(11);
    // Every panic raised must be recorded and parsed back.
    assert_eq!(report.panic_distribution.total(), truth.panics);
    let parsed: usize = fleet.iter().map(|p| p.panics().len()).sum();
    assert_eq!(parsed as u64, truth.panics);
    // Every freeze leaves exactly one flagged boot record — except a
    // freeze at the very end of the campaign, whose reboot never
    // happened (at most one pending per phone).
    let phones = small_params().phones as u64;
    let freezes = report.mtbf.freezes as u64;
    assert!(
        freezes <= truth.freezes && truth.freezes - freezes <= phones,
        "freezes: analysis {freezes} vs truth {}",
        truth.freezes
    );
    // Shutdown events: all self-shutdowns and user/night reboots have
    // a measurable REBOOT duration (modulo one pending shutdown per
    // phone at campaign end); LOWBT/MAOFF are excluded.
    let measured = report.shutdowns.all_events().len() as u64;
    let expected = truth.self_shutdowns + truth.user_shutdowns;
    assert!(
        measured <= expected && expected - measured <= phones,
        "shutdown events: analysis {measured} vs truth {expected}"
    );
    assert!(truth.lowbt_shutdowns > 0, "the scenario exercises LOWBT");
    // The 360 s filter finds at least the real self-shutdowns' bulk:
    // classification counts must be within the union of real self
    // shutdowns and sub-360 s user reboots.
    let classified = report.shutdowns.self_shutdowns().len() as u64;
    assert!(classified >= truth.self_shutdowns * 9 / 10);
    assert!(classified <= truth.self_shutdowns + truth.user_shutdowns / 4);
}

#[test]
fn coalescence_identities_hold() {
    let (report, _, _) = analyze(13);
    let co = &report.coalescence;
    let related = co.panics().iter().filter(|p| p.related.is_some()).count();
    let isolated = co.panics().iter().filter(|p| p.related.is_none()).count();
    assert_eq!(related + isolated, co.panics().len());
    // by_category splits are a partition of the same counts.
    let (rel_dist, iso_dist) = co.by_category();
    assert_eq!(rel_dist.total() as usize, related);
    assert_eq!(iso_dist.total() as usize, isolated);
    // Figure 5b's split by code and HL kind covers the related panics
    // only: each falls under exactly one (code, kind) key.
    let mut by_code_and_kind = std::collections::BTreeMap::new();
    for p in co.panics() {
        if let Some(kind) = p.related {
            let key = format!("{}|{}", p.panic.code, kind.as_str());
            *by_code_and_kind.entry(key).or_insert(0) += 1;
        }
    }
    assert_eq!(by_code_and_kind.values().sum::<usize>(), related);
    // The all-shutdowns variant can only increase relatedness.
    assert!(report.coalescence_all_shutdowns.related_fraction() >= co.related_fraction() - 1e-12);
}

#[test]
fn activity_and_runapps_totals_consistent() {
    let (report, truth, _) = analyze(17);
    // Table 3 only counts HL-related panics.
    let related = report
        .coalescence
        .panics()
        .iter()
        .filter(|p| p.related.is_some())
        .count();
    assert_eq!(report.activity.total(), related);
    assert_eq!(report.activity.table().grand_total() as usize, related);
    // Figure 6 counts every panic.
    assert_eq!(report.runapps.concurrency().total(), truth.panics);
    // Freeze timestamps come from the last ALIVE beat, so every freeze
    // HL event predates its phone's reboot.
    let (_, _, fleet) = analyze(17);
    for f in fleet.iter().flat_map(|p| p.freezes()) {
        assert_eq!(f.kind, HlKind::Freeze);
    }
}

#[test]
fn renders_are_complete_on_small_campaigns() {
    let (report, _, _) = analyze(19);
    let all = report.render_all();
    for needle in [
        "Figure 2", "Table 2", "Figure 3", "Figure 5", "Table 3", "Figure 6", "Table 4", "MTBF",
    ] {
        assert!(all.contains(needle), "render missing {needle}");
    }
    // The shape report always produces the full check list, even when
    // a small campaign misses the targets.
    assert_eq!(report.shape_report().checks().len(), 32);
}

#[test]
fn mtbf_scales_with_observation_time() {
    let (short_report, _, _) = analyze(23);
    let mut long_params = small_params();
    long_params.campaign_days = 240;
    let harvest = oracle::harvest(&FleetCampaign::new(23, long_params));
    let fleet = oracle::parse(&harvest);
    let long_report = oracle::analyze(&fleet, long_params.analysis_config());
    // Double observation, same rates: total hours roughly double while
    // MTBF stays in the same band.
    assert!(long_report.mtbf.total_hours > short_report.mtbf.total_hours * 1.5);
    let (a, b) = (
        short_report.mtbf.mtbfr_hours.unwrap(),
        long_report.mtbf.mtbfr_hours.unwrap(),
    );
    assert!(
        (a / b - 1.0).abs() < 0.5,
        "MTBFr should be rate-stable: short {a:.1} vs long {b:.1}"
    );
}
