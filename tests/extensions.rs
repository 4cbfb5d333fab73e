//! End-to-end tests of the post-paper extensions: the D_EXC baseline,
//! the inter-arrival analysis and the user-report channel, all driven
//! by a real (small) campaign.

mod oracle;

use symfail::core::analysis::baseline::BaselineComparison;
use symfail::core::analysis::dataset::HlKind;
use symfail::core::analysis::interarrival::InterArrivalAnalysis;
use symfail::core::analysis::output_failures::OutputFailureAnalysis;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::AnalysisConfig;
use symfail::core::analysis::severity::SeverityAnalysis;
use symfail::core::logger::UserReportKind;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::firmware::SymbianVersion;
use symfail::phone::fleet::{total_stats, FleetCampaign, PhoneHarvest, PhoneMeta};
use symfail::stats::OnlineSummary;

fn params() -> CalibrationParams {
    CalibrationParams {
        phones: 6,
        campaign_days: 150,
        enrollment_spread_days: 10,
        attrition_spread_days: 10,
        background_episode_rate_per_hour: 0.01,
        p_episode_per_call: 0.03,
        isolated_freeze_rate_per_hour: 0.008,
        isolated_self_shutdown_rate_per_hour: 0.01,
        output_failure_rate_per_hour: 0.02,
        ..CalibrationParams::default()
    }
}

fn config() -> AnalysisConfig {
    params().analysis_config()
}

fn metas(harvest: &[PhoneHarvest]) -> Vec<PhoneMeta> {
    harvest.iter().map(PhoneMeta::from_harvest).collect()
}

#[test]
fn dexc_baseline_sees_panics_but_nothing_else() {
    let harvest = oracle::harvest(&FleetCampaign::new(31, params()));
    let fleet = oracle::parse(&harvest);
    let report = oracle::analyze(&fleet, config());
    let cmp = BaselineComparison::new(&report);
    let truth = total_stats(&metas(&harvest));
    assert_eq!(cmp.panics_collected, truth.panics);
    assert!(cmp.hl_events_full > 0);
    assert_eq!(cmp.hl_events_dexc, 0);
    assert!(cmp.panics_with_running_apps > 0);
    assert!(cmp.dexc_artifact_coverage < 0.5);
}

#[test]
fn interarrival_analysis_on_campaign() {
    let harvest = oracle::harvest(&FleetCampaign::new(37, params()));
    let fleet = oracle::parse(&harvest);
    let report = oracle::analyze(&fleet, config());
    let ia = InterArrivalAnalysis::new(&report.hl_events).expect("enough events");
    // The pooled per-phone gaps of the (phone, time)-sorted HL stream,
    // in hours (same-instant events give no gap).
    let gaps: OnlineSummary = report
        .hl_events
        .windows(2)
        .filter(|w| w[0].phone_id == w[1].phone_id)
        .map(|w| w[1].at.saturating_since(w[0].at).as_hours_f64())
        .filter(|&gap| gap > 0.0)
        .collect();
    assert!(gaps.count() > 20);
    assert!((ia.mean_hours() - gaps.mean().unwrap()).abs() < 1e-9);
    assert!(ia.mean_hours() > 1.0);
    // Wall-clock inter-arrivals of a thinned process with day/night
    // structure: cv near 1, KS to exponential small-ish.
    let cv = gaps.stddev().unwrap() / gaps.mean().unwrap();
    assert!((0.5..2.0).contains(&cv), "cv {cv}");
    assert!(
        ia.ks_to_exponential() < 0.35,
        "ks {}",
        ia.ks_to_exponential()
    );
}

#[test]
fn user_reports_undercount_output_failures() {
    let harvest = oracle::harvest(&FleetCampaign::new(41, params()));
    let truth = total_stats(&metas(&harvest));
    assert!(
        truth.output_failures > 20,
        "scenario produces output failures"
    );
    let metas = metas(&harvest);
    let analysis = OutputFailureAnalysis::from_reports(
        metas.iter().map(|m| (m.phone_id, m.ureports.as_slice())),
    );
    let reports: u64 = [
        UserReportKind::OutputFailure,
        UserReportKind::InputFailure,
        UserReportKind::UnstableBehavior,
    ]
    .into_iter()
    .map(|kind| analysis.count_of(kind))
    .sum();
    assert_eq!(reports, truth.user_reports);
    let coverage = analysis.coverage_against(truth.output_failures).unwrap();
    assert!(
        coverage < 0.35,
        "users must be unreliable: coverage {coverage}"
    );
    assert!(coverage > 0.0, "but not mute");
}

#[test]
fn severity_burden_matches_detected_failures() {
    let harvest = oracle::harvest(&FleetCampaign::new(43, params()));
    let fleet = oracle::parse(&harvest);
    let report = oracle::analyze(&fleet, config());
    // Battery pulls counted off the coalescence HL stream, unwanted
    // reboots off the Figure 2 classification.
    let hl_freezes = report
        .hl_events
        .iter()
        .filter(|e| e.kind == HlKind::Freeze)
        .count();
    let sev = SeverityAnalysis::from_counts(
        hl_freezes,
        report.shutdowns.self_shutdowns().len(),
        report.mtbf.total_hours,
    );
    assert_eq!(sev.battery_pulls(), report.mtbf.freezes);
    // The MTBF section's counts, which `repro --exp extensions`
    // passes, agree.
    let from_counts = SeverityAnalysis::from_counts(
        report.mtbf.freezes,
        report.mtbf.self_shutdowns,
        report.mtbf.total_hours,
    );
    assert_eq!(from_counts.render(), sev.render());
    assert_eq!(
        sev.unwanted_reboots(),
        report.shutdowns.self_shutdowns().len()
    );
    assert!(sev.burden_per_phone_month().unwrap() > 0.0);
}

#[test]
fn firmware_mix_and_breakdown() {
    // The breakdown now comes from the registered `firmware` pass
    // (folded from logged data), not a metas-walking free function.
    let campaign = FleetCampaign::new(47, params());
    let harvest = oracle::harvest(&campaign);
    let fleet = oracle::parse(&harvest);
    let report = oracle::fold_phones(&fleet, config(), &PassRegistry::all(), |id| {
        campaign.device_labels(id)
    })
    .report;
    let breakdown = &report.firmware.versions;
    let phones: u64 = breakdown.values().map(|(n, _)| n).sum();
    assert_eq!(phones, params().phones as u64);
    // The majority version is represented.
    let (v80_phones, _) = breakdown[SymbianVersion::V8_0.as_str()];
    assert!(
        v80_phones >= phones / 2,
        "8.0 is the fleet majority: {breakdown:?}"
    );
    // The pass counts every logged panic, sliced by firmware.
    let total_panics: u64 = breakdown.values().map(|(_, p)| p).sum();
    assert_eq!(total_panics, report.panic_distribution.total());
    // Firmware assignment is deterministic.
    let again = oracle::harvest(&FleetCampaign::new(48, params()));
    for (a, b) in harvest.iter().zip(&again) {
        assert_eq!(a.firmware, b.firmware, "assignment is seed-independent");
    }
}
