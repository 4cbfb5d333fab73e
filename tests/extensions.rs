//! End-to-end tests of the post-paper extensions: the D_EXC baseline,
//! the inter-arrival analysis and the user-report channel, all driven
//! by a real (small) campaign.

use symfail::core::analysis::baseline::BaselineComparison;
use symfail::core::analysis::dataset::{FleetDataset, HlKind};
use symfail::core::analysis::interarrival::InterArrivalAnalysis;
use symfail::core::analysis::output_failures::OutputFailureAnalysis;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::core::analysis::severity::SeverityAnalysis;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::firmware::SymbianVersion;
use symfail::phone::fleet::{harvest_metas, total_stats, FleetCampaign};

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

#[test]
fn dexc_baseline_sees_panics_but_nothing_else() {
    let harvest = FleetCampaign::new(31, params()).run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    let report = StudyReport::analyze(&fleet, config());
    let cmp = BaselineComparison::new(&report);
    let truth = total_stats(&harvest_metas(&harvest));
    assert_eq!(cmp.panics_collected, truth.panics);
    assert!(cmp.hl_events_full > 0);
    assert_eq!(cmp.hl_events_dexc, 0);
    assert!(cmp.panics_with_running_apps > 0);
    assert!(cmp.dexc_artifact_coverage < 0.5);
}

#[test]
fn interarrival_analysis_on_campaign() {
    let harvest = FleetCampaign::new(37, params()).run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    let report = StudyReport::analyze(&fleet, config());
    let ia = InterArrivalAnalysis::new(&report.hl_events).expect("enough events");
    assert!(ia.len() > 20);
    assert!(ia.mean_hours() > 1.0);
    // Wall-clock inter-arrivals of a thinned process with day/night
    // structure: cv near 1, KS to exponential small-ish.
    assert!(
        (0.5..2.0).contains(&ia.coefficient_of_variation()),
        "cv {}",
        ia.coefficient_of_variation()
    );
    assert!(
        ia.ks_to_exponential() < 0.35,
        "ks {}",
        ia.ks_to_exponential()
    );
}

#[test]
fn user_reports_undercount_output_failures() {
    let harvest = FleetCampaign::new(41, params()).run();
    let truth = total_stats(&harvest_metas(&harvest));
    assert!(
        truth.output_failures > 20,
        "scenario produces output failures"
    );
    let metas = harvest_metas(&harvest);
    let analysis = OutputFailureAnalysis::from_reports(
        metas.iter().map(|m| (m.phone_id, m.ureports.as_slice())),
    );
    assert_eq!(analysis.len() as u64, truth.user_reports);
    let coverage = analysis.coverage_against(truth.output_failures).unwrap();
    assert!(
        coverage < 0.35,
        "users must be unreliable: coverage {coverage}"
    );
    assert!(coverage > 0.0, "but not mute");
}

#[test]
fn severity_burden_matches_detected_failures() {
    let harvest = FleetCampaign::new(43, params()).run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    let report = StudyReport::analyze(&fleet, config());
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
    let harvest = campaign.run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    let report = StudyReport::analyze_with_labels(&fleet, config(), &PassRegistry::all(), |id| {
        campaign.device_labels(id)
    });
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
    let again = FleetCampaign::new(48, params()).run();
    for (a, b) in harvest.iter().zip(&again) {
        assert_eq!(a.firmware, b.firmware, "assignment is seed-independent");
    }
}
