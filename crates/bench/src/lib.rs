//! Shared fixtures for the symfail benchmark suite.
//!
//! Every table/figure bench measures the analysis stage that
//! regenerates the corresponding artifact, over a pre-built campaign
//! harvest (building the harvest is benchmarked separately in the
//! `substrate_micro` group). The `repro` binary in `src/bin` prints
//! the artifacts themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use symfail_core::analysis::dataset::FleetDataset;
use symfail_core::analysis::report::{AnalysisConfig, StudyReport};
use symfail_phone::calibration::CalibrationParams;
use symfail_phone::fleet::FleetCampaign;

/// Calibration for a bench-sized campaign: fewer phones and days than
/// the paper's deployment, with accelerated fault rates so the
/// analysis stages still chew on hundreds of events.
pub fn bench_params() -> CalibrationParams {
    CalibrationParams {
        phones: 8,
        campaign_days: 90,
        enrollment_spread_days: 10,
        attrition_spread_days: 10,
        background_episode_rate_per_hour: 0.01,
        p_episode_per_call: 0.05,
        p_episode_per_message: 0.01,
        isolated_freeze_rate_per_hour: 0.012,
        isolated_self_shutdown_rate_per_hour: 0.014,
        ..CalibrationParams::default()
    }
}

/// The analysis configuration matching [`bench_params`]'s heartbeat.
pub fn bench_analysis_config() -> AnalysisConfig {
    bench_params().analysis_config()
}

/// Runs the bench campaign and parses the harvest into a dataset.
pub fn bench_fleet(seed: u64) -> FleetDataset {
    let harvest = FleetCampaign::new(seed, bench_params()).run();
    FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)))
}

/// Full analysis over the bench fleet.
pub fn bench_report(seed: u64) -> StudyReport {
    StudyReport::analyze(&bench_fleet(seed), bench_analysis_config())
}

/// The paper-sized campaign (25 phones / 425 days), for the benches
/// that measure end-to-end regeneration cost.
pub fn paper_fleet(seed: u64) -> FleetDataset {
    let harvest = FleetCampaign::new(seed, CalibrationParams::default()).run();
    FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)))
}
