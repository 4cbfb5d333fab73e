//! Shared fixtures for the symfail benchmark suite.
//!
//! Every table/figure bench times the pass that builds its artifact,
//! as the reference driver runs it: `StudyReport::analyze_with` over a
//! pre-built fleet with the registry narrowed to that pass (a pass
//! that reads coalesced panics also pays for the per-phone coalescence
//! its lens computes), then the queries over the finished section.
//! Building the harvest is benchmarked separately in the
//! `substrate_micro` group. The `repro` binary in `src/bin` prints the
//! artifacts themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use symfail_core::analysis::dataset::FleetDataset;
use symfail_core::analysis::report::AnalysisConfig;
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
