//! Shared fixtures for the symfail benchmark suite.
//!
//! Every table/figure bench times the pass that builds its artifact
//! as the campaign driver folds it: `FoldShard::absorb_phone` over a
//! seed's parsed phones with the registry narrowed to that pass (a
//! pass that reads coalesced panics also pays for the per-phone
//! coalescence its lens computes), then the queries over the finished
//! section. Building the harvest is benchmarked separately in the
//! `substrate_micro` group. The `repro` binary in `src/bin` prints the
//! artifacts themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use symfail_core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail_core::analysis::passes::{FoldShard, PassRegistry, PhoneLens, StreamMerger};
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

/// Runs the bench campaign: each phone simulated alone and parsed from
/// every file it wrote, in id order.
pub fn bench_phones(seed: u64) -> Vec<PhoneDataset> {
    let campaign = FleetCampaign::new(seed, bench_params());
    (0..bench_params().phones)
        .map(|id| {
            let harvest = campaign.run_single(id);
            PhoneDataset::from_flashfs_with(id, &harvest.flashfs, &mut ParseScratch::default())
        })
        .collect()
}

/// The report `registry` finishes from `phones` (consecutive ids from
/// 0): each phone folded into one shard as the driver folds it, the
/// shard finished through a [`StreamMerger`].
pub fn fold(
    phones: &[PhoneDataset],
    config: AnalysisConfig,
    registry: &PassRegistry,
) -> StudyReport {
    let mut shard = FoldShard::new(registry, 0);
    for phone in phones {
        let lens = PhoneLens::new(phone, config, registry.needs_coalesce());
        shard.absorb_phone(registry, &lens);
    }
    let mut merger = StreamMerger::new(registry, config);
    merger.push_shard(shard);
    merger.finish()
}
