//! Parallel-pipeline determinism: the streaming campaign driver must
//! produce byte-identical results for any worker count and any run
//! partition. Phones own forked, independent RNG streams, so the
//! thread schedule cannot leak into any phone's bytes — these tests
//! pin that contract against the sequential harvest and the reference
//! analysis over it.

use symfail::core::analysis::dataset::FleetDataset;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::core::flashfs::FlashFs;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::{harvest_metas, FleetCampaign, PhoneHarvest, StreamingOptions};
use symfail::sim::SimDuration;

fn params() -> CalibrationParams {
    CalibrationParams {
        phones: 6,
        campaign_days: 40,
        enrollment_spread_days: 6,
        attrition_spread_days: 6,
        background_episode_rate_per_hour: 0.02,
        isolated_freeze_rate_per_hour: 0.01,
        isolated_self_shutdown_rate_per_hour: 0.01,
        ..CalibrationParams::default()
    }
}

fn render(report: &StudyReport) -> String {
    report.render_all() + &report.render_per_phone()
}

/// The reference analysis: the sequential harvest, materialized.
fn reference(campaign: &FleetCampaign, config: AnalysisConfig) -> String {
    let harvest = campaign.run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    render(&StudyReport::analyze_with_labels(
        &fleet,
        config,
        &PassRegistry::all(),
        |id| campaign.device_labels(id),
    ))
}

fn render_study(campaign: &FleetCampaign, workers: usize) -> String {
    let run = campaign.run_streaming(workers, AnalysisConfig::default(), &PassRegistry::all());
    render(&run.report)
}

fn assert_flash_identical(a: &FlashFs, b: &FlashFs, ctx: &str) {
    assert_eq!(a.file_names(), b.file_names(), "{ctx}: file sets differ");
    for name in a.file_names() {
        assert_eq!(
            a.read_bytes(name),
            b.read_bytes(name),
            "{ctx}: file {name} differs"
        );
    }
}

/// The harvest contract: phones simulated one at a time in reverse
/// order reproduce the sequential flash bytes, and the streaming
/// driver's per-phone metadata equals the sequential harvest's for
/// every worker count.
fn assert_harvest_identical(
    campaign: &FleetCampaign,
    worker_counts: &[usize],
) -> Vec<PhoneHarvest> {
    let seq = campaign.run();
    for h in seq.iter().rev() {
        let single = campaign.run_single(h.phone_id);
        let ctx = format!("phone {} run alone", h.phone_id);
        assert_eq!(h.injected, single.injected, "{ctx}");
        assert_flash_identical(&h.flashfs, &single.flashfs, &ctx);
    }
    let metas = harvest_metas(&seq);
    for &workers in worker_counts {
        let run = campaign.run_streaming(workers, AnalysisConfig::default(), &PassRegistry::all());
        assert_eq!(metas.len(), run.metas.len());
        for (a, b) in metas.iter().zip(&run.metas) {
            let ctx = format!("phone {} with {} workers", a.phone_id, workers);
            assert_eq!(a.phone_id, b.phone_id, "{ctx}");
            assert_eq!(a.enrolled_day, b.enrolled_day, "{ctx}");
            assert_eq!(a.retired_day, b.retired_day, "{ctx}");
            assert_eq!(a.firmware, b.firmware, "{ctx}");
            assert_eq!(a.stats, b.stats, "{ctx}");
            assert_eq!(a.injected, b.injected, "{ctx}");
            assert_eq!(a.flash_bytes, b.flash_bytes, "{ctx}");
            assert_eq!(a.ureports, b.ureports, "{ctx}");
        }
    }
    seq
}

#[test]
fn harvest_is_byte_identical_for_any_worker_count() {
    assert_harvest_identical(&FleetCampaign::new(2005, params()), &[2, 3, 5, 16]);
}

#[test]
fn analysis_output_identical_across_worker_counts() {
    let campaign = FleetCampaign::new(7, params());
    let base = render_study(&campaign, 1);
    assert_eq!(base, reference(&campaign, AnalysisConfig::default()));
    for workers in [2usize, 4, 8] {
        assert_eq!(
            base,
            render_study(&campaign, workers),
            "rendered study differs with {workers} workers"
        );
    }
}

#[test]
fn corrupted_harvest_is_byte_identical_for_any_worker_count() {
    // Corruption draws from a per-phone fork of the campaign seed, so
    // the damage — like the simulation itself — must not see the
    // thread schedule.
    let campaign = FleetCampaign::new(2005, params()).with_corruption(CorruptionProfile::Worst);
    let seq = assert_harvest_identical(&campaign, &[2, 4]);
    assert!(
        seq.iter().any(|h| h.injected.total_observable() > 0),
        "worst profile must inject observable damage"
    );
}

#[test]
fn corrupted_analysis_identical_across_worker_counts() {
    let campaign = FleetCampaign::new(7, params()).with_corruption(CorruptionProfile::Moderate);
    let base = render_study(&campaign, 1);
    for workers in [2usize, 4] {
        assert_eq!(
            base,
            render_study(&campaign, workers),
            "corrupted rendered study differs with {workers} workers"
        );
    }
}

#[test]
fn streaming_engine_report_identical_to_batch_for_any_worker_count() {
    // The streaming driver never materializes the fleet: each worker
    // folds its phone's analysis passes and drops the flash and the
    // dataset before the next phone. The phone-ordered merge must make
    // the rendered study byte-identical to the reference analysis —
    // for any worker count, under the worst corruption profile.
    let campaign = FleetCampaign::new(2005, params()).with_corruption(CorruptionProfile::Worst);
    let config = AnalysisConfig::default();
    let batch = reference(&campaign, config);
    for workers in [1usize, 4, 13] {
        assert_eq!(
            batch,
            render_study(&campaign, workers),
            "streaming study differs from batch with {workers} workers"
        );
    }

    // The `repro --phones 250 --days 60 --corruption worst --workers
    // 13` campaign, with the binary's analysis config.
    let params = CalibrationParams {
        phones: 250,
        campaign_days: 60,
        ..CalibrationParams::default()
    };
    let campaign = FleetCampaign::new(2005, params).with_corruption(CorruptionProfile::Worst);
    let config = AnalysisConfig {
        uptime_gap: SimDuration::from_secs(params.heartbeat_period_secs * 3 + 60),
        ..AnalysisConfig::default()
    };
    let streamed = campaign.run_streaming(13, config, &PassRegistry::all());
    assert_eq!(
        reference(&campaign, config),
        render(&streamed.report),
        "250-phone worst-corruption study differs from batch with 13 workers"
    );
}

#[test]
fn sharded_merge_report_identical_to_serial_for_any_worker_count_and_run_len() {
    // The driver folds contiguous runs of phones into private
    // per-worker shards and hands whole shards to the merger. The
    // shard partition (run_len) and the thread schedule decide only
    // *when* state reaches the merger — never what the study says:
    // every run matches the serial (one-worker) run, which matches the
    // reference analysis.
    let campaign = FleetCampaign::new(2005, params()).with_corruption(CorruptionProfile::Worst);
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let render_opts = |opts: &StreamingOptions, workers: usize| {
        let run = campaign
            .run_streaming_opts(workers, config, &registry, opts)
            .expect("no checkpoint path, nothing can fail");
        render(&run.report)
    };
    let serial = render_opts(&StreamingOptions::default(), 1);
    assert_eq!(serial, reference(&campaign, config));
    for workers in [1usize, 4, 13] {
        for run_len in [0u32, 1, 2, 5] {
            let sharded = render_opts(
                &StreamingOptions {
                    run_len,
                    ..StreamingOptions::default()
                },
                workers,
            );
            assert_eq!(
                serial, sharded,
                "sharded study differs from serial with {workers} workers, run_len {run_len}"
            );
        }
    }
}
