//! Parallel-pipeline determinism: the streaming campaign driver must
//! produce byte-identical results for any worker count and any run
//! partition. Phones own forked, independent RNG streams, so the
//! thread schedule cannot leak into any phone's bytes — these tests
//! pin that contract against the reference fold (`tests/oracle`):
//! every phone simulated alone, parsed, and folded serially.

mod oracle;

use symfail::core::analysis::dataset::PanicEvent;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::core::flashfs::FlashFs;
use symfail::core::intern::NameTable;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::composition::FleetComposition;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::{FleetCampaign, PhoneHarvest, PhoneMeta, StreamingOptions};

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

/// The reference fold's rendering.
fn reference(campaign: &FleetCampaign, config: AnalysisConfig) -> String {
    render(&oracle::reference(campaign, config, &PassRegistry::all()).report)
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
    let seq = oracle::harvest(campaign);
    for h in seq.iter().rev() {
        let single = campaign.run_single(h.phone_id);
        let ctx = format!("phone {} run alone", h.phone_id);
        assert_eq!(h.injected, single.injected, "{ctx}");
        assert_flash_identical(&h.flashfs, &single.flashfs, &ctx);
    }
    let metas: Vec<PhoneMeta> = seq.iter().map(PhoneMeta::from_harvest).collect();
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
    let config = params.analysis_config();
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
    // shard partition and the thread schedule decide only *when*
    // state reaches the merger — never what the study says: every run
    // matches the serial (one-worker) run, which matches the reference
    // analysis. Runs end on `checkpoint_every` multiples (0 picks the
    // automatic run length); without a checkpoint path nothing is
    // written, so the option only moves the cuts.
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
                    checkpoint_every: run_len,
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

/// The names behind a panic's ids in `names`: raising component,
/// reason and running apps.
fn resolve(names: &NameTable, p: &PanicEvent) -> (String, String, Vec<String>) {
    let name = |id| names.resolve(id).to_string();
    (
        name(p.raised_by),
        name(p.reason),
        p.apps.iter().map(name).collect(),
    )
}

/// A 3-phone × 20-day campaign with enrollment and attrition spreads.
fn tiny_params() -> CalibrationParams {
    CalibrationParams {
        phones: 3,
        campaign_days: 20,
        enrollment_spread_days: 5,
        attrition_spread_days: 5,
        ..CalibrationParams::default()
    }
}

#[test]
fn streaming_report_matches_batch() {
    let c = FleetCampaign::new(13, tiny_params()).with_corruption(CorruptionProfile::Worst);
    let config = AnalysisConfig::default();
    let batch = reference(&c, config);
    for workers in [1, 2, 3] {
        let streamed = c.run_streaming(workers, config, &PassRegistry::all());
        assert_eq!(
            render(&streamed.report),
            batch,
            "streaming ({workers} workers) must be byte-identical to batch"
        );
        assert_eq!(streamed.metas.len(), 3);
        assert!(streamed.parse_bytes > 0);
    }
}

#[test]
fn mixed_fleet_streaming_matches_labeled_batch() {
    let c = FleetCampaign::new(13, tiny_params())
        .with_fleet(FleetComposition::mixed())
        .with_corruption(CorruptionProfile::Worst);
    let config = AnalysisConfig::default();
    let batch = reference(&c, config);
    assert!(
        batch.contains("device class"),
        "a mixed fleet renders the device-class section"
    );
    for workers in [1, 2, 3] {
        let streamed = c.run_streaming(workers, config, &PassRegistry::all());
        assert_eq!(
            render(&streamed.report),
            batch,
            "mixed-fleet streaming ({workers} workers) must match labeled batch"
        );
    }
}

/// No rendered section resolves a coalesced panic's name ids, so the
/// driver's fleet name table and every coalesced panic of both
/// coalescence variants — raw ids included — must equal the reference
/// fold's at any worker count: per-phone tables absorbed in phone-id
/// order, each run's ids remapped as its shard merges.
#[test]
fn driver_name_ids_match_the_reference_fold() {
    // A short campaign with accelerated faults: every panic interns its
    // reason text, so the fleet table grows with the panics.
    let params = CalibrationParams {
        phones: 8,
        campaign_days: 45,
        enrollment_spread_days: 5,
        attrition_spread_days: 5,
        background_episode_rate_per_hour: 0.05,
        p_episode_per_call: 0.1,
        p_episode_per_message: 0.02,
        ..CalibrationParams::default()
    };
    let default = FleetCampaign::new(2005, params);
    let mixed_worst = FleetCampaign::new(7, params)
        .with_fleet(FleetComposition::mixed())
        .with_corruption(CorruptionProfile::Worst);
    let config = params.analysis_config();
    let registry = PassRegistry::all();
    for (what, campaign) in [("default", default), ("mixed/worst", mixed_worst)] {
        let phones = oracle::parse(&oracle::harvest(&campaign));
        let oracle::Reference { report, names } =
            oracle::fold_phones(&phones, config, &registry, |id| campaign.device_labels(id));
        assert!(
            names.len() > 200 && report.coalescence.panics().len() > 300,
            "{what}: {} names, {} coalesced panics",
            names.len(),
            report.coalescence.panics().len()
        );
        // The fold applies the same remaps the driver does, so check the
        // oracle on its own first: resolved through the fleet table,
        // every coalesced panic names what its phone's own parse names.
        let own: Vec<_> = phones
            .iter()
            .flat_map(|phone| phone.panics().iter().map(|p| resolve(phone.names(), p)))
            .collect();
        for coalesced in [&report.coalescence, &report.coalescence_all_shutdowns] {
            let fleet: Vec<_> = coalesced
                .panics()
                .iter()
                .map(|c| resolve(&names, &c.panic))
                .collect();
            assert_eq!(fleet, own, "{what}: names behind the coalesced panics' ids");
        }
        for workers in 1..=4 {
            let run = campaign.run_streaming(workers, config, &registry);
            let ctx = format!("{what}, {workers} workers");
            assert_eq!(run.names, names, "{ctx}: fleet name table");
            assert_eq!(
                run.report.coalescence.panics(),
                report.coalescence.panics(),
                "{ctx}: coalesced panics"
            );
            assert_eq!(
                run.report.coalescence_all_shutdowns.panics(),
                report.coalescence_all_shutdowns.panics(),
                "{ctx}: coalesced panics against every shutdown"
            );
        }
    }
}
