//! Crash-resume harness for checkpointed streaming campaigns.
//!
//! The contract under test: interrupt the streaming engine after *any*
//! number of absorbed phones, rebuild a merger from the checkpoint
//! file, finish the campaign — and the rendered study is byte-identical
//! to an uninterrupted run, for any worker count and under worst-case
//! flash corruption. The kill point is `StreamingOptions::
//! stop_after_phones`, which bounds the work-stealing counter exactly
//! like a crash between two phone absorptions would. A committed
//! checkpoint fixture pins the schema-v5 byte layout across releases.

mod oracle;

use std::path::PathBuf;

use symfail::core::analysis::checkpoint::CheckpointError;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::composition::FleetComposition;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::{FleetCampaign, StreamingOptions};
use symfail::sim::SimDuration;

const SEED: u64 = 4242;
const PHONES: u32 = 13;

/// A 13-phone campaign small enough to replay dozens of times, with
/// failure rates accelerated so every pass accumulates real state.
fn params() -> CalibrationParams {
    CalibrationParams {
        phones: PHONES,
        campaign_days: 30,
        enrollment_spread_days: 5,
        attrition_spread_days: 5,
        background_episode_rate_per_hour: 0.01,
        isolated_freeze_rate_per_hour: 0.01,
        isolated_self_shutdown_rate_per_hour: 0.012,
        ..CalibrationParams::default()
    }
}

fn campaign(corruption: CorruptionProfile) -> FleetCampaign {
    FleetCampaign::new(SEED, params()).with_corruption(corruption)
}

fn render(report: &StudyReport) -> String {
    report.render_all() + &report.render_per_phone()
}

/// The reference fold of the campaign (`tests/oracle`).
fn reference(campaign: &FleetCampaign, config: AnalysisConfig) -> StudyReport {
    oracle::reference(campaign, config, &PassRegistry::all()).report
}

/// Unique checkpoint path per (test, scenario): tests run in parallel
/// and a shared file would cross-resume between scenarios.
fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("symfail-ckpt-{}-{tag}.bin", std::process::id()))
}

/// Interrupt at phone `k` with `workers` threads, resume, and demand
/// the same bytes an uninterrupted run produces.
fn assert_resume_identical(corruption: CorruptionProfile, baseline: &str, k: u32, workers: usize) {
    let tag = format!("{}-k{k}-w{workers}", corruption.as_str());
    let path = ckpt_path(&tag);
    let _ = std::fs::remove_file(&path);
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let campaign = campaign(corruption);

    let interrupted = StreamingOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        stop_after_phones: Some(k),
        ..StreamingOptions::default()
    };
    let first = campaign
        .run_streaming_opts(workers, config, &registry, &interrupted)
        .unwrap_or_else(|e| panic!("{tag}: interrupted run failed: {e}"));
    assert_eq!(first.resumed_from, None, "{tag}: first run must be fresh");

    let resumed = StreamingOptions {
        checkpoint: Some(path.clone()),
        ..StreamingOptions::default()
    };
    let second = campaign
        .run_streaming_opts(workers, config, &registry, &resumed)
        .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
    assert_eq!(
        second.resumed_from,
        Some(k),
        "{tag}: checkpoint must hold exactly the kill point"
    );
    assert_eq!(
        second.metas.len(),
        (PHONES - k) as usize,
        "{tag}: resume must simulate only the unabsorbed suffix"
    );
    assert_eq!(
        render(&second.report),
        baseline,
        "{tag}: resumed study differs from uninterrupted"
    );
    let _ = std::fs::remove_file(&path);
}

fn sweep(corruption: CorruptionProfile) {
    let baseline = render(
        &campaign(corruption)
            .run_streaming(4, AnalysisConfig::default(), &PassRegistry::all())
            .report,
    );
    for k in [0, 1, PHONES / 2, PHONES] {
        for workers in [1usize, 4, PHONES as usize] {
            assert_resume_identical(corruption, &baseline, k, workers);
        }
    }
}

#[test]
fn interrupt_anywhere_resume_is_byte_identical() {
    sweep(CorruptionProfile::None);
}

#[test]
fn interrupt_anywhere_resume_is_byte_identical_under_worst_corruption() {
    sweep(CorruptionProfile::Worst);
}

/// The multi-phone-run leg: runs span up to 5 phones
/// (checkpoint_every = 5), killed at {0, mid, last} with worker counts
/// {1, 4, 13} and resumed — and every render must match the serial
/// baseline (the sequential harvest under the reference analysis)
/// byte for byte.
fn sharded_sweep(corruption: CorruptionProfile) {
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let baseline = render(&reference(&campaign(corruption), config));
    for k in [0, PHONES / 2, PHONES] {
        for workers in [1usize, 4, PHONES as usize] {
            let tag = format!("sharded-{}-k{k}-w{workers}", corruption.as_str());
            let path = ckpt_path(&tag);
            let _ = std::fs::remove_file(&path);
            let campaign = campaign(corruption);
            let interrupted = StreamingOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 5,
                stop_after_phones: Some(k),
                ..StreamingOptions::default()
            };
            let first = campaign
                .run_streaming_opts(workers, config, &registry, &interrupted)
                .unwrap_or_else(|e| panic!("{tag}: interrupted run failed: {e}"));
            assert_eq!(first.resumed_from, None, "{tag}: first run must be fresh");
            let resumed = StreamingOptions {
                checkpoint: Some(path.clone()),
                ..StreamingOptions::default()
            };
            let second = campaign
                .run_streaming_opts(workers, config, &registry, &resumed)
                .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
            assert_eq!(
                second.resumed_from,
                Some(k),
                "{tag}: checkpoint must hold exactly the kill point"
            );
            assert_eq!(
                render(&second.report),
                baseline,
                "{tag}: resume differs from the serial baseline"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn sharded_interrupt_resume_matches_serial_baseline() {
    sharded_sweep(CorruptionProfile::None);
}

#[test]
fn sharded_interrupt_resume_matches_serial_baseline_under_worst_corruption() {
    sharded_sweep(CorruptionProfile::Worst);
}

#[test]
fn checkpoint_from_different_campaign_is_refused() {
    let path = ckpt_path("campaign-mismatch");
    let _ = std::fs::remove_file(&path);
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let opts = StreamingOptions {
        checkpoint: Some(path.clone()),
        stop_after_phones: Some(3),
        ..StreamingOptions::default()
    };
    campaign(CorruptionProfile::None)
        .run_streaming_opts(2, config, &registry, &opts)
        .expect("writing the checkpoint succeeds");

    // Same params, same corruption — but a different seed is a
    // different fleet, and silently resuming would splice two
    // campaigns together.
    let other = FleetCampaign::new(SEED + 1, params());
    let resumed = StreamingOptions {
        checkpoint: Some(path.clone()),
        ..StreamingOptions::default()
    };
    let err = other
        .run_streaming_opts(2, config, &registry, &resumed)
        .expect_err("seed mismatch must refuse the checkpoint");
    assert!(
        matches!(err, CheckpointError::CampaignMismatch { .. }),
        "wrong error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_with_different_config_or_registry_is_refused() {
    let path = ckpt_path("config-mismatch");
    let _ = std::fs::remove_file(&path);
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let campaign = campaign(CorruptionProfile::None);
    let opts = StreamingOptions {
        checkpoint: Some(path.clone()),
        stop_after_phones: Some(3),
        ..StreamingOptions::default()
    };
    campaign
        .run_streaming_opts(2, config, &registry, &opts)
        .expect("writing the checkpoint succeeds");

    let resumed = StreamingOptions {
        checkpoint: Some(path.clone()),
        ..StreamingOptions::default()
    };
    let skewed = AnalysisConfig {
        coalescence_window: config.coalescence_window + SimDuration::from_secs(1),
        ..config
    };
    let err = campaign
        .run_streaming_opts(2, skewed, &registry, &resumed)
        .expect_err("config mismatch must refuse the checkpoint");
    assert_eq!(err, CheckpointError::ConfigMismatch);

    let subset = PassRegistry::select("mtbf,panics").unwrap();
    let err = campaign
        .run_streaming_opts(2, config, &subset, &resumed)
        .expect_err("registry mismatch must refuse the checkpoint");
    assert!(
        matches!(err, CheckpointError::RegistryMismatch { .. }),
        "wrong error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// The heterogeneous-fleet leg of the resume contract: interrupt the
/// mixed-composition campaign mid-run and resume it — the study,
/// device-class tables included, must match the uninterrupted run byte
/// for byte. And the same checkpoint resumed under a *different*
/// composition must be refused with the typed composition error (not
/// the campaign-fingerprint error it also implies: the composition is
/// validated first because it names the actual cause).
#[test]
fn mixed_fleet_checkpoint_roundtrip_and_composition_refusal() {
    let path = ckpt_path("mixed-fleet");
    let _ = std::fs::remove_file(&path);
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let mixed = || campaign(CorruptionProfile::None).with_fleet(FleetComposition::mixed());

    let baseline = render(&mixed().run_streaming(4, config, &registry).report);
    assert!(
        baseline.contains("device class"),
        "mixed fleet must render the device-class section"
    );

    let interrupted = StreamingOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        stop_after_phones: Some(5),
        ..StreamingOptions::default()
    };
    mixed()
        .run_streaming_opts(2, config, &registry, &interrupted)
        .expect("interrupted mixed-fleet run writes its checkpoint");

    // Resuming under the default composition is a different fleet:
    // refused, naming both spec strings.
    let resumed = StreamingOptions {
        checkpoint: Some(path.clone()),
        ..StreamingOptions::default()
    };
    let err = campaign(CorruptionProfile::None)
        .run_streaming_opts(2, config, &registry, &resumed)
        .expect_err("composition mismatch must refuse the checkpoint");
    match err {
        CheckpointError::CompositionMismatch { found, expected } => {
            assert_eq!(found, FleetComposition::mixed().spec_string());
            assert_eq!(expected, "default");
        }
        other => panic!("wrong error: {other}"),
    }

    // Resuming under the matching composition completes the campaign
    // to the uninterrupted bytes.
    let second = mixed()
        .run_streaming_opts(2, config, &registry, &resumed)
        .expect("matching composition must resume");
    assert_eq!(second.resumed_from, Some(5));
    assert_eq!(
        render(&second.report),
        baseline,
        "mixed-fleet resume differs from uninterrupted"
    );
    let _ = std::fs::remove_file(&path);
}

/// The online MTBF estimate must converge on the reference analysis's
/// number *exactly* — the paper's 25-phone seed fleet is the anchor.
#[test]
fn online_mtbf_trace_converges_to_batch_estimate() {
    let params = CalibrationParams::default();
    assert_eq!(params.phones, 25, "seed fleet is the paper's 25 phones");
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let campaign = FleetCampaign::new(2005, params);

    let opts = StreamingOptions {
        checkpoint_every: 5,
        mtbf_trace: true,
        ..StreamingOptions::default()
    };
    // The sequential reference simulates on its own thread while the
    // streamed run uses the rest.
    let (run, batch) = std::thread::scope(|s| {
        let batch = s.spawn(|| reference(&campaign, config));
        let run = campaign
            .run_streaming_opts(4, config, &registry, &opts)
            .expect("no checkpoint file, nothing can fail");
        (run, batch.join().expect("reference analysis panicked"))
    });

    assert!(
        run.mtbf_trace.windows(2).all(|w| w[0].0 < w[1].0),
        "trace must be strictly increasing in phones absorbed"
    );
    let boundaries: Vec<u32> = run.mtbf_trace.iter().map(|&(n, _)| n).collect();
    assert_eq!(boundaries, vec![5, 10, 15, 20, 25]);
    let (phones, last) = *run.mtbf_trace.last().expect("trace is non-empty");
    assert_eq!(phones, 25);
    assert_eq!(last, batch.mtbf, "online estimate must equal batch exactly");
}

/// `tests/golden/checkpoint_v5_mixed_worst_12x120_stop8.bin` was
/// written by an earlier release's driver for
/// `repro --phones 12 --days 120 --fleet mixed --corruption worst
/// --checkpoint-every 4 --stop-after 8`. The current driver must write
/// the same bytes for the same campaign and stop point, and resuming
/// the committed file must render the uninterrupted study.
#[test]
fn committed_v5_checkpoint_fixture_is_reproduced_and_resumes() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("checkpoint_v5_mixed_worst_12x120_stop8.bin");
    let want = std::fs::read(&fixture)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", fixture.display()));
    let params = CalibrationParams {
        phones: 12,
        campaign_days: 120,
        ..CalibrationParams::default()
    };
    let campaign = FleetCampaign::new(2005, params)
        .with_corruption(CorruptionProfile::Worst)
        .with_fleet(FleetComposition::mixed());
    let config = params.analysis_config();
    let registry = PassRegistry::all();

    let path = ckpt_path("v5-fixture-write");
    let _ = std::fs::remove_file(&path);
    let opts = StreamingOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every: 4,
        stop_after_phones: Some(8),
        ..StreamingOptions::default()
    };
    campaign
        .run_streaming_opts(2, config, &registry, &opts)
        .expect("interrupted run writes its checkpoint");
    let got = std::fs::read(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    assert!(
        got == want,
        "checkpoint bytes differ from the committed v5 fixture ({} vs {} bytes)",
        got.len(),
        want.len()
    );

    let path = ckpt_path("v5-fixture-resume");
    std::fs::write(&path, &want).expect("stage the fixture");
    let resumed = campaign
        .run_streaming_opts(
            2,
            config,
            &registry,
            &StreamingOptions {
                checkpoint: Some(path.clone()),
                ..StreamingOptions::default()
            },
        )
        .expect("the committed fixture resumes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.resumed_from, Some(8));
    assert_eq!(
        render(&resumed.report),
        render(&reference(&campaign, config)),
        "resuming the committed fixture differs from the uninterrupted study"
    );
}
