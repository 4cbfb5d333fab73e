//! Replay harness for the fault-signature → minimize → repro
//! pipeline (the PR's acceptance gate).
//!
//! The contract under test, end to end:
//!
//! 1. Signatures extracted from the 1000-phone scale campaign are the
//!    ground truth — every one names a panic that really coalesced in
//!    some phone's flash log.
//! 2. For at least 90% of a deterministic sample of those signatures,
//!    [`minimize`] finds a single-phone campaign of **at most 10
//!    simulated days** whose replay — a fresh simulate → parse →
//!    match run from nothing but the emitted config — reproduces a
//!    matching panic.
//! 3. Minimization is a pure function: re-minimizing the same
//!    signature yields byte-identical config JSON and the same probe
//!    and simulation counts.
//! 4. Every accepted shrink step on the trail is itself a reproducing
//!    config — ddmin never records a step it did not prove.
//! 5. Signature extraction from a v5 checkpoint (no re-simulation)
//!    agrees exactly with extraction through the campaign driver over
//!    the `coalesce` pass alone, and both with the serial per-phone
//!    loop kept here as the oracle, clean (log-only phones) and under
//!    worst-profile corruption (phones that also write `beats`).

use symfail::core::analysis::dataset::PhoneDataset;
use symfail::core::analysis::passes::{checkpoint_coalesced, PassRegistry};
use symfail::core::analysis::report::AnalysisConfig;
use symfail::core::analysis::signature::{distinct_signatures, FailureSignature};
use symfail::core::logger::files;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::composition::FleetComposition;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::{FleetCampaign, StreamingOptions};
use symfail::phone::repro::{extract_fleet_signatures, minimize, MinimizeOptions};

/// The 1000-phone heterogeneous scale campaign the signatures are
/// sampled from — the same fleet size the throughput experiments use,
/// cut to 60 days so the harness stays test-suite-sized.
fn scale_campaign() -> (FleetCampaign, AnalysisConfig) {
    let params = CalibrationParams {
        phones: 1000,
        campaign_days: 60,
        enrollment_spread_days: 40,
        attrition_spread_days: 10,
        ..CalibrationParams::default()
    };
    let config = params.analysis_config();
    let campaign = FleetCampaign::new(2005, params)
        .with_fleet(FleetComposition::parse("mixed").expect("mixed is a built-in composition"));
    (campaign, config)
}

#[test]
fn scale_campaign_signatures_minimize_and_replay() {
    let (campaign, config) = scale_campaign();
    let catalog = extract_fleet_signatures(&campaign, &config);
    assert!(
        catalog.len() >= 10,
        "scale campaign produced only {} distinct signatures",
        catalog.len()
    );

    // Deterministic sample: an even stride over the key-sorted
    // catalog, so reruns and machines agree on which signatures gate.
    let sample: Vec<_> = catalog
        .iter()
        .step_by(catalog.len().div_ceil(10))
        .map(|(s, _)| s.clone())
        .collect();
    let opts = MinimizeOptions {
        config,
        ..MinimizeOptions::default()
    };

    let mut reproduced = 0usize;
    let mut failures = Vec::new();
    for sig in &sample {
        let min = match minimize(sig, &opts) {
            Ok(min) => min,
            Err(e) => {
                failures.push(format!("{}: {e}", sig.key()));
                continue;
            }
        };
        assert!(
            min.config.days <= opts.max_days,
            "{}: minimized to {} days, budget is {}",
            sig.key(),
            min.config.days,
            opts.max_days
        );
        // The replay is the acceptance check: nothing but the emitted
        // config, simulated from scratch, must reproduce the panic.
        assert!(
            min.config.replay(&opts.config).unwrap(),
            "{}: minimal config failed replay",
            sig.key()
        );
        // Every accepted shrink step was proven by a probe; replaying
        // the trail re-proves each one from its serialized form.
        for (i, step) in min.trail.iter().enumerate() {
            let step = symfail::phone::repro::ReproConfig::parse_json(&step.to_json())
                .expect("trail step round-trips");
            assert!(
                step.replay(&opts.config).unwrap(),
                "{}: trail step {i} no longer reproduces",
                sig.key()
            );
        }
        assert_eq!(min.trail.last().unwrap(), &min.config);
        // Determinism: same signature + options → byte-identical
        // config JSON and an identical probe sequence, answered from
        // the same simulations.
        let again = minimize(sig, &opts).expect("second minimize of a reproducing signature");
        assert_eq!(again.config.to_json(), min.config.to_json());
        assert_eq!(again.probes, min.probes);
        assert_eq!(again.simulated, min.simulated);
        assert!(
            (1..=min.probes).contains(&min.simulated),
            "{}: {} simulations for {} probes",
            sig.key(),
            min.simulated,
            min.probes
        );
        reproduced += 1;
    }
    assert!(
        reproduced * 10 >= sample.len() * 9,
        "only {reproduced}/{} sampled signatures minimized to a ≤{}-day repro; \
         unreproduced: {failures:?}",
        sample.len(),
        opts.max_days
    );
}

/// The oracle: every phone simulated in full, one at a time, its log
/// parsed alone, one signature per coalesced panic, counted and sorted
/// by key.
fn serial_signatures(
    campaign: &FleetCampaign,
    config: &AnalysisConfig,
) -> Vec<(FailureSignature, u64)> {
    let mut out: Vec<(FailureSignature, u64)> = Vec::new();
    for id in 0..campaign.params().phones {
        let harvest = campaign.run_single(id);
        let log = harvest.flashfs.read_bytes(files::LOG).unwrap_or_default();
        let phone = PhoneDataset::from_log(id, log);
        for sig in FailureSignature::from_phone(&phone, config, campaign.device_labels(id)) {
            match out.iter_mut().find(|(s, _)| *s == sig) {
                Some((_, n)) => *n += 1,
                None => out.push((sig, 1)),
            }
        }
    }
    out.sort_by_key(|(s, _)| s.key());
    out
}

#[test]
fn checkpoint_extraction_matches_streamed_extraction() {
    // Clean, extraction's phones write the log alone; under
    // corruption, `beats` too. The checkpointed run reads every file.
    for corruption in [CorruptionProfile::None, CorruptionProfile::Worst] {
        checkpoint_extraction_matches_streamed_extraction_under(corruption);
    }
}

fn checkpoint_extraction_matches_streamed_extraction_under(corruption: CorruptionProfile) {
    // The merge_checkpoints idiom: a small accelerated campaign whose
    // streaming run writes a schema-v5 checkpoint.
    let params = CalibrationParams {
        phones: 13,
        campaign_days: 30,
        enrollment_spread_days: 5,
        attrition_spread_days: 5,
        background_episode_rate_per_hour: 0.01,
        isolated_freeze_rate_per_hour: 0.01,
        isolated_self_shutdown_rate_per_hour: 0.012,
        ..CalibrationParams::default()
    };
    let config = AnalysisConfig::default();
    let fleet = FleetComposition::parse("mixed").expect("mixed is a built-in composition");
    let spec = fleet.spec_string();
    let campaign = FleetCampaign::new(7117, params)
        .with_fleet(fleet)
        .with_corruption(corruption);
    let path = std::env::temp_dir().join(format!(
        "symfail-sigextract-{}-{}.bin",
        std::process::id(),
        corruption.as_str()
    ));
    let _ = std::fs::remove_file(&path);
    let opts = StreamingOptions {
        checkpoint: Some(path.clone()),
        ..StreamingOptions::default()
    };
    let registry = PassRegistry::all();
    campaign
        .run_streaming_opts(2, config, &registry, &opts)
        .expect("streaming run");
    let bytes = std::fs::read(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);

    let (names, panics) =
        checkpoint_coalesced(&registry, config, campaign.fingerprint(), &spec, &bytes)
            .expect("extraction from the final checkpoint");
    let from_ckpt = distinct_signatures(&panics, &names, |id| campaign.device_labels(id));
    let streamed = extract_fleet_signatures(&campaign, &config);
    assert!(
        !streamed.is_empty(),
        "accelerated campaign panics somewhere"
    );
    assert_eq!(
        from_ckpt,
        streamed,
        "checkpoint-loaded catalog diverges from streamed extraction under {}",
        corruption.as_str()
    );
    assert_eq!(
        streamed,
        serial_signatures(&campaign, &config),
        "streamed extraction diverges from the serial oracle under {}",
        corruption.as_str()
    );
}
