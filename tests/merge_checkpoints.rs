//! Multi-process campaign sharding via checkpoint merge.
//!
//! The contract under test: run shard `i/N` of a campaign in its own
//! driver invocation (its own process, in CI), each writing a schema-v5
//! checkpoint that records its shard topology with an explicit
//! `[start, end)` interval and the fleet-composition spec — then merge
//! the N files with [`merge_shard_checkpoints`] and demand the
//! rendered study is byte-identical to a single-process streaming run,
//! for any N, any partition of the phone-id space, any balance mode
//! (uniform formula cuts, statically planned cuts, measured-cost
//! cuts), and any fleet composition. Plus the refusal matrix: coverage
//! gaps, duplicated files, overlapping intervals, and inputs from a
//! different campaign/config/registry/composition
//! must all be rejected with the right error, never silently merged —
//! unless the caller opts into a best-effort partial merge, which
//! instead names every missing interval.

use std::ops::Range;
use std::path::PathBuf;

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;

use symfail::core::analysis::checkpoint::{CheckpointError, MergeError, ShardTopology};
use symfail::core::analysis::dataset::{FleetDataset, PhoneDataset};
use symfail::core::analysis::passes::{
    merge_shard_checkpoints, merge_shard_checkpoints_partial, FoldShard, PassRegistry, PhoneLens,
    StreamMerger,
};
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::core::records::{LogRecord, PanicRecord};
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::composition::FleetComposition;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::{FleetCampaign, ShardSpec, StreamingOptions};
use symfail::phone::plan::{BalanceMode, ShardPlan};
use symfail::sim::{SimDuration, SimTime};
use symfail::symbian::panic::{codes, Panic};
use symfail::symbian::servers::logdb::ActivityKind;

const SEED: u64 = 7117;
const PHONES: u32 = 13;

/// A 13-phone campaign small enough to replay per shard count, with
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

fn campaign(seed: u64, corruption: CorruptionProfile) -> FleetCampaign {
    FleetCampaign::new(seed, params()).with_corruption(corruption)
}

fn render(report: &StudyReport) -> String {
    report.render_all() + &report.render_per_phone()
}

/// Unique checkpoint path per (test, scenario): tests run in parallel
/// and a shared file would cross-resume between scenarios.
fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("symfail-merge-{}-{tag}.bin", std::process::id()))
}

/// Runs shard `index`/`count` of the campaign through the real
/// streaming driver — exactly what one `repro --shard i/N` process
/// does — and returns the checkpoint bytes it wrote.
fn shard_ckpt(seed: u64, corruption: CorruptionProfile, index: u32, count: u32) -> Vec<u8> {
    shard_ckpt_balanced(seed, corruption, index, count, BalanceMode::Uniform)
}

/// Same, with an explicit balance mode (`--balance static|measured`).
fn shard_ckpt_balanced(
    seed: u64,
    corruption: CorruptionProfile,
    index: u32,
    count: u32,
    balance: BalanceMode,
) -> Vec<u8> {
    let tag = format!(
        "{seed}-{}-{index}of{count}-{}",
        corruption.as_str(),
        balance.as_str()
    );
    let path = ckpt_path(&tag);
    let _ = std::fs::remove_file(&path);
    let opts = StreamingOptions {
        checkpoint: Some(path.clone()),
        shard: Some(ShardSpec { index, count }),
        balance,
        ..StreamingOptions::default()
    };
    campaign(seed, corruption)
        .run_streaming_opts(2, AnalysisConfig::default(), &PassRegistry::all(), &opts)
        .unwrap_or_else(|e| panic!("shard {index}/{count} run failed: {e}"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let _ = std::fs::remove_file(&path);
    bytes
}

/// For each shard count — including one larger than the fleet, which
/// produces empty shards — merge the N driver-written checkpoints and
/// demand the single-process streaming report, byte for byte. The
/// merged merger must also snapshot into a whole-fleet checkpoint that
/// resumes cleanly.
fn merged_shards_match_single_process(corruption: CorruptionProfile) {
    let registry = PassRegistry::all();
    let config = AnalysisConfig::default();
    let baseline = render(
        &campaign(SEED, corruption)
            .run_streaming(4, config, &registry)
            .report,
    );
    let fingerprint = campaign(SEED, corruption).fingerprint();
    for count in [2u32, 4, 8, 16] {
        let inputs: Vec<Vec<u8>> = (0..count)
            .map(|i| shard_ckpt(SEED, corruption, i, count))
            .collect();
        let merger = merge_shard_checkpoints(&registry, config, fingerprint, "default", &inputs)
            .unwrap_or_else(|e| panic!("{count}-way merge failed: {e}"));
        assert_eq!(
            merger.absorbed(),
            PHONES,
            "{count}-way merge must cover the fleet"
        );

        let solo = ShardTopology::solo(PHONES);
        let merged_ckpt = merger.snapshot(fingerprint, "default", solo);
        let resumed = StreamMerger::resume(
            &registry,
            config,
            fingerprint,
            "default",
            solo,
            &merged_ckpt,
        )
        .unwrap_or_else(|e| panic!("{count}-way merged checkpoint refused on resume: {e}"));
        assert_eq!(
            render(&resumed.finish()),
            baseline,
            "{count}-way merged checkpoint resumes to different bytes"
        );
        assert_eq!(
            render(&merger.finish()),
            baseline,
            "{count}-way merge differs from single process"
        );
    }
}

#[test]
fn merged_shard_checkpoints_match_single_process() {
    merged_shards_match_single_process(CorruptionProfile::None);
}

#[test]
fn merged_shard_checkpoints_match_single_process_under_worst_corruption() {
    merged_shards_match_single_process(CorruptionProfile::Worst);
}

/// Runs shard `index`/4 of the *mixed-composition* campaign through
/// the streaming driver and returns its checkpoint bytes.
fn mixed_shard_ckpt(index: u32) -> Vec<u8> {
    let path = ckpt_path(&format!("mixed-{index}of4"));
    let _ = std::fs::remove_file(&path);
    let opts = StreamingOptions {
        checkpoint: Some(path.clone()),
        shard: Some(ShardSpec { index, count: 4 }),
        ..StreamingOptions::default()
    };
    campaign(SEED, CorruptionProfile::None)
        .with_fleet(FleetComposition::mixed())
        .run_streaming_opts(2, AnalysisConfig::default(), &PassRegistry::all(), &opts)
        .unwrap_or_else(|e| panic!("mixed shard {index}/4 run failed: {e}"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A heterogeneous fleet shards and merges exactly like the default
/// one: 4 shard checkpoints of the mixed-composition campaign merge to
/// the single-process streaming report byte for byte — and that report
/// carries the device-class breakdown, which the grouped accumulators
/// must have reassembled across shard files.
#[test]
fn mixed_fleet_shard_checkpoints_merge_byte_identical() {
    let registry = PassRegistry::all();
    let config = AnalysisConfig::default();
    let mixed = || campaign(SEED, CorruptionProfile::None).with_fleet(FleetComposition::mixed());
    let spec = FleetComposition::mixed().spec_string();
    let baseline = render(&mixed().run_streaming(4, config, &registry).report);
    assert!(
        baseline.contains("device class"),
        "mixed fleet must render the device-class section"
    );
    let fingerprint = mixed().fingerprint();
    let inputs: Vec<Vec<u8>> = (0..4).map(mixed_shard_ckpt).collect();
    let merger = merge_shard_checkpoints(&registry, config, fingerprint, &spec, &inputs)
        .unwrap_or_else(|e| panic!("mixed-fleet 4-way merge failed: {e}"));
    assert_eq!(
        render(&merger.finish()),
        baseline,
        "mixed-fleet merge differs from single process"
    );
}

/// Cost-balanced shards (`--balance static` and `--balance measured`)
/// cut the phone-id space at planner-chosen points instead of the
/// `i/N` formula — the merged report must still be byte-identical to
/// the single-process run, and the checkpoints must record exactly
/// the planner's intervals.
#[test]
fn balanced_shard_checkpoints_match_single_process() {
    let corruption = CorruptionProfile::Worst;
    let registry = PassRegistry::all();
    let config = AnalysisConfig::default();
    let baseline = render(
        &campaign(SEED, corruption)
            .run_streaming(4, config, &registry)
            .report,
    );
    let fingerprint = campaign(SEED, corruption).fingerprint();
    // A deliberately lopsided measured-cost vector: phone 0 costs as
    // much as the rest of the fleet together.
    let mut measured = vec![1.0f64; PHONES as usize];
    measured[0] = PHONES as f64;
    for (count, mode) in [
        (2u32, BalanceMode::Static),
        (4, BalanceMode::Static),
        (4, BalanceMode::Measured(measured)),
    ] {
        let plan = campaign(SEED, corruption).shard_plan(count, &mode);
        let inputs: Vec<Vec<u8>> = (0..count)
            .map(|i| shard_ckpt_balanced(SEED, corruption, i, count, mode.clone()))
            .collect();
        // The checkpoints carry the planner's cut points verbatim.
        for (i, bytes) in inputs.iter().enumerate() {
            let want = plan.topology(i as u32);
            let resumed =
                StreamMerger::resume(&registry, config, fingerprint, "default", want, bytes)
                    .unwrap_or_else(|e| {
                        panic!("{}-balanced shard {i}/{count}: {e}", mode.as_str())
                    });
            assert_eq!(
                resumed.absorbed(),
                want.end,
                "shard {i} covers its interval"
            );
        }
        let merger = merge_shard_checkpoints(&registry, config, fingerprint, "default", &inputs)
            .unwrap_or_else(|e| panic!("{}-balanced {count}-way merge failed: {e}", mode.as_str()));
        assert_eq!(
            render(&merger.finish()),
            baseline,
            "{}-balanced {count}-way merge differs from single process",
            mode.as_str()
        );
    }
}

/// `merge-checkpoints --partial` semantics: with one shard file
/// missing the partial merge succeeds, names exactly the dropped
/// interval, and still folds every phone from the shards that are
/// present; with the full set present it degrades to the strict
/// merge, byte for byte.
#[test]
fn partial_merge_names_the_missing_interval_and_folds_the_rest() {
    let registry = PassRegistry::all();
    let config = AnalysisConfig::default();
    let fingerprint = campaign(SEED, CorruptionProfile::None).fingerprint();
    let shards: Vec<Vec<u8>> = (0..4)
        .map(|i| shard_ckpt(SEED, CorruptionProfile::None, i, 4))
        .collect();

    // Full cover: partial == strict, including the rendered bytes.
    let (full, gaps) =
        merge_shard_checkpoints_partial(&registry, config, fingerprint, "default", &shards)
            .expect("full cover must merge");
    assert_eq!(gaps, Vec::<(u32, u32)>::new());
    assert_eq!(full.absorbed(), PHONES);
    let strict = merge_shard_checkpoints(&registry, config, fingerprint, "default", &shards)
        .expect("strict merge of a full cover");
    assert_eq!(render(&full.finish()), render(&strict.finish()));

    // Shard 1 missing: its interval is the one gap, and the phones of
    // shards 0, 2 and 3 all still reach the report.
    let (hole_from, hole_to) = ShardTopology::uniform(1, 4, PHONES).interval();
    let missing = [shards[0].clone(), shards[2].clone(), shards[3].clone()];
    let (merger, gaps) =
        merge_shard_checkpoints_partial(&registry, config, fingerprint, "default", &missing)
            .expect("partial merge must tolerate a missing shard");
    assert_eq!(gaps, vec![(hole_from, hole_to)]);
    let report = merger.finish();
    assert_eq!(
        report.per_phone.len() as u32,
        PHONES - (hole_to - hole_from),
        "best-effort report folds every present phone"
    );

    // Overlaps are corruption, not incompleteness: still refused.
    let fp = 0xFEED_F00D;
    let overlapping = [
        hand_ckpt(&registry, config, fp, 0..3, 0, 2, 6),
        hand_ckpt(&registry, config, fp, 2..6, 1, 2, 6),
    ];
    let err = merge_shard_checkpoints_partial(&registry, config, fp, "default", &overlapping)
        .map(|_| ())
        .expect_err("partial merge must still refuse overlaps");
    assert_eq!(
        err,
        MergeError::Overlap {
            a: (0, 3),
            b: (2, 6)
        }
    );
}

/// Folds hand-built phones with contiguous ids from `start` into one
/// shard.
fn fold_run(
    registry: &PassRegistry,
    config: AnalysisConfig,
    start: u32,
    phones: &[PhoneDataset],
) -> FoldShard {
    let mut shard = FoldShard::new(registry, start);
    for phone in phones {
        let lens = PhoneLens::new(phone, config, registry.needs_coalesce());
        shard.absorb_phone(registry, &lens);
    }
    shard
}

/// The reference driver's rendering of hand-built phones.
fn reference(config: AnalysisConfig, phones: &[PhoneDataset]) -> String {
    render(&StudyReport::analyze(
        &FleetDataset::from_phones(phones.to_vec()),
        config,
    ))
}

/// Folds `ids` into a shard-scoped merger and snapshots it under a
/// hand-chosen topology — for refusal cases the formula-driven driver
/// cannot produce (overlaps).
fn hand_ckpt(
    registry: &PassRegistry,
    config: AnalysisConfig,
    fingerprint: u64,
    ids: Range<u32>,
    index: u32,
    count: u32,
    fleet_phones: u32,
) -> Vec<u8> {
    let topology = ShardTopology {
        index,
        count,
        fleet_phones,
        start: ids.start,
        end: ids.end,
    };
    let phones: Vec<PhoneDataset> = ids
        .clone()
        .map(|id| PhoneDataset::new(id, Vec::new(), Vec::new()))
        .collect();
    let mut merger = StreamMerger::new_at(registry, config, ids.start);
    merger.push_shard(fold_run(registry, config, ids.start, &phones));
    merger.snapshot(fingerprint, "default", topology)
}

/// `expect_err` needs `Debug` on the success arm, which
/// [`StreamMerger`] deliberately does not implement.
fn must_fail(result: Result<StreamMerger<'_>, MergeError>, what: &str) -> MergeError {
    match result {
        Err(e) => e,
        Ok(_) => panic!("{what}: merge unexpectedly succeeded"),
    }
}

#[test]
fn merge_refuses_gaps_duplicates_and_foreign_inputs() {
    let registry = PassRegistry::all();
    let config = AnalysisConfig::default();
    let fingerprint = campaign(SEED, CorruptionProfile::None).fingerprint();
    let shards: Vec<Vec<u8>> = (0..4)
        .map(|i| shard_ckpt(SEED, CorruptionProfile::None, i, 4))
        .collect();

    let err = must_fail(
        merge_shard_checkpoints(&registry, config, fingerprint, "default", &[]),
        "empty input list must be refused",
    );
    assert_eq!(err, MergeError::NoInputs);

    // Shard 2 missing: the gap reported is exactly its interval.
    let missing = [shards[0].clone(), shards[1].clone(), shards[3].clone()];
    let err = must_fail(
        merge_shard_checkpoints(&registry, config, fingerprint, "default", &missing),
        "coverage gap must be refused",
    );
    let (hole_from, hole_to) = ShardTopology::uniform(2, 4, PHONES).interval();
    assert_eq!(
        err,
        MergeError::CoverageGap {
            from: hole_from,
            to: hole_to
        }
    );

    // The same file supplied twice is a duplicate, not an overlap.
    let doubled = [
        shards[0].clone(),
        shards[1].clone(),
        shards[1].clone(),
        shards[2].clone(),
        shards[3].clone(),
    ];
    let err = must_fail(
        merge_shard_checkpoints(&registry, config, fingerprint, "default", &doubled),
        "duplicated shard file must be refused",
    );
    assert_eq!(err, MergeError::DuplicateShard { index: 1 });

    // A shard of a different campaign (different seed) names the
    // offending input position.
    let mut foreign = shards.clone();
    foreign[2] = shard_ckpt(SEED + 1, CorruptionProfile::None, 2, 4);
    let err = must_fail(
        merge_shard_checkpoints(&registry, config, fingerprint, "default", &foreign),
        "foreign campaign must be refused",
    );
    assert!(
        matches!(
            err,
            MergeError::Input {
                input: 2,
                error: CheckpointError::CampaignMismatch { .. }
            }
        ),
        "wrong error: {err}"
    );

    // Skewed analysis config and a narrower pass registry are both
    // per-input checkpoint failures.
    let skewed = AnalysisConfig {
        coalescence_window: config.coalescence_window + SimDuration::from_secs(1),
        ..config
    };
    let err = must_fail(
        merge_shard_checkpoints(&registry, skewed, fingerprint, "default", &shards),
        "config mismatch must be refused",
    );
    assert!(
        matches!(
            err,
            MergeError::Input {
                input: 0,
                error: CheckpointError::ConfigMismatch
            }
        ),
        "wrong error: {err}"
    );
    // A shard written under a different fleet composition is refused
    // with the offending input position — even though the bytes are
    // otherwise a perfectly valid checkpoint.
    let err = must_fail(
        merge_shard_checkpoints(&registry, config, fingerprint, "communicator:1", &shards),
        "composition mismatch must be refused",
    );
    assert_eq!(
        err,
        MergeError::Input {
            input: 0,
            error: CheckpointError::CompositionMismatch {
                found: "default".to_string(),
                expected: "communicator:1".to_string(),
            }
        }
    );

    let subset = PassRegistry::select("mtbf,panics").unwrap();
    let err = must_fail(
        merge_shard_checkpoints(&subset, config, fingerprint, "default", &shards),
        "registry mismatch must be refused",
    );
    assert!(
        matches!(
            err,
            MergeError::Input {
                input: 0,
                error: CheckpointError::RegistryMismatch { .. }
            }
        ),
        "wrong error: {err}"
    );

    // Overlapping intervals (only constructible by hand: the driver's
    // formula partition is always disjoint).
    let fp = 0xFEED_F00D;
    let overlapping = [
        hand_ckpt(&registry, config, fp, 0..3, 0, 2, 6),
        hand_ckpt(&registry, config, fp, 2..6, 1, 2, 6),
    ];
    let err = must_fail(
        merge_shard_checkpoints(&registry, config, fp, "default", &overlapping),
        "overlapping intervals must be refused",
    );
    assert_eq!(
        err,
        MergeError::Overlap {
            a: (0, 3),
            b: (2, 6)
        }
    );

    // Inputs from different split shapes cannot be one campaign split.
    let mixed = [
        hand_ckpt(&registry, config, fp, 0..3, 0, 2, 6),
        hand_ckpt(&registry, config, fp, 3..6, 1, 3, 6),
    ];
    let err = must_fail(
        merge_shard_checkpoints(&registry, config, fp, "default", &mixed),
        "mixed topologies must be refused",
    );
    assert_eq!(
        err,
        MergeError::TopologyMismatch {
            found: (3, 6),
            expected: (2, 6)
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// ANY contiguous partition of the phone-id space into k shard
    /// checkpoints — uneven cuts, supplied in any order — merges to
    /// the reference driver's bytes. This is the file-level twin of
    /// the in-memory tree-merge partition property, run through the
    /// full snapshot → validate → merge pipeline.
    #[test]
    fn any_partition_of_checkpoints_merges_to_the_unsharded_report(
        specs in prop::collection::vec(
            prop::collection::vec((0u64..300_000, 0usize..5, 0usize..4, 10u8..100), 0..10),
            1..9,
        ),
        raw_cuts in prop::collection::vec(1usize..9, 0..6),
        order_sel in 0u8..3,
    ) {
        let apps = ["Messages", "Camera", "Clock", "Browser", "Log"];
        let acts = [ActivityKind::VoiceCall, ActivityKind::Message, ActivityKind::DataSession];
        let phones: Vec<PhoneDataset> = specs
            .iter()
            .enumerate()
            .map(|(id, recs)| {
                let records: Vec<LogRecord> = recs
                    .iter()
                    .map(|&(t, app_ix, act_ix, battery)| LogRecord::Panic(PanicRecord {
                        at: SimTime::from_secs(t),
                        panic: Panic::new(codes::KERN_EXEC_3, apps[(app_ix + id) % apps.len()], "r"),
                        running_apps: (0..app_ix)
                            .map(|k| apps[(k + id) % apps.len()].to_string())
                            .collect(),
                        activity: acts.get(act_ix).copied(),
                        battery,
                    }))
                    .collect();
                PhoneDataset::new(id as u32, records, Vec::new())
            })
            .collect();
        let config = AnalysisConfig::default();
        let registry = PassRegistry::all();
        let fingerprint = 0xD5A5_2007u64;

        let unsharded = reference(config, &phones);

        // Arbitrary contiguous partition: dedup the cut set, keep the
        // in-range cuts, bracket with 0 and phones.len().
        let mut cuts: Vec<usize> = raw_cuts.into_iter().filter(|&c| c < phones.len()).collect();
        cuts.push(0);
        cuts.push(phones.len());
        cuts.sort_unstable();
        cuts.dedup();
        let count = (cuts.len() - 1) as u32;
        let mut ckpts: Vec<Vec<u8>> = cuts
            .windows(2)
            .enumerate()
            .map(|(index, w)| {
                let mut merger = StreamMerger::new_at(&registry, config, w[0] as u32);
                merger.push_shard(fold_run(&registry, config, w[0] as u32, &phones[w[0]..w[1]]));
                merger.snapshot(fingerprint, "default", ShardTopology {
                    index: index as u32,
                    count,
                    fleet_phones: phones.len() as u32,
                    start: w[0] as u32,
                    end: w[1] as u32,
                })
            })
            .collect();
        match order_sel {
            1 => ckpts.reverse(),
            2 => ckpts.sort_by_key(|b| b.len()),
            _ => {}
        }
        let merger = merge_shard_checkpoints(&registry, config, fingerprint, "default", &ckpts)
            .expect("a full disjoint cover must merge");
        prop_assert_eq!(
            unsharded,
            render(&merger.finish()),
            "partition {:?} changed the study", cuts
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// For ANY per-phone cost vector — including zeros, negatives,
    /// NaNs and infinities — the planner's cuts partition `[0, P)`
    /// exactly, and checkpoints cut at those points merge to the
    /// reference driver's bytes. The cost model only moves the cuts;
    /// it must never be able to change the study.
    #[test]
    fn planner_cuts_partition_exactly_and_merge_byte_identical(
        raw_costs in prop::collection::vec((0u8..5, 0.0f64..100.0), 1..40),
        count in 1u32..9,
    ) {
        let costs: Vec<f64> = raw_costs
            .iter()
            .map(|&(sel, v)| match sel {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -v,
                3 => 0.0,
                _ => v,
            })
            .collect();
        let plan = ShardPlan::from_costs(&costs, count);
        let phones_total = costs.len() as u32;

        // Exact partition: intervals chain from 0 to P with no gap or
        // overlap, and each matches the recorded topology.
        prop_assert_eq!(plan.count(), count);
        prop_assert_eq!(plan.fleet_phones(), phones_total);
        let mut cursor = 0u32;
        for i in 0..count {
            let (lo, hi) = plan.interval(i);
            prop_assert_eq!(lo, cursor, "shard {} must start where {} ended", i, i.wrapping_sub(1));
            prop_assert!(hi >= lo);
            let topo = plan.topology(i);
            prop_assert_eq!((topo.start, topo.end), (lo, hi));
            cursor = hi;
        }
        prop_assert_eq!(cursor, phones_total, "cuts must cover the fleet");

        // Byte-identity: fold empty phone datasets along the cuts.
        let phones: Vec<PhoneDataset> = (0..phones_total)
            .map(|id| PhoneDataset::new(id, Vec::new(), Vec::new()))
            .collect();
        let config = AnalysisConfig::default();
        let registry = PassRegistry::all();
        let fingerprint = 0xC057_BA1A_u64;
        let unsharded = reference(config, &phones);
        let ckpts: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                let (lo, hi) = plan.interval(i);
                let mut merger = StreamMerger::new_at(&registry, config, lo);
                merger.push_shard(fold_run(&registry, config, lo, &phones[lo as usize..hi as usize]));
                merger.snapshot(fingerprint, "default", plan.topology(i))
            })
            .collect();
        let merger = merge_shard_checkpoints(&registry, config, fingerprint, "default", &ckpts)
            .expect("planner cuts must form a full disjoint cover");
        prop_assert_eq!(
            unsharded,
            render(&merger.finish()),
            "planner cuts changed the study for costs {:?}", costs
        );
    }
}
