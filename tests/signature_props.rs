//! Property tests for fault-signature extraction: the signature of a
//! panic is a statement about the *resolved* failure — never about
//! interner numbering, app-vocabulary order, or which side of a shard
//! merge the panic was folded on.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;

use symfail::core::analysis::checkpoint::ShardTopology;
use symfail::core::analysis::dataset::PhoneDataset;
use symfail::core::analysis::passes::{
    checkpoint_coalesced, DeviceLabels, FoldShard, PassRegistry, PhoneLens, StreamMerger,
};
use symfail::core::analysis::report::AnalysisConfig;
use symfail::core::analysis::signature::{distinct_signatures, FailureSignature, MatchMode};
use symfail::core::records::{LogRecord, PanicRecord};
use symfail::sim::SimTime;
use symfail::symbian::panic::{codes, Panic};
use symfail::symbian::servers::logdb::ActivityKind;

const VOCAB: [&str; 5] = ["Alpha", "Bravo", "Charlie", "Delta", "Echo"];
const LABELS: DeviceLabels = DeviceLabels {
    device_class: "smartphone",
    firmware: "Symbian 8.0",
};

/// One synthetic panic: inter-arrival gap, panic-code index, raising
/// app, running-app set (vocabulary indices) and concurrent activity.
#[derive(Debug, Clone)]
struct Row {
    gap_secs: u64,
    code: usize,
    raised_by: usize,
    apps: Vec<usize>,
    activity: usize,
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            600u64..10_000,
            0usize..codes::ALL.len(),
            0usize..VOCAB.len(),
            prop::collection::vec(0usize..VOCAB.len(), 0..4),
            0usize..4,
        )
            .prop_map(|(gap_secs, code, raised_by, apps, activity)| Row {
                gap_secs,
                code,
                raised_by,
                apps,
                activity,
            }),
        1..8,
    )
}

/// Builds the rows into a phone's log, rotating each record's
/// running-app list by `rot`. The rotation changes first-appearance
/// order and therefore every interner id, without changing the set of
/// facts the log states.
fn dataset(phone_id: u32, rows: &[Row], rot: usize) -> PhoneDataset {
    let mut at = 0u64;
    let records = rows
        .iter()
        .map(|row| {
            at += row.gap_secs * 1000;
            let mut apps: Vec<String> = row.apps.iter().map(|&i| VOCAB[i].to_string()).collect();
            if !apps.is_empty() {
                let by = rot % apps.len();
                apps.rotate_left(by);
            }
            LogRecord::Panic(PanicRecord {
                at: SimTime::from_millis(at),
                panic: Panic::new(codes::ALL[row.code].0, VOCAB[row.raised_by], "prop"),
                running_apps: apps,
                activity: [
                    None,
                    Some(ActivityKind::VoiceCall),
                    Some(ActivityKind::Message),
                    Some(ActivityKind::DataSession),
                ][row.activity],
                battery: 80,
            })
        })
        .collect();
    PhoneDataset::new(phone_id, records, Vec::new())
}

/// The distinct-signature histogram of one phone, keyed for
/// order-independent comparison.
fn catalog(phone: &PhoneDataset, config: &AnalysisConfig) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for sig in FailureSignature::from_phone(phone, config, LABELS) {
        *out.entry(sig.key()).or_insert(0) += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rotating every running-app list permutes the app vocabulary's
    /// interner numbering; the signature catalog must not move, and
    /// cross-matching the two extractions must succeed in both modes.
    #[test]
    fn signatures_invariant_under_app_vocabulary_permutation(
        rows in arb_rows(),
        rot in 1usize..4,
    ) {
        let config = AnalysisConfig::default();
        let a = dataset(0, &rows, 0);
        let b = dataset(0, &rows, rot);
        prop_assert_eq!(catalog(&a, &config), catalog(&b, &config));
        let sigs_a = FailureSignature::from_phone(&a, &config, LABELS);
        let sigs_b = FailureSignature::from_phone(&b, &config, LABELS);
        prop_assert_eq!(sigs_a.len(), sigs_b.len());
        for (sa, sb) in sigs_a.iter().zip(&sigs_b) {
            prop_assert!(sa.matches(sb, MatchMode::Strict), "strict: {} vs {}", sa.key(), sb.key());
            prop_assert!(sa.matches(sb, MatchMode::Core));
            prop_assert!(sa.matches_phone(&b, &config, LABELS, MatchMode::Strict));
            prop_assert!(sb.matches_phone(&a, &config, LABELS, MatchMode::Strict));
        }
    }

    /// Pre-merge == post-merge: fold two phones with clashing interner
    /// numberings as one-phone shards through the real [`StreamMerger`]
    /// (whose merge remap renumbers phone 1's names into phone 0's
    /// table), snapshot, and re-extract from the checkpoint. The merged catalog must be
    /// exactly the sum of the per-phone pre-merge catalogs.
    #[test]
    fn signature_catalog_invariant_under_merge_remap(
        rows0 in arb_rows(),
        rows1 in arb_rows(),
        rot in 1usize..4,
    ) {
        let config = AnalysisConfig::default();
        let registry = PassRegistry::all();
        let phones = [dataset(0, &rows0, 0), dataset(1, &rows1, rot)];

        let mut pre: BTreeMap<String, u64> = BTreeMap::new();
        for phone in &phones {
            for (key, n) in catalog(phone, &config) {
                *pre.entry(key).or_insert(0) += n;
            }
        }

        let mut merger = StreamMerger::new_at(&registry, config, 0);
        for phone in &phones {
            let lens = PhoneLens::new(phone, config, registry.needs_coalesce());
            let mut shard = FoldShard::new(&registry, phone.phone_id());
            shard.absorb_phone(&registry, &lens);
            merger.push_shard(shard);
        }
        let fingerprint = 0x5160;
        let bytes = merger.snapshot(fingerprint, "default", ShardTopology::solo(2));
        let (names, panics) =
            checkpoint_coalesced(&registry, config, fingerprint, "default", &bytes)
                .expect("extraction from a hand-built checkpoint");
        let post: BTreeMap<String, u64> = distinct_signatures(&panics, &names, |_| LABELS)
            .into_iter()
            .map(|(sig, n)| (sig.key(), n))
            .collect();
        prop_assert_eq!(pre, post);
    }
}
