//! Property tests for fault-signature extraction: the signature of a
//! panic is a statement about the *resolved* failure — never about
//! interner numbering, app-vocabulary order, or which side of a shard
//! merge the panic was folded on.

mod oracle;

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;

use symfail::core::analysis::checkpoint::ShardTopology;
use symfail::core::analysis::dataset::{HlKind, PanicEvent, ParseScratch, PhoneDataset};
use symfail::core::analysis::passes::{
    checkpoint_coalesced, DeviceLabels, FoldShard, PassRegistry, PhoneLens, StreamMerger,
};
use symfail::core::analysis::report::AnalysisConfig;
use symfail::core::analysis::signature::{distinct_signatures, FailureSignature, MatchMode};
use symfail::core::flashfs::FlashFs;
use symfail::core::intern::NameId;
use symfail::core::logger::files;
use symfail::core::records::{encode_panic_into, line_checksum, LogRecord, PanicRecord};
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::composition::{DeviceClass, DeviceProfile, FleetComposition};
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::firmware::SymbianVersion;
use symfail::phone::fleet::FleetCampaign;
use symfail::phone::repro::{FaultChannel, ReproCampaign};
use symfail::sim::SimTime;
use symfail::symbian::panic::{codes, Panic};
use symfail::symbian::servers::logdb::ActivityKind;
use symfail::symbian::PanicCode;

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

/// Builds the rows into a phone's log records, rotating each record's
/// running-app list by `rot`. The rotation changes first-appearance
/// order and therefore every interner id, without changing the set of
/// facts the log states.
fn records(rows: &[Row], rot: usize) -> Vec<LogRecord> {
    let mut at = 0u64;
    rows.iter()
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
        .collect()
}

/// The phone [`records`] describes, as its dataset.
fn dataset(phone_id: u32, rows: &[Row], rot: usize) -> PhoneDataset {
    PhoneDataset::new(phone_id, records(rows, rot), Vec::new())
}

/// The phone [`records`] describes, as its consolidated log's bytes.
fn log(rows: &[Row], rot: usize) -> Vec<u8> {
    records(rows, rot).iter().fold(Vec::new(), |mut log, rec| {
        oracle::encode_into(rec, &mut log);
        log.push(b'\n');
        log
    })
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
            prop_assert!(sa.matches_log(&log(&rows, rot), &config, LABELS, MatchMode::Strict));
            prop_assert!(sb.matches_log(&log(&rows, 0), &config, LABELS, MatchMode::Strict));
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

// ---------------------------------------------------------------
// The log-only parse and the log scan. A signature is a function of
// the consolidated log alone, so `PhoneDataset::from_log` must yield
// everything a signature reads exactly as the full parse does — on
// fleet phones and repro phones, clean or damaged — and `matches_log`
// must give the verdict of the matcher it replaced, `phone_matches`
// below, over `from_log` of the same bytes, which in turn gives the
// verdict of building every signature the phone's coalescence fold
// yields and matching each one.
// ---------------------------------------------------------------

const PROFILES: [CorruptionProfile; 4] = [
    CorruptionProfile::None,
    CorruptionProfile::Light,
    CorruptionProfile::Moderate,
    CorruptionProfile::Worst,
];

/// The matcher `matches_log` replaced, over a parsed phone, kept as
/// its oracle: `Core` compares each panic's code, raiser id and
/// activity; `Strict` also runs the coalescence fold (through
/// `from_phone`) and compares full signatures.
fn phone_matches(
    sig: &FailureSignature,
    phone: &PhoneDataset,
    config: &AnalysisConfig,
    device: DeviceLabels,
    mode: MatchMode,
) -> bool {
    if sig.device_class != device.device_class || sig.firmware != device.firmware {
        return false;
    }
    let Some(code) = sig.panic_code().filter(|c| c.to_string() == sig.code) else {
        return false;
    };
    let Some(raised_by) = phone.names().iter().position(|n| n == sig.raised_by) else {
        return false;
    };
    let raised_by = NameId(raised_by as u16);
    let core = |p: &PanicEvent| {
        p.code == code
            && p.raised_by == raised_by
            && p.activity.map(|a| a.as_str()) == sig.activity.as_deref()
    };
    match mode {
        MatchMode::Core => phone.panics().iter().any(core),
        MatchMode::Strict => {
            phone.panics().iter().any(core)
                && FailureSignature::from_phone(phone, config, device)
                    .iter()
                    .any(|s| sig.matches(s, mode))
        }
    }
}

/// The verdict `phone_matches` replaced, kept as its oracle.
fn lens_matches(
    sig: &FailureSignature,
    phone: &PhoneDataset,
    config: &AnalysisConfig,
    device: DeviceLabels,
    mode: MatchMode,
) -> bool {
    sig.device_class == device.device_class
        && sig.firmware == device.firmware
        && FailureSignature::from_phone(phone, config, device)
            .iter()
            .any(|s| sig.matches(s, mode))
}

/// `sig` and copies of it with one field changed: each core field to
/// another value (the code also to a spelling no panic renders as, the
/// raiser also to a name no phone logs), and the strict-only fields.
fn with_one_field_changed(sig: &FailureSignature) -> Vec<FailureSignature> {
    let mut out = vec![sig.clone()];
    let mut push = |edit: &dyn Fn(&mut FailureSignature)| {
        let mut s = sig.clone();
        edit(&mut s);
        out.push(s);
    };
    push(&|s| {
        s.code = codes::ALL[(codes::ALL
            .iter()
            .position(|c| c.0.to_string() == s.code)
            .unwrap_or(0)
            + 1)
            % codes::ALL.len()]
        .0
        .to_string()
    });
    push(&|s| s.code = s.code.replace(' ', " 0"));
    push(&|s| {
        s.raised_by = if s.raised_by == "Telephone" {
            "Camera"
        } else {
            "Telephone"
        }
        .to_string()
    });
    push(&|s| s.raised_by = "NoSuchComponent".to_string());
    push(&|s| s.raised_by = format!("{}|-", s.raised_by));
    push(&|s| {
        s.activity = match s.activity.as_deref() {
            None => Some(ActivityKind::VoiceCall.as_str().to_string()),
            Some(_) => None,
        }
    });
    push(&|s| {
        s.activity = Some(
            match s.activity.as_deref() {
                Some(a) if a == ActivityKind::Message.as_str() => ActivityKind::DataSession,
                _ => ActivityKind::Message,
            }
            .as_str()
            .to_string(),
        )
    });
    push(&|s| {
        if s.apps.pop().is_none() {
            s.apps.push("Camera".to_string());
        }
    });
    push(&|s| {
        s.related = match s.related {
            None => Some(HlKind::Freeze.as_str().to_string()),
            Some(_) => None,
        }
    });
    push(&|s| s.device_class = "communicator".to_string());
    push(&|s| s.firmware = "Symbian 6.1".to_string());
    out
}

/// Checks the log-only parse of `fs` against the full parse, and the
/// log scan against its oracles for every signature the phone yields
/// and every one-field variant of them (plus `extra` signatures from
/// other phones).
fn check_log_only(
    what: &str,
    fs: &FlashFs,
    device: DeviceLabels,
    extra: &[FailureSignature],
) -> Vec<FailureSignature> {
    let config = CalibrationParams::default().analysis_config();
    let full = PhoneDataset::from_flashfs_with(3, fs, &mut ParseScratch::default());
    let bytes = fs.read_bytes(files::LOG).unwrap_or_default();
    let log = PhoneDataset::from_log(3, bytes);
    assert_eq!(log.panics(), full.panics(), "{what}: panics");
    assert_eq!(log.boots(), full.boots(), "{what}: boots");
    assert_eq!(log.names(), full.names(), "{what}: names");
    assert_eq!(
        log.shutdown_events(),
        full.shutdown_events(),
        "{what}: shutdowns"
    );
    assert_eq!(log.freezes(), full.freezes(), "{what}: freezes");
    assert!(log.beats().next().is_none(), "{what}: beats are not read");
    let sigs = FailureSignature::from_phone(&full, &config, device);
    assert_eq!(
        FailureSignature::from_phone(&log, &config, device),
        sigs,
        "{what}: signatures"
    );
    for sig in sigs.iter().chain(extra) {
        for probe in with_one_field_changed(sig) {
            for mode in [MatchMode::Core, MatchMode::Strict] {
                let want = lens_matches(&probe, &full, &config, device, mode);
                assert_eq!(
                    phone_matches(&probe, &log, &config, device, mode),
                    want,
                    "{what}: {} under {}: the oracle on the log-only parse",
                    probe.key(),
                    mode.as_str()
                );
                assert_eq!(
                    probe.matches_log(bytes, &config, device, mode),
                    want,
                    "{what}: {} under {}: the log scan",
                    probe.key(),
                    mode.as_str()
                );
            }
        }
    }
    sigs
}

#[test]
fn log_only_parse_and_matcher_agree_on_fleet_phones() {
    let params = CalibrationParams {
        phones: 8,
        campaign_days: 90,
        enrollment_spread_days: 10,
        attrition_spread_days: 10,
        ..CalibrationParams::default()
    };
    for profile in PROFILES {
        let campaign = FleetCampaign::new(2005, params)
            .with_fleet(FleetComposition::mixed())
            .with_corruption(profile);
        let mut seen: Vec<FailureSignature> = Vec::new();
        for id in 0..params.phones {
            let harvest = campaign.run_single(id);
            let what = format!("fleet phone {id}, corruption {}", profile.as_str());
            let labels = campaign.device_labels(id);
            let sigs = check_log_only(&what, &harvest.flashfs, labels, &seen);
            seen.extend(sigs.into_iter().take(3));
        }
        assert!(!seen.is_empty(), "the fleet panics somewhere");
    }
}

#[test]
fn log_only_parse_and_matcher_agree_on_repro_phones() {
    let devices = [
        (DeviceClass::Smartphone, SymbianVersion::V8_0),
        (DeviceClass::Communicator, SymbianVersion::V7_0),
        (DeviceClass::EntryLevel, SymbianVersion::V6_1),
    ];
    for profile in PROFILES {
        let mut seen: Vec<FailureSignature> = Vec::new();
        for (seed, (class, firmware)) in (40..46).zip(devices.iter().cycle()) {
            let campaign = ReproCampaign {
                seed,
                days: 6,
                channels: FaultChannel::ALL.to_vec(),
                corruption: profile,
                device: DeviceProfile {
                    class: *class,
                    firmware: *firmware,
                },
            };
            let mut fs = campaign.harvest().flash().clone();
            campaign.corrupt(&mut fs);
            let what = format!("repro seed {seed}, corruption {}", profile.as_str());
            let sigs = check_log_only(&what, &fs, campaign.labels(), &seen);
            seen.extend(sigs.into_iter().take(3));
        }
        assert!(!seen.is_empty(), "boosted repro phones panic");
    }
}

/// `matches_log` over hand-made logs that a harvest rarely or never
/// holds: CRLF line ends, invalid UTF-8, a matching line whose checksum
/// fails, raisers that occur in a line only as an app or reason name,
/// and a raiser containing the field separator (here spanning the code
/// and raiser fields of a line). Each case states the verdict it
/// expects, and the oracle must give it too.
#[test]
fn log_scan_reads_the_log_as_the_parse_does() {
    let config = AnalysisConfig::default();
    let (kern3, user11) = (codes::KERN_EXEC_3, codes::USER_11);
    let voice = Some(ActivityKind::VoiceCall);
    // One panic line with one running app.
    let line = |at: u64, code: PanicCode, raiser: &str, app: &str, reason: &str| {
        let (at, panic) = (SimTime::from_secs(at), Panic::new(code, raiser, reason));
        let mut out = Vec::new();
        encode_panic_into(&mut out, at, &panic, &[app], voice, 70);
        out.push(b'\n');
        out
    };
    // `line` with the first byte of `text`'s first occurrence set to `to`.
    let edit = |mut line: Vec<u8>, text: &str, to: u8| {
        let at = line.windows(text.len()).position(|w| w == text.as_bytes());
        line[at.unwrap()] = to;
        line
    };
    let messages = line(10, user11, "Messages", "Messages", "overflow");
    let camera = line(30, kern3, "Camera", "Camera", "null");
    // `Telephone` runs only as an app here, and `Clock` is only a reason.
    let log_line = line(20, user11, "Log", "Telephone", "Clock");
    let clean = [messages.clone(), log_line, camera.clone()].concat();
    let crlf: Vec<u8> = clean
        .split_inclusive(|&b| b == b'\n')
        .flat_map(|l| [&l[..l.len() - 1], b"\r\n"].concat())
        .collect();
    // An invalid line of its own, and an invalid byte in the reason of
    // the `Messages` panic, whose checksum then fails on the lossy text.
    let garbled = [
        b"\xff\xfe\n".to_vec(),
        edit(messages.clone(), "overflow", 0xff),
        camera.clone(),
    ]
    .concat();
    // A raiser spelled with an invalid byte: the lossy text reads
    // U+FFFD there, and the line's checksum was taken over that text.
    let lossy = line(40, kern3, "Cam\u{fffd}ra", "Cam\u{fffd}ra", "null");
    let lossy = String::from_utf8(lossy).unwrap();
    let lossy = lossy
        .split('\u{fffd}')
        .map(str::as_bytes)
        .collect::<Vec<_>>()
        .join(&0xff);
    // The `Camera` panic with one reason byte changed: every field
    // still parses, but the checksum does not match; then the same line
    // with its checksum retaken, which matches again.
    let bad_checksum = [messages, edit(camera, "null", b'N')].concat();
    let retaken = {
        let text = String::from_utf8(bad_checksum.clone()).unwrap();
        let body = text.lines().nth(1).unwrap();
        let payload = &body[..body.rfind('|').unwrap()];
        format!("{payload}|c{:04x}\n", line_checksum(payload)).into_bytes()
    };
    let cases: [(&str, &[u8], PanicCode, &str, bool); 14] = [
        ("lf", &clean, kern3, "Camera", true),
        ("lf, other code", &clean, user11, "Camera", false),
        ("crlf, first line", &crlf, user11, "Messages", true),
        ("crlf, last line", &crlf, kern3, "Camera", true),
        ("garbled, intact", &garbled, kern3, "Camera", true),
        ("garbled reason", &garbled, user11, "Messages", false),
        ("lossy raiser", &lossy, kern3, "Cam\u{fffd}ra", true),
        ("lossy as bytes", &lossy, kern3, "Camera", false),
        ("bad checksum", &bad_checksum, kern3, "Camera", false),
        ("retaken", &retaken, kern3, "Camera", true),
        ("only an app", &clean, user11, "Telephone", false),
        ("only a reason", &clean, user11, "Clock", false),
        ("another code", &clean, kern3, "Messages", false),
        ("separator", &clean, user11, "USER~11|Log", false),
    ];
    for (what, log, code, raiser, want) in cases {
        let sig = FailureSignature {
            code: code.to_string(),
            raised_by: raiser.to_string(),
            apps: vec![raiser.to_string()],
            activity: voice.map(|a| a.as_str().to_string()),
            related: None,
            device_class: LABELS.device_class.to_string(),
            firmware: LABELS.firmware.to_string(),
        };
        let phone = PhoneDataset::from_log(0, log);
        // The panics lie minutes apart with no freeze or shutdown near,
        // so none is related and `Strict` agrees with `Core`.
        for mode in [MatchMode::Core, MatchMode::Strict] {
            let on = mode.as_str();
            let oracle = phone_matches(&sig, &phone, &config, LABELS, mode);
            assert_eq!(oracle, want, "{what}: the oracle under {on}");
            let scan = sig.matches_log(log, &config, LABELS, mode);
            assert_eq!(scan, want, "{what}: the log scan under {on}");
        }
    }
}
