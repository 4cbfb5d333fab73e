//! Property-based tests over the core invariants of the suite.

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;

use symfail::core::analysis::coalesce::CoalescenceAnalysis;
use symfail::core::analysis::dataset::{FleetDataset, HlEvent, HlKind, PhoneDataset};
use symfail::core::analysis::defects::PhoneDefects;
use symfail::core::flashfs::FlashFs;
use symfail::core::records::{
    decode_beat, encode_beat, push_u64, BootRecord, HeartbeatEvent, LogRecord, PanicRecord,
    ParseDefect, RecordRef,
};
use symfail::sim::{SimDuration, SimRng, SimTime};
use symfail::stats::{CategoricalDist, Histogram, OnlineSummary};
use symfail::symbian::cleanup::CleanupStack;
use symfail::symbian::descriptor::TBuf;
use symfail::symbian::heap::Heap;
use symfail::symbian::leave::LeaveCode;
use symfail::symbian::panic::{codes, Panic, PanicCode};
use symfail::symbian::servers::logdb::ActivityKind;

/// Folds one hand-built phone into a one-phone shard — the merger's
/// unit of handoff.
fn one_phone_shard(
    registry: &symfail::core::analysis::passes::PassRegistry,
    config: symfail::core::analysis::report::AnalysisConfig,
    phone: &PhoneDataset,
) -> symfail::core::analysis::passes::FoldShard {
    use symfail::core::analysis::passes::{FoldShard, PhoneLens};
    let mut shard = FoldShard::new(registry, phone.phone_id());
    shard.absorb_phone(
        registry,
        &PhoneLens::new(phone, config, registry.needs_coalesce()),
    );
    shard
}

// ---------------------------------------------------------------
// Descriptors: the USER 10/11 bounds model never corrupts state.
// ---------------------------------------------------------------

/// A descriptor operation for the state-machine property test.
#[derive(Debug, Clone)]
enum DescOp {
    Copy(String),
    Append(String),
    Insert(usize, String),
    Delete(usize, usize),
    Replace(usize, usize, String),
    Fill(char, usize),
    SetLength(usize),
}

fn desc_op() -> impl Strategy<Value = DescOp> {
    prop_oneof![
        "[a-z]{0,12}".prop_map(DescOp::Copy),
        "[a-z]{0,12}".prop_map(DescOp::Append),
        (0usize..16, "[a-z]{0,6}").prop_map(|(p, s)| DescOp::Insert(p, s)),
        (0usize..16, 0usize..16).prop_map(|(p, l)| DescOp::Delete(p, l)),
        (0usize..16, 0usize..16, "[a-z]{0,6}").prop_map(|(p, l, s)| DescOp::Replace(p, l, s)),
        (proptest::char::range('a', 'z'), 0usize..16).prop_map(|(c, l)| DescOp::Fill(c, l)),
        (0usize..16).prop_map(DescOp::SetLength),
    ]
}

proptest! {
    /// Whatever the operation sequence, a descriptor never exceeds its
    /// maximum length, failed operations leave the content unchanged,
    /// and the panics raised are exactly USER 10/11.
    #[test]
    fn descriptor_invariants(max_len in 0usize..12, ops in prop::collection::vec(desc_op(), 0..40)) {
        let mut buf = TBuf::with_max_length(max_len);
        for op in ops {
            let before = buf.as_str();
            let result = match op {
                DescOp::Copy(s) => buf.copy(&s),
                DescOp::Append(s) => buf.append(&s),
                DescOp::Insert(p, s) => buf.insert(p, &s),
                DescOp::Delete(p, l) => buf.delete(p, l),
                DescOp::Replace(p, l, s) => buf.replace(p, l, &s),
                DescOp::Fill(c, l) => buf.fill(c, l),
                DescOp::SetLength(l) => buf.set_length(l),
            };
            prop_assert!(buf.length() <= buf.max_length());
            match result {
                Ok(()) => {}
                Err(p) => {
                    prop_assert!(p.code == codes::USER_10 || p.code == codes::USER_11);
                    prop_assert_eq!(buf.as_str(), before, "failed op mutated the descriptor");
                }
            }
        }
    }

    /// Reading operations (left/right/mid) never report more data than
    /// the descriptor holds.
    #[test]
    fn descriptor_reads_bounded(s in "[a-z]{0,10}", n in 0usize..16, p in 0usize..16) {
        let buf = TBuf::from_str(&s, 10).unwrap();
        if let Ok(left) = buf.left(n) {
            prop_assert!(left.chars().count() == n && n <= buf.length());
        }
        if let Ok(mid) = buf.mid(p, n) {
            prop_assert_eq!(mid.chars().count(), n);
        }
    }
}

// ---------------------------------------------------------------
// Heap + cleanup stack: allocation is conserved, unwinding frees
// exactly the block's cells.
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn heap_conservation(sizes in prop::collection::vec(1u64..64, 1..40)) {
        let mut heap = Heap::with_capacity(4096);
        let mut live = Vec::new();
        let mut expected_used = 0;
        for (i, &size) in sizes.iter().enumerate() {
            match heap.alloc("app", size) {
                Ok(cell) => {
                    live.push((cell, size));
                    expected_used += size;
                }
                Err(code) => prop_assert_eq!(code, LeaveCode::NoMemory),
            }
            prop_assert_eq!(heap.used(), expected_used);
            // Free every other allocation as we go.
            if i % 2 == 0 {
                if let Some((cell, size)) = live.pop() {
                    heap.free(cell).unwrap();
                    expected_used -= size;
                }
            }
        }
        for (cell, size) in live {
            heap.free(cell).unwrap();
            expected_used -= size;
        }
        prop_assert_eq!(heap.used(), 0);
        prop_assert_eq!(expected_used, 0);
    }

    /// A trap that leaves frees exactly the cells pushed inside the
    /// trap block, regardless of the allocation pattern.
    #[test]
    fn trap_unwinds_exactly_block_cells(
        outer in prop::collection::vec(1u64..32, 0..8),
        inner in prop::collection::vec(1u64..32, 0..8),
    ) {
        let mut heap = Heap::with_capacity(100_000);
        let mut cs = CleanupStack::new();
        let mut outer_cells = Vec::new();
        for &s in &outer {
            let c = heap.alloc("app", s).unwrap();
            cs.push(c);
            outer_cells.push(c);
        }
        let used_before = heap.used();
        let r = cs.trap(&mut heap, |cs, heap| -> Result<(), LeaveCode> {
            for &s in &inner {
                let c = heap.alloc("app", s)?;
                cs.push(c);
            }
            Err(LeaveCode::General)
        }).unwrap();
        prop_assert_eq!(r, Err(LeaveCode::General));
        prop_assert_eq!(heap.used(), used_before, "inner cells all freed");
        for c in outer_cells {
            prop_assert!(heap.is_live(c), "outer cells untouched");
        }
    }
}

// ---------------------------------------------------------------
// Statistics: histogram conservation and summary merging.
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn histogram_conserves_observations(values in prop::collection::vec(-1e6f64..1e6, 0..300)) {
        let mut h = Histogram::with_bins(0.0, 1000.0, 17).unwrap();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        let binned: u64 = (0..h.len()).map(|i| h.count(i)).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), values.len() as u64);
    }

    #[test]
    fn summary_merge_associative(
        a in prop::collection::vec(-1e3f64..1e3, 1..50),
        b in prop::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let whole: OnlineSummary = a.iter().chain(b.iter()).copied().collect();
        let mut merged: OnlineSummary = a.iter().copied().collect();
        merged.merge(&b.iter().copied().collect());
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn categorical_total_variation_is_metric_like(
        xs in prop::collection::vec(0u64..20, 3),
        ys in prop::collection::vec(0u64..20, 3),
    ) {
        prop_assume!(xs.iter().sum::<u64>() > 0 && ys.iter().sum::<u64>() > 0);
        let mut a = CategoricalDist::new();
        let mut b = CategoricalDist::new();
        for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
            a.add_n(format!("l{i}"), x);
            b.add_n(format!("l{i}"), y);
        }
        let d_ab = a.total_variation(&b).unwrap();
        let d_ba = b.total_variation(&a).unwrap();
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&d_ab));
        prop_assert!(a.total_variation(&a).unwrap() < 1e-12);
    }
}

// ---------------------------------------------------------------
// Log record codec: round trip for arbitrary field content.
// ---------------------------------------------------------------

fn arb_panic_code() -> impl Strategy<Value = PanicCode> {
    (0usize..codes::ALL.len()).prop_map(|i| codes::ALL[i].0)
}

proptest! {
    #[test]
    fn panic_record_codec_round_trips(
        at in 0u64..10_000_000_000,
        code in arb_panic_code(),
        raised_by in "[A-Za-z_.]{1,16}",
        reason in "[a-zA-Z0-9 _:;.~-]{0,60}",
        apps in prop::collection::vec("[A-Za-z_]{1,10}", 0..5),
        battery in 0u8..=100,
        activity in prop_oneof![
            Just(None),
            Just(Some(ActivityKind::VoiceCall)),
            Just(Some(ActivityKind::Message)),
            Just(Some(ActivityKind::DataSession)),
        ],
    ) {
        let rec = LogRecord::Panic(PanicRecord {
            at: SimTime::from_millis(at),
            panic: Panic::new(code, raised_by, reason),
            running_apps: apps,
            activity,
            battery,
        });
        let decoded = LogRecord::decode(&rec.encode()).unwrap();
        prop_assert_eq!(decoded, rec);
    }

    #[test]
    fn beat_codec_round_trips(at in 0u64..10_000_000_000, which in 0usize..4) {
        let ev = [
            HeartbeatEvent::Alive,
            HeartbeatEvent::Reboot,
            HeartbeatEvent::ManualOff,
            HeartbeatEvent::LowBattery,
        ][which];
        let (t, e) = decode_beat(encode_beat(SimTime::from_millis(at), ev).as_bytes()).unwrap();
        prop_assert_eq!(t, SimTime::from_millis(at));
        prop_assert_eq!(e, ev);
    }

    /// The backward-scanning `last_line` is exactly the last of
    /// `read_lines` for any ASCII file: blank lines, bare and `\r\n`
    /// carriage returns, with or without a final newline, and for a
    /// file grown by appends.
    #[test]
    fn flash_last_line_matches_read_lines(
        lines in prop::collection::vec("[ -~\r]{0,12}", 0..8),
        trailing_newline in 0usize..2,
    ) {
        let mut fs = FlashFs::new();
        let mut raw = lines.join("\n");
        if trailing_newline == 1 {
            raw.push('\n');
        }
        fs.overwrite_raw("raw", raw.into_bytes());
        prop_assert_eq!(fs.last_line("raw"), fs.read_lines("raw").last());
        for line in &lines {
            fs.append_line("appended", line);
            prop_assert_eq!(fs.last_line("appended"), fs.read_lines("appended").last());
        }
        prop_assert_eq!(fs.last_line("missing"), None);
    }
}

// ---------------------------------------------------------------
// Zero-copy decode oracle: `RecordRef::decode` must agree with the
// owned-String `LogRecord::parse_owned` path on every line — accepted
// records value-identical, rejected lines carrying the same
// `ParseDefect` class — under arbitrary damage.
// ---------------------------------------------------------------

proptest! {
    /// For any encoded line (panic or boot, arbitrary field content)
    /// and any damage (none, a cut at an arbitrary byte, a garbled
    /// byte, or full replacement with garbage), the zero-copy decoder
    /// and the owned oracle agree: same accept/reject verdict,
    /// value-identical records on accept, same defect class on reject.
    #[test]
    fn zero_copy_decode_matches_owned_oracle(
        is_boot in 0usize..2,
        at in 0u64..10_000_000_000,
        code in arb_panic_code(),
        raised_by in "[A-Za-z_.]{1,16}",
        reason in "[a-zA-Z0-9 _:;.~-]{0,60}",
        apps in prop::collection::vec("[A-Za-z_]{1,10}", 0..5),
        battery in 0u8..=100,
        ev_which in 0usize..4,
        gap in 0u64..10_000_000,
        off in 0u64..1_000_001,
        flags in 0usize..4,
        which in 0usize..4,
        pos in 0usize..1usize << 16,
        byte in 0x20u8..0x7f,
        garbage in "[ -~]{0,40}",
    ) {
        let line = if is_boot == 1 {
            LogRecord::Boot(BootRecord {
                boot_at: SimTime::from_millis(at + gap),
                last_event: [
                    HeartbeatEvent::Alive,
                    HeartbeatEvent::Reboot,
                    HeartbeatEvent::ManualOff,
                    HeartbeatEvent::LowBattery,
                ][ev_which],
                last_event_at: SimTime::from_millis(at),
                off_duration: (flags & 1 == 0).then(|| SimDuration::from_millis(off)),
                freeze_detected: flags & 2 == 0,
            })
            .encode()
        } else {
            LogRecord::Panic(PanicRecord {
                at: SimTime::from_millis(at),
                panic: Panic::new(code, raised_by, reason),
                running_apps: apps,
                activity: [
                    None,
                    Some(ActivityKind::VoiceCall),
                    Some(ActivityKind::Message),
                    Some(ActivityKind::DataSession),
                ][ev_which],
                battery,
            })
            .encode()
        };
        // Encoded lines are pure ASCII, so the byte-level surgery
        // below stays valid UTF-8 and every index is a char boundary.
        prop_assert!(line.is_ascii());
        let damaged = match which {
            1 => {
                let mut s = line;
                s.truncate(pos % (s.len() + 1));
                s
            }
            2 => {
                let mut b = line.into_bytes();
                if !b.is_empty() {
                    let i = pos % b.len();
                    b[i] = byte;
                }
                String::from_utf8(b).unwrap()
            }
            3 => garbage,
            _ => line,
        };
        match (RecordRef::decode(&damaged), LogRecord::parse_owned(&damaged)) {
            (Ok(r), Ok(o)) => prop_assert_eq!(r.to_owned_record(), o),
            (Err(z), Err(o)) => prop_assert_eq!(
                z.defect, o.defect,
                "defect class diverged on {:?}", damaged
            ),
            (z, o) => prop_assert!(
                false,
                "verdict diverged on {:?}: zero-copy {:?} vs owned {:?}",
                damaged, z.map(|r| r.to_owned_record()), o
            ),
        }
    }
}

// ---------------------------------------------------------------
// Beats reader oracle: the one-pass byte reader must give the same
// beats and the same defect counters as the str path it replaced —
// whole-file `String::from_utf8_lossy`, `str::lines`, a `&str` beat
// decoder and a hash set of every kept beat — on any byte file.
// ---------------------------------------------------------------

/// The replaced `&str` beat decoder, verbatim in behaviour.
fn str_decode_beat(line: &str) -> Result<(SimTime, HeartbeatEvent), ParseDefect> {
    let (ms, token) = line.split_once('|').ok_or(ParseDefect::Truncated)?;
    let at = ms.parse::<u64>().map_err(|_| ParseDefect::Truncated)?;
    let is_token_prefix = ["ALIVE", "REBOOT", "MAOFF", "LOWBT"]
        .iter()
        .any(|t| t.len() > token.len() && t.starts_with(token));
    match HeartbeatEvent::parse(token) {
        Some(e) => Ok((SimTime::from_millis(at), e)),
        None if is_token_prefix => Err(ParseDefect::Truncated),
        None => Err(ParseDefect::UnknownTag),
    }
}

/// The replaced beats read: lossy text, `str::lines`, and a lazily
/// built set of every kept beat for the duplicate check. Returns the
/// beats in the dataset's order (stably sorted by time) and the
/// defects of a flash holding only this beats file.
fn str_path_beats(raw: &[u8]) -> (Vec<(SimTime, HeartbeatEvent)>, PhoneDefects) {
    let mut defects = PhoneDefects::default();
    let text = String::from_utf8_lossy(raw);
    defects.invalid_utf8 = matches!(text, std::borrow::Cow::Owned(_));
    let mut beats = Vec::new();
    let mut seen: Option<std::collections::HashSet<(u64, HeartbeatEvent)>> = None;
    let mut last_ms: Option<u64> = None;
    for line in text.lines() {
        defects.lines_seen += 1;
        match str_decode_beat(line) {
            Ok((at, event)) => {
                let ms = at.as_millis();
                if seen.is_none() {
                    if last_ms.is_none_or(|max| ms > max) {
                        last_ms = Some(ms);
                        defects.records_kept += 1;
                        beats.push((at, event));
                        continue;
                    }
                    seen = Some(
                        beats
                            .iter()
                            .map(|&(t, e): &(SimTime, _)| (t.as_millis(), e))
                            .collect(),
                    );
                }
                let set = seen.as_mut().expect("just materialized");
                if !set.insert((ms, event)) {
                    defects.record(ParseDefect::Duplicate);
                    continue;
                }
                if last_ms.is_some_and(|max| ms < max) {
                    defects.record(ParseDefect::OutOfOrder);
                } else {
                    last_ms = Some(ms);
                }
                defects.records_kept += 1;
                beats.push((at, event));
            }
            Err(defect) => defects.record(defect),
        }
    }
    defects.unusable = defects.lines_seen > 0 && defects.records_kept == 0;
    beats.sort_by_key(|&(at, _)| at);
    (beats, defects)
}

/// Fragments a beats file is built from: canonical lines of every
/// token on a few shared timestamps (so sequences repeat and swap
/// them), line endings, signs, timestamps at and past 19 digits and
/// `u64::MAX`, cut and near-miss tokens, and bytes that are invalid,
/// cut or valid multi-byte UTF-8. Pieces without a newline glue onto
/// their neighbours, making still other lines.
const BEAT_PIECES: &[&[u8]] = &[
    b"5|ALIVE\n",
    b"7|ALIVE\n",
    b"9|ALIVE\n",
    b"7|REBOOT\n",
    b"9|MAOFF\n",
    b"5|LOWBT\n",
    b"12|ALIVE\n",
    b"007|ALIVE\n",
    b"7|ALIVE\r\n",
    b"9|ALIVE",
    b"\r\n",
    b"\r",
    b"\n",
    b"+7|ALIVE\n",
    b"-7|ALIVE\n",
    b"+|ALIVE\n",
    b"+",
    b"-",
    b"1234567890123456789|ALIVE\n",
    b"18446744073709551615|REBOOT\n",
    b"18446744073709551616|ALIVE\n",
    b"99999999999999999999|ALIVE\n",
    b"000000000000000000009|ALIVE\n",
    b"100000000000000000000|LOWBT\n",
    b"5|AL\n",
    b"5|REBO\n",
    b"5|ALIVEX\n",
    b"5|alive\n",
    b"5|\n",
    b"|ALIVE\n",
    b"5ALIVE\n",
    b"7|MAOFF|\n",
    b"|",
    b"7",
    b"ALIVE",
    b"\xff",
    b"5|AL\xff\n",
    b"\xe2\x82",
    b"\xc3\xa9",
    b"5\xc3\xa9|ALIVE\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// For any file glued from [`BEAT_PIECES`], the byte reader and the
    /// str path keep the same beats in the same order and count the
    /// same defects, `invalid_utf8` and `unusable` included.
    #[test]
    fn beats_reader_matches_str_path(
        pieces in prop::collection::vec(0usize..BEAT_PIECES.len(), 0..24),
    ) {
        let raw: Vec<u8> = pieces.iter().flat_map(|&i| BEAT_PIECES[i].iter().copied()).collect();
        let mut fs = FlashFs::new();
        fs.overwrite_raw("beats", raw.clone());
        let ds = PhoneDataset::from_flashfs(0, &fs);
        let (beats, defects) = str_path_beats(&raw);
        prop_assert_eq!(ds.beats(), &beats[..], "beats diverged on {:?}", String::from_utf8_lossy(&raw));
        prop_assert_eq!(ds.defects(), &defects, "defects diverged on {:?}", String::from_utf8_lossy(&raw));
    }

    /// `push_u64` writes exactly `to_string`'s digits for values of
    /// every length.
    #[test]
    fn push_u64_matches_to_string(v in 0u64..=u64::MAX, shift in 0u32..64) {
        let v = v >> shift;
        let mut buf = Vec::new();
        push_u64(&mut buf, v);
        prop_assert_eq!(buf, v.to_string().into_bytes());
    }
}

// ---------------------------------------------------------------
// FlashFs against a map model: the sorted-vector directory behaves
// like a `BTreeMap<String, Vec<u8>>` under any operation sequence.
// ---------------------------------------------------------------

/// One filesystem operation on one of [`FS_NAMES`].
#[derive(Debug, Clone)]
enum FsOp {
    AppendLine(usize, String),
    AppendLineWith(usize, String),
    OverwriteRaw(usize, String),
    Truncate(usize),
    Remove(usize),
}

/// A few file names, so sequences revisit files; random order creates
/// them out of sorted order.
const FS_NAMES: [&str; 5] = ["log", "beats", "a", "zz", "power"];

fn fs_op() -> impl Strategy<Value = FsOp> {
    let name = 0usize..FS_NAMES.len();
    prop_oneof![
        (name.clone(), "[a-z0-9|]{0,8}").prop_map(|(f, l)| FsOp::AppendLine(f, l)),
        (name.clone(), "[a-z0-9|]{0,8}").prop_map(|(f, l)| FsOp::AppendLineWith(f, l)),
        (name.clone(), "[a-z\n]{0,8}").prop_map(|(f, b)| FsOp::OverwriteRaw(f, b)),
        name.clone().prop_map(FsOp::Truncate),
        name.prop_map(FsOp::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flashfs_matches_map_model(ops in prop::collection::vec(fs_op(), 0..40)) {
        let mut fs = FlashFs::new();
        let mut model: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        let mut written = 0u64;
        for op in ops {
            match op {
                FsOp::AppendLine(f, line) => {
                    fs.append_line(FS_NAMES[f], &line);
                    let buf = model.entry(FS_NAMES[f].to_string()).or_default();
                    buf.extend_from_slice(line.as_bytes());
                    buf.push(b'\n');
                    written += line.len() as u64 + 1;
                }
                FsOp::AppendLineWith(f, line) => {
                    fs.append_line_with(FS_NAMES[f], |buf| buf.extend_from_slice(line.as_bytes()));
                    let buf = model.entry(FS_NAMES[f].to_string()).or_default();
                    buf.extend_from_slice(line.as_bytes());
                    buf.push(b'\n');
                    written += line.len() as u64 + 1;
                }
                FsOp::OverwriteRaw(f, bytes) => {
                    fs.overwrite_raw(FS_NAMES[f], bytes.clone().into_bytes());
                    model.insert(FS_NAMES[f].to_string(), bytes.into_bytes());
                }
                FsOp::Truncate(f) => {
                    fs.truncate(FS_NAMES[f]);
                    if let Some(buf) = model.get_mut(FS_NAMES[f]) {
                        buf.clear();
                    }
                }
                FsOp::Remove(f) => {
                    prop_assert_eq!(fs.remove(FS_NAMES[f]), model.remove(FS_NAMES[f]).is_some());
                }
            }
            let names: Vec<&str> = model.keys().map(String::as_str).collect();
            prop_assert_eq!(fs.file_names(), names);
            for name in FS_NAMES {
                prop_assert_eq!(fs.read_bytes(name), model.get(name).map(Vec::as_slice));
                prop_assert_eq!(fs.exists(name), model.contains_key(name));
                prop_assert_eq!(fs.size_of(name), model.get(name).map_or(0, |b| b.len() as u64));
            }
            prop_assert_eq!(fs.total_size(), model.values().map(|b| b.len() as u64).sum::<u64>());
            prop_assert_eq!(fs.bytes_written(), written);
        }
    }
}

// ---------------------------------------------------------------
// Coalescence: window monotonicity and phone isolation on random
// event layouts.
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn coalescence_monotone_in_window(
        panic_times in prop::collection::vec(0u64..500_000, 1..40),
        hl_times in prop::collection::vec(0u64..500_000, 0..20),
    ) {
        let fleet = FleetDataset::from_phones(vec![PhoneDataset::new(
            0,
            panic_times
                .iter()
                .map(|&t| LogRecord::Panic(PanicRecord {
                    at: SimTime::from_secs(t),
                    panic: Panic::new(codes::KERN_EXEC_3, "X", "r"),
                    running_apps: Vec::new(),
                    activity: None,
                    battery: 50,
                }))
                .collect(),
            Vec::new(),
        )]);
        let events: Vec<HlEvent> = hl_times
            .iter()
            .map(|&t| HlEvent {
                phone_id: 0,
                at: SimTime::from_secs(t),
                kind: HlKind::Freeze,
            })
            .collect();
        let mut last = 0.0;
        for w in [1u64, 10, 60, 300, 3600, 100_000] {
            let a = CoalescenceAnalysis::new(&fleet, &events, SimDuration::from_secs(w));
            prop_assert!(a.related_fraction() + 1e-12 >= last);
            last = a.related_fraction();
        }
        // Events on other phones never coalesce.
        let other: Vec<HlEvent> = events
            .iter()
            .map(|e| HlEvent { phone_id: 1, ..*e })
            .collect();
        let cross = CoalescenceAnalysis::new(&fleet, &other, SimDuration::from_secs(100_000));
        prop_assert_eq!(cross.related_fraction(), 0.0);
    }

    /// The sorted-merge coalescence agrees with the O(P·H) brute-force
    /// oracle on arbitrary multi-phone event layouts — per-panic
    /// outcomes included, not just the aggregate counts.
    #[test]
    fn coalescence_fast_matches_brute_force(
        panics0 in prop::collection::vec(0u64..200_000, 0..25),
        panics1 in prop::collection::vec(0u64..200_000, 0..25),
        hl0 in prop::collection::vec(0u64..200_000, 0..12),
        hl1 in prop::collection::vec(0u64..200_000, 0..12),
        window in 1u64..20_000,
    ) {
        let rec = |&t: &u64| LogRecord::Panic(PanicRecord {
            at: SimTime::from_secs(t),
            panic: Panic::new(codes::KERN_EXEC_3, "X", "r"),
            running_apps: Vec::new(),
            activity: None,
            battery: 50,
        });
        let fleet = FleetDataset::from_phones(vec![
            PhoneDataset::new(0, panics0.iter().map(rec).collect(), Vec::new()),
            PhoneDataset::new(1, panics1.iter().map(rec).collect(), Vec::new()),
        ]);
        let mut events: Vec<HlEvent> = hl0
            .iter()
            .map(|&t| HlEvent { phone_id: 0, at: SimTime::from_secs(t), kind: HlKind::Freeze })
            .chain(hl1.iter().map(|&t| HlEvent {
                phone_id: 1,
                at: SimTime::from_secs(t),
                kind: HlKind::SelfShutdown,
            }))
            .collect();
        // Sorted input is the production contract (`merge_hl_events`);
        // it also makes the two tie-break orders coincide.
        events.sort_by_key(|e| (e.phone_id, e.at));
        let w = SimDuration::from_secs(window);
        let fast = CoalescenceAnalysis::new(&fleet, &events, w);
        let brute = CoalescenceAnalysis::new_brute_force(&fleet, &events, w);
        prop_assert_eq!(fast.panics(), brute.panics());
        prop_assert_eq!(fast.hl_total(), brute.hl_total());
        prop_assert_eq!(fast.hl_with_panic(), brute.hl_with_panic());
    }

    /// The single-pass gap-array sweep over a finished analysis returns
    /// exactly what running the full analysis per window would, and is
    /// monotone in the window width.
    #[test]
    fn window_sweep_matches_brute_force_and_is_monotone(
        panic_times in prop::collection::vec(0u64..100_000, 1..30),
        hl_times in prop::collection::vec(0u64..100_000, 0..15),
        windows in prop::collection::vec(1u64..20_000, 1..8),
    ) {
        let fleet = FleetDataset::from_phones(vec![PhoneDataset::new(
            0,
            panic_times
                .iter()
                .map(|&t| LogRecord::Panic(PanicRecord {
                    at: SimTime::from_secs(t),
                    panic: Panic::new(codes::KERN_EXEC_3, "X", "r"),
                    running_apps: Vec::new(),
                    activity: None,
                    battery: 50,
                }))
                .collect(),
            Vec::new(),
        )]);
        let mut events: Vec<HlEvent> = hl_times
            .iter()
            .map(|&t| HlEvent { phone_id: 0, at: SimTime::from_secs(t), kind: HlKind::Freeze })
            .collect();
        events.sort_by_key(|e| (e.phone_id, e.at));
        let mut ws = windows;
        ws.sort_unstable();
        let analysis = CoalescenceAnalysis::new(&fleet, &events, SimDuration::from_mins(5));
        let sweep = analysis.window_sweep(&events, &ws);
        let brute = CoalescenceAnalysis::window_sweep_brute_force(&fleet, &events, &ws);
        prop_assert_eq!(sweep.len(), brute.len());
        for (&(w_fast, f_fast), &(w_brute, f_brute)) in sweep.iter().zip(&brute) {
            prop_assert_eq!(w_fast, w_brute);
            prop_assert!((f_fast - f_brute).abs() < 1e-12, "window {}: {} vs {}", w_fast, f_fast, f_brute);
        }
        for pair in sweep.windows(2) {
            prop_assert!(pair[1].1 + 1e-12 >= pair[0].1, "sweep not monotone");
        }
    }

    /// The RNG's weighted choice respects zero weights for any weight
    /// vector.
    #[test]
    fn weighted_index_never_picks_zero(weights in prop::collection::vec(0.0f64..5.0, 1..8), seed in 0u64..1000) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let i = rng.weighted_index(&weights);
            prop_assert!(weights[i] > 0.0);
        }
    }

    /// Folding hand-built per-phone datasets through the streaming
    /// merger — in *any* arrival order — renders the same study,
    /// byte for byte, as the batch driver over the materialized
    /// fleet. Per-phone app vocabularies differ, so this exercises
    /// the name-interner absorption/remap on the coalesced folds.
    #[test]
    fn stream_merge_matches_batch_for_any_arrival_order(
        specs in prop::collection::vec(
            prop::collection::vec((0u64..300_000, 0usize..5, 0usize..4, 10u8..100), 0..12),
            1..5,
        ),
        order_sel in 0u8..3,
    ) {
        use symfail::core::analysis::passes::{PassRegistry, StreamMerger};
        use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
        // Disjoint-ish per-phone vocabularies force non-identity
        // interner remaps when phones merge.
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
        let batch = {
            let fleet = FleetDataset::from_phones(phones.clone());
            let report = StudyReport::analyze_with(&fleet, config, &registry);
            report.render_all() + &report.render_per_phone()
        };
        let mut order: Vec<usize> = (0..phones.len()).collect();
        match order_sel {
            1 => order.reverse(),
            2 => order.sort_by_key(|&i| (i % 2 == 0, i)),
            _ => {}
        }
        let mut merger = StreamMerger::new(&registry, config);
        for &i in &order {
            merger.push_shard(one_phone_shard(&registry, config, &phones[i]));
        }
        let streamed = merger.finish();
        prop_assert_eq!(
            batch,
            streamed.render_all() + &streamed.render_per_phone(),
            "arrival order {:?} changed the study", order
        );
    }

    /// Partitioning the fleet into *arbitrary* contiguous runs, folding
    /// each run into a private [`FoldShard`], and tree-merging the
    /// shards (in any arrival order) renders the same study, byte for
    /// byte, as the serial merge of one-phone shards in phone order —
    /// the legality proof of the streaming driver, for any shard count
    /// and any cut set.
    #[test]
    fn tree_merged_shards_match_serial_merger_for_any_partition(
        specs in prop::collection::vec(
            prop::collection::vec((0u64..300_000, 0usize..5, 0usize..4, 10u8..100), 0..10),
            1..9,
        ),
        raw_cuts in prop::collection::vec(1usize..9, 0..6),
        order_sel in 0u8..3,
    ) {
        use symfail::core::analysis::passes::{
            tree_merge_shards, FoldShard, PassRegistry, PhoneLens, StreamMerger,
        };
        use symfail::core::analysis::report::AnalysisConfig;
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

        let serial = {
            let mut merger = StreamMerger::new(&registry, config);
            for phone in &phones {
                merger.push_shard(one_phone_shard(&registry, config, phone));
            }
            let report = merger.finish();
            report.render_all() + &report.render_per_phone()
        };

        // Arbitrary contiguous partition: dedup the cut set, keep the
        // in-range cuts, bracket with 0 and phones.len().
        let mut cuts: Vec<usize> = raw_cuts.into_iter().filter(|&c| c < phones.len()).collect();
        cuts.push(0);
        cuts.push(phones.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut shards: Vec<FoldShard> = cuts
            .windows(2)
            .map(|w| {
                let mut shard = FoldShard::new(&registry, w[0] as u32);
                for phone in &phones[w[0]..w[1]] {
                    let lens = PhoneLens::new(phone, config, registry.needs_coalesce());
                    shard.absorb_phone(&registry, &lens);
                }
                shard
            })
            .collect();
        match order_sel {
            1 => shards.reverse(),
            2 => shards.sort_by_key(|s| (s.start() % 2 == 0, s.start())),
            _ => {}
        }
        let merged = tree_merge_shards(&registry, shards).expect("at least one shard");
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(merged);
        let report = merger.finish();
        prop_assert_eq!(
            serial,
            report.render_all() + &report.render_per_phone(),
            "partition {:?} changed the study", cuts
        );
    }
}

// ---------------------------------------------------------------
// Streaming driver: for any run partition and worker count, clean or
// worst-corrupted, the campaign renders the serial (one-worker, default
// partition) run's bytes, which are the reference analysis's. Runs end
// on `checkpoint_every` multiples, so the run length is varied through
// it (0 picks the automatic length; with no checkpoint path nothing is
// written).
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn sharded_campaign_matches_serial_for_any_run_len(
        seed in 0u64..1_000,
        run_len in 0u32..7,
        workers in 1usize..5,
        worst in 0u8..2,
    ) {
        use symfail::core::analysis::passes::PassRegistry;
        use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
        use symfail::phone::calibration::CalibrationParams;
        use symfail::phone::corruption::CorruptionProfile;
        use symfail::phone::fleet::{FleetCampaign, StreamingOptions};
        let params = CalibrationParams {
            phones: 6,
            campaign_days: 20,
            enrollment_spread_days: 3,
            attrition_spread_days: 3,
            background_episode_rate_per_hour: 0.02,
            ..CalibrationParams::default()
        };
        let profile = if worst == 1 { CorruptionProfile::Worst } else { CorruptionProfile::None };
        let campaign = FleetCampaign::new(seed, params).with_corruption(profile);
        let config = AnalysisConfig::default();
        let registry = PassRegistry::all();
        let render = |opts: &StreamingOptions, workers: usize| {
            let run = campaign
                .run_streaming_opts(workers, config, &registry, opts)
                .expect("no checkpoint file, nothing can fail");
            run.report.render_all() + &run.report.render_per_phone()
        };
        let serial = render(&StreamingOptions::default(), 1);
        let harvest = campaign.run();
        let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
        let reference = StudyReport::analyze_with(&fleet, config, &registry);
        prop_assert_eq!(&serial, &(reference.render_all() + &reference.render_per_phone()));
        let sharded = render(
            &StreamingOptions { checkpoint_every: run_len, ..StreamingOptions::default() },
            workers,
        );
        prop_assert_eq!(serial, sharded, "run_len {} workers {}", run_len, workers);
    }
}

// ---------------------------------------------------------------
// Forum pipeline: for any seed, the classifier recovers every label
// the corpus generator hid in free text.
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn forum_classifier_is_exact_for_any_seed(seed in 0u64..10_000) {
        use symfail::forum::corpus::CorpusGenerator;
        use symfail::forum::tables::ForumStudy;
        let corpus = CorpusGenerator::paper_sized(seed).generate();
        let study = ForumStudy::classify(&corpus);
        prop_assert_eq!(study.misclassified(), 0);
        prop_assert_eq!(study.failure_posts(), 466);
    }

    /// Small campaigns parse back with panic conservation for any seed.
    #[test]
    fn campaign_panics_conserved_for_any_seed(seed in 0u64..10_000) {
        use symfail::phone::calibration::CalibrationParams;
        use symfail::phone::fleet::{harvest_metas, total_stats, FleetCampaign};
        let params = CalibrationParams {
            phones: 2,
            campaign_days: 25,
            enrollment_spread_days: 3,
            attrition_spread_days: 3,
            background_episode_rate_per_hour: 0.02,
            ..CalibrationParams::default()
        };
        let harvest = FleetCampaign::new(seed, params).run();
        let truth = total_stats(&harvest_metas(&harvest));
        let fleet = FleetDataset::from_flash(
            harvest.iter().map(|h| (h.phone_id, &h.flashfs)),
        );
        prop_assert_eq!(fleet.panics().len() as u64, truth.panics);
    }
}

// ---------------------------------------------------------------
// Corruption injection vs. lossy parsing: for any seed the parser
// survives arbitrary worst-profile damage, and the observed
// `DefectReport` counts pin the injected counts — exactly when one
// damage channel runs alone, and within the truncation-ambiguity
// bound when every channel runs at once.
// ---------------------------------------------------------------

/// Harvests a tiny clean fleet, damages every phone's flash with the
/// given rates (one forked stream per phone, mirroring the campaign's
/// own wiring), and parses the damaged flash back. Returns the total
/// injected counters and the fleet-wide observed defect counters.
fn inject_and_parse(
    seed: u64,
    rates: symfail::phone::corruption::CorruptionRates,
) -> (
    symfail::phone::corruption::InjectedDefects,
    symfail::core::analysis::defects::PhoneDefects,
) {
    use symfail::phone::calibration::CalibrationParams;
    use symfail::phone::corruption::{CorruptionModel, InjectedDefects};
    use symfail::phone::fleet::FleetCampaign;

    let params = CalibrationParams {
        phones: 2,
        campaign_days: 25,
        enrollment_spread_days: 3,
        attrition_spread_days: 3,
        background_episode_rate_per_hour: 0.02,
        ..CalibrationParams::default()
    };
    let mut harvest = FleetCampaign::new(seed, params).run();
    let model = CorruptionModel::new(rates);
    let mut injected = InjectedDefects::default();
    for h in &mut harvest {
        let mut rng = SimRng::seed_from(seed).fork("proptest-corruption", h.phone_id as u64);
        injected.merge(&model.inject(&mut h.flashfs, &mut rng));
    }
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    (injected, fleet.defect_report().fleet)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Worst-profile damage never panics the parse or the analysis,
    /// and the rendered report carries a defects section.
    #[test]
    fn corrupted_campaign_never_panics(seed in 0u64..10_000) {
        use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
        use symfail::phone::calibration::CalibrationParams;
        use symfail::phone::corruption::CorruptionProfile;
        use symfail::phone::fleet::FleetCampaign;
        let params = CalibrationParams {
            phones: 2,
            campaign_days: 25,
            enrollment_spread_days: 3,
            attrition_spread_days: 3,
            background_episode_rate_per_hour: 0.02,
            ..CalibrationParams::default()
        };
        let harvest = FleetCampaign::new(seed, params)
            .with_corruption(CorruptionProfile::Worst)
            .run();
        let fleet = FleetDataset::from_flash(
            harvest.iter().map(|h| (h.phone_id, &h.flashfs)),
        );
        let report = StudyReport::analyze(&fleet, AnalysisConfig::default());
        prop_assert!(report.render_all().contains("Parse defects"));
    }

    /// Tail loss deletes whole trailing lines — by design invisible to
    /// the parser, so a tail-only profile observes zero defects.
    #[test]
    fn tail_loss_only_is_invisible(seed in 0u64..10_000) {
        use symfail::phone::corruption::CorruptionRates;
        let rates = CorruptionRates {
            p_tail_loss: 1.0,
            max_tail_lines: 8,
            ..CorruptionRates::default()
        };
        let (_, d) = inject_and_parse(seed, rates);
        prop_assert!(d.is_clean(), "tail loss must stay silent: {:?}", d);
    }

    /// Mid-record truncation alone is counted exactly: one `truncated`
    /// defect per cut file, nothing else.
    #[test]
    fn truncate_only_counts_are_exact(seed in 0u64..10_000) {
        use symfail::phone::corruption::CorruptionRates;
        let rates = CorruptionRates { p_truncate: 1.0, ..CorruptionRates::default() };
        let (inj, d) = inject_and_parse(seed, rates);
        prop_assert_eq!(d.truncated, inj.truncated);
        prop_assert_eq!(d.checksum_mismatch + d.duplicate + d.out_of_order + d.unknown_tag, 0);
    }

    /// Bit flips alone are counted exactly as checksum mismatches: the
    /// flip stays inside the payload, so the trailer shape survives
    /// and the FNV check catches every garbled record.
    #[test]
    fn bitflip_only_counts_are_exact(seed in 0u64..10_000) {
        use symfail::phone::corruption::CorruptionRates;
        let rates = CorruptionRates { p_bitflip: 0.4, ..CorruptionRates::default() };
        let (inj, d) = inject_and_parse(seed, rates);
        prop_assert_eq!(d.checksum_mismatch, inj.checksum_garbled);
        prop_assert_eq!(d.truncated + d.duplicate + d.out_of_order + d.unknown_tag, 0);
    }

    /// Duplicated heartbeat blocks alone are counted exactly: every
    /// injected copy re-reads a (timestamp, event) pair the parser has
    /// already kept.
    #[test]
    fn duplicate_only_counts_are_exact(seed in 0u64..10_000) {
        use symfail::phone::corruption::CorruptionRates;
        let rates = CorruptionRates {
            p_dup_block: 1.0,
            dup_attempts: 3,
            ..CorruptionRates::default()
        };
        let (inj, d) = inject_and_parse(seed, rates);
        prop_assert_eq!(d.duplicate, inj.duplicated);
        prop_assert_eq!(d.truncated + d.checksum_mismatch + d.out_of_order + d.unknown_tag, 0);
    }

    /// Swapped heartbeat blocks alone are counted exactly: the
    /// injector decodes the displaced lines itself and predicts how
    /// many land behind the parser's running timestamp maximum.
    #[test]
    fn reorder_only_counts_are_exact(seed in 0u64..10_000) {
        use symfail::phone::corruption::CorruptionRates;
        let rates = CorruptionRates {
            p_reorder_block: 1.0,
            reorder_attempts: 3,
            ..CorruptionRates::default()
        };
        let (inj, d) = inject_and_parse(seed, rates);
        prop_assert_eq!(d.out_of_order, inj.out_of_order);
        prop_assert_eq!(d.truncated + d.checksum_mismatch + d.duplicate + d.unknown_tag, 0);
    }

    /// All channels at once: truncation runs last and can mask at most
    /// one already-damaged line per cut file, so every class must land
    /// within `inj.truncated` of its injected count — and truncation
    /// itself stays exact.
    #[test]
    fn worst_profile_counts_within_truncation_bound(seed in 0u64..10_000) {
        use symfail::phone::corruption::CorruptionProfile;
        let (inj, d) = inject_and_parse(seed, CorruptionProfile::Worst.rates());
        let slack = inj.truncated;
        let within = |obs: u64, exp: u64| obs.abs_diff(exp) <= slack;
        prop_assert_eq!(d.truncated, inj.truncated);
        prop_assert!(within(d.checksum_mismatch, inj.checksum_garbled),
            "checksum: observed {} vs injected {} (slack {})",
            d.checksum_mismatch, inj.checksum_garbled, slack);
        prop_assert!(within(d.duplicate, inj.duplicated),
            "duplicate: observed {} vs injected {} (slack {})",
            d.duplicate, inj.duplicated, slack);
        prop_assert!(within(d.out_of_order, inj.out_of_order),
            "out-of-order: observed {} vs injected {} (slack {})",
            d.out_of_order, inj.out_of_order, slack);
        prop_assert_eq!(d.unknown_tag, 0);
    }

    /// A campaign with corruption disabled parses back perfectly
    /// clean — the defect taxonomy never fires on undamaged flash.
    #[test]
    fn clean_campaign_has_zero_defects(seed in 0u64..10_000) {
        use symfail::phone::corruption::CorruptionRates;
        let (inj, d) = inject_and_parse(seed, CorruptionRates::default());
        prop_assert_eq!(inj.total_observable(), 0);
        prop_assert!(d.is_clean(), "clean harvest must have no defects: {:?}", d);
    }
}

// ---------------------------------------------------------------
// Checkpointing: snapshotting the stream merger at any split point
// and restoring it loses nothing; a tampered checkpoint is always
// refused with a typed error, never a panic or a silent resume.
// ---------------------------------------------------------------

/// Hand-built per-phone datasets with disjoint-ish app vocabularies,
/// the same shape the stream-merge property uses: arbitrary panic
/// payloads feed state into every pass's accumulator.
fn checkpoint_phones(specs: &[Vec<(u64, usize, usize, u8)>]) -> Vec<PhoneDataset> {
    let apps = ["Messages", "Camera", "Clock", "Browser", "Log"];
    let acts = [
        ActivityKind::VoiceCall,
        ActivityKind::Message,
        ActivityKind::DataSession,
    ];
    specs
        .iter()
        .enumerate()
        .map(|(id, recs)| {
            let records: Vec<LogRecord> = recs
                .iter()
                .map(|&(t, app_ix, act_ix, battery)| {
                    LogRecord::Panic(PanicRecord {
                        at: SimTime::from_secs(t),
                        panic: Panic::new(
                            codes::KERN_EXEC_3,
                            apps[(app_ix + id) % apps.len()],
                            "r",
                        ),
                        running_apps: (0..app_ix)
                            .map(|k| apps[(k + id) % apps.len()].to_string())
                            .collect(),
                        activity: acts.get(act_ix).copied(),
                        battery,
                    })
                })
                .collect();
            PhoneDataset::new(id as u32, records, Vec::new())
        })
        .collect()
}

proptest! {
    /// Snapshot after any absorbed prefix, restore, finish — the
    /// study renders byte-identically to the never-snapshotted
    /// merger. Exercises every pass's accumulator codec on arbitrary
    /// data, including the interner state and the absorb watermark.
    #[test]
    fn checkpoint_roundtrip_preserves_every_pass(
        specs in prop::collection::vec(
            prop::collection::vec((0u64..300_000, 0usize..5, 0usize..4, 10u8..100), 0..10),
            1..5,
        ),
        split_sel in 0u32..u32::MAX,
    ) {
        use symfail::core::analysis::checkpoint::ShardTopology;
        use symfail::core::analysis::passes::{PassRegistry, StreamMerger};
        use symfail::core::analysis::report::AnalysisConfig;
        let phones = checkpoint_phones(&specs);
        let split = (split_sel as usize) % (phones.len() + 1);
        let config = AnalysisConfig::default();
        let registry = PassRegistry::all();
        let fold = |p: &PhoneDataset| one_phone_shard(&registry, config, p);
        let fingerprint = 0xfeed_beef_u64;
        let topology = ShardTopology::solo(phones.len() as u32);

        let mut direct = StreamMerger::new(&registry, config);
        let mut snapped = StreamMerger::new(&registry, config);
        for p in &phones[..split] {
            direct.push_shard(fold(p));
            snapped.push_shard(fold(p));
        }
        let bytes = snapped.snapshot(fingerprint, "default", topology);
        let mut restored =
            StreamMerger::resume(&registry, config, fingerprint, "default", topology, &bytes)
                .expect("own snapshot must restore");
        prop_assert_eq!(restored.absorbed(), split as u32);
        for p in &phones[split..] {
            direct.push_shard(fold(p));
            restored.push_shard(fold(p));
        }
        let a = direct.finish();
        let b = restored.finish();
        prop_assert_eq!(
            a.render_all() + &a.render_per_phone(),
            b.render_all() + &b.render_per_phone(),
            "split at {} changed the study", split
        );
    }

    /// Flip any single byte of a checkpoint — or truncate it anywhere
    /// — and resume must return a typed error: never a panic, never a
    /// silent resume from damaged state.
    #[test]
    fn tampered_checkpoint_is_always_refused(
        specs in prop::collection::vec(
            prop::collection::vec((0u64..300_000, 0usize..5, 0usize..4, 10u8..100), 0..6),
            1..4,
        ),
        pos_sel in 0u32..u32::MAX,
        mask in 1u8..=255,
        cut_sel in 0u32..u32::MAX,
    ) {
        use symfail::core::analysis::checkpoint::ShardTopology;
        use symfail::core::analysis::passes::{PassRegistry, StreamMerger};
        use symfail::core::analysis::report::AnalysisConfig;
        let phones = checkpoint_phones(&specs);
        let config = AnalysisConfig::default();
        let registry = PassRegistry::all();
        let topology = ShardTopology::solo(phones.len() as u32);
        let mut merger = StreamMerger::new(&registry, config);
        for p in &phones {
            merger.push_shard(one_phone_shard(&registry, config, p));
        }
        let bytes = merger.snapshot(7, "default", topology);

        let mut flipped = bytes.clone();
        let pos = (pos_sel as usize) % flipped.len();
        flipped[pos] ^= mask;
        let outcome = StreamMerger::resume(&registry, config, 7, "default", topology, &flipped);
        prop_assert!(
            outcome.is_err(),
            "flipping byte {} with mask {:#04x} was not detected", pos, mask
        );

        let cut = (cut_sel as usize) % bytes.len();
        let outcome = StreamMerger::resume(&registry, config, 7, "default", topology, &bytes[..cut]);
        prop_assert!(outcome.is_err(), "truncation to {} bytes was not detected", cut);
    }
}

// ---------------------------------------------------------------
// Contingency tables: the merge algebra the sharded checkpoint path
// relies on, and chi-square's indifference to label names.
// ---------------------------------------------------------------

/// Fixed label pools so generated cells collide across shards the way
/// device classes and failure types do.
const CT_ROWS: [&str; 5] = [
    "communicator",
    "smartphone",
    "entry-level",
    "pda",
    "candybar",
];
const CT_COLS: [&str; 4] = ["panic", "freeze", "self-shutdown", "charging"];

fn ct_from(cells: &[(usize, usize, u64)]) -> symfail::stats::ContingencyTable {
    let mut t = symfail::stats::ContingencyTable::new();
    for &(r, c, n) in cells {
        t.add_n(CT_ROWS[r % CT_ROWS.len()], CT_COLS[c % CT_COLS.len()], n);
    }
    t
}

proptest! {
    /// Any split of the cell stream — including every split along row
    /// boundaries, the shape a per-device-class shard produces —
    /// merges back to the whole table, whichever way the merges
    /// associate. This is the algebra that lets shard checkpoints
    /// carry partial class × failure tables and still merge to the
    /// single-process bytes.
    #[test]
    fn contingency_merge_is_associative_for_any_split(
        cells in prop::collection::vec((0usize..5, 0usize..4, 0u64..40), 0..40),
        cut_a in 0u32..u32::MAX,
        cut_b in 0u32..u32::MAX,
    ) {
        let mut cuts = [
            (cut_a as usize) % (cells.len() + 1),
            (cut_b as usize) % (cells.len() + 1),
        ];
        cuts.sort_unstable();
        let (x, rest) = cells.split_at(cuts[0]);
        let (y, z) = rest.split_at(cuts[1] - cuts[0]);
        let whole = ct_from(&cells);
        // (X ⊔ Y) ⊔ Z
        let mut left = ct_from(x);
        left.merge(&ct_from(y));
        left.merge(&ct_from(z));
        // X ⊔ (Y ⊔ Z)
        let mut tail = ct_from(y);
        tail.merge(&ct_from(z));
        let mut right = ct_from(x);
        right.merge(&tail);
        prop_assert_eq!(&left, &whole, "left association changed the table");
        prop_assert_eq!(&right, &whole, "right association changed the table");
    }

    /// Chi-square measures row/column dependence, not label spelling:
    /// any cyclic permutation of the row labels and the column labels
    /// leaves the statistic unchanged — and preserves degeneracy (a
    /// table refused before permutation is refused after).
    #[test]
    fn contingency_chi_square_invariant_under_label_permutation(
        cells in prop::collection::vec((0usize..5, 0usize..4, 1u64..40), 1..40),
        row_rot in 0usize..5,
        col_rot in 0usize..4,
    ) {
        let original = ct_from(&cells);
        let relabeled: Vec<(usize, usize, u64)> = cells
            .iter()
            .map(|&(r, c, n)| (r + row_rot, c + col_rot, n))
            .collect();
        let permuted = ct_from(&relabeled);
        prop_assert_eq!(original.grand_total(), permuted.grand_total());
        match (
            original.chi_square_independence(),
            permuted.chi_square_independence(),
        ) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "chi2 moved under relabeling: {} vs {}", a, b
            ),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "permutation changed degeneracy: {:?} vs {:?}", a, b
            ),
        }
    }
}
