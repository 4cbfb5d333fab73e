//! Property-based tests over the core invariants of the suite.

mod oracle;

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;

use symfail::core::analysis::coalesce::{coalesce_phone, CoalescenceAnalysis};
use symfail::core::analysis::dataset::{FleetDataset, HlEvent, HlKind, PhoneDataset};
use symfail::core::flashfs::FlashFs;
use symfail::core::records::{
    decode_beat, encode_beat_into, push_u64, BootRecord, HeartbeatEvent, LogRecord, PanicRecord,
    RecordRef,
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
        let mut line = Vec::new();
        rec.encode_into(&mut line);
        let line = String::from_utf8(line).unwrap();
        prop_assert_eq!(&line, &oracle::encode(&rec));
        let decoded = oracle::to_owned_record(&RecordRef::decode(&line).unwrap());
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
        let mut line = Vec::new();
        encode_beat_into(&mut line, SimTime::from_millis(at), ev);
        prop_assert_eq!(&line, oracle::encode_beat(SimTime::from_millis(at), ev).as_bytes());
        let (t, e) = decode_beat(&line).unwrap();
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

/// The writers append exactly the oracle's `format!` lines: a panic
/// with context, a boot, a line appended after existing bytes (whose
/// checksum covers only its own payload), and a beat.
#[test]
fn encode_into_matches_format_encoders() {
    let panic = LogRecord::Panic(PanicRecord {
        at: SimTime::from_millis(123456),
        panic: Panic::new(codes::KERN_EXEC_3, "Camera", "dereferenced NULL"),
        running_apps: vec!["Camera".into(), "Log".into()],
        activity: Some(ActivityKind::VoiceCall),
        battery: 67,
    });
    let boot = LogRecord::Boot(BootRecord {
        boot_at: SimTime::from_secs(1000),
        last_event: HeartbeatEvent::Reboot,
        last_event_at: SimTime::from_secs(900),
        off_duration: Some(SimDuration::from_secs(82)),
        freeze_detected: false,
    });
    for rec in [&panic, &boot] {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(buf, oracle::encode(rec).into_bytes());
    }
    let mut buf = b"prefix".to_vec();
    panic.encode_into(&mut buf);
    assert_eq!(&buf[6..], oracle::encode(&panic).as_bytes());
    let mut beat = Vec::new();
    encode_beat_into(&mut beat, SimTime::from_secs(42), HeartbeatEvent::ManualOff);
    assert_eq!(
        beat,
        oracle::encode_beat(SimTime::from_secs(42), HeartbeatEvent::ManualOff).into_bytes()
    );
}

// ---------------------------------------------------------------
// Zero-copy decode oracle: `RecordRef::decode` must agree with the
// owned-String decoder (`oracle::parse_owned`) on every line —
// accepted records value-identical, rejected lines carrying the same
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
        let line = oracle::encode(&if is_boot == 1 {
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
        });
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
        match (RecordRef::decode(&damaged), oracle::parse_owned(&damaged)) {
            (Ok(r), Ok(o)) => prop_assert_eq!(oracle::to_owned_record(&r), o),
            (Err(z), Err(o)) => prop_assert_eq!(
                z.defect, o,
                "defect class diverged on {:?}", damaged
            ),
            (z, o) => prop_assert!(
                false,
                "verdict diverged on {:?}: zero-copy {:?} vs owned {:?}",
                damaged, z.map(|r| oracle::to_owned_record(&r)), o
            ),
        }
    }
}

// ---------------------------------------------------------------
// Beats reader oracle: the one-pass byte reader must give the same
// beats and the same defect counters as the str path it replaced
// (`oracle::str_path_beats`) on any byte file.
// ---------------------------------------------------------------

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

/// A run of `ALIVE` lines of one width, as the logger writes them
/// between two actions, with one line damaged: `n` lines from `start`
/// (on either side of a digit-count rollover, …999 → …1000) every
/// `period` ms, line `at % n` damaged by `damage`:
///
/// 0. none;
/// 1. a digit replaced by `byte`, a non-digit: the neighbours of `0`
///    and `9`, a space, NUL, a high-bit byte;
/// 2. a leading `+`;
/// 3. a leading zero, one digit wider with the same value;
/// 4. `\r\n`;
/// 5. another token of `ALIVE`'s width, or a near miss of it;
/// 6. the run's last newline dropped.
fn alive_run() -> impl Strategy<Value = BeatChunk> {
    (
        (1u32..18, 0u64..3_000, 0u32..2),
        prop_oneof![Just(1u64), 1u64..5_000],
        1usize..14,
        (0usize..14, 0u32..7, 0usize..7, 0usize..20),
    )
        .prop_map(
            |((digits, below, side), period, n, (at, damage, byte, place))| {
                let start = if side == 0 {
                    10u64.pow(digits).saturating_sub(1 + below)
                } else {
                    10u64.pow(digits - 1) + below
                };
                let bad = [b'/', b':', b'x', b' ', 0, 0xb0, 0xb9][byte];
                let tokens: [&[u8]; 4] = [b"MAOFF", b"LOWBT", b"ALIVX", b"alive"];
                let at = at % n;
                let mut run = Vec::new();
                for i in 0..n {
                    let mut digits = (start + i as u64 * period).to_string().into_bytes();
                    let mut token: &[u8] = b"ALIVE";
                    let mut end: &[u8] = b"\n";
                    if i == at {
                        match damage {
                            1 => {
                                let place = place % digits.len();
                                digits[place] = bad;
                            }
                            2 => digits.insert(0, b'+'),
                            3 => digits.insert(0, b'0'),
                            4 => end = b"\r\n",
                            5 => token = tokens[place % tokens.len()],
                            _ => {}
                        }
                    }
                    run.extend_from_slice(&digits);
                    run.push(b'|');
                    run.extend_from_slice(token);
                    run.extend_from_slice(end);
                }
                if damage == 6 {
                    run.pop();
                }
                BeatChunk::Run {
                    bytes: run,
                    start,
                    period,
                    n,
                }
            },
        )
}

/// A piece of a beats file: bytes, an [`alive_run`] with the grid its
/// lines sit on, or an echo of the last run before it.
#[derive(Debug, Clone)]
enum BeatChunk {
    Bytes(Vec<u8>),
    Run {
        bytes: Vec<u8>,
        start: u64,
        period: u64,
        n: usize,
    },
    /// `ALIVE` lines at `len` of the last run's beats from its `skip`-th
    /// on, in one of three forms:
    ///
    /// 0. on its grid: duplicates that run membership must find;
    /// 1. `shift` ms off its grid: strays inside the run's span, which
    ///    split it;
    /// 2. on its grid, then a final event at the first echoed beat's
    ///    timestamp: a tie the merge must order run beat first.
    Echo {
        form: u32,
        skip: usize,
        len: usize,
        shift: u64,
        token: usize,
    },
}

fn echo() -> impl Strategy<Value = BeatChunk> {
    (0u32..3, 0usize..14, 1usize..6, 1u64..5_000, 0usize..3).prop_map(
        |(form, skip, len, shift, token)| BeatChunk::Echo {
            form,
            skip,
            len,
            shift,
            token,
        },
    )
}

/// The beats file `chunks` make, each echo re-emitting the last run
/// before it (none before the first run).
fn beats_file(chunks: &[BeatChunk]) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut grid = None;
    for chunk in chunks {
        match chunk {
            BeatChunk::Bytes(bytes) => raw.extend_from_slice(bytes),
            BeatChunk::Run {
                bytes,
                start,
                period,
                n,
            } => {
                raw.extend_from_slice(bytes);
                grid = Some((*start, *period, *n));
            }
            &BeatChunk::Echo {
                form,
                skip,
                len,
                shift,
                token,
            } => {
                let Some((start, period, n)) = grid else {
                    continue;
                };
                let skip = skip % n;
                // Off the grid, when the period leaves room between
                // beats.
                let shift = if form == 1 && period > 1 {
                    1 + shift % (period - 1)
                } else {
                    0
                };
                for i in skip..(skip + len).min(n) {
                    let at = start + i as u64 * period + shift;
                    raw.extend_from_slice(format!("{at}|ALIVE\n").as_bytes());
                }
                if form == 2 {
                    let at = start + skip as u64 * period;
                    let token = ["REBOOT", "MAOFF", "LOWBT"][token];
                    raw.extend_from_slice(format!("{at}|{token}\n").as_bytes());
                }
            }
        }
    }
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// For any file glued from [`BEAT_PIECES`], [`alive_run`]s — the
    /// runs the reader grows line by line from their predicted bytes,
    /// with damage inside them, and starting anywhere from the file's
    /// first byte on — and echoes of those runs that repeat, displace
    /// and tie their beats, the byte reader and the str path keep the
    /// same beats in the same order and count the same defects,
    /// `invalid_utf8` and `unusable` included.
    #[test]
    fn beats_reader_matches_str_path(
        chunks in prop::collection::vec(
            prop_oneof![
                (0usize..BEAT_PIECES.len()).prop_map(|i| BeatChunk::Bytes(BEAT_PIECES[i].to_vec())),
                alive_run(),
                echo(),
            ],
            0..24,
        ),
    ) {
        let raw = beats_file(&chunks);
        let mut fs = FlashFs::new();
        fs.overwrite_raw("beats", raw.clone());
        let ds = PhoneDataset::from_flashfs(0, &fs);
        let (beats, defects) = oracle::str_path_beats(&raw);
        prop_assert_eq!(ds.beats().collect::<Vec<_>>(), beats, "beats diverged on {:?}", String::from_utf8_lossy(&raw));
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
    Damage(usize, String),
    Truncate(usize),
    Remove(usize),
    /// Empties the filesystem for the next phone, keeping its buffers.
    Clear,
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
        (name.clone(), "[a-z\n]{0,8}").prop_map(|(f, b)| FsOp::Damage(f, b)),
        name.clone().prop_map(FsOp::Truncate),
        name.prop_map(FsOp::Remove),
        Just(FsOp::Clear),
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
                FsOp::Damage(f, bytes) => {
                    // Edits in place without wear; a missing file stays missing.
                    if let Some(buf) = fs.damage(FS_NAMES[f]) {
                        buf.extend_from_slice(bytes.as_bytes());
                    }
                    if let Some(buf) = model.get_mut(FS_NAMES[f]) {
                        buf.extend_from_slice(bytes.as_bytes());
                    }
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
                FsOp::Clear => {
                    // A carried-over flash is a fresh one to every reader.
                    fs.clear();
                    model.clear();
                    written = 0;
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

/// The `coalesce` pass's fold over `fleet`: each phone's panics
/// coalesced by the per-phone kernel against that phone's HL events in
/// time order (stable, so same-instant events keep their input order),
/// absorbed in phone order.
fn coalesce_fleet(
    fleet: &FleetDataset,
    events: &[HlEvent],
    window: SimDuration,
) -> CoalescenceAnalysis {
    let mut acc = CoalescenceAnalysis::default();
    for phone in fleet.phones() {
        let mut hl: Vec<HlEvent> = events
            .iter()
            .filter(|e| e.phone_id == phone.phone_id())
            .copied()
            .collect();
        hl.sort_by_key(|e| e.at);
        acc.absorb(coalesce_phone(
            phone.phone_id(),
            phone.panics(),
            &hl,
            window,
        ));
    }
    acc
}

proptest! {
    #[test]
    fn coalescence_monotone_in_window(
        panic_times in prop::collection::vec(0u64..500_000, 1..40),
        hl_times in prop::collection::vec(0u64..500_000, 0..20),
    ) {
        // Phone 1 logs no panic of its own.
        let fleet = FleetDataset::from_phones(vec![
            PhoneDataset::new(
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
            ),
            PhoneDataset::new(1, Vec::new(), Vec::new()),
        ]);
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
            let a = coalesce_fleet(&fleet, &events, SimDuration::from_secs(w));
            prop_assert!(a.related_fraction() + 1e-12 >= last);
            last = a.related_fraction();
        }
        // Events on other phones never coalesce.
        let other: Vec<HlEvent> = events
            .iter()
            .map(|e| HlEvent { phone_id: 1, ..*e })
            .collect();
        let cross = coalesce_fleet(&fleet, &other, SimDuration::from_secs(100_000));
        prop_assert_eq!(cross.related_fraction(), 0.0);
        prop_assert_eq!(cross.hl_total(), other.len());
    }

    /// The per-phone sorted-merge kernel, folded over the fleet,
    /// agrees with the O(P·H) brute-force oracle on arbitrary
    /// multi-phone event layouts — per-panic outcomes included, not
    /// just the aggregate counts.
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
        // Sorted input is the production contract (the report's
        // `hl_events`); it also makes the two tie-break orders
        // coincide.
        events.sort_by_key(|e| (e.phone_id, e.at));
        let w = SimDuration::from_secs(window);
        let fast = coalesce_fleet(&fleet, &events, w);
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
        let analysis = coalesce_fleet(&fleet, &events, SimDuration::from_mins(5));
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
    use symfail::core::analysis::passes::PassRegistry;
    use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
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
    let registry = PassRegistry::select("defects").expect("known pass");
    let report = StudyReport::analyze_with(&fleet, AnalysisConfig::default(), &registry);
    (injected, report.defects.fleet)
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
// Byte-level flash damage: `CorruptionModel::inject` damages the
// `log` and `beats` buffers in place. On logger-shaped files it must
// equal the line-vector injector it replaced, byte for byte and draw
// for draw; on any bytes at all it must not panic.
// ---------------------------------------------------------------

/// The replaced injector, verbatim in behaviour: every line of `log`
/// and `beats` collected with `read_lines`, damaged as a vector of
/// lines, and each file rebuilt line by line and written back whole.
fn line_vector_inject(
    r: &symfail::phone::corruption::CorruptionRates,
    fs: &mut FlashFs,
    rng: &mut SimRng,
) -> symfail::phone::corruption::InjectedDefects {
    use symfail::core::logger::files;
    use symfail::phone::corruption::{CorruptionRates, InjectedDefects};

    fn lose_tail<S>(lines: &mut Vec<S>, r: &CorruptionRates, rng: &mut SimRng) -> u64 {
        if r.p_tail_loss > 0.0 && rng.chance(r.p_tail_loss) && !lines.is_empty() {
            let k = 1 + rng.next_u64() % r.max_tail_lines.max(1);
            let k = (k as usize).min(lines.len() / 2);
            lines.truncate(lines.len() - k);
            return k as u64;
        }
        0
    }
    fn cut_last<S: AsRef<str>>(
        lines: &mut [S],
        r: &CorruptionRates,
        rng: &mut SimRng,
        shorten: impl FnOnce(&mut S, usize),
    ) -> bool {
        if r.p_truncate > 0.0 && rng.chance(r.p_truncate) {
            if let Some(last) = lines.last_mut() {
                let len = last.as_ref().len();
                if len >= 2 {
                    let keep = 1 + rng.index(len - 1);
                    shorten(last, keep);
                    return true;
                }
            }
        }
        false
    }
    fn join_lines<S: AsRef<str>>(lines: &[S], cut_tail: bool) -> Vec<u8> {
        let mut buf = lines
            .iter()
            .map(AsRef::as_ref)
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes();
        if !buf.is_empty() && !cut_tail {
            buf.push(b'\n');
        }
        buf
    }
    let overlaps =
        |used: &[(usize, usize)], lo: usize, hi: usize| used.iter().any(|&(a, b)| lo < b && a < hi);
    let time = |line: &&str| {
        decode_beat(line.as_bytes())
            .map(|(t, _)| t.as_millis())
            .ok()
    };

    let mut injected = InjectedDefects::default();
    let mut log_lines: Vec<String> = fs.read_lines(files::LOG).map(str::to_string).collect();
    let mut beat_lines: Vec<&str> = fs.read_lines(files::BEATS).collect();
    injected.tail_lines_lost += lose_tail(&mut log_lines, r, rng);
    injected.tail_lines_lost += lose_tail(&mut beat_lines, r, rng);

    let mut used: Vec<(usize, usize)> = Vec::new();
    let mut dups: Vec<(usize, usize)> = Vec::new();
    for _ in 0..r.dup_attempts {
        if r.p_dup_block == 0.0 || !rng.chance(r.p_dup_block) {
            continue;
        }
        let n = beat_lines.len();
        if n == 0 {
            continue;
        }
        let len = 1 + rng.index(3.min(n));
        let start = rng.index(n - len + 1);
        if overlaps(&used, start, start + len) {
            continue;
        }
        used.push((start, start + len));
        dups.push((start, len));
        injected.duplicated += len as u64;
    }
    let mut swaps: Vec<(usize, usize, usize)> = Vec::new();
    for _ in 0..r.reorder_attempts {
        if r.p_reorder_block == 0.0 || !rng.chance(r.p_reorder_block) {
            continue;
        }
        let n = beat_lines.len();
        if n < 2 {
            continue;
        }
        let a = 1 + rng.index(3.min(n - 1));
        let b = 1 + rng.index(3.min(n - a));
        let start = rng.index(n - a - b + 1);
        if overlaps(&used, start, start + a + b) {
            continue;
        }
        used.push((start, start + a + b));
        swaps.push((start, a, b));
        let max_b = beat_lines[start + a..start + a + b]
            .iter()
            .filter_map(time)
            .max();
        if let Some(max_b) = max_b {
            injected.out_of_order += beat_lines[start..start + a]
                .iter()
                .filter_map(time)
                .filter(|&t| t < max_b)
                .count() as u64;
        }
    }
    // `(start, dup len, swap a, swap b)`, applied back to front.
    let mut ops: Vec<(usize, usize, usize, usize)> = dups
        .into_iter()
        .map(|(start, len)| (start, len, 0, 0))
        .chain(swaps.into_iter().map(|(start, a, b)| (start, 0, a, b)))
        .collect();
    ops.sort_by_key(|op| std::cmp::Reverse(op.0));
    for (start, len, a, b) in ops {
        if len > 0 {
            let copy = beat_lines[start..start + len].to_vec();
            beat_lines.splice(start + len..start + len, copy);
        } else {
            beat_lines[start..start + a + b].rotate_left(a);
        }
    }

    if r.p_bitflip > 0.0 {
        for line in &mut log_lines {
            if line.len() > 6 && rng.chance(r.p_bitflip) {
                let pos = rng.index(line.len() - 6);
                let first_bit = rng.index(7);
                if !line.is_ascii() {
                    continue;
                }
                let mut bytes = std::mem::take(line).into_bytes();
                let mut flipped_any = false;
                for step in 0..7 {
                    let flipped = bytes[pos] ^ (1 << ((first_bit + step) % 7));
                    if flipped != b'\n' && flipped != b'\r' {
                        bytes[pos] = flipped;
                        flipped_any = true;
                        break;
                    }
                }
                *line = String::from_utf8(bytes).expect("ascii bit flip stays utf-8");
                injected.checksum_garbled += u64::from(flipped_any);
            }
        }
    }

    let cut = [
        cut_last(&mut log_lines, r, rng, |line, keep| line.truncate(keep)),
        cut_last(&mut beat_lines, r, rng, |line, keep| *line = &line[..keep]),
    ];
    injected.truncated += cut.iter().filter(|&&c| c).count() as u64;
    let log = join_lines(&log_lines, cut[0]);
    let beats = join_lines(&beat_lines, cut[1]);
    for (file, buf) in [(files::LOG, log), (files::BEATS, beats)] {
        if fs.exists(file) {
            fs.overwrite_raw(file, buf);
        }
    }
    injected
}

/// Damage rates with each probability 0, 1 or in between, 0–12 tail
/// lines and 0–6 attempts per block class.
fn corruption_rates() -> impl Strategy<Value = symfail::phone::corruption::CorruptionRates> {
    let p = || prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0];
    ((p(), p(), p(), p(), p()), (0u64..13, 0u32..7, 0u32..7)).prop_map(
        |((tail, dup, reorder, bitflip, truncate), (max_tail_lines, dups, reorders))| {
            symfail::phone::corruption::CorruptionRates {
                p_tail_loss: tail,
                max_tail_lines,
                p_dup_block: dup,
                dup_attempts: dups,
                p_reorder_block: reorder,
                reorder_attempts: reorders,
                p_bitflip: bitflip,
                p_truncate: truncate,
            }
        },
    )
}

/// One logger-shaped line: a heartbeat (so swaps displace decodable
/// timestamps) or any printable ASCII, never empty and never `\r`.
fn logger_line() -> impl Strategy<Value = String> {
    (0u64..2_000_000, 0usize..5, "[ -~]{1,40}").prop_map(|(ms, kind, text)| match kind {
        0 | 1 => format!("{ms}|ALIVE"),
        2 => format!("{ms}|REBOOT"),
        _ => text,
    })
}

/// A flash file: `(0, _, _)` is missing; otherwise the lines, with
/// (`(_, _, 1..)`) or without the final newline.
type RawFile = (usize, Vec<String>, usize);

/// A logger-shaped file of up to `max_lines` lines, missing one time
/// in six and without a final newline one time in three.
fn logger_file(max_lines: usize) -> impl Strategy<Value = RawFile> {
    (
        0usize..6,
        prop::collection::vec(logger_line(), 0..max_lines),
        0usize..3,
    )
}

/// Writes `file` to `fs` as `name`, or nothing if it is missing.
fn lay_out(fs: &mut FlashFs, name: &str, (present, lines, newline): &RawFile) {
    if *present > 0 {
        let mut bytes = lines.join("\n").into_bytes();
        if *newline > 0 && !lines.is_empty() {
            bytes.push(b'\n');
        }
        fs.overwrite_raw(name, bytes);
    }
}

/// Any byte, with line breaks, `\r` and NUL drawn often.
fn any_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(b'\n'), Just(b'\r'), Just(0u8), 0u8..=255, 0x20u8..0x7f]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// On logger-shaped `log` and `beats` files — present or missing,
    /// empty, one line or many, with or without a final newline — the
    /// in-place injector writes the replaced injector's bytes, counts
    /// its defects, leaves the wear counter alone and draws exactly as
    /// many numbers from the stream.
    #[test]
    fn byte_injector_matches_line_vector_injector(
        log in logger_file(30),
        beats in logger_file(60),
        rates in corruption_rates(),
        seed in 0u64..u64::MAX,
    ) {
        use symfail::core::logger::files;
        use symfail::phone::corruption::CorruptionModel;
        let mut fs = FlashFs::new();
        lay_out(&mut fs, files::LOG, &log);
        lay_out(&mut fs, files::BEATS, &beats);
        fs.append_line("power", "0|80|0");
        let mut want_fs = fs.clone();
        let mut want_rng = SimRng::seed_from(seed);
        let want = line_vector_inject(&rates, &mut want_fs, &mut want_rng);
        let mut rng = SimRng::seed_from(seed);
        let got = CorruptionModel::new(rates).inject(&mut fs, &mut rng);
        prop_assert_eq!(got, want);
        prop_assert_eq!(fs.file_names(), want_fs.file_names());
        for name in want_fs.file_names() {
            prop_assert_eq!(fs.read_bytes(name), want_fs.read_bytes(name), "file {}", name);
        }
        prop_assert_eq!(fs.bytes_written(), want_fs.bytes_written());
        prop_assert_eq!(rng.next_u64(), want_rng.next_u64());
    }

    /// Any bytes at all — invalid UTF-8, `\r`, NUL, no newline — are
    /// damaged without a panic, and each file stays present or absent.
    #[test]
    fn byte_injector_takes_any_bytes(
        log in (0usize..4, prop::collection::vec(any_byte(), 0..200)),
        beats in (0usize..4, prop::collection::vec(any_byte(), 0..400)),
        rates in corruption_rates(),
        seed in 0u64..u64::MAX,
    ) {
        use symfail::core::logger::files;
        use symfail::phone::corruption::CorruptionModel;
        let mut fs = FlashFs::new();
        for (name, (present, bytes)) in [(files::LOG, &log), (files::BEATS, &beats)] {
            if *present > 0 {
                fs.overwrite_raw(name, bytes.clone());
            }
        }
        let names: Vec<String> = fs.file_names().into_iter().map(str::to_string).collect();
        CorruptionModel::new(rates).inject(&mut fs, &mut SimRng::seed_from(seed));
        prop_assert_eq!(fs.file_names(), names);
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

// ---------------------------------------------------------------
// Repro campaigns are prefix-closed in days. With spreads zeroed a
// repro phone never reads `campaign_days`, so the d-day harvest is the
// D-day harvest with every file cut at the length it had after day d —
// the property that lets `minimize` answer its corruption drop and
// both day bisections from one simulation. The injector damages what
// the files hold, so the cut and the fresh harvest also corrupt alike.
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shorter_repro_harvest_is_the_longer_one_cut_at_its_day(
        seed in 0u64..1_000_000,
        mask in 0u32..256,
        class in 0usize..3,
        firmware in 0usize..4,
        days in 1u32..=30,
        profile in 0usize..4,
    ) {
        use symfail::phone::composition::{DeviceClass, DeviceProfile};
        use symfail::phone::corruption::CorruptionProfile;
        use symfail::phone::firmware::SymbianVersion;
        use symfail::phone::repro::{FaultChannel, ReproCampaign};
        let corruption = [
            CorruptionProfile::None,
            CorruptionProfile::Light,
            CorruptionProfile::Moderate,
            CorruptionProfile::Worst,
        ][profile];
        let channels: Vec<FaultChannel> = FaultChannel::ALL
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, c)| c)
            .collect();
        let campaign = |days| ReproCampaign {
            seed,
            days,
            channels: channels.clone(),
            corruption,
            device: DeviceProfile {
                class: DeviceClass::ALL[class],
                firmware: SymbianVersion::ALL[firmware],
            },
        };
        let long = campaign(days).harvest();
        for d in 0..=days {
            let short = match d {
                d if d == days => long.flash().clone(),
                d => campaign(d).harvest().flash().clone(),
            };
            let cut = long.cut(d);
            let (mut short_damaged, mut cut_damaged) = (short.clone(), cut.clone());
            campaign(d).corrupt(&mut short_damaged);
            campaign(d).corrupt(&mut cut_damaged);
            for (short, cut, state) in [
                (&short, &cut, "clean"),
                (&short_damaged, &cut_damaged, corruption.as_str()),
            ] {
                prop_assert_eq!(short.file_names(), cut.file_names(), "files after day {}", d);
                for name in short.file_names() {
                    prop_assert!(
                        short.read_bytes(name) == cut.read_bytes(name),
                        "{} {} after day {} of {} is not the cut of the longer harvest",
                        state, name, d, days
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// A log-only phone is the full phone without its other files. Its
// logger keeps the tick cadence, the battery drain and every RNG draw,
// its boot check asks the Heartbeat AO for the event the full phone's
// beats file ends with, and its user report channel writes as every
// phone's does, so it writes the full phone's `log` and `ureport` byte
// for byte and reaches the same ground-truth counters — the property
// that lets clean repro probes simulate only the log. The fleet phones'
// versions of these properties live with the campaign driver
// (`symfail_phone::fleet`'s unit tests), which alone may pick a fleet
// phone's files.
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn log_only_repro_phones_write_the_full_phones_log(
        seed in 0u64..1_000_000,
        mask in 0u32..256,
        days in 1u32..=12,
    ) {
        use symfail::core::logger::{files, LoggerFiles, UREPORT_FILE};
        use symfail::phone::composition::{DeviceClass, DeviceProfile};
        use symfail::phone::corruption::CorruptionProfile;
        use symfail::phone::firmware::SymbianVersion;
        use symfail::phone::repro::{FaultChannel, ReproCampaign};
        let channels: Vec<FaultChannel> = FaultChannel::ALL
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, c)| c)
            .collect();
        for class in DeviceClass::ALL {
            for firmware in SymbianVersion::ALL {
                // A harvest is never damaged; the profile picks the
                // files the probe's verdict needs.
                let campaign = |corruption| ReproCampaign {
                    seed,
                    days,
                    channels: channels.clone(),
                    corruption,
                    device: DeviceProfile { class, firmware },
                };
                let (clean, worst) = (campaign(CorruptionProfile::None), campaign(CorruptionProfile::Worst));
                prop_assert_eq!(clean.files(), LoggerFiles::LogOnly);
                prop_assert_eq!(worst.files(), LoggerFiles::LogAndBeats);
                let (log_only, with_beats) = (clean.harvest(), worst.harvest());
                prop_assert!(!log_only.flash().exists(files::BEATS));
                for d in 0..=days {
                    let ctx = format!("{} {} after day {d} of {days}", class.as_str(), firmware.as_str());
                    prop_assert!(log_only.log(d) == with_beats.log(d), "{} log", ctx);
                    let (a, b) = (log_only.cut(d), with_beats.cut(d));
                    prop_assert!(a.read_bytes(UREPORT_FILE) == b.read_bytes(UREPORT_FILE), "{} ureport", ctx);
                }
                prop_assert_eq!(log_only.stats(), with_beats.stats());
            }
        }
    }
}

// ---------------------------------------------------------------
// A log-and-beats phone — a corrupted probe's, and the campaign
// driver's under passes that read `beats` — is the full phone without
// its sampled `runapp`, `power` and `activity` files: it writes the
// full phone's `log`, `beats` and `ureport` byte for byte and reaches
// the same ground-truth counters.
// ---------------------------------------------------------------

/// Asserts that `fs` holds no file outside a log-and-beats phone's and
/// each of those byte for byte as `full` does; `ctx` names the case.
fn assert_log_and_beats_files_match(fs: &FlashFs, full: &FlashFs, ctx: &str) {
    use symfail::core::logger::LoggerFiles;
    let names = LoggerFiles::LogAndBeats.names();
    for file in fs.file_names() {
        assert!(
            names.contains(&file),
            "{ctx}: {file} is not a log-and-beats file"
        );
    }
    for &file in names {
        assert!(
            fs.read_bytes(file) == full.read_bytes(file),
            "{ctx}: {file} differs from the full phone's"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn analysis_repro_phones_write_the_full_phones_files_after_every_day(
        seed in 0u64..1_000_000,
        mask in 0u32..256,
        days in 1u32..=12,
    ) {
        use symfail::core::logger::LoggerFiles;
        use symfail::phone::composition::{DeviceClass, DeviceProfile};
        use symfail::phone::corruption::CorruptionProfile;
        use symfail::phone::device::Phone;
        use symfail::phone::firmware::SymbianVersion;
        use symfail::phone::repro::{repro_params, FaultChannel, ReproCampaign};
        use symfail::phone::user::UserProfile;
        let channels: Vec<FaultChannel> = FaultChannel::ALL
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, c)| c)
            .collect();
        for class in DeviceClass::ALL {
            for firmware in SymbianVersion::ALL {
                let device = DeviceProfile { class, firmware };
                // A damaging profile's harvest (never itself damaged)
                // is a log-and-beats phone's.
                let worst = ReproCampaign {
                    seed,
                    days,
                    channels: channels.clone(),
                    corruption: CorruptionProfile::Worst,
                    device,
                };
                prop_assert_eq!(worst.files(), LoggerFiles::LogAndBeats);
                let with_beats = worst.harvest();
                // The same phone, every file written, day by day.
                let params = device.scale_params(&repro_params(days, &channels));
                let mut rng = SimRng::seed_from(seed).fork("phone", 0);
                let profile = UserProfile::sample_with_nightly(&params, &mut rng, false);
                let mut full =
                    Phone::with_profile(0, params, profile, rng.fork("device", 0), LoggerFiles::All);
                full.set_firmware(firmware);
                for d in 0..=days {
                    if d > 0 {
                        full.simulate_day(u64::from(d - 1));
                    }
                    let ctx = format!("{} {} after day {d} of {days}", class.as_str(), firmware.as_str());
                    assert_log_and_beats_files_match(&with_beats.cut(d), full.flashfs(), &ctx);
                }
                prop_assert_eq!(with_beats.stats(), full.stats());
            }
        }
    }

    /// Powered-on time is the sum of the time-ordered beat gaps no
    /// longer than the threshold, whatever order the beats come in,
    /// with tied timestamps, zero gaps and thresholds equal to a gap.
    #[test]
    fn powered_on_time_is_the_brute_force_gap_sum(
        beats in prop::collection::vec(
            (prop_oneof![0u64..50, 0u64..5_000_000], 0usize..4),
            0..60,
        ),
        threshold in prop_oneof![
            (0usize..60).prop_map(Some),
            Just(None),
        ],
        free_threshold in 0u64..6_000_000,
    ) {
        let events = [
            HeartbeatEvent::Alive,
            HeartbeatEvent::Reboot,
            HeartbeatEvent::ManualOff,
            HeartbeatEvent::LowBattery,
        ];
        let stream: Vec<(SimTime, HeartbeatEvent)> = beats
            .iter()
            .map(|&(ms, e)| (SimTime::from_millis(ms), events[e]))
            .collect();
        let mut sorted: Vec<u64> = beats.iter().map(|&(ms, _)| ms).collect();
        sorted.sort_unstable();
        let gaps: Vec<u64> = sorted.windows(2).map(|w| w[1] - w[0]).collect();
        // Half the cases test a threshold equal to one of the gaps.
        let max_gap = match threshold {
            Some(i) if !gaps.is_empty() => gaps[i % gaps.len()],
            _ => free_threshold,
        };
        let want: u64 = gaps.iter().filter(|&&g| g <= max_gap).sum();
        let ds = PhoneDataset::new(0, Vec::new(), stream);
        prop_assert_eq!(
            ds.powered_on_time(SimDuration::from_millis(max_gap)),
            SimDuration::from_millis(want)
        );
    }
}
