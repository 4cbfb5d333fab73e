//! Deterministic flash-log corruption injection.
//!
//! The field study's logs did not come back pristine: a battery pull
//! mid-write truncates the last record, flash wear loses tail pages,
//! bad blocks garble bytes, and interleaved writes across reboots
//! duplicate or reorder heartbeat blocks. This module injects exactly
//! those damage classes into a harvested [`FlashFs`], driven by a
//! forked [`SimRng`] stream per phone so the injection is a pure
//! function of `(root seed, phone id)` — the parallel campaign stays
//! byte-identical for any worker count.
//!
//! Every injection step records how many defects the lossy parser is
//! *expected to observe* in [`InjectedDefects`], which is what the
//! proptests pin against the parser's
//! [`DefectReport`](symfail_core::analysis::defects::DefectReport) counts:
//!
//! * truncation counts are exact;
//! * tail loss is silent by construction (whole lines vanish — no
//!   parser can see them) and tracked separately;
//! * bit-flip / duplicate / reorder counts are exact up to the
//!   truncation-ambiguity bound — the final-line truncation may land
//!   on a line another step already damaged, converting one expected
//!   observation into a `truncated` one.

use symfail_core::flashfs::FlashFs;
use symfail_core::logger::{files, LoggerFiles};
use symfail_core::records::decode_beat;
use symfail_sim_core::SimRng;

/// Named corruption intensity, selectable from `repro --corruption`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CorruptionProfile {
    /// No injection at all (the profile equivalent of not asking).
    #[default]
    None,
    /// Rare damage: what a healthy fleet's flash looks like.
    Light,
    /// Noticeable damage on most phones.
    Moderate,
    /// Every damage class fires on every phone — the stress profile
    /// used for the worst-case parse benchmark.
    Worst,
}

impl CorruptionProfile {
    /// Parses a profile name as given on the command line.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Self::None),
            "light" => Some(Self::Light),
            "moderate" => Some(Self::Moderate),
            "worst" => Some(Self::Worst),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Light => "light",
            Self::Moderate => "moderate",
            Self::Worst => "worst",
        }
    }

    /// The files a phone must write for a reader of `reads` once its
    /// harvest is damaged under this profile — the one rule for a
    /// harvest's files: `reads`, plus `beats` under a damaging profile,
    /// since the injector draws the log's damage after the beats file's
    /// line count. It reads and damages `log` and `beats` alone.
    pub fn written_files(self, reads: LoggerFiles) -> LoggerFiles {
        match self {
            Self::None => reads,
            _ => reads.max(LoggerFiles::LogAndBeats),
        }
    }

    /// The per-phone damage rates of this profile.
    pub fn rates(self) -> CorruptionRates {
        match self {
            Self::None => CorruptionRates::default(),
            Self::Light => CorruptionRates {
                p_tail_loss: 0.10,
                max_tail_lines: 3,
                p_dup_block: 0.10,
                dup_attempts: 1,
                p_reorder_block: 0.10,
                reorder_attempts: 1,
                p_bitflip: 0.002,
                p_truncate: 0.15,
            },
            Self::Moderate => CorruptionRates {
                p_tail_loss: 0.35,
                max_tail_lines: 8,
                p_dup_block: 0.40,
                dup_attempts: 2,
                p_reorder_block: 0.40,
                reorder_attempts: 2,
                p_bitflip: 0.01,
                p_truncate: 0.40,
            },
            Self::Worst => CorruptionRates {
                p_tail_loss: 1.0,
                max_tail_lines: 12,
                p_dup_block: 1.0,
                dup_attempts: 4,
                p_reorder_block: 1.0,
                reorder_attempts: 4,
                p_bitflip: 0.25,
                p_truncate: 1.0,
            },
        }
    }
}

/// Per-phone damage rates (all probabilities per opportunity).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CorruptionRates {
    /// Chance, per file, of losing a tail of whole lines (flash wear).
    pub p_tail_loss: f64,
    /// Upper bound on lines lost per tail-loss event.
    pub max_tail_lines: u64,
    /// Chance, per attempt, of duplicating a heartbeat block.
    pub p_dup_block: f64,
    /// Number of duplication attempts.
    pub dup_attempts: u32,
    /// Chance, per attempt, of swapping two adjacent heartbeat blocks.
    pub p_reorder_block: f64,
    /// Number of reorder attempts.
    pub reorder_attempts: u32,
    /// Chance, per consolidated-log record, of one flipped bit.
    pub p_bitflip: f64,
    /// Chance, per file, of cutting the final record mid-line
    /// (battery pull during the last write).
    pub p_truncate: f64,
}

/// How many defects of each class were injected, expressed as the
/// counts the lossy parser is expected to observe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedDefects {
    /// Mid-record cuts (parser: `truncated`, exact).
    pub truncated: u64,
    /// Bit-flipped log records (parser: `checksum-mismatch`).
    pub checksum_garbled: u64,
    /// Duplicated heartbeat lines (parser: `duplicate`).
    pub duplicated: u64,
    /// Heartbeat lines expected to decode behind the running maximum
    /// after a block swap (parser: `out-of-order`).
    pub out_of_order: u64,
    /// Whole lines silently lost from file tails — invisible to any
    /// parser, excluded from count pinning.
    pub tail_lines_lost: u64,
}

impl InjectedDefects {
    /// Total defects the parser can observe (tail loss excluded).
    pub fn total_observable(&self) -> u64 {
        self.truncated + self.checksum_garbled + self.duplicated + self.out_of_order
    }

    /// Folds another phone's counters into this one.
    pub fn merge(&mut self, other: &InjectedDefects) {
        self.truncated += other.truncated;
        self.checksum_garbled += other.checksum_garbled;
        self.duplicated += other.duplicated;
        self.out_of_order += other.out_of_order;
        self.tail_lines_lost += other.tail_lines_lost;
    }
}

/// The injector: applies one profile's damage to one phone's flash.
#[derive(Debug, Clone, Copy)]
pub struct CorruptionModel {
    rates: CorruptionRates,
}

impl CorruptionModel {
    /// An injector with explicit rates.
    pub fn new(rates: CorruptionRates) -> Self {
        Self { rates }
    }

    /// Damages `fs` in place, consuming randomness only from `rng`.
    /// Returns the expected-observable defect counts.
    ///
    /// Order matters and is fixed: tail loss first (whole lines
    /// vanish), then heartbeat block duplication and reordering
    /// (chosen against the post-tail-loss file on disjoint ranges),
    /// then log bit-flips, then final-record truncation — so the one
    /// damage class that can mask another (truncation) always runs
    /// last and masks at most one line per file.
    ///
    /// The `log` and `beats` files are damaged as bytes through
    /// [`FlashFs::damage`]: a line is the bytes up to its `\n`, and
    /// every other byte, `\r` and invalid UTF-8 included, is payload.
    /// A file whose last line lacks its `\n` gets one unless that line
    /// is cut; a missing file draws like an empty one and stays
    /// missing.
    pub fn inject(&self, fs: &mut FlashFs, rng: &mut SimRng) -> InjectedDefects {
        let mut injected = InjectedDefects::default();
        let r = &self.rates;

        // 1. Tail loss (flash wear drops whole trailing pages). Capped
        // at half the file so a short log degrades instead of
        // vanishing — total loss is the separate `unusable` scenario,
        // exercised directly in tests.
        injected.tail_lines_lost += with_file(fs, files::LOG, |log| {
            let lines = terminate_last_line(log);
            lose_tail(log, lines, r, rng) as u64
        });
        let beat_lines = with_file(fs, files::BEATS, |beats| {
            let lines = terminate_last_line(beats);
            let lost = lose_tail(beats, lines, r, rng);
            injected.tail_lines_lost += lost as u64;
            lines - lost
        });

        // 2/3. Heartbeat block duplication and reordering, drawn
        // against the post-tail-loss line numbers on mutually disjoint
        // ranges, then applied in one forward pass over the file.
        let blocks = draw_blocks(beat_lines, r, rng);
        injected.merge(&with_file(fs, files::BEATS, |beats| {
            apply_blocks(beats, &blocks)
        }));

        // 4. Bit-flips in log record payloads. The payload region
        // excludes the checksum trailer (`|cXXXX`, 6 bytes), so the
        // trailer keeps its shape and the parser classifies the line
        // as checksum-mismatch, not truncation.
        //
        // 5. Final-record truncation (battery pull mid-write). Runs
        // last; cuts at least one byte and keeps at least one, so a
        // partial record remains on flash.
        let log_cut = with_file(fs, files::LOG, |log| {
            if r.p_bitflip > 0.0 {
                // The empty piece after the final `\n` draws nothing.
                for line in log.split_mut(|&b| b == b'\n') {
                    if line.len() > 6 && rng.chance(r.p_bitflip) && flip_payload_byte(line, rng) {
                        injected.checksum_garbled += 1;
                    }
                }
            }
            cut_last(log, r, rng)
        });
        let beats_cut = with_file(fs, files::BEATS, |beats| cut_last(beats, r, rng));
        injected.truncated += u64::from(log_cut) + u64::from(beats_cut);
        injected
    }
}

/// Runs `damage` on `file`'s bytes in place. A missing file is damaged
/// as an empty one, so the draws do not depend on whether it exists,
/// and stays missing.
fn with_file<R>(fs: &mut FlashFs, file: &str, damage: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    match fs.damage(file) {
        Some(bytes) => damage(bytes),
        None => damage(&mut Vec::new()),
    }
}

/// Ends a last line that lacks its `\n` with one, so every line below
/// is `\n`-terminated; returns the line count.
fn terminate_last_line(bytes: &mut Vec<u8>) -> usize {
    if bytes.last().is_some_and(|&b| b != b'\n') {
        bytes.push(b'\n');
    }
    count_newlines(bytes)
}

/// Bytes per block of the newline count: 64 one-byte lanes, so a
/// block's count fits the `u8` the compiler vectorises the sum in.
const BLOCK: usize = 64;

/// The newlines in one block.
fn block_newlines(block: &[u8; BLOCK]) -> usize {
    usize::from(block.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>())
}

/// The newlines in `bytes`, counted a block at a time.
fn count_newlines(bytes: &[u8]) -> usize {
    let (blocks, rest) = bytes.as_chunks::<BLOCK>();
    blocks.iter().map(block_newlines).sum::<usize>() + rest.iter().filter(|&&b| b == b'\n').count()
}

/// Where the line ended by the `\n` at `end` starts.
fn line_start(bytes: &[u8], end: usize) -> usize {
    bytes[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1)
}

/// Drops a tail of whole lines (at most half the file's `lines`) with
/// the tail-loss chance; returns how many were lost.
fn lose_tail(bytes: &mut Vec<u8>, lines: usize, r: &CorruptionRates, rng: &mut SimRng) -> usize {
    if r.p_tail_loss > 0.0 && rng.chance(r.p_tail_loss) && lines > 0 {
        let k = 1 + rng.next_u64() % r.max_tail_lines.max(1);
        let k = (k as usize).min(lines / 2);
        let mut end = bytes.len();
        for _ in 0..k {
            end = line_start(bytes, end - 1);
        }
        bytes.truncate(end);
        return k;
    }
    0
}

/// A heartbeat-block mutation, in the line numbers of the file after
/// tail loss.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// Lines `start..start + len` are written twice in a row.
    Dup { start: usize, len: usize },
    /// Lines `start..start + a` trade places with the `b` lines after
    /// them.
    Swap { start: usize, a: usize, b: usize },
}

impl Block {
    fn lines(&self) -> std::ops::Range<usize> {
        match *self {
            Block::Dup { start, len } => start..start + len,
            Block::Swap { start, a, b } => start..start + a + b,
        }
    }
}

/// Draws the duplication then the reorder attempts against a file of
/// `n` lines, keeping each block that overlaps none kept before it;
/// returns the kept blocks sorted by their first line.
fn draw_blocks(n: usize, r: &CorruptionRates, rng: &mut SimRng) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut keep = |block: Block| {
        let new = block.lines();
        if blocks.iter().all(|b| {
            let old = b.lines();
            new.end <= old.start || old.end <= new.start
        }) {
            blocks.push(block);
        }
    };
    for _ in 0..r.dup_attempts {
        if r.p_dup_block == 0.0 || !rng.chance(r.p_dup_block) || n == 0 {
            continue;
        }
        let len = 1 + rng.index(3.min(n));
        let start = rng.index(n - len + 1);
        keep(Block::Dup { start, len });
    }
    for _ in 0..r.reorder_attempts {
        if r.p_reorder_block == 0.0 || !rng.chance(r.p_reorder_block) || n < 2 {
            continue;
        }
        let a = 1 + rng.index(3.min(n - 1));
        let b = 1 + rng.index(3.min(n - a));
        let start = rng.index(n - a - b + 1);
        keep(Block::Swap { start, a, b });
    }
    blocks.sort_unstable_by_key(|b| b.lines().start);
    blocks
}

/// Applies `blocks` (sorted, disjoint) to `\n`-terminated `bytes` in
/// one forward pass; returns the duplicated and out-of-order counts.
fn apply_blocks(bytes: &mut Vec<u8>, blocks: &[Block]) -> InjectedDefects {
    let mut injected = InjectedDefects::default();
    let mut dups: Vec<std::ops::Range<usize>> = Vec::new();
    let mut cursor = LineCursor::default();
    for block in blocks {
        match *block {
            Block::Dup { start, len } => {
                let lo = cursor.seek(bytes, start);
                dups.push(lo..cursor.seek(bytes, start + len));
                injected.duplicated += len as u64;
            }
            Block::Swap { start, a, b } => {
                let lo = cursor.seek(bytes, start);
                let mid = cursor.seek(bytes, start + a);
                let hi = cursor.seek(bytes, start + a + b);
                injected.out_of_order += displaced(&bytes[lo..mid], &bytes[mid..hi]);
                bytes[lo..hi].rotate_left(mid - lo);
            }
        }
    }
    insert_copies(bytes, &dups);
    injected
}

/// A forward position in a buffer of `\n`-terminated lines.
#[derive(Default)]
struct LineCursor {
    line: usize,
    pos: usize,
}

impl LineCursor {
    /// Moves to the start of line `target` (the buffer's end when
    /// `target` is the line count) and returns its byte offset. Whole
    /// blocks are skipped by their newline count while they end before
    /// the target line.
    fn seek(&mut self, bytes: &[u8], target: usize) -> usize {
        while self.line < target {
            let rest = &bytes[self.pos..];
            if let Some(block) = rest.first_chunk::<BLOCK>() {
                let n = block_newlines(block);
                if n < target - self.line {
                    self.pos += BLOCK;
                    self.line += n;
                    continue;
                }
            }
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .expect("the target line is in the buffer");
            self.pos += end + 1;
            self.line += 1;
        }
        self.pos
    }
}

/// The parser keeps a running timestamp maximum that does not advance
/// past an out-of-order record, so after swapping A,B -> B,A it flags
/// exactly the A-lines whose timestamp is strictly below B's maximum.
fn displaced(a: &[u8], b: &[u8]) -> u64 {
    beat_times(b).max().map_or(0, |max_b| {
        beat_times(a).filter(|&t| t < max_b).count() as u64
    })
}

/// The timestamps of the lines of a block that decode as beats.
fn beat_times(block: &[u8]) -> impl Iterator<Item = u64> + '_ {
    block
        .split(|&b| b == b'\n')
        .filter_map(|line| decode_beat(line).ok().map(|(t, _)| t.as_millis()))
}

/// Writes a copy of each range (sorted, disjoint) right after it,
/// shifting the bytes behind each one once: back to front, each stretch
/// moves straight to its final place.
fn insert_copies(bytes: &mut Vec<u8>, ranges: &[std::ops::Range<usize>]) {
    let mut src_end = bytes.len();
    bytes.resize(
        src_end + ranges.iter().map(ExactSizeIterator::len).sum::<usize>(),
        0,
    );
    let mut dst_end = bytes.len();
    for range in ranges.iter().rev() {
        let after = src_end - range.end;
        bytes.copy_within(range.end..src_end, dst_end - after);
        dst_end -= after + range.len();
        bytes.copy_within(range.clone(), dst_end);
        src_end = range.end;
    }
}

/// Flips one bit of one payload byte, re-rolling the bit if the result
/// would be a line break (the damage model is bad cells, not lost
/// framing). Flipping one of bits 0–6 of an ASCII byte keeps the line
/// ASCII, so non-ASCII lines are left alone (returns false).
fn flip_payload_byte(line: &mut [u8], rng: &mut SimRng) -> bool {
    let pos = rng.index(line.len() - 6); // keep the `|cXXXX` trailer intact
    let first_bit = rng.index(7); // bit 7 would leave ASCII
    if !line.is_ascii() {
        return false;
    }
    let flipped = (0..7)
        .map(|step| line[pos] ^ (1 << ((first_bit + step) % 7)))
        .find(|&b| b != b'\n' && b != b'\r');
    if let Some(b) = flipped {
        line[pos] = b;
    }
    flipped.is_some()
}

/// Cuts the final line mid-record with the truncation chance, keeping
/// at least one byte and cutting at least one (its `\n` goes with the
/// cut bytes). Returns true when a cut was made.
fn cut_last(bytes: &mut Vec<u8>, r: &CorruptionRates, rng: &mut SimRng) -> bool {
    if r.p_truncate > 0.0 && rng.chance(r.p_truncate) {
        if let Some(end) = bytes.len().checked_sub(1) {
            let start = line_start(bytes, end);
            if end - start >= 2 {
                let keep = 1 + rng.index(end - start - 1);
                bytes.truncate(start + keep);
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beats_fs(n: u64) -> FlashFs {
        let mut fs = FlashFs::new();
        for i in 0..n {
            fs.append_line(files::BEATS, &format!("{}|ALIVE", i * 30_000));
        }
        fs
    }

    #[test]
    fn profile_parsing_round_trips() {
        for p in [
            CorruptionProfile::None,
            CorruptionProfile::Light,
            CorruptionProfile::Moderate,
            CorruptionProfile::Worst,
        ] {
            assert_eq!(CorruptionProfile::parse(p.as_str()), Some(p));
        }
        assert_eq!(CorruptionProfile::parse("bogus"), None);
    }

    #[test]
    fn none_profile_is_identity() {
        let mut fs = beats_fs(10);
        let before = fs.read_bytes(files::BEATS).unwrap().to_vec();
        let model = CorruptionModel::new(CorruptionProfile::None.rates());
        let injected = model.inject(&mut fs, &mut SimRng::seed_from(1));
        assert_eq!(injected, InjectedDefects::default());
        assert_eq!(fs.read_bytes(files::BEATS).unwrap(), &before[..]);
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let model = CorruptionModel::new(CorruptionProfile::Worst.rates());
        let mut a = beats_fs(50);
        let mut b = beats_fs(50);
        let ia = model.inject(&mut a, &mut SimRng::seed_from(99));
        let ib = model.inject(&mut b, &mut SimRng::seed_from(99));
        assert_eq!(ia, ib);
        assert_eq!(
            a.read_bytes(files::BEATS).unwrap(),
            b.read_bytes(files::BEATS).unwrap()
        );
    }

    #[test]
    fn worst_profile_damages_beats() {
        let mut fs = beats_fs(50);
        let before = fs.read_bytes(files::BEATS).unwrap().to_vec();
        let model = CorruptionModel::new(CorruptionProfile::Worst.rates());
        let injected = model.inject(&mut fs, &mut SimRng::seed_from(7));
        assert!(injected.total_observable() > 0, "{injected:?}");
        assert_ne!(fs.read_bytes(files::BEATS).unwrap(), &before[..]);
    }

    #[test]
    fn wear_counter_untouched_by_damage() {
        let mut fs = beats_fs(20);
        let wear = fs.bytes_written();
        CorruptionModel::new(CorruptionProfile::Worst.rates())
            .inject(&mut fs, &mut SimRng::seed_from(3));
        assert_eq!(fs.bytes_written(), wear);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = InjectedDefects {
            truncated: 1,
            duplicated: 2,
            ..InjectedDefects::default()
        };
        a.merge(&InjectedDefects {
            truncated: 1,
            out_of_order: 3,
            tail_lines_lost: 4,
            ..InjectedDefects::default()
        });
        assert_eq!(a.truncated, 2);
        assert_eq!(a.total_observable(), 7);
        assert_eq!(a.tail_lines_lost, 4);
    }
}
