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
//! proptests pin against the parser's [`DefectReport`] counts:
//!
//! * truncation counts are exact;
//! * tail loss is silent by construction (whole lines vanish — no
//!   parser can see them) and tracked separately;
//! * bit-flip / duplicate / reorder counts are exact up to the
//!   truncation-ambiguity bound — the final-line truncation may land
//!   on a line another step already damaged, converting one expected
//!   observation into a `truncated` one.

use symfail_core::flashfs::FlashFs;
use symfail_core::logger::files;
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

    /// An injector with a named profile's rates.
    pub fn from_profile(profile: CorruptionProfile) -> Self {
        Self::new(profile.rates())
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
    pub fn inject(&self, fs: &mut FlashFs, rng: &mut SimRng) -> InjectedDefects {
        let mut injected = InjectedDefects::default();
        let r = &self.rates;

        // Log lines are few and bit flips mutate them, so they are
        // owned; beat lines (tens of thousands on a long-lived phone)
        // are only dropped, copied, moved and cut, so they stay slices
        // of the harvested buffer until the rewrite.
        let mut log_lines: Vec<String> = fs.read_lines(files::LOG).map(str::to_string).collect();
        let mut beat_lines: Vec<&str> = fs.read_lines(files::BEATS).collect();

        // 1. Tail loss (flash wear drops whole trailing pages). Capped
        // at half the file so a short log degrades instead of
        // vanishing — total loss is the separate `unusable` scenario,
        // exercised directly in tests.
        injected.tail_lines_lost += lose_tail(&mut log_lines, r, rng);
        injected.tail_lines_lost += lose_tail(&mut beat_lines, r, rng);

        // 2/3. Heartbeat block duplication and reordering. Ranges are
        // chosen against the original index space, kept mutually
        // disjoint, and applied back-to-front so earlier indexes stay
        // valid.
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
            // The parser keeps a running timestamp maximum that does
            // not advance past an out-of-order record, so after
            // swapping A,B -> B,A it flags exactly the A-lines whose
            // timestamp is strictly below B's maximum.
            let time = |line: &&str| decode_beat(line).map(|(t, _)| t.as_millis()).ok();
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
        let mut ops: Vec<BlockOp> = dups
            .into_iter()
            .map(|(start, len)| BlockOp::Dup { start, len })
            .chain(
                swaps
                    .into_iter()
                    .map(|(start, a, b)| BlockOp::Swap { start, a, b }),
            )
            .collect();
        ops.sort_by_key(|op| std::cmp::Reverse(op.start()));
        for op in ops {
            match op {
                BlockOp::Dup { start, len } => {
                    let copy = beat_lines[start..start + len].to_vec();
                    beat_lines.splice(start + len..start + len, copy);
                }
                BlockOp::Swap { start, a, b } => {
                    beat_lines[start..start + a + b].rotate_left(a);
                }
            }
        }

        // 4. Bit-flips in log record payloads. The payload region
        // excludes the checksum trailer (`|cXXXX`, 6 bytes), so the
        // trailer keeps its shape and the parser classifies the line
        // as checksum-mismatch, not truncation.
        if r.p_bitflip > 0.0 {
            for line in &mut log_lines {
                if line.len() > 6 && rng.chance(r.p_bitflip) && flip_payload_byte(line, rng) {
                    injected.checksum_garbled += 1;
                }
            }
        }

        // 5. Final-record truncation (battery pull mid-write). Runs
        // last; cuts at least one byte and keeps at least one, so a
        // partial record remains on flash.
        let cut = [
            cut_last(&mut log_lines, r, rng, |line, keep| line.truncate(keep)),
            cut_last(&mut beat_lines, r, rng, |line, keep| *line = &line[..keep]),
        ];
        injected.truncated += cut.iter().filter(|&&c| c).count() as u64;

        let log = join_lines(&log_lines, cut[0]);
        let beats = join_lines(&beat_lines, cut[1]);
        write_file(fs, files::LOG, log);
        write_file(fs, files::BEATS, beats);
        injected
    }
}

/// A block-level mutation of the beats file, in original index space.
enum BlockOp {
    Dup { start: usize, len: usize },
    Swap { start: usize, a: usize, b: usize },
}

impl BlockOp {
    fn start(&self) -> usize {
        match *self {
            BlockOp::Dup { start, .. } | BlockOp::Swap { start, .. } => start,
        }
    }
}

fn overlaps(used: &[(usize, usize)], lo: usize, hi: usize) -> bool {
    used.iter().any(|&(a, b)| lo < b && a < hi)
}

/// Flips one bit of one payload byte, re-rolling the bit if the result
/// would be a newline (the damage model is bad cells, not lost
/// framing). Flipping one of bits 0–6 of an ASCII byte keeps the line
/// ASCII, so non-ASCII lines are left alone (returns false).
fn flip_payload_byte(line: &mut String, rng: &mut SimRng) -> bool {
    let payload_len = line.len() - 6; // keep the `|cXXXX` trailer intact
    let pos = rng.index(payload_len);
    let first_bit = rng.index(7); // bit 7 would leave ASCII
    if !line.is_ascii() {
        return false;
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
    flipped_any
}

/// Drops a tail of whole lines (at most half the file) with the
/// tail-loss chance; returns how many were lost.
fn lose_tail<S>(lines: &mut Vec<S>, r: &CorruptionRates, rng: &mut SimRng) -> u64 {
    if r.p_tail_loss > 0.0 && rng.chance(r.p_tail_loss) && !lines.is_empty() {
        let k = 1 + rng.next_u64() % r.max_tail_lines.max(1);
        let k = (k as usize).min(lines.len() / 2);
        lines.truncate(lines.len() - k);
        return k as u64;
    }
    0
}

/// Cuts the final line mid-record with the truncation chance, keeping
/// at least one byte and cutting at least one; `shorten` keeps the
/// first `keep` bytes. Returns true when a cut was made.
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

/// The new content of a file, built in one buffer. The trailing
/// newline is kept unless the final record was cut mid-line
/// (`cut_tail`), which is exactly the mid-write power-loss signature.
fn join_lines<S: AsRef<str>>(lines: &[S], cut_tail: bool) -> Vec<u8> {
    let len = lines.iter().map(|l| l.as_ref().len() + 1).sum::<usize>();
    let mut buf = Vec::with_capacity(len);
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            buf.push(b'\n');
        }
        buf.extend_from_slice(line.as_ref().as_bytes());
    }
    if !buf.is_empty() && !cut_tail {
        buf.push(b'\n');
    }
    buf
}

/// Replaces an existing file's content (a missing file stays missing).
fn write_file(fs: &mut FlashFs, file: &str, buf: Vec<u8>) {
    if fs.exists(file) {
        fs.overwrite_raw(file, buf);
    }
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
        let model = CorruptionModel::from_profile(CorruptionProfile::None);
        let injected = model.inject(&mut fs, &mut SimRng::seed_from(1));
        assert_eq!(injected, InjectedDefects::default());
        assert_eq!(fs.read_bytes(files::BEATS).unwrap(), &before[..]);
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let model = CorruptionModel::from_profile(CorruptionProfile::Worst);
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
        let model = CorruptionModel::from_profile(CorruptionProfile::Worst);
        let injected = model.inject(&mut fs, &mut SimRng::seed_from(7));
        assert!(injected.total_observable() > 0, "{injected:?}");
        assert_ne!(fs.read_bytes(files::BEATS).unwrap(), &before[..]);
    }

    #[test]
    fn wear_counter_untouched_by_damage() {
        let mut fs = beats_fs(20);
        let wear = fs.bytes_written();
        CorruptionModel::from_profile(CorruptionProfile::Worst)
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
