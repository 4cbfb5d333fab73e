//! The campaign checkpoint codec: a compact, versioned, checksummed
//! binary format for [`StreamMerger`](super::passes::StreamMerger)
//! snapshots.
//!
//! The paper's 14-month study only produced data because collection
//! survived interruptions; at fleet scale a streaming campaign needs
//! the same property. A checkpoint captures the merger's *absorbed
//! contiguous prefix* — the fleet [`NameTable`](crate::intern::NameTable),
//! the next expected phone id, and every pass's accumulator serialized
//! by [`AnalysisPass::snapshot`](super::passes::AnalysisPass::snapshot)
//! — so a resumed run re-simulates only phones `>= next_id` and
//! renders a report byte-identical to an uninterrupted run.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "SYMFCKPT" (8)  | schema version u32 | campaign fingerprint u64
//! AnalysisConfig (4×u64 ms) | registry (u64 count, length-prefixed names)
//! shard topology: index u32 | count u32 | fleet_phones u32
//!   | start u32 | end u32
//! next_id u32 | name table (u64 count, length-prefixed names)
//! per-pass blobs (u64 byte length + pass-private encoding, registry order)
//! pending-shard count u64, always 0
//! FNV-1a 64 checksum u64 over every preceding byte
//! ```
//!
//! The pending-shard count (schema v2) is always written as 0: a
//! checkpoint holds the merged prefix only, which is byte-identical
//! for every worker count, while the merger's out-of-order runs depend
//! on worker skew. A file with any other count is refused as
//! [`CheckpointError::Corrupt`].
//!
//! The shard-topology header (schema v3, extended in v4) makes every
//! checkpoint self-describing about *which slice of the fleet it
//! covers*: a `repro --shard i/N` process records its
//! [`ShardTopology`] — including the explicit phone-id interval
//! `[start, end)` it owns — so the covered phone range is
//! `[start, next_id)`. Since v4 the interval is stored verbatim
//! rather than recomputed from `i/N`, which is what lets a
//! cost-balanced planner assign *uneven* contiguous intervals and
//! still round-trip them through checkpoints. A solo (unsharded) run
//! writes [`ShardTopology::solo`]. This is what lets
//! `repro merge-checkpoints` validate that a set of checkpoints from
//! separate OS processes is disjoint and jointly covers the fleet
//! before tree-merging them into one report.
//!
//! Loading validates in a fixed order — magic, schema version,
//! checksum, then registry / config / campaign identity, then (on
//! resume) shard topology — so every failure mode maps to a
//! distinguishable [`CheckpointError`] and a tampered file can never
//! panic or silently resume.

use std::fmt;

use symfail_stats::{CategoricalDist, ContingencyTable};

/// File magic: the first eight bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"SYMFCKPT";

/// Schema version written by this build; bumped whenever any pass
/// encoding or the header layout changes. Checkpoints from any other
/// version are refused (no migration: re-running the campaign is
/// always safe). v2 added the trailing pending-shard section; v3
/// added the shard-topology header ([`ShardTopology`] + interval
/// start) that makes multi-process checkpoint merging validatable;
/// v4 stores each shard's explicit `[start, end)` interval in the
/// topology so cost-balanced (uneven) contiguous partitions
/// round-trip instead of being recomputed from `i/N`; v5 adds the
/// fleet-composition spec string to the header (refused with a typed
/// mismatch when it differs), registers the `firmware` pass, and
/// groups the `activity`/`runapps` blobs by device class.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 5;

/// Which slice of a fleet a checkpoint-writing process owned: shard
/// `index` of `count` over a fleet of `fleet_phones` phones, owning
/// the explicit phone-id interval `[start, end)`. Written into every
/// checkpoint header (schema v3, interval since v4) so
/// `merge-checkpoints` can prove a set of per-process checkpoints
/// covers the whole fleet exactly once, and so resuming under a
/// different `--shard i/N` (or a different planner cut set) is
/// refused instead of silently folding the wrong id range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTopology {
    /// This process's shard number, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards the fleet was split into.
    pub count: u32,
    /// Total phones in the campaign (all shards together).
    pub fleet_phones: u32,
    /// First phone id this shard owns.
    pub start: u32,
    /// One past the last phone id this shard owns.
    pub end: u32,
}

impl ShardTopology {
    /// The topology of an unsharded (single-process) run: shard 0 of 1
    /// covering the whole fleet.
    pub const fn solo(fleet_phones: u32) -> Self {
        Self {
            index: 0,
            count: 1,
            fleet_phones,
            start: 0,
            end: fleet_phones,
        }
    }

    /// The uniform `i/N` topology PR 7 shipped: shards partition
    /// `[0, fleet_phones)` into `count` near-equal contiguous ranges
    /// (the first `fleet_phones % count` shards get one extra phone);
    /// u64 arithmetic keeps `index * fleet_phones` exact. The
    /// cost-balanced planner replaces this with uneven cuts carried
    /// verbatim in `start`/`end`.
    pub const fn uniform(index: u32, count: u32, fleet_phones: u32) -> Self {
        let p = fleet_phones as u64;
        let n = count as u64;
        let lo = (index as u64 * p) / n;
        let hi = ((index as u64 + 1) * p) / n;
        Self {
            index,
            count,
            fleet_phones,
            start: lo as u32,
            end: hi as u32,
        }
    }

    /// The phone-id interval `[start, end)` this shard owns.
    pub const fn interval(&self) -> (u32, u32) {
        (self.start, self.end)
    }
}

impl fmt::Display for ShardTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}/{} of {} phones (phones [{}, {}))",
            self.index, self.count, self.fleet_phones, self.start, self.end
        )
    }
}

/// Why a checkpoint could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file ends before a read completes.
    Truncated,
    /// The first eight bytes are not [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The checkpoint was written by a different schema version.
    SchemaVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The payload checksum does not match (bit rot or tampering).
    Checksum,
    /// The checkpoint was written with a different pass registry
    /// (`--analyses` selection).
    RegistryMismatch {
        /// Pass names stored in the file, in registry order.
        found: Vec<String>,
        /// Pass names of the resuming registry.
        expected: Vec<String>,
    },
    /// The checkpoint was written under a different [`AnalysisConfig`]
    /// (thresholds/windows), so its folds are not comparable.
    ///
    /// [`AnalysisConfig`]: super::report::AnalysisConfig
    ConfigMismatch,
    /// The checkpoint was written under a different fleet composition
    /// (`--fleet` spec), so its per-class folds are not comparable.
    CompositionMismatch {
        /// Composition spec stored in the file.
        found: String,
        /// Composition spec of the resuming campaign.
        expected: String,
    },
    /// The checkpoint belongs to a different campaign (seed, fleet
    /// size, duration or corruption profile).
    CampaignMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the resuming campaign.
        expected: u64,
    },
    /// The checkpoint was written by a process owning a different
    /// fleet slice (`--shard i/N`), so resuming it here would fold the
    /// wrong phone-id range.
    ShardMismatch {
        /// Topology stored in the file.
        found: ShardTopology,
        /// Topology of the resuming run.
        expected: ShardTopology,
    },
    /// The payload passed the checksum but decoded to an impossible
    /// value (defensive: should be unreachable without a collision).
    Corrupt(&'static str),
    /// Filesystem error while reading or writing the checkpoint.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a campaign checkpoint (bad magic)"),
            CheckpointError::SchemaVersion { found, expected } => write!(
                f,
                "checkpoint schema version {found} (this build reads {expected})"
            ),
            CheckpointError::Checksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::RegistryMismatch { found, expected } => write!(
                f,
                "checkpoint pass registry [{}] does not match [{}]",
                found.join(","),
                expected.join(",")
            ),
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint written under a different analysis config")
            }
            CheckpointError::CompositionMismatch { found, expected } => write!(
                f,
                "checkpoint written under fleet composition `{found}` \
                 (this run uses `{expected}`)"
            ),
            CheckpointError::CampaignMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a different campaign \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::ShardMismatch { found, expected } => {
                write!(f, "checkpoint covers {found}, this run expects {expected}")
            }
            CheckpointError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a set of shard checkpoints could not be merged into one report.
/// Interval arithmetic uses the *covered* range `[start, next_id)`
/// each file records, not the formula interval, so the merge accepts
/// any disjoint full cover — including hand-built partitions — and
/// pinpoints exactly which contract an invalid set breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No input checkpoints were supplied.
    NoInputs,
    /// Input `input` (0-based position on the command line) failed
    /// checkpoint validation — wrong magic/version/checksum, or a
    /// registry/config/campaign that does not match the merge target.
    Input {
        /// 0-based position of the offending input.
        input: usize,
        /// The underlying checkpoint failure.
        error: CheckpointError,
    },
    /// Inputs disagree about the shard topology (count or fleet size),
    /// so they cannot come from one split of one campaign.
    TopologyMismatch {
        /// `(shard_count, fleet_phones)` of the offending input.
        found: (u32, u32),
        /// `(shard_count, fleet_phones)` of the first input.
        expected: (u32, u32),
    },
    /// Two inputs claim the same shard index (a duplicated file).
    DuplicateShard {
        /// The shard index that appears more than once.
        index: u32,
    },
    /// Two inputs' covered phone intervals overlap.
    Overlap {
        /// Covered interval `[start, end)` of the earlier input.
        a: (u32, u32),
        /// Covered interval of the input that overlaps it.
        b: (u32, u32),
    },
    /// The inputs leave phones `[from, to)` uncovered — a shard file
    /// is missing, or a shard was interrupted before finishing its
    /// interval.
    CoverageGap {
        /// First uncovered phone id.
        from: u32,
        /// One past the last uncovered phone id.
        to: u32,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoInputs => write!(f, "no shard checkpoints to merge"),
            MergeError::Input { input, error } => {
                write!(f, "shard checkpoint #{input}: {error}")
            }
            MergeError::TopologyMismatch { found, expected } => write!(
                f,
                "shard topology mismatch: {}/{} phones vs {}/{} phones",
                found.0, found.1, expected.0, expected.1
            ),
            MergeError::DuplicateShard { index } => {
                write!(f, "shard index {index} supplied more than once")
            }
            MergeError::Overlap { a, b } => write!(
                f,
                "shard intervals overlap: [{}, {}) and [{}, {})",
                a.0, a.1, b.0, b.1
            ),
            MergeError::CoverageGap { from, to } => write!(
                f,
                "phones [{from}, {to}) are covered by no shard \
                 (missing or interrupted shard checkpoint)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// FNV-1a 64-bit over `bytes` — the same cheap, dependency-free hash
/// the flash-log record trailer uses, here guarding the whole payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only little-endian encoder for checkpoint payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes with no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (checkpoints are
    /// architecture-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — bit-exact across
    /// the roundtrip, which the byte-identical-report invariant needs.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked little-endian decoder over a checkpoint payload.
/// Every read returns [`CheckpointError::Truncated`] instead of
/// panicking when the slice runs out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `u64`-encoded `usize`, refusing values the host cannot
    /// represent.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Corrupt("length overflow"))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("string is not UTF-8"))
    }
}

// --- codecs for the statistic types several passes hold ---
//
// Each pass encodes its own accumulator in its own module; these two
// are shared. Labels are written in the types' own (sorted) iteration
// order, so equal values always encode to equal bytes.

pub(super) fn write_dist(w: &mut ByteWriter, d: &CategoricalDist) {
    let entries: Vec<(&str, u64)> = d.iter().collect();
    w.usize(entries.len());
    for (label, n) in entries {
        w.str(label);
        w.u64(n);
    }
}

pub(super) fn read_dist(r: &mut ByteReader<'_>) -> Result<CategoricalDist, CheckpointError> {
    let n = r.usize()?;
    let mut d = CategoricalDist::new();
    for _ in 0..n {
        let label = r.str()?;
        let count = r.u64()?;
        d.add_n(label, count);
    }
    Ok(d)
}

pub(super) fn write_table(w: &mut ByteWriter, t: &ContingencyTable) {
    let entries: Vec<(&str, &str, u64)> = t.iter().collect();
    w.usize(entries.len());
    for (row, col, n) in entries {
        w.str(row);
        w.str(col);
        w.u64(n);
    }
}

pub(super) fn read_table(r: &mut ByteReader<'_>) -> Result<ContingencyTable, CheckpointError> {
    let n = r.usize()?;
    let mut t = ContingencyTable::new();
    for _ in 0..n {
        let row = r.str()?;
        let col = r.str()?;
        let count = r.u64()?;
        t.add_n(row, col, count);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = ByteWriter::new();
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 7);
        w.usize(123_456);
        w.f64(-0.1);
        w.bool(true);
        w.bool(false);
        w.str("Têlé");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "Têlé");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(CheckpointError::Truncated));
        assert_eq!(r.take(4), Err(CheckpointError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u8(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_corrupt() {
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(r.bool(), Err(CheckpointError::Corrupt(_))));
        let mut w = ByteWriter::new();
        w.u32(2);
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn uniform_shard_intervals_partition_the_fleet_exactly() {
        for &phones in &[0u32, 1, 5, 13, 250, 1000, 1001] {
            for &count in &[1u32, 2, 3, 4, 7, 8, 16] {
                let mut cursor = 0;
                for index in 0..count {
                    let topo = ShardTopology::uniform(index, count, phones);
                    let (lo, hi) = topo.interval();
                    assert_eq!(lo, cursor, "{topo} must start where the last ended");
                    assert!(hi >= lo);
                    cursor = hi;
                }
                assert_eq!(cursor, phones, "{count} shards must cover {phones} phones");
            }
        }
        assert_eq!(ShardTopology::solo(42).interval(), (0, 42));
        assert_eq!(ShardTopology::uniform(0, 1, 42), ShardTopology::solo(42));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
