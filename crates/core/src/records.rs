//! The logger's on-flash record model and its line codec.
//!
//! Every record is one text line; the codec is written by the logger
//! and parsed back by the analysis pipeline, so the reproduction
//! exercises a genuine serialize → persist → parse → analyze path, as
//! the original study did when harvesting log files off the phones.

use std::fmt;

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};
use symfail_symbian::servers::logdb::ActivityKind;
use symfail_symbian::{Panic, PanicCategory, PanicCode};

/// Events the Heartbeat active object writes to the `beats` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeartbeatEvent {
    /// Periodic liveness beat during normal execution.
    Alive,
    /// A clean shutdown is in progress (user- or kernel-initiated).
    Reboot,
    /// The user deliberately turned the logger off (Manual OFF).
    ManualOff,
    /// The shutdown was caused by a drained battery (LOW BaTtery).
    LowBattery,
}

impl HeartbeatEvent {
    /// The token written to the beats file (paper's nomenclature).
    pub fn token(self) -> &'static str {
        match self {
            HeartbeatEvent::Alive => "ALIVE",
            HeartbeatEvent::Reboot => "REBOOT",
            HeartbeatEvent::ManualOff => "MAOFF",
            HeartbeatEvent::LowBattery => "LOWBT",
        }
    }

    /// Parses a beats-file token.
    pub fn parse(s: &str) -> Option<Self> {
        Self::from_token(s.as_bytes())
    }

    /// Every event, in token-table order.
    const ALL: [HeartbeatEvent; 4] = [
        HeartbeatEvent::Alive,
        HeartbeatEvent::Reboot,
        HeartbeatEvent::ManualOff,
        HeartbeatEvent::LowBattery,
    ];

    /// The event whose token is exactly `token`.
    fn from_token(token: &[u8]) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|e| e.token().as_bytes() == token)
    }
}

impl fmt::Display for HeartbeatEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Classification of a malformed or suspicious log line — the defect
/// taxonomy of the lossy-tolerant parse path (see DESIGN.md,
/// "Corruption model and graceful degradation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParseDefect {
    /// The line ends mid-record: missing fields, a cut event token, or
    /// a checksum trailer that no longer has the `cXXXX` shape.
    Truncated,
    /// The line is whole but its payload does not match its checksum
    /// trailer (garbled bytes).
    ChecksumMismatch,
    /// The record decodes but its timestamp runs backwards relative to
    /// the file so far. The record is kept; the flag marks that the
    /// file was reordered on flash.
    OutOfOrder,
    /// The record is an exact repeat of one already seen in the same
    /// file (dropped).
    Duplicate,
    /// The line is whole but carries a record tag or event token the
    /// codec does not know.
    UnknownTag,
}

impl ParseDefect {
    /// All taxonomy kinds, in rendering order.
    pub const ALL: [ParseDefect; 5] = [
        ParseDefect::Truncated,
        ParseDefect::ChecksumMismatch,
        ParseDefect::OutOfOrder,
        ParseDefect::Duplicate,
        ParseDefect::UnknownTag,
    ];

    /// Stable kebab-case name used in reports and JSON dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            ParseDefect::Truncated => "truncated",
            ParseDefect::ChecksumMismatch => "checksum-mismatch",
            ParseDefect::OutOfOrder => "out-of-order",
            ParseDefect::Duplicate => "duplicate",
            ParseDefect::UnknownTag => "unknown-tag",
        }
    }
}

impl fmt::Display for ParseDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// 16-bit fold of FNV-1a-64 over a line's payload bytes; written as
/// the `|cXXXX` trailer on every consolidated-log line so the parser
/// can tell a garbled record from a well-formed one.
pub fn line_checksum(payload: &str) -> u16 {
    line_checksum_bytes(payload.as_bytes())
}

/// [`line_checksum`] over raw bytes — the writer-side entry point (the
/// encoders checksum the payload slice they just appended to the
/// output buffer).
pub fn line_checksum_bytes(payload: &[u8]) -> u16 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) & 0xffff) as u16
}

/// The two ASCII digits of every value `00..=99`, back to back:
/// [`push_u64`] writes a whole pair per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends the decimal digits of `v` to `out` — the writer path's
/// replacement for `format!("{v}")`, allocation- and fmt-machinery
/// free, two digits per step.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let start = write_u64_digits(&mut digits, v);
    out.extend_from_slice(&digits[start..]);
}

/// Writes the decimal digits of `v` right-aligned into `digits`
/// (20 places hold any `u64`) and returns the index of the first; the
/// places before it are left as they were.
pub(crate) fn write_u64_digits(digits: &mut [u8], mut v: u64) -> usize {
    let mut i = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + v as u8;
    }
    i
}

/// Appends `v` as exactly four lowercase hex digits (the checksum
/// trailer's `XXXX`).
fn push_hex4(out: &mut Vec<u8>, v: u16) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.extend_from_slice(&[
        HEX[(v >> 12) as usize & 0xf],
        HEX[(v >> 8) as usize & 0xf],
        HEX[(v >> 4) as usize & 0xf],
        HEX[v as usize & 0xf],
    ]);
}

/// Parses the four-hex-digit checksum value of an already
/// shape-checked trailer (see [`is_checksum_shaped`]) without
/// allocating the expected string.
fn parse_hex4(s: &str) -> Option<u16> {
    let mut v: u16 = 0;
    for b in s.bytes() {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        v = (v << 4) | u16::from(nibble);
    }
    Some(v)
}

/// True when `field` has the exact `cXXXX` (lowercase hex) shape of a
/// checksum trailer. A mid-record cut destroys this shape, which is
/// how truncation is told apart from payload garbling.
fn is_checksum_shaped(field: &str) -> bool {
    field.len() == 5
        && field.starts_with('c')
        && field[1..]
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Compact single-char code for an activity kind in the codec.
fn activity_code(kind: ActivityKind) -> char {
    match kind {
        ActivityKind::VoiceCall => 'V',
        ActivityKind::Message => 'M',
        ActivityKind::DataSession => 'D',
    }
}

fn activity_from_code(c: &str) -> Option<Option<ActivityKind>> {
    match c {
        "V" => Some(Some(ActivityKind::VoiceCall)),
        "M" => Some(Some(ActivityKind::Message)),
        "D" => Some(Some(ActivityKind::DataSession)),
        "-" => Some(None),
        _ => None,
    }
}

/// A panic entry in the consolidated log file: the panic itself plus
/// the context the Panic Detector gathered from the other active
/// objects at detection time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanicRecord {
    /// When the panic was notified.
    pub at: SimTime,
    /// The panic (code, raising component, reason).
    pub panic: Panic,
    /// Applications running at panic time (from the Running
    /// Applications Detector).
    pub running_apps: Vec<String>,
    /// Phone activity at panic time (from the Log Engine), if any.
    pub activity: Option<ActivityKind>,
    /// Battery level at panic time (from the Power Manager).
    pub battery: u8,
}

/// A boot entry: written by the Panic Detector when the logger starts
/// and reconstructs what happened across the off period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BootRecord {
    /// When the phone (and logger) came back up.
    pub boot_at: SimTime,
    /// The last event found in the beats file.
    pub last_event: HeartbeatEvent,
    /// When that event was written.
    pub last_event_at: SimTime,
    /// Reboot duration (time the phone was off), when measurable —
    /// i.e. when the previous shutdown was clean. A battery pull after
    /// a freeze leaves only the last ALIVE beat, so the off duration
    /// is not exactly known and the freeze flag is set instead.
    pub off_duration: Option<SimDuration>,
    /// True when the boot-time heartbeat check inferred a freeze
    /// (last event was ALIVE: the phone never shut down cleanly).
    pub freeze_detected: bool,
}

/// One record of the consolidated log file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A panic with its context.
    Panic(PanicRecord),
    /// A boot-time reconstruction record.
    Boot(BootRecord),
}

impl LogRecord {
    /// Timestamp of the record.
    pub fn at(&self) -> SimTime {
        match self {
            LogRecord::Panic(p) => p.at,
            LogRecord::Boot(b) => b.boot_at,
        }
    }

    /// Encodes the record as one log-file line, ending with a `|cXXXX`
    /// checksum trailer over the payload.
    pub fn encode(&self) -> String {
        let payload = match self {
            LogRecord::Panic(p) => {
                debug_assert!(!p.panic.reason.contains('|'));
                format!(
                    "P|{}|{}~{}|{}|{}|{}|{}|{}",
                    p.at.as_millis(),
                    p.panic.code.category.as_str(),
                    p.panic.code.panic_type,
                    p.panic.raised_by,
                    p.activity.map(activity_code).unwrap_or('-'),
                    p.battery,
                    p.running_apps.join(","),
                    p.panic.reason,
                )
            }
            LogRecord::Boot(b) => format!(
                "B|{}|{}|{}|{}|{}",
                b.boot_at.as_millis(),
                b.last_event.token(),
                b.last_event_at.as_millis(),
                b.off_duration
                    .map(|d| d.as_millis().to_string())
                    .unwrap_or_else(|| "-".to_string()),
                u8::from(b.freeze_detected),
            ),
        };
        let check = line_checksum(&payload);
        format!("{payload}|c{check:04x}")
    }

    /// Decodes a log-file line: verifies the checksum trailer first,
    /// then parses the payload.
    ///
    /// This delegates to [`Self::parse_owned`]; the allocation-free
    /// hot path used by the dataset build is [`RecordRef::decode`],
    /// which is property-tested to agree with this one on every input
    /// (see `tests/proptests.rs`).
    ///
    /// # Errors
    ///
    /// Returns a [`RecordParseError`] describing the malformed field
    /// and carrying its [`ParseDefect`] classification.
    pub fn decode(line: &str) -> Result<LogRecord, RecordParseError> {
        Self::parse_owned(line)
    }

    /// The original owned-`String` decode path, kept verbatim as the
    /// oracle the zero-copy [`RecordRef::decode`] is verified against.
    /// Allocates per field; do not use on the hot path.
    ///
    /// # Errors
    ///
    /// Returns a [`RecordParseError`] describing the malformed field
    /// and carrying its [`ParseDefect`] classification.
    pub fn parse_owned(line: &str) -> Result<LogRecord, RecordParseError> {
        let err = |what: &str, defect: ParseDefect| RecordParseError {
            line: line.to_string(),
            what: what.to_string(),
            defect,
        };
        let Some((payload, trailer)) = line.rsplit_once('|') else {
            return Err(err("checksum trailer", ParseDefect::Truncated));
        };
        if !is_checksum_shaped(trailer) {
            // A clean cut anywhere in the line destroys the trailer
            // shape, so this is the truncation signature.
            return Err(err("checksum trailer", ParseDefect::Truncated));
        }
        let expect = line_checksum(payload);
        if trailer[1..] != format!("{expect:04x}") {
            return Err(err("checksum", ParseDefect::ChecksumMismatch));
        }
        Self::decode_payload(payload, line)
    }

    /// Parses the checksum-verified payload of a log-file line.
    fn decode_payload(payload: &str, line: &str) -> Result<LogRecord, RecordParseError> {
        let err = |what: &str| RecordParseError {
            line: line.to_string(),
            what: what.to_string(),
            defect: ParseDefect::Truncated,
        };
        let mut parts = payload.splitn(8, '|');
        match parts.next() {
            Some("P") => {
                let at = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("timestamp"))?;
                let code_str = parts.next().ok_or_else(|| err("panic code"))?;
                let (cat, ty) = code_str.split_once('~').ok_or_else(|| err("panic code"))?;
                let code =
                    PanicCode::parse(&format!("{cat} {ty}")).ok_or_else(|| err("panic code"))?;
                let raised_by = parts.next().ok_or_else(|| err("raised_by"))?.to_string();
                let activity = parts
                    .next()
                    .and_then(activity_from_code)
                    .ok_or_else(|| err("activity"))?;
                let battery = parts
                    .next()
                    .and_then(|s| s.parse::<u8>().ok())
                    .ok_or_else(|| err("battery"))?;
                let apps_field = parts.next().ok_or_else(|| err("running apps"))?;
                let running_apps: Vec<String> = if apps_field.is_empty() {
                    Vec::new()
                } else {
                    apps_field.split(',').map(str::to_string).collect()
                };
                let reason = parts.next().ok_or_else(|| err("reason"))?.to_string();
                Ok(LogRecord::Panic(PanicRecord {
                    at: SimTime::from_millis(at),
                    panic: Panic::new(code, raised_by, reason),
                    running_apps,
                    activity,
                    battery,
                }))
            }
            Some("B") => {
                let boot_at = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("boot timestamp"))?;
                let last_event = parts
                    .next()
                    .and_then(HeartbeatEvent::parse)
                    .ok_or_else(|| err("last event"))?;
                let last_event_at = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("last event timestamp"))?;
                let off_field = parts.next().ok_or_else(|| err("off duration"))?;
                let off_duration = match off_field {
                    "-" => None,
                    ms => Some(SimDuration::from_millis(
                        ms.parse::<u64>().map_err(|_| err("off duration"))?,
                    )),
                };
                let freeze = match parts.next() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err(err("freeze flag")),
                };
                Ok(LogRecord::Boot(BootRecord {
                    boot_at: SimTime::from_millis(boot_at),
                    last_event,
                    last_event_at: SimTime::from_millis(last_event_at),
                    off_duration,
                    freeze_detected: freeze,
                }))
            }
            _ => Err(RecordParseError {
                line: line.to_string(),
                what: "record tag".to_string(),
                defect: ParseDefect::UnknownTag,
            }),
        }
    }

    /// Appends the encoded line (checksum trailer included, no
    /// newline) to `out`. Byte-identical to [`Self::encode`] but
    /// allocation-free: the logger's write path reuses the flash
    /// file's own buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Panic(p) => {
                encode_panic_into(out, p.at, &p.panic, &p.running_apps, p.activity, p.battery)
            }
            LogRecord::Boot(b) => encode_boot_into(out, b),
        }
    }
}

/// Appends the `|cXXXX` checksum trailer over the payload written
/// since `start`.
fn finish_line(out: &mut Vec<u8>, start: usize) {
    let check = line_checksum_bytes(&out[start..]);
    out.extend_from_slice(b"|c");
    push_hex4(out, check);
}

/// Appends one encoded panic line (checksum trailer included, no
/// newline) to `out`, straight from the context fields — the Panic
/// Detector's write path, which never materializes a [`PanicRecord`].
pub fn encode_panic_into(
    out: &mut Vec<u8>,
    at: SimTime,
    panic: &Panic,
    running_apps: &[impl AsRef<str>],
    activity: Option<ActivityKind>,
    battery: u8,
) {
    debug_assert!(!panic.reason.contains('|'));
    let start = out.len();
    out.extend_from_slice(b"P|");
    push_u64(out, at.as_millis());
    out.push(b'|');
    out.extend_from_slice(panic.code.category.as_str().as_bytes());
    out.push(b'~');
    push_u64(out, u64::from(panic.code.panic_type));
    out.push(b'|');
    out.extend_from_slice(panic.raised_by.as_bytes());
    out.push(b'|');
    out.push(activity.map(activity_code).unwrap_or('-') as u8);
    out.push(b'|');
    push_u64(out, u64::from(battery));
    out.push(b'|');
    for (i, app) in running_apps.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(app.as_ref().as_bytes());
    }
    out.push(b'|');
    out.extend_from_slice(panic.reason.as_bytes());
    finish_line(out, start);
}

/// Appends one encoded boot line (checksum trailer included, no
/// newline) to `out`.
pub fn encode_boot_into(out: &mut Vec<u8>, b: &BootRecord) {
    let start = out.len();
    out.extend_from_slice(b"B|");
    push_u64(out, b.boot_at.as_millis());
    out.push(b'|');
    out.extend_from_slice(b.last_event.token().as_bytes());
    out.push(b'|');
    push_u64(out, b.last_event_at.as_millis());
    out.push(b'|');
    match b.off_duration {
        Some(d) => push_u64(out, d.as_millis()),
        None => out.push(b'-'),
    }
    out.push(b'|');
    out.push(b'0' + u8::from(b.freeze_detected));
    finish_line(out, start);
}

/// A zero-copy view of one decoded log line: every string field
/// borrows from the flash buffer. This is the hot-path twin of
/// [`LogRecord`]; the dataset build consumes it directly (interning
/// the string fields) so owned records are never allocated while
/// parsing a harvest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordRef<'a> {
    /// A panic with its context, fields borrowed from the line.
    Panic(PanicRef<'a>),
    /// A boot-time reconstruction record ([`BootRecord`] is already
    /// `Copy`; nothing to borrow).
    Boot(BootRecord),
}

/// The borrowed twin of [`PanicRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanicRef<'a> {
    /// When the panic was notified.
    pub at: SimTime,
    /// The panic code.
    pub code: PanicCode,
    /// The raising component, borrowed from the line.
    pub raised_by: &'a str,
    /// The reason text, borrowed from the line.
    pub reason: &'a str,
    /// The raw comma-separated running-apps field (empty string for no
    /// apps); iterate with [`Self::apps`].
    pub apps: &'a str,
    /// Phone activity at panic time, if any.
    pub activity: Option<ActivityKind>,
    /// Battery level at panic time.
    pub battery: u8,
}

impl<'a> PanicRef<'a> {
    /// Iterates the running-application names (empty field ⇒ empty
    /// iterator, matching the owned decode's semantics).
    pub fn apps(&self) -> impl Iterator<Item = &'a str> {
        let field = self.apps;
        (!field.is_empty())
            .then(|| field.split(','))
            .into_iter()
            .flatten()
    }

    /// Materializes the owned record (dataset-boundary escape hatch
    /// and oracle-comparison helper).
    pub fn to_record(&self) -> PanicRecord {
        PanicRecord {
            at: self.at,
            panic: Panic::new(self.code, self.raised_by, self.reason),
            running_apps: self.apps().map(str::to_string).collect(),
            activity: self.activity,
            battery: self.battery,
        }
    }
}

/// A malformed log line, classified — the allocation-free twin of
/// [`RecordParseError`] (no line copy, static field name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefParseError {
    /// Which field failed to parse.
    pub what: &'static str,
    /// Taxonomy classification of the defect.
    pub defect: ParseDefect,
}

impl fmt::Display for RefParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed {} ({})", self.what, self.defect)
    }
}

impl std::error::Error for RefParseError {}

/// Reconstructs a [`PanicCode`] from the payload's `cat~ty` halves
/// with the exact semantics of the owned path's
/// `PanicCode::parse(&format!("{cat} {ty}"))` — including the corner
/// where the category itself contains a space ("MSGS Client") — but
/// without building the combined string. `PanicCode::parse` splits the
/// combined string at its *last* space: that space lies inside `ty` if
/// `ty` contains one, and is the inserted separator otherwise.
fn parse_code_fields(cat: &str, ty: &str) -> Option<PanicCode> {
    match ty.rsplit_once(' ') {
        None => {
            let category = PanicCategory::parse(cat)?;
            let panic_type = ty.parse::<u16>().ok()?;
            Some(PanicCode::new(category, panic_type))
        }
        Some((head, tail)) => {
            // Combined category string would be "{cat} {head}".
            let category = PanicCategory::ALL.into_iter().find(|c| {
                let s = c.as_str().as_bytes();
                s.len() == cat.len() + 1 + head.len()
                    && &s[..cat.len()] == cat.as_bytes()
                    && s[cat.len()] == b' '
                    && &s[cat.len() + 1..] == head.as_bytes()
            })?;
            let panic_type = tail.parse::<u16>().ok()?;
            Some(PanicCode::new(category, panic_type))
        }
    }
}

impl<'a> RecordRef<'a> {
    /// Timestamp of the record.
    pub fn at(&self) -> SimTime {
        match self {
            RecordRef::Panic(p) => p.at,
            RecordRef::Boot(b) => b.boot_at,
        }
    }

    /// Materializes the owned [`LogRecord`].
    pub fn to_owned_record(&self) -> LogRecord {
        match self {
            RecordRef::Panic(p) => LogRecord::Panic(p.to_record()),
            RecordRef::Boot(b) => LogRecord::Boot(*b),
        }
    }

    /// Decodes a log-file line without allocating: checksum trailer
    /// first (compared numerically), then the payload, with every
    /// string field borrowed from `line`. Agrees with
    /// [`LogRecord::parse_owned`] on every input — accepted records
    /// match after [`Self::to_owned_record`], rejected lines carry the
    /// same [`ParseDefect`] class (property-tested).
    ///
    /// # Errors
    ///
    /// Returns a [`RefParseError`] carrying the defect classification.
    pub fn decode(line: &'a str) -> Result<RecordRef<'a>, RefParseError> {
        let err = |what: &'static str, defect: ParseDefect| RefParseError { what, defect };
        let Some((payload, trailer)) = line.rsplit_once('|') else {
            return Err(err("checksum trailer", ParseDefect::Truncated));
        };
        if !is_checksum_shaped(trailer) {
            return Err(err("checksum trailer", ParseDefect::Truncated));
        }
        if parse_hex4(&trailer[1..]) != Some(line_checksum(payload)) {
            return Err(err("checksum", ParseDefect::ChecksumMismatch));
        }
        let err = |what: &'static str| RefParseError {
            what,
            defect: ParseDefect::Truncated,
        };
        let mut parts = payload.splitn(8, '|');
        match parts.next() {
            Some("P") => {
                let at = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("timestamp"))?;
                let code_str = parts.next().ok_or_else(|| err("panic code"))?;
                let (cat, ty) = code_str.split_once('~').ok_or_else(|| err("panic code"))?;
                let code = parse_code_fields(cat, ty).ok_or_else(|| err("panic code"))?;
                let raised_by = parts.next().ok_or_else(|| err("raised_by"))?;
                let activity = parts
                    .next()
                    .and_then(activity_from_code)
                    .ok_or_else(|| err("activity"))?;
                let battery = parts
                    .next()
                    .and_then(|s| s.parse::<u8>().ok())
                    .ok_or_else(|| err("battery"))?;
                let apps = parts.next().ok_or_else(|| err("running apps"))?;
                let reason = parts.next().ok_or_else(|| err("reason"))?;
                Ok(RecordRef::Panic(PanicRef {
                    at: SimTime::from_millis(at),
                    code,
                    raised_by,
                    reason,
                    apps,
                    activity,
                    battery,
                }))
            }
            Some("B") => {
                let boot_at = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("boot timestamp"))?;
                let last_event = parts
                    .next()
                    .and_then(HeartbeatEvent::parse)
                    .ok_or_else(|| err("last event"))?;
                let last_event_at = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("last event timestamp"))?;
                let off_field = parts.next().ok_or_else(|| err("off duration"))?;
                let off_duration = match off_field {
                    "-" => None,
                    ms => Some(SimDuration::from_millis(
                        ms.parse::<u64>().map_err(|_| err("off duration"))?,
                    )),
                };
                let freeze = match parts.next() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err(err("freeze flag")),
                };
                Ok(RecordRef::Boot(BootRecord {
                    boot_at: SimTime::from_millis(boot_at),
                    last_event,
                    last_event_at: SimTime::from_millis(last_event_at),
                    off_duration,
                    freeze_detected: freeze,
                }))
            }
            _ => Err(RefParseError {
                what: "record tag",
                defect: ParseDefect::UnknownTag,
            }),
        }
    }
}

/// A malformed log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordParseError {
    /// The offending line.
    pub line: String,
    /// Which field failed to parse.
    pub what: String,
    /// Taxonomy classification of the defect.
    pub defect: ParseDefect,
}

impl fmt::Display for RecordParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed {} ({}) in log line {:?}",
            self.what, self.defect, self.line
        )
    }
}

impl std::error::Error for RecordParseError {}

/// Encodes a beats-file line. Beats stay checksum-free: they are
/// written every few minutes for the whole campaign and the compact
/// `{ms}|{TOKEN}` shape is already self-validating enough (a token is
/// either whole, a cut prefix, or unknown).
pub fn encode_beat(at: SimTime, event: HeartbeatEvent) -> String {
    format!("{}|{}", at.as_millis(), event.token())
}

/// What follows the timestamp on every `ALIVE` line of the beats file.
pub(crate) const ALIVE_TAIL: &[u8; 7] = b"|ALIVE\n";

/// Appends one encoded beats-file line (no newline) to `out` —
/// byte-identical to [`encode_beat`] without the per-beat `String`.
pub fn encode_beat_into(out: &mut Vec<u8>, at: SimTime, event: HeartbeatEvent) {
    push_u64(out, at.as_millis());
    out.push(b'|');
    out.extend_from_slice(event.token().as_bytes());
}

/// True when `token` is a proper prefix of some heartbeat token — the
/// signature a mid-record cut leaves on a beats line.
fn is_token_prefix(token: &[u8]) -> bool {
    HeartbeatEvent::ALL.iter().any(|e| {
        let t = e.token().as_bytes();
        t.len() > token.len() && t.starts_with(token)
    })
}

/// Parses a decimal `u64` field with exactly `str::parse::<u64>`'s
/// rules: an optional leading `+`, then one or more ASCII digits, and
/// no value above `u64::MAX`.
fn parse_u64_field(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// Decodes one beats-file line (without its newline).
///
/// # Errors
///
/// Returns the line's [`ParseDefect`] on malformed input. A missing
/// separator, an unparseable timestamp, or a token that is a proper
/// prefix of a valid token classify as [`ParseDefect::Truncated`];
/// any other unrecognized token is [`ParseDefect::UnknownTag`].
pub fn decode_beat(line: &[u8]) -> Result<(SimTime, HeartbeatEvent), ParseDefect> {
    let sep = line
        .iter()
        .position(|&b| b == b'|')
        .ok_or(ParseDefect::Truncated)?;
    let at = parse_u64_field(&line[..sep]).ok_or(ParseDefect::Truncated)?;
    let token = &line[sep + 1..];
    match HeartbeatEvent::from_token(token) {
        Some(event) => Ok((SimTime::from_millis(at), event)),
        None if is_token_prefix(token) => Err(ParseDefect::Truncated),
        None => Err(ParseDefect::UnknownTag),
    }
}

/// Decodes the beats line at the start of `buf` in place when it has
/// the shape the logger writes: 1–19 digits (never past `u64::MAX`),
/// `|`, a whole token, then `\n` or the end of the buffer. Returns the
/// beat and the bytes it spans, newline included; `None` for any other
/// line, which [`decode_beat`] then classifies after the caller cuts
/// it at its newline. Agrees with [`decode_beat`] on every line it
/// accepts.
pub(crate) fn decode_canonical_beat(buf: &[u8]) -> Option<(SimTime, HeartbeatEvent, usize)> {
    // Plain indexed loops: this runs once per beat, and unoptimized
    // test builds pay for every iterator adapter call.
    let mut ms = 0u64;
    let mut i = 0;
    while i < buf.len() && buf[i].is_ascii_digit() {
        if i == 19 {
            return None;
        }
        ms = ms * 10 + u64::from(buf[i] - b'0');
        i += 1;
    }
    if i == 0 || i == buf.len() || buf[i] != b'|' {
        return None;
    }
    let rest = &buf[i + 1..];
    for event in HeartbeatEvent::ALL {
        let token = event.token().as_bytes();
        if rest.starts_with(token) {
            let end = i + 1 + token.len();
            return match buf.get(end) {
                None => Some((SimTime::from_millis(ms), event, end)),
                Some(b'\n') => Some((SimTime::from_millis(ms), event, end + 1)),
                Some(_) => None,
            };
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use symfail_symbian::panic::codes;

    fn sample_panic() -> LogRecord {
        LogRecord::Panic(PanicRecord {
            at: SimTime::from_millis(123456),
            panic: Panic::new(codes::KERN_EXEC_3, "Camera", "dereferenced NULL"),
            running_apps: vec!["Camera".into(), "Log".into()],
            activity: Some(ActivityKind::VoiceCall),
            battery: 67,
        })
    }

    #[test]
    fn panic_record_round_trip() {
        let rec = sample_panic();
        let line = rec.encode();
        assert_eq!(LogRecord::decode(&line).unwrap(), rec);
        assert!(line.starts_with("P|123456|KERN-EXEC~3|Camera|V|67|Camera,Log|"));
    }

    #[test]
    fn panic_record_without_context() {
        let rec = LogRecord::Panic(PanicRecord {
            at: SimTime::ZERO,
            panic: Panic::new(codes::USER_11, "descriptor", "overflow"),
            running_apps: Vec::new(),
            activity: None,
            battery: 0,
        });
        let round = LogRecord::decode(&rec.encode()).unwrap();
        assert_eq!(round, rec);
        if let LogRecord::Panic(p) = round {
            assert!(p.running_apps.is_empty());
            assert!(p.activity.is_none());
        }
    }

    #[test]
    fn boot_record_round_trip() {
        for (off, freeze) in [(Some(SimDuration::from_secs(82)), false), (None, true)] {
            let rec = LogRecord::Boot(BootRecord {
                boot_at: SimTime::from_secs(1000),
                last_event: if freeze {
                    HeartbeatEvent::Alive
                } else {
                    HeartbeatEvent::Reboot
                },
                last_event_at: SimTime::from_secs(900),
                off_duration: off,
                freeze_detected: freeze,
            });
            assert_eq!(LogRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        for bad in [
            "",
            "X|1|2",
            "P|notanumber|KERN-EXEC~3|a|-|5||r",
            "P|1|KERN-EXEC-3|a|-|5||r",
            "P|1|KERN-EXEC~3|a|Q|5||r",
            "P|1|KERN-EXEC~3|a|-|300||r",
            "B|1|WHAT|2|-|0",
            "B|1|ALIVE|2|-|7",
            "B|1|ALIVE|2|xx|1",
        ] {
            assert!(LogRecord::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn encode_appends_checksum_trailer() {
        let line = sample_panic().encode();
        let (payload, trailer) = line.rsplit_once('|').unwrap();
        assert!(is_checksum_shaped(trailer), "trailer {trailer:?}");
        assert_eq!(trailer, format!("c{:04x}", line_checksum(payload)));
    }

    #[test]
    fn decode_classifies_truncation() {
        let line = sample_panic().encode();
        // Any cut that removes at least one byte destroys the cXXXX
        // trailer shape.
        for cut in 1..line.len() {
            let got = LogRecord::decode(&line[..line.len() - cut]).unwrap_err();
            assert_eq!(got.defect, ParseDefect::Truncated, "cut {cut}");
        }
    }

    #[test]
    fn decode_classifies_garbled_payload() {
        let line = sample_panic().encode();
        let mut bytes = line.clone().into_bytes();
        bytes[2] ^= 0x01; // flip one payload bit
        let garbled = String::from_utf8(bytes).unwrap();
        let got = LogRecord::decode(&garbled).unwrap_err();
        assert_eq!(got.defect, ParseDefect::ChecksumMismatch);
        // Same for a flip that lands inside the checksum trailer's hex.
        let swapped = line.replace(
            &line[line.len() - 4..],
            &line[line.len() - 4..]
                .chars()
                .map(|c| if c == '0' { '1' } else { '0' })
                .collect::<String>(),
        );
        assert!(LogRecord::decode(&swapped).is_err());
    }

    #[test]
    fn decode_classifies_unknown_tag() {
        let payload = "X|123|whatever";
        let line = format!("{payload}|c{:04x}", line_checksum(payload));
        let got = LogRecord::decode(&line).unwrap_err();
        assert_eq!(got.defect, ParseDefect::UnknownTag);
    }

    #[test]
    fn beat_decode_classifies_cut_vs_unknown() {
        let line = encode_beat(SimTime::from_secs(9), HeartbeatEvent::Reboot);
        for cut in 1..line.len() {
            let got = decode_beat(&line.as_bytes()[..line.len() - cut]).unwrap_err();
            assert_eq!(got, ParseDefect::Truncated, "cut {cut}");
        }
        assert_eq!(decode_beat(b"12|NOPE"), Err(ParseDefect::UnknownTag));
        assert_eq!(decode_beat(b"12|"), Err(ParseDefect::Truncated));
    }

    #[test]
    fn beat_timestamp_follows_str_parse_rules() {
        for field in [
            "",
            "+",
            "-",
            "+0",
            "-0",
            "++1",
            "007",
            "1 ",
            " 1",
            "18446744073709551615",
            "18446744073709551616",
            "+18446744073709551615",
            "000000000000000000000042",
            "99999999999999999999",
        ] {
            let line = format!("{field}|ALIVE");
            assert_eq!(
                decode_beat(line.as_bytes())
                    .ok()
                    .map(|(t, _)| t.as_millis()),
                field.parse::<u64>().ok(),
                "{field:?}"
            );
        }
    }

    #[test]
    fn canonical_beat_agrees_with_decode_beat() {
        for line in [
            "0|ALIVE",
            "42|REBOOT\n7|MAOFF",
            "1234567890123456789|LOWBT\n",
            "12345678901234567890|ALIVE",
            "+1|ALIVE",
            "|ALIVE",
            "1|ALIV",
            "1|ALIVEX",
            "1|ALIVE\r\n",
            "1|alive",
            "1|MAOFF|",
        ] {
            let buf = line.as_bytes();
            let Some((at, event, used)) = decode_canonical_beat(buf) else {
                continue;
            };
            let end = buf.iter().position(|&b| b == b'\n');
            assert_eq!(used, end.map_or(buf.len(), |i| i + 1), "{line:?}");
            let cut = &buf[..end.unwrap_or(buf.len())];
            assert_eq!(decode_beat(cut), Ok((at, event)), "{line:?}");
        }
        assert!(decode_canonical_beat(b"12345678901234567890|ALIVE").is_none());
        assert!(decode_canonical_beat(b"+1|ALIVE").is_none());
        assert!(decode_canonical_beat(b"1|ALIVE\r\n").is_none());
        assert_eq!(
            decode_canonical_beat(b"1234567890123456789|LOWBT"),
            Some((
                SimTime::from_millis(1_234_567_890_123_456_789),
                HeartbeatEvent::LowBattery,
                25
            ))
        );
    }

    #[test]
    fn at_accessor() {
        assert_eq!(sample_panic().at(), SimTime::from_millis(123456));
    }

    #[test]
    fn beat_codec_round_trip() {
        for ev in [
            HeartbeatEvent::Alive,
            HeartbeatEvent::Reboot,
            HeartbeatEvent::ManualOff,
            HeartbeatEvent::LowBattery,
        ] {
            let line = encode_beat(SimTime::from_secs(42), ev);
            let (t, e) = decode_beat(line.as_bytes()).unwrap();
            assert_eq!(t, SimTime::from_secs(42));
            assert_eq!(e, ev);
        }
        assert!(decode_beat(b"garbage").is_err());
        assert!(decode_beat(b"12|NOPE").is_err());
        assert!(decode_beat(b"x|ALIVE").is_err());
    }

    #[test]
    fn heartbeat_tokens_match_paper() {
        assert_eq!(HeartbeatEvent::Alive.token(), "ALIVE");
        assert_eq!(HeartbeatEvent::Reboot.token(), "REBOOT");
        assert_eq!(HeartbeatEvent::ManualOff.token(), "MAOFF");
        assert_eq!(HeartbeatEvent::LowBattery.token(), "LOWBT");
    }

    fn sample_boot() -> LogRecord {
        LogRecord::Boot(BootRecord {
            boot_at: SimTime::from_secs(1000),
            last_event: HeartbeatEvent::Reboot,
            last_event_at: SimTime::from_secs(900),
            off_duration: Some(SimDuration::from_secs(82)),
            freeze_detected: false,
        })
    }

    #[test]
    fn encode_into_matches_format_encoders() {
        for rec in [sample_panic(), sample_boot()] {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            assert_eq!(buf, rec.encode().into_bytes());
        }
        let mut buf = b"prefix".to_vec();
        sample_panic().encode_into(&mut buf);
        assert_eq!(
            &buf[6..],
            sample_panic().encode().as_bytes(),
            "appends after existing content, checksum unaffected"
        );
        let mut beat = Vec::new();
        encode_beat_into(&mut beat, SimTime::from_secs(42), HeartbeatEvent::ManualOff);
        assert_eq!(
            beat,
            encode_beat(SimTime::from_secs(42), HeartbeatEvent::ManualOff).into_bytes()
        );
    }

    #[test]
    fn push_u64_matches_display() {
        // Every digit-count boundary: 10^k - 1, 10^k and 10^k + 1 for
        // each power of ten a u64 holds, plus both ends of the range.
        let powers = (0..20).map(|k| 10u64.pow(k));
        let boundaries = powers.flat_map(|p| [p - 1, p, p + 1]);
        for v in boundaries.chain([u64::MAX - 1, u64::MAX]) {
            let mut buf = b"x".to_vec();
            push_u64(&mut buf, v);
            assert_eq!(buf[1..], *v.to_string().as_bytes(), "{v}");
        }
    }

    #[test]
    fn record_ref_round_trips_owned_records() {
        for rec in [sample_panic(), sample_boot()] {
            let line = rec.encode();
            let r = RecordRef::decode(&line).unwrap();
            assert_eq!(r.to_owned_record(), rec);
            assert_eq!(r.at(), rec.at());
        }
    }

    #[test]
    fn record_ref_borrows_and_splits_apps() {
        let line = sample_panic().encode();
        let RecordRef::Panic(p) = RecordRef::decode(&line).unwrap() else {
            panic!("expected panic record");
        };
        assert_eq!(p.raised_by, "Camera");
        assert_eq!(p.reason, "dereferenced NULL");
        assert_eq!(p.apps, "Camera,Log");
        assert_eq!(p.apps().collect::<Vec<_>>(), ["Camera", "Log"]);
        // Empty apps field ⇒ empty iterator, like the owned decode.
        let bare = LogRecord::Panic(PanicRecord {
            at: SimTime::ZERO,
            panic: Panic::new(codes::USER_11, "descriptor", "overflow"),
            running_apps: Vec::new(),
            activity: None,
            battery: 0,
        });
        let line = bare.encode();
        let RecordRef::Panic(p) = RecordRef::decode(&line).unwrap() else {
            panic!("expected panic record");
        };
        assert_eq!(p.apps().count(), 0);
    }

    #[test]
    fn record_ref_handles_spaced_category() {
        // "MSGS Client" contains a space; the owned path re-joins
        // cat~ty with a space and rsplits, so the zero-copy path must
        // reproduce that quirk exactly.
        let rec = LogRecord::Panic(PanicRecord {
            at: SimTime::from_millis(7),
            panic: Panic::new(
                PanicCode::new(PanicCategory::MsgsClient, 11),
                "Messaging",
                "bad session",
            ),
            running_apps: vec!["Messages".into()],
            activity: None,
            battery: 50,
        });
        let line = rec.encode();
        assert!(line.contains("MSGS Client~11"));
        assert_eq!(RecordRef::decode(&line).unwrap().to_owned_record(), rec);
        assert_eq!(LogRecord::parse_owned(&line).unwrap(), rec);
    }

    #[test]
    fn record_ref_classifies_like_owned_decode() {
        let line = sample_panic().encode();
        for cut in 1..line.len() {
            let short = &line[..line.len() - cut];
            let zc = RecordRef::decode(short).unwrap_err();
            let owned = LogRecord::parse_owned(short).unwrap_err();
            assert_eq!(zc.defect, owned.defect, "cut {cut}");
        }
        let mut bytes = line.clone().into_bytes();
        bytes[2] ^= 0x01;
        let garbled = String::from_utf8(bytes).unwrap();
        assert_eq!(
            RecordRef::decode(&garbled).unwrap_err().defect,
            ParseDefect::ChecksumMismatch
        );
        let payload = "X|123|whatever";
        let unknown = format!("{payload}|c{:04x}", line_checksum(payload));
        assert_eq!(
            RecordRef::decode(&unknown).unwrap_err().defect,
            ParseDefect::UnknownTag
        );
    }
}
