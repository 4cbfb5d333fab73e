//! Reference implementations kept as oracles for the program's tests.
//!
//! - The flash log codec: the `format!` encoders and the owned-`String`
//!   decoder the program once shipped beside its zero-copy codec, and
//!   the str path that once read a phone's `log` and `beats` files. The
//!   program has one codec per format — the `encode_*_into` writers and
//!   `RecordRef::decode` / `decode_beat` — and one parse,
//!   `PhoneDataset::from_files`; the property and mutation tests check
//!   them against these on every line and file they generate.
//! - The reference campaign: every phone simulated alone with every
//!   file on fresh flash, parsed, and folded serially in phone-id order
//!   into one accumulator ([`reference`], [`fold_phones`]). The campaign
//!   driver's runs, threads, buffering, checkpoints and written-files
//!   rule must all reproduce it.
//! - The O(P×H) coalescence scan ([`coalesce_brute_force`],
//!   [`window_sweep_brute_force`]) the per-phone kernel and the gap
//!   index are checked against.

// Each test binary that includes this module uses part of it.
#![allow(dead_code)]

use std::collections::HashSet;

use symfail::core::analysis::coalesce::CoalescedPanic;
use symfail::core::analysis::dataset::{HlEvent, ParseScratch, PhoneDataset};
use symfail::core::analysis::defects::PhoneDefects;
use symfail::core::analysis::passes::{
    DeviceLabels, FoldShard, PassRegistry, PhoneLens, StreamMerger,
};
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::core::intern::NameTable;
use symfail::core::records::{
    encode_boot_into, encode_panic_into, line_checksum, BootRecord, HeartbeatEvent, LogRecord,
    PanicRecord, ParseDefect, RecordRef,
};
use symfail::phone::fleet::{FleetCampaign, PhoneHarvest};
use symfail::sim::{SimDuration, SimTime};
use symfail::symbian::panic::{Panic, PanicCode};
use symfail::symbian::servers::logdb::ActivityKind;

fn activity_code(kind: Option<ActivityKind>) -> char {
    match kind {
        Some(ActivityKind::VoiceCall) => 'V',
        Some(ActivityKind::Message) => 'M',
        Some(ActivityKind::DataSession) => 'D',
        None => '-',
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

/// Encodes the record as one log-file line, ending with a `|cXXXX`
/// checksum trailer over the payload.
pub fn encode(rec: &LogRecord) -> String {
    let payload = match rec {
        LogRecord::Panic(p) => format!(
            "P|{}|{}~{}|{}|{}|{}|{}|{}",
            p.at.as_millis(),
            p.panic.code.category.as_str(),
            p.panic.code.panic_type,
            p.panic.raised_by,
            activity_code(p.activity),
            p.battery,
            p.running_apps.join(","),
            p.panic.reason,
        ),
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

/// Appends `rec`'s line to `out` through the program's writers, which
/// take a record's fields rather than an owned record.
pub fn encode_into(rec: &LogRecord, out: &mut Vec<u8>) {
    match rec {
        LogRecord::Panic(p) => {
            encode_panic_into(out, p.at, &p.panic, &p.running_apps, p.activity, p.battery)
        }
        LogRecord::Boot(b) => encode_boot_into(out, b),
    }
}

/// Encodes a beats-file line.
pub fn encode_beat(at: SimTime, event: HeartbeatEvent) -> String {
    format!("{}|{}", at.as_millis(), event.token())
}

/// Decodes a log-file line: verifies the checksum trailer first, then
/// parses the payload, allocating per field. A refused line gives its
/// defect class.
pub fn parse_owned(line: &str) -> Result<LogRecord, ParseDefect> {
    let Some((payload, trailer)) = line.rsplit_once('|') else {
        return Err(ParseDefect::Truncated);
    };
    let shaped = trailer.len() == 5
        && trailer.starts_with('c')
        && trailer[1..]
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !shaped {
        // A clean cut anywhere in the line destroys the trailer shape,
        // so this is the truncation signature.
        return Err(ParseDefect::Truncated);
    }
    if trailer[1..] != format!("{:04x}", line_checksum(payload)) {
        return Err(ParseDefect::ChecksumMismatch);
    }
    // Every field error is a truncation; the field names document
    // where each check sits.
    let err = |_field: &str| ParseDefect::Truncated;
    let mut parts = payload.splitn(8, '|');
    match parts.next() {
        Some("P") => {
            let at = parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| err("timestamp"))?;
            let code_str = parts.next().ok_or_else(|| err("panic code"))?;
            let (cat, ty) = code_str.split_once('~').ok_or_else(|| err("panic code"))?;
            let code = PanicCode::parse(&format!("{cat} {ty}")).ok_or_else(|| err("panic code"))?;
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
            let off_duration = match parts.next().ok_or_else(|| err("off duration"))? {
                "-" => None,
                ms => Some(SimDuration::from_millis(
                    ms.parse::<u64>().map_err(|_| err("off duration"))?,
                )),
            };
            let freeze_detected = match parts.next() {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(err("freeze flag")),
            };
            Ok(LogRecord::Boot(BootRecord {
                boot_at: SimTime::from_millis(boot_at),
                last_event,
                last_event_at: SimTime::from_millis(last_event_at),
                off_duration,
                freeze_detected,
            }))
        }
        _ => Err(ParseDefect::UnknownTag),
    }
}

/// The owned record a zero-copy decode describes.
pub fn to_owned_record(r: &RecordRef<'_>) -> LogRecord {
    match r {
        RecordRef::Panic(p) => LogRecord::Panic(PanicRecord {
            at: p.at,
            panic: Panic::new(p.code, p.raised_by, p.reason),
            running_apps: p.apps().map(str::to_string).collect(),
            activity: p.activity,
            battery: p.battery,
        }),
        RecordRef::Boot(b) => LogRecord::Boot(*b),
    }
}

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

/// The replaced beats read over a flash holding only this beats file
/// ([`str_path_phone`] with an empty log).
pub fn str_path_beats(raw: &[u8]) -> (Vec<(SimTime, HeartbeatEvent)>, PhoneDefects) {
    str_path_phone(&[], raw)
}

/// The str path over a phone's `log` and `beats`, as the parse once
/// read them. The log: lossy text, `str::lines`, [`parse_owned`], and
/// an out-of-order count against a running maximum that a displaced
/// record does not advance. The beats: lossy text, `str::lines`, a
/// `&str` beat decoder and a lazily built set of every kept beat for
/// the duplicate check. Returns the beats in the dataset's order
/// (stably sorted by time) and the phone's defects.
pub fn str_path_phone(log: &[u8], raw: &[u8]) -> (Vec<(SimTime, HeartbeatEvent)>, PhoneDefects) {
    let mut defects = PhoneDefects::default();
    let text = String::from_utf8_lossy(log);
    defects.invalid_utf8 |= matches!(text, std::borrow::Cow::Owned(_));
    let mut last_ms: Option<u64> = None;
    for line in text.lines() {
        defects.lines_seen += 1;
        match parse_owned(line) {
            Ok(rec) => {
                let ms = rec.at().as_millis();
                if last_ms.is_some_and(|max| ms < max) {
                    defects.record(ParseDefect::OutOfOrder);
                } else {
                    last_ms = Some(ms);
                }
                defects.records_kept += 1;
            }
            Err(defect) => defects.record(defect),
        }
    }

    let text = String::from_utf8_lossy(raw);
    defects.invalid_utf8 |= matches!(text, std::borrow::Cow::Owned(_));
    let mut beats = Vec::new();
    let mut seen: Option<HashSet<(u64, HeartbeatEvent)>> = None;
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

/// Every phone of the campaign simulated alone, in id order, writing
/// every file on fresh flash.
pub fn harvest(campaign: &FleetCampaign) -> Vec<PhoneHarvest> {
    (0..campaign.params().phones)
        .map(|id| campaign.run_single(id))
        .collect()
}

/// Each harvested phone parsed on its own, from every file it wrote.
pub fn parse(harvest: &[PhoneHarvest]) -> Vec<PhoneDataset> {
    harvest
        .iter()
        .map(|h| {
            PhoneDataset::from_flashfs_with(h.phone_id, &h.flashfs, &mut ParseScratch::default())
        })
        .collect()
}

/// A finished reference fold: the report and the fleet name table its
/// coalesced panics resolve against.
pub struct Reference {
    pub report: StudyReport,
    pub names: NameTable,
}

/// Folds `phones` (consecutive ids, ascending) serially into one
/// [`FoldShard`], each under the device labels `labels` gives its id,
/// and finishes the shard through a [`StreamMerger`].
pub fn fold_phones(
    phones: &[PhoneDataset],
    config: AnalysisConfig,
    registry: &PassRegistry,
    labels: impl Fn(u32) -> DeviceLabels,
) -> Reference {
    let start = phones.first().map_or(0, PhoneDataset::phone_id);
    let mut shard = FoldShard::new(registry, start);
    for phone in phones {
        let lens = PhoneLens::with_device(
            phone,
            config,
            registry.needs_coalesce(),
            labels(phone.phone_id()),
        );
        shard.absorb_phone(registry, &lens);
    }
    let mut merger = StreamMerger::new_at(registry, config, start);
    merger.push_shard(shard);
    let names = merger.names().clone();
    Reference {
        report: merger.finish(),
        names,
    }
}

/// [`fold_phones`] under the homogeneous fleet's labels and every pass.
pub fn analyze(phones: &[PhoneDataset], config: AnalysisConfig) -> StudyReport {
    fold_phones(phones, config, &PassRegistry::all(), |_| {
        DeviceLabels::default()
    })
    .report
}

/// The reference campaign: [`harvest`], [`parse`], then
/// [`fold_phones`] under the campaign's device labels.
pub fn reference(
    campaign: &FleetCampaign,
    config: AnalysisConfig,
    registry: &PassRegistry,
) -> Reference {
    let phones = parse(&harvest(campaign));
    fold_phones(&phones, config, registry, |id| campaign.device_labels(id))
}

/// The outcome of [`coalesce_brute_force`]: what `CoalescenceAnalysis`
/// reports through `panics()`, `hl_total()` and `hl_with_panic()`.
#[derive(Debug, PartialEq)]
pub struct BruteCoalescence {
    pub panics: Vec<CoalescedPanic>,
    pub hl_total: usize,
    pub hl_with_panic: usize,
}

impl BruteCoalescence {
    /// Fraction of panics related to an HL event.
    pub fn related_fraction(&self) -> f64 {
        if self.panics.is_empty() {
            return 0.0;
        }
        let related = self.panics.iter().filter(|p| p.related.is_some()).count();
        related as f64 / self.panics.len() as f64
    }
}

/// The O(P×H) coalescence scan: every panic of `phones`, in phone
/// order, against every HL event of its phone; the nearest within
/// `window` wins, the first in `hl_events` order on a tie.
pub fn coalesce_brute_force(
    phones: &[PhoneDataset],
    hl_events: &[HlEvent],
    window: SimDuration,
) -> BruteCoalescence {
    let gap = |a: SimTime, b: SimTime| a.saturating_since(b).max(b.saturating_since(a));
    let mut panics = Vec::new();
    for phone in phones {
        let phone_id = phone.phone_id();
        for rec in phone.panics() {
            let related = hl_events
                .iter()
                .filter(|e| e.phone_id == phone_id)
                .map(|e| (gap(e.at, rec.at), e.kind))
                .filter(|&(g, _)| g <= window)
                .min_by_key(|&(g, _)| g)
                .map(|(_, kind)| kind);
            panics.push(CoalescedPanic {
                phone_id,
                panic: rec.clone(),
                related,
            });
        }
    }
    let hl_with_panic = hl_events
        .iter()
        .filter(|e| {
            panics
                .iter()
                .any(|p| p.phone_id == e.phone_id && gap(e.at, p.panic.at) <= window)
        })
        .count();
    BruteCoalescence {
        panics,
        hl_total: hl_events.len(),
        hl_with_panic,
    }
}

/// [`coalesce_brute_force`]'s related fraction at each window.
pub fn window_sweep_brute_force(
    phones: &[PhoneDataset],
    hl_events: &[HlEvent],
    windows_secs: &[u64],
) -> Vec<(u64, f64)> {
    windows_secs
        .iter()
        .map(|&w| {
            let a = coalesce_brute_force(phones, hl_events, SimDuration::from_secs(w));
            (w, a.related_fraction())
        })
        .collect()
}
