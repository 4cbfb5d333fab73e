//! Fault signatures: the reproduction-oriented identity of a panic.
//!
//! A fleet report tells you *that* a failure class occurred; a
//! [`FailureSignature`] captures enough context to hunt for another
//! instance of the same class in a different campaign — the panic
//! code, the component that raised it, the user activity at panic
//! time, the running-application set, the coalesced high-level
//! outcome, and the device class + firmware line of the phone it hit.
//!
//! Two properties make signatures portable across campaigns:
//!
//! * **Interner independence.** Every interned id is resolved to its
//!   string at extraction time and the app set is sorted and deduped,
//!   so the signature is invariant under any [`NameTable`] remap —
//!   a signature extracted from a shard before the fleet merge equals
//!   the one extracted from the merged fleet.
//! * **Phone independence.** No phone id is stored; matching a
//!   signature against a phone only reads the phone's own log, so the
//!   same panic observed as phone 0 or phone 912 yields the same
//!   signature.
//!
//! Matching comes in two strictness levels ([`MatchMode`]): the
//! *core* identity (code + raiser + activity + device line) that the
//! minimizer hunts for, and the *strict* identity that additionally
//! pins the full app set and the coalesced high-level outcome — the
//! form the remap-invariance proptests exercise.

use std::fmt;

use super::coalesce::CoalescedPanic;
use super::dataset::{log_text, HlKind, PanicEvent, PhoneDataset};
use super::passes::{DeviceLabels, PhoneLens};
use super::report::AnalysisConfig;
use crate::intern::NameTable;
use crate::json::{self, Value};
use crate::logger::LoggerFiles;
use crate::records::RecordRef;
use symfail_symbian::servers::logdb::ActivityKind;
use symfail_symbian::PanicCode;

/// How strictly [`FailureSignature::matches`] compares two signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Panic code, raising component, activity at panic time, device
    /// class and firmware. The minimizer's target: everything the
    /// fault-injection machinery can deterministically steer.
    #[default]
    Core,
    /// [`MatchMode::Core`] plus the exact running-application set and
    /// the coalesced high-level outcome.
    Strict,
}

impl MatchMode {
    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            MatchMode::Core => "core",
            MatchMode::Strict => "strict",
        }
    }

    /// Parses a mode name as given on the command line.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "core" => Some(MatchMode::Core),
            "strict" => Some(MatchMode::Strict),
            _ => None,
        }
    }
}

/// The reproduction-oriented identity of one observed panic.
///
/// All fields are resolved strings — see the module docs for why.
/// The panic `reason` text is deliberately excluded: it carries
/// per-execution detail (addresses, indices) that no reproduction is
/// expected to replay.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailureSignature {
    /// The panic code, rendered as in the paper (`"KERN-EXEC 3"`).
    pub code: String,
    /// The component that raised the panic.
    pub raised_by: String,
    /// Running applications at panic time, sorted and deduped.
    pub apps: Vec<String>,
    /// Activity at panic time (`ActivityKind::as_str`), if any.
    pub activity: Option<String>,
    /// Coalesced high-level outcome (`HlKind::as_str`), if any.
    pub related: Option<String>,
    /// Device class of the phone that hit it (`DeviceClass::as_str`).
    pub device_class: String,
    /// Firmware line of the phone (`SymbianVersion::as_str`).
    pub firmware: String,
}

impl FailureSignature {
    /// The flash files a signature is a function of: the log alone.
    pub const READS: LoggerFiles = LoggerFiles::LogOnly;

    /// Extracts the signature of one panic, resolving every interned
    /// id against `names` (the table the event's ids are valid in).
    pub fn from_panic(
        panic: &PanicEvent,
        related: Option<HlKind>,
        names: &NameTable,
        device: DeviceLabels,
    ) -> Self {
        let mut apps: Vec<String> = panic
            .apps
            .iter()
            .map(|id| names.resolve(id).to_string())
            .collect();
        apps.sort();
        apps.dedup();
        Self {
            code: panic.code.to_string(),
            raised_by: names.resolve(panic.raised_by).to_string(),
            apps,
            activity: panic.activity.map(|a| a.as_str().to_string()),
            related: related.map(|k| k.as_str().to_string()),
            device_class: device.device_class.to_string(),
            firmware: device.firmware.to_string(),
        }
    }

    /// [`Self::from_panic`] for a coalesced panic (report or
    /// checkpoint extraction path).
    pub fn from_coalesced(cp: &CoalescedPanic, names: &NameTable, device: DeviceLabels) -> Self {
        Self::from_panic(&cp.panic, cp.related, names, device)
    }

    /// Every signature in one phone's dataset, in panic order: the
    /// phone's [`PhoneLens`] coalescence fold (freezes + filtered
    /// self-shutdowns), the one the analysis passes consume, then one
    /// signature per panic.
    pub fn from_phone(
        phone: &PhoneDataset,
        config: &AnalysisConfig,
        device: DeviceLabels,
    ) -> Vec<Self> {
        PhoneLens::new(phone, *config, true)
            .coalesced
            .panics()
            .iter()
            .map(|cp| Self::from_coalesced(cp, phone.names(), device))
            .collect()
    }

    /// The parsed panic code (`None` for a hand-edited signature whose
    /// code string does not parse).
    pub fn panic_code(&self) -> Option<PanicCode> {
        PanicCode::parse(&self.code)
    }

    /// Whether `other` is the same failure class under `mode`.
    pub fn matches(&self, other: &FailureSignature, mode: MatchMode) -> bool {
        let core = self.code == other.code
            && self.raised_by == other.raised_by
            && self.activity == other.activity
            && self.device_class == other.device_class
            && self.firmware == other.firmware;
        match mode {
            MatchMode::Core => core,
            MatchMode::Strict => core && self.apps == other.apps && self.related == other.related,
        }
    }

    /// Whether the consolidated log `log` (a harvest's `log` file, or a
    /// prefix of it) holds a panic matching this signature under
    /// `mode`: the verdict of [`Self::matches`] against every signature
    /// [`Self::from_phone`] extracts from [`PhoneDataset::from_log`] of
    /// the same bytes, without parsing the whole log.
    ///
    /// The log is read as that parse reads it: as UTF-8, decoded lossily
    /// only when it is not, and split with `str::lines`. `Core`
    /// decodes, checksum included, only the lines that contain
    /// `|<raiser>|`, and stops at the first panic whose code, raiser
    /// and activity match; a decoded panic's raiser is a `|`-delimited
    /// field of its own line, so no match is skipped, and coalescence
    /// never changes a core field. `Strict` runs the same scan, and
    /// only on a hit parses the log and runs the per-phone coalescence
    /// fold the passes run, so the `related` outcome is judged exactly
    /// as the study judges it; it builds a full signature only for the
    /// panics whose core fields match.
    pub fn matches_log(
        &self,
        log: &[u8],
        config: &AnalysisConfig,
        device: DeviceLabels,
        mode: MatchMode,
    ) -> bool {
        if self.device_class != device.device_class || self.firmware != device.firmware {
            return false;
        }
        // A code string no panic renders as (a hand-edited `KERN-EXEC 03`)
        // matches nothing.
        let Some(code) = self.panic_code().filter(|c| renders_as(c, &self.code)) else {
            return false;
        };
        let core = |c: PanicCode, raised_by: &str, activity: Option<ActivityKind>| {
            c == code
                && raised_by == self.raised_by
                && activity.map(|a| a.as_str()) == self.activity.as_deref()
        };
        let field = format!("|{}|", self.raised_by);
        let text = log_text(log);
        let hit = text
            .lines()
            .filter(|line| line.contains(&field))
            .any(|line| {
                matches!(RecordRef::decode(line),
                    Ok(RecordRef::Panic(p)) if core(p.code, p.raised_by, p.activity))
            });
        if !hit || mode == MatchMode::Core {
            return hit;
        }
        let phone = PhoneDataset::from_log(0, log);
        let names = phone.names();
        PhoneLens::new(&phone, *config, true)
            .coalesced
            .panics()
            .iter()
            .filter(|cp| {
                let p = &cp.panic;
                core(p.code, names.resolve(p.raised_by), p.activity)
            })
            .any(|cp| self.matches(&Self::from_coalesced(cp, names, device), mode))
    }

    /// A stable dedup key covering the full (strict) identity.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}",
            self.code,
            self.raised_by,
            self.apps.join(","),
            self.activity.as_deref().unwrap_or("-"),
            self.related.as_deref().unwrap_or("-"),
            self.device_class,
            self.firmware
        )
    }

    /// Serializes the signature as a single JSON object with a fixed
    /// field order (no serializer dependency; deterministic bytes).
    pub fn to_json(&self) -> String {
        let apps: Vec<String> = self.apps.iter().map(|a| json_string(a)).collect();
        format!(
            "{{\"code\": {}, \"raised_by\": {}, \"apps\": [{}], \
             \"activity\": {}, \"related\": {}, \"device_class\": {}, \
             \"firmware\": {}}}",
            json_string(&self.code),
            json_string(&self.raised_by),
            apps.join(", "),
            json_opt(self.activity.as_deref()),
            json_opt(self.related.as_deref()),
            json_string(&self.device_class),
            json_string(&self.firmware),
        )
    }

    /// Reads one signature object as [`Self::to_json`] writes it.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text).map_err(|e| format!("signature: {e}"))?)
    }

    /// The signature a parsed [`Self::to_json`] object holds.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let err = |e| format!("signature: {e}");
        let text = |key| {
            v.field(key, "a string", Value::as_str)
                .map(str::to_string)
                .map_err(err)
        };
        let opt = |key| {
            v.field(key, "a string or null", |f| match f {
                Value::Null => Some(None),
                f => f.as_str().map(|s| Some(s.to_string())),
            })
            .map_err(err)
        };
        Ok(Self {
            code: text("code")?,
            raised_by: text("raised_by")?,
            apps: v
                .field("apps", "an array of strings", |f| {
                    f.as_array()?
                        .iter()
                        .map(|a| a.as_str().map(str::to_string))
                        .collect()
                })
                .map_err(err)?,
            activity: opt("activity")?,
            related: opt("related")?,
            device_class: text("device_class")?,
            firmware: text("firmware")?,
        })
    }
}

/// Extracts the distinct signatures of a coalesced-panic stream (the
/// report or checkpoint extraction path), resolving against the fleet
/// `names` table and labelling each panic with its phone's device
/// assignment. Returns `(signature, occurrence count)` pairs sorted
/// by key — a deterministic catalog for `--signature-json` files.
pub fn distinct_signatures(
    panics: &[CoalescedPanic],
    names: &NameTable,
    labels: impl Fn(u32) -> DeviceLabels,
) -> Vec<(FailureSignature, u64)> {
    let mut out: Vec<(FailureSignature, u64)> = Vec::new();
    for cp in panics {
        let sig = FailureSignature::from_coalesced(cp, names, labels(cp.phone_id));
        match out.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, n)) => *n += 1,
            None => out.push((sig, 1)),
        }
    }
    out.sort_by_key(|(s, _)| s.key());
    out
}

/// Renders a signature catalog as a JSON array (fixed order).
pub fn signatures_to_json(sigs: &[(FailureSignature, u64)]) -> String {
    let rows: Vec<String> = sigs
        .iter()
        .map(|(s, n)| format!("    {{\"count\": {}, \"signature\": {}}}", n, s.to_json()))
        .collect();
    format!(
        "{{\n  \"schema\": \"symfail-signatures/1\",\n  \"signatures\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Reads a catalog as [`signatures_to_json`] writes it: its signatures,
/// in file order (none for an empty catalog).
pub fn signatures_from_json(text: &str) -> Result<Vec<FailureSignature>, String> {
    let catalog = json::parse(text).map_err(|e| e.to_string())?;
    catalog
        .field("signatures", "an array", Value::as_array)?
        .iter()
        .map(|row| {
            row.field("count", "an unsigned integer", Value::as_u64)?;
            FailureSignature::from_json(row.field("signature", "an object", Value::as_object)?)
        })
        .collect()
}

/// Whether `value` renders exactly as `text` — `value.to_string() ==
/// text`, compared as the text is written instead of built.
fn renders_as(value: &impl fmt::Display, text: &str) -> bool {
    struct Rest<'t>(&'t str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(text);
    fmt::write(&mut rest, format_args!("{value}")).is_ok() && rest.0.is_empty()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt(v: Option<&str>) -> String {
    match v {
        Some(s) => json_string(s),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::NameIds;
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::PanicCategory;

    fn sample_panic(names: &mut NameTable) -> PanicEvent {
        let mut apps = NameIds::new();
        apps.push(names.intern("Camera"));
        apps.push(names.intern("Telephone"));
        PanicEvent {
            at: SimTime::from_millis(1000),
            code: codes::KERN_EXEC_3,
            raised_by: names.intern("Telephone"),
            reason: names.intern("dereferenced null"),
            apps,
            activity: Some(ActivityKind::VoiceCall),
            battery: 80,
        }
    }

    #[test]
    fn json_round_trips() {
        let mut names = NameTable::default();
        let p = sample_panic(&mut names);
        let sig =
            FailureSignature::from_panic(&p, Some(HlKind::Freeze), &names, DeviceLabels::default());
        let parsed = FailureSignature::parse_json(&sig.to_json()).unwrap();
        assert_eq!(parsed, sig);
        // Awkward strings survive the trip too.
        let ugly = FailureSignature {
            raised_by: "a\"b\\c\nd".to_string(),
            activity: None,
            ..sig
        };
        assert_eq!(FailureSignature::parse_json(&ugly.to_json()).unwrap(), ugly);
    }

    #[test]
    fn signature_is_interner_order_independent() {
        let mut a = NameTable::default();
        let pa = sample_panic(&mut a);
        // Same panic, different interning order → different ids.
        let mut b = NameTable::default();
        b.intern("zzz-pad");
        b.intern("another");
        let pb = sample_panic(&mut b);
        assert_ne!(pa.raised_by, pb.raised_by);
        let labels = DeviceLabels::default();
        assert_eq!(
            FailureSignature::from_panic(&pa, None, &a, labels),
            FailureSignature::from_panic(&pb, None, &b, labels)
        );
    }

    #[test]
    fn match_modes_differ_on_apps_and_related() {
        let mut names = NameTable::default();
        let p = sample_panic(&mut names);
        let labels = DeviceLabels::default();
        let a = FailureSignature::from_panic(&p, Some(HlKind::Freeze), &names, labels);
        let mut b = a.clone();
        b.apps.pop();
        b.related = None;
        assert!(a.matches(&b, MatchMode::Core));
        assert!(!a.matches(&b, MatchMode::Strict));
        let mut c = a.clone();
        c.code = codes::USER_11.to_string();
        assert!(!a.matches(&c, MatchMode::Core));
    }

    #[test]
    fn catalog_round_trips_and_dedups() {
        let mut names = NameTable::default();
        let p = sample_panic(&mut names);
        let cps = vec![
            CoalescedPanic {
                phone_id: 3,
                panic: p.clone(),
                related: None,
            },
            CoalescedPanic {
                phone_id: 9,
                panic: p,
                related: None,
            },
        ];
        let sigs = distinct_signatures(&cps, &names, |_| DeviceLabels::default());
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].1, 2);
        let json = signatures_to_json(&sigs);
        let parsed = signatures_from_json(&json).unwrap();
        assert_eq!(parsed, vec![sigs[0].0.clone()]);
    }

    #[test]
    fn panic_code_parses_back() {
        let mut names = NameTable::default();
        let p = sample_panic(&mut names);
        let sig = FailureSignature::from_panic(&p, None, &names, DeviceLabels::default());
        assert_eq!(
            sig.panic_code(),
            Some(PanicCode::new(PanicCategory::KernExec, 3))
        );
    }
}
