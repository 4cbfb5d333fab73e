//! Parse-defect accounting for the lossy-tolerant parse path.
//!
//! The field study's logs arrived messy — truncated on battery pull,
//! interleaved across reboots, occasionally garbled — and the analysis
//! still had to produce its tables. The parser therefore never aborts:
//! every malformed line is classified into the [`ParseDefect`]
//! taxonomy and counted here, per phone and fleet-wide, and every
//! downstream analysis runs on the surviving records. A phone whose
//! flash yields *no* decodable record at all is flagged unusable and
//! excluded from powered-on-time (and hence MTBF) accounting rather
//! than aborting the dataset build.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::logger::LoggerFiles;
use crate::records::ParseDefect;

use super::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use super::passes::{AnalysisPass, PhoneLens};
use super::report::StudyReport;

/// Defect counters for one phone's flash files (or, aggregated, for
/// the whole fleet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhoneDefects {
    /// Lines cut mid-record (destroyed checksum trailer / partial
    /// heartbeat token / missing fields).
    pub truncated: u64,
    /// Whole lines whose payload fails checksum verification.
    pub checksum_mismatch: u64,
    /// Decodable records whose timestamp runs backwards (kept).
    pub out_of_order: u64,
    /// Exact repeats of already-seen lines (dropped).
    pub duplicate: u64,
    /// Whole lines with an unrecognized record tag or event token.
    pub unknown_tag: u64,
    /// Total lines inspected across the log and beats files.
    pub lines_seen: u64,
    /// Lines that decoded into a usable record or beat.
    pub records_kept: u64,
    /// The raw flash bytes were not valid UTF-8 (decoded lossily).
    pub invalid_utf8: bool,
    /// The flash had content but not a single record or beat decoded;
    /// the phone contributes nothing to the analyses.
    pub unusable: bool,
}

impl PhoneDefects {
    /// Bumps the counter for one classified defect.
    pub fn record(&mut self, defect: ParseDefect) {
        match defect {
            ParseDefect::Truncated => self.truncated += 1,
            ParseDefect::ChecksumMismatch => self.checksum_mismatch += 1,
            ParseDefect::OutOfOrder => self.out_of_order += 1,
            ParseDefect::Duplicate => self.duplicate += 1,
            ParseDefect::UnknownTag => self.unknown_tag += 1,
        }
    }

    /// The counter for one taxonomy kind.
    pub fn count(&self, defect: ParseDefect) -> u64 {
        match defect {
            ParseDefect::Truncated => self.truncated,
            ParseDefect::ChecksumMismatch => self.checksum_mismatch,
            ParseDefect::OutOfOrder => self.out_of_order,
            ParseDefect::Duplicate => self.duplicate,
            ParseDefect::UnknownTag => self.unknown_tag,
        }
    }

    /// Total classified defects across the taxonomy.
    pub fn total(&self) -> u64 {
        ParseDefect::ALL.iter().map(|&d| self.count(d)).sum()
    }

    /// True when the parse saw nothing wrong at all.
    pub fn is_clean(&self) -> bool {
        self.total() == 0 && !self.invalid_utf8 && !self.unusable
    }

    /// Folds another counter set (e.g. one phone) into this one.
    pub fn merge(&mut self, other: &PhoneDefects) {
        self.truncated += other.truncated;
        self.checksum_mismatch += other.checksum_mismatch;
        self.out_of_order += other.out_of_order;
        self.duplicate += other.duplicate;
        self.unknown_tag += other.unknown_tag;
        self.lines_seen += other.lines_seen;
        self.records_kept += other.records_kept;
        self.invalid_utf8 |= other.invalid_utf8;
    }
}

/// Fleet-wide defect accounting: the aggregate counters, the per-phone
/// breakdown, and the list of phones whose flash was unusable.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefectReport {
    /// Aggregate counters over every phone.
    pub fleet: PhoneDefects,
    /// `(phone_id, counters)` for every phone, in fleet order.
    pub per_phone: Vec<(u32, PhoneDefects)>,
    /// Phones excluded from MTBF denominators because nothing decoded.
    pub unusable_phones: Vec<u32>,
}

impl DefectReport {
    /// Builds the report from per-phone counters.
    pub fn from_phones<I>(phones: I) -> Self
    where
        I: IntoIterator<Item = (u32, PhoneDefects)>,
    {
        let mut report = DefectReport::default();
        for (id, d) in phones {
            report.fleet.merge(&d);
            if d.unusable {
                report.unusable_phones.push(id);
            }
            report.per_phone.push((id, d));
        }
        report
    }

    /// True when no phone had any defect.
    pub fn is_clean(&self) -> bool {
        self.fleet.is_clean() && self.unusable_phones.is_empty()
    }

    /// Renders the `defects` section of the study report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let f = &self.fleet;
        let _ = writeln!(out, "== Parse defects (graceful degradation) ==");
        let _ = writeln!(
            out,
            "lines seen {}  records kept {}  defects {}",
            f.lines_seen,
            f.records_kept,
            f.total()
        );
        if self.is_clean() {
            let _ = writeln!(out, "clean parse: no defects detected");
            return out;
        }
        for d in ParseDefect::ALL {
            let _ = writeln!(out, "  {:<18} {}", d.as_str(), f.count(d));
        }
        if f.invalid_utf8 {
            let _ = writeln!(out, "  invalid UTF-8 content decoded lossily");
        }
        let dirty: Vec<&(u32, PhoneDefects)> = self
            .per_phone
            .iter()
            .filter(|(_, d)| d.total() > 0 || d.unusable)
            .collect();
        let _ = writeln!(
            out,
            "phones with defects: {} / {}",
            dirty.len(),
            self.per_phone.len()
        );
        for (id, d) in dirty {
            let _ = writeln!(
                out,
                "  phone {:>3}: {} defect(s) over {} line(s){}",
                id,
                d.total(),
                d.lines_seen,
                if d.unusable { "  [UNUSABLE]" } else { "" }
            );
        }
        if !self.unusable_phones.is_empty() {
            let _ = writeln!(
                out,
                "unusable phones (excluded from MTBF denominators): {:?}",
                self.unusable_phones
            );
        }
        out
    }

    /// Serializes the report as JSON (hand-formatted; the vendored
    /// serde stub has no real serializer).
    pub fn to_json(&self) -> String {
        fn counters(d: &PhoneDefects) -> String {
            format!(
                "{{\"truncated\": {}, \"checksum_mismatch\": {}, \"out_of_order\": {}, \
                 \"duplicate\": {}, \"unknown_tag\": {}, \"lines_seen\": {}, \
                 \"records_kept\": {}, \"invalid_utf8\": {}, \"unusable\": {}}}",
                d.truncated,
                d.checksum_mismatch,
                d.out_of_order,
                d.duplicate,
                d.unknown_tag,
                d.lines_seen,
                d.records_kept,
                d.invalid_utf8,
                d.unusable,
            )
        }
        let mut out = String::from("{\n  \"schema\": \"symfail-defect-report/1\",\n");
        let _ = writeln!(out, "  \"fleet\": {},", counters(&self.fleet));
        let _ = writeln!(
            out,
            "  \"unusable_phones\": [{}],",
            self.unusable_phones
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  \"per_phone\": {\n");
        let body: Vec<String> = self
            .per_phone
            .iter()
            .map(|(id, d)| format!("    \"{}\": {}", id, counters(d)))
            .collect();
        out.push_str(&body.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Parse-defect accounting, concatenated in phone order.
pub(super) struct DefectsPass;

impl AnalysisPass for DefectsPass {
    type Acc = Vec<(u32, PhoneDefects)>;
    const NAME: &'static str = "defects";
    const READS: LoggerFiles = LoggerFiles::LogAndBeats;

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        vec![(lens.phone.phone_id(), *lens.phone.defects())]
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.extend(other);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.defects = DefectReport::from_phones(acc);
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        out.usize(acc.len());
        for (id, d) in acc {
            out.u32(*id);
            out.u64(d.truncated);
            out.u64(d.checksum_mismatch);
            out.u64(d.out_of_order);
            out.u64(d.duplicate);
            out.u64(d.unknown_tag);
            out.u64(d.lines_seen);
            out.u64(d.records_kept);
            out.bool(d.invalid_utf8);
            out.bool(d.unusable);
        }
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        let n = src.usize()?;
        let mut phones = Vec::new();
        for _ in 0..n {
            let id = src.u32()?;
            phones.push((
                id,
                PhoneDefects {
                    truncated: src.u64()?,
                    checksum_mismatch: src.u64()?,
                    out_of_order: src.u64()?,
                    duplicate: src.u64()?,
                    unknown_tag: src.u64()?,
                    lines_seen: src.u64()?,
                    records_kept: src.u64()?,
                    invalid_utf8: src.bool()?,
                    unusable: src.bool()?,
                },
            ));
        }
        Ok(phones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut d = PhoneDefects::default();
        assert!(d.is_clean());
        d.record(ParseDefect::Truncated);
        d.record(ParseDefect::Duplicate);
        d.record(ParseDefect::Duplicate);
        assert_eq!(d.count(ParseDefect::Duplicate), 2);
        assert_eq!(d.total(), 3);
        assert!(!d.is_clean());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PhoneDefects {
            truncated: 1,
            lines_seen: 10,
            records_kept: 9,
            ..PhoneDefects::default()
        };
        let b = PhoneDefects {
            checksum_mismatch: 2,
            lines_seen: 5,
            records_kept: 3,
            invalid_utf8: true,
            ..PhoneDefects::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.lines_seen, 15);
        assert_eq!(a.records_kept, 12);
        assert!(a.invalid_utf8);
    }

    #[test]
    fn report_aggregates_and_flags_unusable() {
        let clean = PhoneDefects {
            lines_seen: 4,
            records_kept: 4,
            ..PhoneDefects::default()
        };
        let dead = PhoneDefects {
            truncated: 4,
            lines_seen: 4,
            unusable: true,
            ..PhoneDefects::default()
        };
        let report = DefectReport::from_phones([(0, clean), (1, dead)]);
        assert_eq!(report.unusable_phones, vec![1]);
        assert_eq!(report.fleet.total(), 4);
        assert!(!report.is_clean());
        let text = report.render();
        assert!(text.contains("UNUSABLE"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"unusable_phones\": [1]"), "{json}");
        assert!(json.contains("\"truncated\": 4"), "{json}");
    }

    #[test]
    fn clean_report_renders_clean() {
        let report = DefectReport::from_phones([(
            3,
            PhoneDefects {
                lines_seen: 2,
                records_kept: 2,
                ..PhoneDefects::default()
            },
        )]);
        assert!(report.is_clean());
        assert!(report.render().contains("clean parse"));
    }
}
