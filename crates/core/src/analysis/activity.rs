//! Panic–activity relationship (Table 3).
//!
//! For the panics that lead to a high-level event, the analysis
//! crosses the panic category with the user activity at panic time (as
//! recorded by the Log Engine from the Database Log Server — voice
//! calls and text messages are the only activities registered there).
//! The paper found ~45% of such panics occur during real-time
//! activities, evidencing interference between real-time and
//! interactive modules.

use serde::{Deserialize, Serialize};

use symfail_stats::ContingencyTable;

use super::checkpoint::{read_table, write_table, ByteReader, ByteWriter, CheckpointError};
use super::coalesce::CoalescedPanic;
use super::passes::{Additive, AnalysisPass, Grouped, PhoneLens};
use super::report::StudyReport;

/// Row label for panics with no registered activity.
pub const UNSPECIFIED: &str = "unspecified";

/// The Table 3 analysis result. `Default` is the zero-phone table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActivityAnalysis {
    table: ContingencyTable,
    total: usize,
    real_time: usize,
}

impl ActivityAnalysis {
    /// Builds the table from a coalesced-panic slice, considering only
    /// panics that led to an HL event (as the paper does for Table 3)
    /// — the per-phone fold of the `activity` pass.
    pub fn from_coalesced(panics: &[CoalescedPanic]) -> Self {
        let mut table = ContingencyTable::new();
        let mut total = 0;
        let mut real_time = 0;
        for p in panics {
            if p.related.is_none() {
                continue;
            }
            total += 1;
            let row = match p.panic.activity {
                Some(kind) => {
                    if kind.is_real_time() {
                        real_time += 1;
                    }
                    kind.as_str()
                }
                None => UNSPECIFIED,
            };
            table.add(row, p.panic.code.category.as_str());
        }
        Self {
            table,
            total,
            real_time,
        }
    }

    /// The activity × panic-category contingency table.
    pub fn table(&self) -> &ContingencyTable {
        &self.table
    }

    /// Number of HL-related panics considered.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fraction of HL-related panics recorded during real-time
    /// activities (voice call / message) — the paper's ~45%.
    pub fn real_time_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.real_time as f64 / self.total as f64
    }
}

/// Counts are additive and the table is order-insensitive, so
/// absorbing folds in any associative grouping yields the batch result.
impl Additive for ActivityAnalysis {
    fn absorb(&mut self, other: &Self) {
        self.table.merge(&other.table);
        self.total += other.total;
        self.real_time += other.real_time;
    }
}

/// Table 3: per-phone activity tables, additively merged, grouped by
/// device class.
pub(super) struct ActivityPass;

impl AnalysisPass for ActivityPass {
    type Acc = Grouped<ActivityAnalysis>;
    const NAME: &'static str = "activity";
    const NEEDS_COALESCE: bool = true;

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        Grouped::single(
            lens.device.device_class,
            ActivityAnalysis::from_coalesced(lens.coalesced.panics()),
        )
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.merge(other);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        (report.activity, report.activity_by_class) = acc.finish();
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        acc.snapshot(out, |out, a| {
            write_table(out, a.table());
            out.usize(a.total());
            out.usize(a.real_time);
        });
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        Grouped::restore(src, |src| {
            let table = read_table(src)?;
            let total = src.usize()?;
            let real_time = src.usize()?;
            Ok(ActivityAnalysis {
                table,
                total,
                real_time,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::coalesce::{coalesce_phone, COALESCENCE_WINDOW};
    use crate::analysis::dataset::{HlEvent, HlKind, PhoneDataset};
    use crate::records::{LogRecord, PanicRecord};
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::servers::logdb::ActivityKind;
    use symfail_symbian::{Panic, PanicCode};

    fn rec(secs: u64, code: PanicCode, act: Option<ActivityKind>) -> LogRecord {
        LogRecord::Panic(PanicRecord {
            at: SimTime::from_secs(secs),
            panic: Panic::new(code, "X", "r"),
            running_apps: Vec::new(),
            activity: act,
            battery: 50,
        })
    }

    /// The `activity` pass's fold of one phone whose panics coalesce
    /// against freezes at `hl_secs`.
    fn analysis(records: Vec<LogRecord>, hl_secs: &[u64]) -> ActivityAnalysis {
        let phone = PhoneDataset::new(0, records, Vec::new());
        let events: Vec<HlEvent> = hl_secs
            .iter()
            .map(|&s| HlEvent {
                phone_id: 0,
                at: SimTime::from_secs(s),
                kind: HlKind::Freeze,
            })
            .collect();
        let co = coalesce_phone(0, phone.panics(), &events, COALESCENCE_WINDOW);
        ActivityAnalysis::from_coalesced(co.panics())
    }

    #[test]
    fn only_hl_related_panics_counted() {
        let a = analysis(
            vec![
                rec(100, codes::KERN_EXEC_3, Some(ActivityKind::VoiceCall)),
                rec(90_000, codes::KERN_EXEC_3, Some(ActivityKind::VoiceCall)),
            ],
            &[110],
        );
        assert_eq!(a.total(), 1, "the far panic is not HL-related");
    }

    #[test]
    fn real_time_fraction() {
        let a = analysis(
            vec![
                rec(100, codes::KERN_EXEC_3, Some(ActivityKind::VoiceCall)),
                rec(102, codes::USER_11, Some(ActivityKind::Message)),
                rec(104, codes::E32USER_CBASE_69, None),
                rec(
                    106,
                    codes::E32USER_CBASE_33,
                    Some(ActivityKind::DataSession),
                ),
            ],
            &[105],
        );
        assert_eq!(a.total(), 4);
        assert!((a.real_time_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_rows_and_percents() {
        let a = analysis(
            vec![
                rec(100, codes::KERN_EXEC_3, Some(ActivityKind::VoiceCall)),
                rec(101, codes::KERN_EXEC_3, None),
                rec(102, codes::KERN_EXEC_3, None),
                rec(103, codes::VIEWSRV_11, Some(ActivityKind::VoiceCall)),
            ],
            &[102],
        );
        let t = a.table();
        assert_eq!(t.count("voice call", "KERN-EXEC"), 1);
        assert_eq!(t.count("voice call", "ViewSrv"), 1);
        assert_eq!(t.count(UNSPECIFIED, "KERN-EXEC"), 2);
    }

    #[test]
    fn empty_analysis() {
        let a = analysis(Vec::new(), &[]);
        assert_eq!(a.total(), 0);
        assert_eq!(a.real_time_fraction(), 0.0);
    }
}
