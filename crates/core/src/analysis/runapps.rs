//! Panic–running-applications relationship (Table 4, Figure 6).
//!
//! The Running Applications Detector lets the study relate each panic
//! to the set of applications alive at panic time. Two findings come
//! out of it: (i) often only **one** user application runs at panic
//! time — concurrency does not necessarily breed panics (Figure 6) —
//! and (ii) the Messages application is one of the main
//! panic-associated applications, with the camera, Bluetooth browsing
//! and the call log as further dependability bottlenecks (Table 4).

use serde::{Deserialize, Serialize};

use symfail_stats::{CategoricalDist, ContingencyTable};

use crate::intern::NameTable;

use super::checkpoint::{
    read_dist, read_table, write_dist, write_table, ByteReader, ByteWriter, CheckpointError,
};
use super::coalesce::CoalescedPanic;
use super::dataset::{HlKind, PanicEvent};
use super::passes::{Additive, AnalysisPass, Grouped, PhoneLens};
use super::report::StudyReport;

/// The Figure 6 / Table 4 analysis result. `Default` is the
/// zero-phone analysis.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningAppsAnalysis {
    concurrency: CategoricalDist,
    table: ContingencyTable,
    app_share: CategoricalDist,
    total_panics: usize,
}

impl RunningAppsAnalysis {
    /// Builds the concurrency distribution over *all* `panics` and the
    /// Table 4 contingency over the `coalesced` panics with their HL
    /// outcome — the per-phone fold of the `runapps` pass.
    ///
    /// A panic with k running applications contributes one count to
    /// concurrency bin k, and one count per application to the
    /// contingency table (matching the paper's per-application
    /// percentages). Application ids resolve against `names` *at fold
    /// time*, so per-phone folds carry strings and need no id
    /// remapping when merged across phones.
    pub fn from_events<'a>(
        names: &NameTable,
        panics: impl Iterator<Item = &'a PanicEvent>,
        coalesced: &[CoalescedPanic],
    ) -> Self {
        let mut concurrency = CategoricalDist::new();
        let mut total = 0;
        for p in panics {
            concurrency.add(p.apps.len().to_string());
            total += 1;
        }
        let mut table = ContingencyTable::new();
        let mut app_share = CategoricalDist::new();
        for p in coalesced {
            let row = match p.related {
                Some(HlKind::Freeze) => {
                    format!("{} freeze", p.panic.code.category.as_str())
                }
                Some(HlKind::SelfShutdown) => {
                    format!("{} self-shutdown", p.panic.code.category.as_str())
                }
                None => format!("{} (no HL event)", p.panic.code.category.as_str()),
            };
            for app in p.panic.apps.iter() {
                let app = names.resolve(app);
                table.add(row.clone(), app.to_string());
                app_share.add(app);
            }
        }
        Self {
            concurrency,
            table,
            app_share,
            total_panics: total,
        }
    }

    /// Figure 6: distribution of the number of running applications at
    /// panic time.
    pub fn concurrency(&self) -> &CategoricalDist {
        &self.concurrency
    }

    /// The modal number of running applications at panic time.
    pub fn modal_concurrency(&self) -> Option<usize> {
        self.concurrency
            .ranked()
            .first()
            .and_then(|(label, _)| label.parse().ok())
    }

    /// Table 4: `(HL outcome + panic category) × application`
    /// contingency.
    pub fn table(&self) -> &ContingencyTable {
        &self.table
    }

    /// Applications ranked by how often they were running at panic
    /// time (the columns ordering of Table 4).
    pub fn top_apps(&self, k: usize) -> Vec<(String, f64)> {
        let total = self.total_panics.max(1) as f64;
        self.app_share
            .top_k(k)
            .into_iter()
            .map(|(app, n)| (app.to_string(), 100.0 * n as f64 / total))
            .collect()
    }

    /// Total panics considered for the concurrency distribution.
    pub fn total_panics(&self) -> usize {
        self.total_panics
    }
}

/// All four components are additive string-keyed counters, so
/// absorbing folds in any associative grouping yields the batch result.
impl Additive for RunningAppsAnalysis {
    fn absorb(&mut self, other: &Self) {
        self.concurrency.merge(&other.concurrency);
        self.table.merge(&other.table);
        self.app_share.merge(&other.app_share);
        self.total_panics += other.total_panics;
    }
}

/// Table 4 / Figure 6: per-phone app tables with names resolved to
/// strings at fold time (no remapping needed at merge), grouped by
/// device class.
pub(super) struct RunningAppsPass;

impl AnalysisPass for RunningAppsPass {
    type Acc = Grouped<RunningAppsAnalysis>;
    const NAME: &'static str = "runapps";
    const NEEDS_COALESCE: bool = true;

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        Grouped::single(
            lens.device.device_class,
            RunningAppsAnalysis::from_events(
                lens.names,
                lens.phone.panics().iter(),
                lens.coalesced.panics(),
            ),
        )
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.merge(other);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        (report.runapps, report.runapps_by_class) = acc.finish();
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        acc.snapshot(out, |out, a| {
            write_dist(out, a.concurrency());
            write_table(out, a.table());
            write_dist(out, &a.app_share);
            out.usize(a.total_panics());
        });
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        Grouped::restore(src, |src| {
            let concurrency = read_dist(src)?;
            let table = read_table(src)?;
            let app_share = read_dist(src)?;
            let total_panics = src.usize()?;
            Ok(RunningAppsAnalysis {
                concurrency,
                table,
                app_share,
                total_panics,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::coalesce::{coalesce_phone, COALESCENCE_WINDOW};
    use crate::analysis::dataset::{HlEvent, PhoneDataset};
    use crate::records::{LogRecord, PanicRecord};
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::Panic;

    fn rec(secs: u64, apps: &[&str]) -> LogRecord {
        LogRecord::Panic(PanicRecord {
            at: SimTime::from_secs(secs),
            panic: Panic::new(codes::KERN_EXEC_3, "X", "r"),
            running_apps: apps.iter().map(|s| s.to_string()).collect(),
            activity: None,
            battery: 50,
        })
    }

    /// The `runapps` pass's fold of one phone whose panics coalesce
    /// against freezes at `hl_secs`.
    fn build(records: Vec<LogRecord>, hl_secs: &[u64]) -> RunningAppsAnalysis {
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
        RunningAppsAnalysis::from_events(phone.names(), phone.panics().iter(), co.panics())
    }

    #[test]
    fn concurrency_distribution() {
        let a = build(
            vec![
                rec(1, &["Messages"]),
                rec(100, &["Messages", "Camera"]),
                rec(200, &["Clock"]),
            ],
            &[],
        );
        assert_eq!(a.concurrency().count("1"), 2);
        assert_eq!(a.concurrency().count("2"), 1);
        assert_eq!(a.modal_concurrency(), Some(1));
        assert_eq!(a.total_panics(), 3);
    }

    #[test]
    fn table_rows_carry_hl_outcome() {
        let a = build(vec![rec(100, &["Messages", "Log"])], &[110]);
        let t = a.table();
        assert_eq!(t.count("KERN-EXEC freeze", "Messages"), 1);
        assert_eq!(t.count("KERN-EXEC freeze", "Log"), 1);
        assert_eq!(t.count("KERN-EXEC (no HL event)", "Messages"), 0);
    }

    #[test]
    fn isolated_panics_marked_no_hl() {
        let a = build(vec![rec(100, &["Camera"])], &[]);
        assert_eq!(a.table().count("KERN-EXEC (no HL event)", "Camera"), 1);
    }

    #[test]
    fn top_apps_percentages() {
        let a = build(
            vec![
                rec(1, &["Messages"]),
                rec(1000, &["Messages"]),
                rec(2000, &["Camera"]),
                rec(3000, &[]),
            ],
            &[],
        );
        let top = a.top_apps(2);
        assert_eq!(top[0].0, "Messages");
        assert!((top[0].1 - 50.0).abs() < 1e-12);
        assert!((top[1].1 - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset() {
        let a = build(Vec::new(), &[]);
        assert_eq!(a.total_panics(), 0);
        assert_eq!(a.modal_concurrency(), None);
        assert!(a.top_apps(5).is_empty());
    }
}
