//! Panic cascade detection (Figure 3).
//!
//! A panic is the last operation an application performs before the
//! kernel terminates it, so multiple panic events in short succession
//! indicate **error propagation inside the operating system**: the
//! observable consequence is the termination of multiple applications.
//! The paper found that in 25% of cases a cascade of more than one
//! panic event is recorded.
//!
//! The `bursts` pass groups each phone's panics with
//! [`phone_cascades`] and concatenates the cascades in phone order
//! into a [`BurstAnalysis`], which is both the Figure 3 section and
//! the pass's accumulator.

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimDuration;
use symfail_stats::CategoricalDist;

use super::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use super::dataset::PanicEvent;
use super::passes::{AnalysisPass, PhoneLens};
use super::report::StudyReport;

/// Default gap under which two subsequent panics on the same phone
/// belong to one cascade.
pub const DEFAULT_BURST_GAP: SimDuration = SimDuration::from_secs(60);

/// A detected cascade: indices are positions into the per-phone panic
/// list; sizes are what the Figure 3 distribution is built from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cascade {
    /// The phone the cascade occurred on.
    pub phone_id: u32,
    /// Number of panics in the cascade.
    pub size: usize,
}

/// The Figure 3 analysis result, and the `bursts` pass's accumulator:
/// per-phone cascades concatenated in phone order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BurstAnalysis {
    cascades: Vec<Cascade>,
    total_panics: usize,
}

/// Groups one phone's time-ordered panics into cascades: two
/// subsequent panics at most `gap` apart belong to one cascade. The
/// `bursts` pass's per-phone kernel.
pub fn phone_cascades(phone_id: u32, panics: &[PanicEvent], gap: SimDuration) -> Vec<Cascade> {
    let mut cascades = Vec::new();
    let mut size = 0usize;
    let mut last_at = None;
    for p in panics {
        match last_at {
            Some(prev) if p.at.saturating_since(prev) <= gap => size += 1,
            _ => {
                if size > 0 {
                    cascades.push(Cascade { phone_id, size });
                }
                size = 1;
            }
        }
        last_at = Some(p.at);
    }
    if size > 0 {
        cascades.push(Cascade { phone_id, size });
    }
    cascades
}

impl BurstAnalysis {
    /// The Figure 3 series: fraction of *panics* (not cascades) that
    /// belong to a cascade of each size. Label "1" holds the isolated
    /// panics.
    pub fn panic_share_by_cascade_size(&self) -> CategoricalDist {
        let mut d = CategoricalDist::new();
        for c in &self.cascades {
            d.add_n(c.size.to_string(), c.size as u64);
        }
        d
    }

    /// Fraction of panics occurring in cascades of two or more — the
    /// paper's 25% figure.
    pub fn cascaded_fraction(&self) -> f64 {
        if self.total_panics == 0 {
            return 0.0;
        }
        let in_bursts: usize = self
            .cascades
            .iter()
            .filter(|c| c.size >= 2)
            .map(|c| c.size)
            .sum();
        in_bursts as f64 / self.total_panics as f64
    }
}

/// Figure 3: per-phone cascades, concatenated in phone order.
pub(super) struct BurstsPass;

impl AnalysisPass for BurstsPass {
    type Acc = BurstAnalysis;
    const NAME: &'static str = "bursts";

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        BurstAnalysis {
            cascades: phone_cascades(
                lens.phone.phone_id(),
                lens.phone.panics(),
                lens.config.burst_gap,
            ),
            total_panics: lens.phone.panics().len(),
        }
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.cascades.extend(other.cascades);
        acc.total_panics += other.total_panics;
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.bursts = acc;
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        out.usize(acc.cascades.len());
        for c in &acc.cascades {
            out.u32(c.phone_id);
            out.usize(c.size);
        }
        out.usize(acc.total_panics);
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        let n = src.usize()?;
        let mut cascades = Vec::new();
        for _ in 0..n {
            cascades.push(Cascade {
                phone_id: src.u32()?,
                size: src.usize()?,
            });
        }
        Ok(BurstAnalysis {
            cascades,
            total_panics: src.usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::{FleetDataset, PhoneDataset};
    use crate::analysis::passes::PassRegistry;
    use crate::analysis::report::AnalysisConfig;
    use crate::records::{LogRecord, PanicRecord};
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::Panic;

    fn panic_at(secs: u64) -> LogRecord {
        LogRecord::Panic(PanicRecord {
            at: SimTime::from_secs(secs),
            panic: Panic::new(codes::KERN_EXEC_3, "X", "r"),
            running_apps: Vec::new(),
            activity: None,
            battery: 50,
        })
    }

    /// The `bursts` section of a fleet with one phone per entry of
    /// `times`, at the paper's 60 s gap.
    fn bursts(times: &[&[u64]]) -> BurstAnalysis {
        let fleet = FleetDataset::from_phones(
            times
                .iter()
                .enumerate()
                .map(|(i, ts)| {
                    PhoneDataset::new(
                        i as u32,
                        ts.iter().map(|&t| panic_at(t)).collect(),
                        Vec::new(),
                    )
                })
                .collect(),
        );
        let registry = PassRegistry::select("bursts").unwrap();
        StudyReport::analyze_with(&fleet, AnalysisConfig::default(), &registry).bursts
    }

    #[test]
    fn isolated_panics_form_singleton_cascades() {
        let b = bursts(&[&[10, 500, 1000]]);
        assert_eq!(b.cascades.len(), 3);
        assert!(b.cascades.iter().all(|c| c.size == 1));
        assert_eq!(b.cascaded_fraction(), 0.0);
    }

    #[test]
    fn close_panics_cascade() {
        // 10,20,30 form one cascade of 3; 500 isolated.
        let b = bursts(&[&[10, 20, 30, 500]]);
        let sizes: Vec<usize> = b.cascades.iter().map(|c| c.size).collect();
        assert_eq!(sizes, vec![3, 1]);
        assert_eq!(b.total_panics, 4);
        assert!((b.cascaded_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gap_boundary_inclusive() {
        let b = bursts(&[&[0, 60]]);
        assert_eq!(b.cascades.len(), 1);
        let b = bursts(&[&[0, 61]]);
        assert_eq!(b.cascades.len(), 2);
    }

    #[test]
    fn cascades_do_not_cross_phones() {
        let b = bursts(&[&[0], &[10]]);
        assert_eq!(b.cascades.len(), 2);
        assert_eq!(b.cascaded_fraction(), 0.0);
    }

    #[test]
    fn share_distribution_weights_by_panics() {
        let b = bursts(&[&[0, 10, 1000]]);
        let d = b.panic_share_by_cascade_size();
        assert_eq!(d.count("2"), 2, "two panics live in the size-2 cascade");
        assert_eq!(d.count("1"), 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn empty_dataset() {
        let b = bursts(&[]);
        assert_eq!(b.total_panics, 0);
        assert_eq!(b.cascaded_fraction(), 0.0);
    }
}
