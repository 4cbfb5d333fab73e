//! Analysis of user-reported output failures — quantifying the
//! unreliability the paper warned about.
//!
//! With the [`crate::logger::UserReportChannel`] extension deployed,
//! the harvested `ureport` files contain whatever the users bothered
//! to file. This analysis summarizes the reports and — when the
//! campaign's ground truth is available (only in simulation!) —
//! measures the coverage and latency of user reporting, i.e. exactly
//! why the paper's authors deemed the approach "too unreliable for a
//! more detailed analysis".

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimTime;
use symfail_stats::CategoricalDist;

use crate::logger::UserReportKind;

/// Summary of the user reports harvested from a fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutputFailureAnalysis {
    reports: Vec<(u32, SimTime, UserReportKind)>,
    by_kind: CategoricalDist,
}

impl OutputFailureAnalysis {
    /// Builds the summary from each phone's parsed reports
    /// ([`UserReportChannel::parse`](crate::logger::UserReportChannel::parse)),
    /// which the streaming pipeline keeps per phone while dropping the
    /// flash itself.
    pub fn from_reports<'a, I>(per_phone: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a [(SimTime, UserReportKind)])>,
    {
        let mut reports = Vec::new();
        let mut by_kind = CategoricalDist::new();
        for (phone_id, parsed) in per_phone {
            for &(at, kind) in parsed {
                by_kind.add(kind.token());
                reports.push((phone_id, at, kind));
            }
        }
        reports.sort_by_key(|(p, t, _)| (*p, *t));
        Self { reports, by_kind }
    }

    /// Number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when no reports were filed.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Reports of a specific kind.
    pub fn count_of(&self, kind: UserReportKind) -> u64 {
        self.by_kind.count(kind.token())
    }

    /// Coverage against a ground-truth count of experienced failures
    /// (available only in simulation): the fraction the users actually
    /// reported.
    pub fn coverage_against(&self, ground_truth: u64) -> Option<f64> {
        (ground_truth > 0).then(|| self.len() as f64 / ground_truth as f64)
    }

    /// Renders the summary.
    pub fn render(&self, ground_truth: Option<u64>) -> String {
        let mut out = format!(
            "user-reported failures (future-work extension): {} reports\n",
            self.len()
        );
        for (kind, label) in [
            (UserReportKind::OutputFailure, "output failures"),
            (UserReportKind::InputFailure, "input failures"),
            (UserReportKind::UnstableBehavior, "unstable behavior"),
        ] {
            out.push_str(&format!("  {label:<18} {}\n", self.count_of(kind)));
        }
        if let Some(truth) = ground_truth {
            let coverage = self.coverage_against(truth).unwrap_or(0.0);
            out.push_str(&format!(
                "  ground truth (simulation only): {truth} experienced -> coverage {:.0}% \
                 — users are as unreliable as the paper predicted\n",
                100.0 * coverage
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flashfs::FlashFs;
    use crate::logger::UserReportChannel;

    /// The summary of phones `0..` with these flash filesystems, as
    /// the campaign driver builds it from their parsed reports.
    fn from_flash(filesystems: &[&FlashFs]) -> OutputFailureAnalysis {
        let parsed: Vec<_> = filesystems
            .iter()
            .map(|fs| UserReportChannel::parse(fs))
            .collect();
        OutputFailureAnalysis::from_reports(
            parsed
                .iter()
                .enumerate()
                .map(|(id, r)| (id as u32, r.as_slice())),
        )
    }

    fn fs_with(reports: &[(u64, UserReportKind)]) -> FlashFs {
        let mut fs = FlashFs::new();
        let mut ch = UserReportChannel::new();
        for &(secs, kind) in reports {
            ch.on_user_report(&mut fs, SimTime::from_secs(secs), kind);
        }
        fs
    }

    #[test]
    fn aggregates_across_phones() {
        let a = fs_with(&[(10, UserReportKind::OutputFailure)]);
        let b = fs_with(&[
            (5, UserReportKind::OutputFailure),
            (8, UserReportKind::InputFailure),
        ]);
        let analysis = from_flash(&[&a, &b]);
        assert_eq!(analysis.len(), 3);
        assert_eq!(analysis.count_of(UserReportKind::OutputFailure), 2);
        assert_eq!(analysis.count_of(UserReportKind::InputFailure), 1);
        assert_eq!(analysis.count_of(UserReportKind::UnstableBehavior), 0);
        assert!(!analysis.is_empty());
        // Sorted per phone, then time.
        assert_eq!(analysis.reports[0].0, 0);
        assert_eq!(
            analysis.reports[1],
            (1, SimTime::from_secs(5), UserReportKind::OutputFailure)
        );
    }

    #[test]
    fn coverage() {
        let a = fs_with(&[(10, UserReportKind::OutputFailure)]);
        let analysis = from_flash(&[&a]);
        assert_eq!(analysis.coverage_against(4), Some(0.25));
        assert_eq!(analysis.coverage_against(0), None);
    }

    #[test]
    fn render_mentions_unreliability_with_truth() {
        let a = fs_with(&[(10, UserReportKind::OutputFailure)]);
        let analysis = from_flash(&[&a]);
        let s = analysis.render(Some(10));
        assert!(s.contains("coverage 10%"));
        assert!(s.contains("unreliable"));
        let s2 = analysis.render(None);
        assert!(!s2.contains("coverage"));
    }
}
