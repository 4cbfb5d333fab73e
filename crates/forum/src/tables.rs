//! The Section 4.1 report analysis: Table 1 and the marginals.

use serde::{Deserialize, Serialize};

use symfail_stats::{CategoricalDist, ContingencyTable, ShapeReport, TargetCheck};

use crate::classify::{classify, FailureType, Recovery, Severity};
use crate::corpus::{ForumReport, ACTIVITY_COUNTS, TABLE1_COUNTS};

/// The results of classifying a corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForumStudy {
    table1: ContingencyTable,
    severity: CategoricalDist,
    activity: CategoricalDist,
    failure_types: CategoricalDist,
    total_posts: usize,
    failure_posts: usize,
    smart_phone_posts: usize,
    misclassified: usize,
}

impl ForumStudy {
    /// Runs the classifier over every post and accumulates the study
    /// tables. Only the post *text* feeds the classifier; the hidden
    /// ground truth is used solely to count classifier mistakes.
    pub fn classify(corpus: &[ForumReport]) -> Self {
        let mut table1 = ContingencyTable::new();
        let mut severity = CategoricalDist::new();
        let mut activity = CategoricalDist::new();
        let mut failure_types = CategoricalDist::new();
        let mut failure_posts = 0;
        let mut smart_phone_posts = 0;
        let mut misclassified = 0;
        for report in corpus {
            if report.smart_phone {
                smart_phone_posts += 1;
            }
            let c = classify(&report.text);
            if c.failure != report.truth.failure
                || (c.failure.is_some() && c.recovery != report.truth.recovery)
            {
                misclassified += 1;
            }
            let Some(failure) = c.failure else { continue };
            failure_posts += 1;
            table1.add(failure.as_str(), c.recovery.as_str());
            failure_types.add(failure.as_str());
            severity.add(match c.severity {
                Severity::High => "high",
                Severity::Medium => "medium",
                Severity::Low => "low",
                Severity::Unknown => "unknown",
            });
            if let Some(a) = c.activity {
                activity.add(a.as_str());
            }
        }
        Self {
            table1,
            severity,
            activity,
            failure_types,
            total_posts: corpus.len(),
            failure_posts,
            smart_phone_posts,
            misclassified,
        }
    }

    /// Table 1: failure type × recovery action counts.
    pub fn table1(&self) -> &ContingencyTable {
        &self.table1
    }

    /// Failure-type marginal distribution.
    pub fn failure_types(&self) -> &CategoricalDist {
        &self.failure_types
    }

    /// Posts classified as failures.
    pub fn failure_posts(&self) -> usize {
        self.failure_posts
    }

    /// Smart-phone share of the posts.
    pub fn smart_phone_share(&self) -> f64 {
        if self.total_posts == 0 {
            return 0.0;
        }
        self.smart_phone_posts as f64 / self.total_posts as f64
    }

    /// Posts where the classifier disagreed with the generator's
    /// ground truth.
    pub fn misclassified(&self) -> usize {
        self.misclassified
    }

    /// Renders Table 1 with the paper's column order.
    pub fn render_table1(&self) -> String {
        self.table1.render_percent(
            "Table 1: failure frequency distribution, failure types x recovery actions \
             (% of classified failures)",
            &[
                "reboot",
                "battery removal",
                "wait",
                "repeat",
                "service phone",
                "unreported",
            ],
        )
    }

    /// Renders the Section 4.1 marginals.
    pub fn render_marginals(&self) -> String {
        let mut out = String::from("Section 4.1 marginals\n");
        out.push_str(&format!(
            "posts: {}  classified failures: {}  smart-phone share: {:.1}% (paper 22.3%)  \
             classifier disagreements: {}\n",
            self.total_posts,
            self.failure_posts,
            100.0 * self.smart_phone_share(),
            self.misclassified,
        ));
        out.push_str("failure types (% of failures; paper: output 36.3, freeze 25.3, unstable 18.5, self-shutdown 16.9, input 3.0):\n");
        for (label, _) in self.failure_types.ranked() {
            out.push_str(&format!(
                "  {label:<18} {:.1}%\n",
                self.failure_types.percent(label).unwrap_or(0.0)
            ));
        }
        out.push_str("severity of classified failures:\n");
        for (label, _) in self.severity.ranked() {
            out.push_str(&format!(
                "  {label:<18} {:.1}%\n",
                self.severity.percent(label).unwrap_or(0.0)
            ));
        }
        out.push_str("activity at failure time (% of failures; paper: calls 13, text 5.4, bluetooth 3.6, images 2.4):\n");
        let failures = self.failure_posts.max(1) as f64;
        for (label, n) in self.activity.ranked() {
            out.push_str(&format!(
                "  {label:<18} {:.1}%\n",
                100.0 * n as f64 / failures
            ));
        }
        out
    }

    /// Renders everything.
    pub fn render_all(&self) -> String {
        format!("{}\n{}", self.render_table1(), self.render_marginals())
    }

    /// Compares the study against the paper's Table 1 and marginals.
    pub fn shape_report(&self) -> ShapeReport {
        let mut r = ShapeReport::new();
        let total = self.table1.grand_total().max(1) as f64;
        for (failure, row) in TABLE1_COUNTS {
            for (col, &count) in row.iter().enumerate() {
                let recovery = Recovery::ALL[col];
                let paper_pct = 100.0 * count as f64 / 466.0;
                let measured_pct =
                    100.0 * self.table1.count(failure.as_str(), recovery.as_str()) as f64 / total;
                r.push(TargetCheck::absolute(
                    format!("Table 1: {} / {}", failure.as_str(), recovery.as_str()),
                    paper_pct,
                    measured_pct,
                    0.75,
                ));
            }
        }
        r.push(TargetCheck::absolute(
            "smart-phone share %",
            22.3,
            100.0 * self.smart_phone_share(),
            4.0,
        ));
        let failures = self.failure_posts.max(1) as f64;
        let paper_activity_pcts = [13.0, 5.4, 3.6, 2.4];
        for ((activity, _), paper) in ACTIVITY_COUNTS.iter().zip(paper_activity_pcts) {
            let measured = 100.0 * self.activity.count(activity.as_str()) as f64 / failures;
            r.push(TargetCheck::absolute(
                format!("activity share: {}", activity.as_str()),
                paper,
                measured,
                2.5,
            ));
        }
        let paper_marginals = [
            (FailureType::OutputFailure, 36.3),
            (FailureType::Freeze, 25.3),
            (FailureType::UnstableBehavior, 18.5),
            (FailureType::SelfShutdown, 16.9),
            (FailureType::InputFailure, 3.0),
        ];
        for (failure, paper) in paper_marginals {
            r.push(TargetCheck::absolute(
                format!("failure-type share: {}", failure.as_str()),
                paper,
                self.failure_types.percent(failure.as_str()).unwrap_or(0.0),
                1.5,
            ));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusGenerator;

    fn study() -> ForumStudy {
        ForumStudy::classify(&CorpusGenerator::paper_sized(2005).generate())
    }

    #[test]
    fn classifier_recovers_every_label() {
        let s = study();
        assert_eq!(
            s.misclassified(),
            0,
            "the classifier must agree with the ground truth on this corpus"
        );
        assert_eq!(s.failure_posts(), 466);
        assert_eq!(s.total_posts, 533);
    }

    #[test]
    fn table1_matches_reconstruction_exactly() {
        let s = study();
        for (failure, row) in TABLE1_COUNTS {
            for (col, &count) in row.iter().enumerate() {
                let got = s
                    .table1()
                    .count(failure.as_str(), Recovery::ALL[col].as_str());
                assert_eq!(
                    got,
                    count as u64,
                    "{} / {}",
                    failure.as_str(),
                    Recovery::ALL[col].as_str()
                );
            }
        }
    }

    #[test]
    fn shape_report_passes() {
        let s = study();
        let shape = s.shape_report();
        assert!(shape.all_pass(), "{shape}");
    }

    #[test]
    fn renders_contain_rows_and_columns() {
        let s = study();
        let out = s.render_all();
        for needle in [
            "Table 1",
            "freeze",
            "output failure",
            "battery removal",
            "unreported",
            "smart-phone share",
            "bluetooth",
        ] {
            assert!(out.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn severity_counts_follow_recovery_mapping() {
        let s = study();
        // service phone column total = high severity count
        let service_total: u64 = s.table1().col_total("service phone");
        assert_eq!(s.severity.count("high"), service_total);
        let medium = s.table1().col_total("reboot") + s.table1().col_total("battery removal");
        assert_eq!(s.severity.count("medium"), medium);
    }
}
