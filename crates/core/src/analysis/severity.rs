//! Severity of the logger-detected failures, using the user-centric
//! scale of Section 4.
//!
//! The forum study defines severity by the difficulty of the recovery
//! action: *high* when service personnel are needed, *medium* for a
//! reboot or battery removal, *low* when repeating or waiting is
//! enough. The logger-detected failures map onto that scale directly:
//! a **freeze** is recovered by pulling the battery and a
//! **self-shutdown** recovers by the reboot that already happened —
//! both medium severity, which is exactly why the paper calls phones
//! that fail every ~11 days acceptable for everyday use but
//! questionable for critical applications.

use serde::{Deserialize, Serialize};

/// Severity summary of a campaign, including the *user burden*: how
/// many disruptive recoveries (battery pulls, unwanted reboots) the
/// fleet's users performed per phone-month.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeverityAnalysis {
    battery_pulls: usize,
    unwanted_reboots: usize,
    burden_per_phone_month: Option<f64>,
}

impl SeverityAnalysis {
    /// Builds the summary from counted failures: freezes are battery
    /// pulls, self-shutdowns unwanted reboots, and `total_hours` — the
    /// fleet's powered-on observation time — normalizes the burden. A
    /// [`StudyReport`](super::report::StudyReport)'s MTBF section
    /// carries all three.
    pub fn from_counts(battery_pulls: usize, unwanted_reboots: usize, total_hours: f64) -> Self {
        let burden_per_phone_month = (total_hours > 0.0)
            .then(|| (battery_pulls + unwanted_reboots) as f64 / (total_hours / (30.44 * 24.0)));
        Self {
            battery_pulls,
            unwanted_reboots,
            burden_per_phone_month,
        }
    }

    /// Freezes, i.e. battery pulls the users performed.
    pub fn battery_pulls(&self) -> usize {
        self.battery_pulls
    }

    /// Self-shutdowns, i.e. reboots the users did not ask for.
    pub fn unwanted_reboots(&self) -> usize {
        self.unwanted_reboots
    }

    /// Disruptive recoveries per phone-month of powered-on use.
    pub fn burden_per_phone_month(&self) -> Option<f64> {
        self.burden_per_phone_month
    }

    /// Renders the summary.
    pub fn render(&self) -> String {
        format!(
            "severity of detected failures (user-recovery scale): all medium\n\
             \u{20} battery pulls (freezes)          : {}\n\
             \u{20} unwanted reboots (self-shutdowns): {}\n\
             \u{20} user burden                      : {} disruptive recoveries per phone-month\n",
            self.battery_pulls,
            self.unwanted_reboots,
            self.burden_per_phone_month
                .map(|b| format!("{b:.1}"))
                .unwrap_or_else(|| "n/a".to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::{FleetDataset, PhoneDataset};
    use crate::analysis::passes::PassRegistry;
    use crate::analysis::report::{AnalysisConfig, StudyReport};
    use crate::flashfs::FlashFs;
    use crate::logger::{FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
    use symfail_sim_core::SimTime;

    fn fleet() -> FleetDataset {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext::default();
        lg.on_boot(&mut fs, SimTime::ZERO, || ctx);
        // One self-shutdown...
        lg.on_clean_shutdown(&mut fs, SimTime::from_secs(600), ShutdownKind::Reboot);
        lg.on_boot(&mut fs, SimTime::from_secs(680), || ctx);
        // ...and one freeze (battery pull).
        lg.on_boot(&mut fs, SimTime::from_secs(5000), || ctx);
        FleetDataset::from_phones(vec![PhoneDataset::from_flashfs(0, &fs)])
    }

    /// The severity summary of the fixture's counted failures over
    /// `total_hours` of use.
    fn severity(total_hours: f64) -> SeverityAnalysis {
        let registry = PassRegistry::select("shutdown,mtbf").unwrap();
        let report = StudyReport::analyze_with(&fleet(), AnalysisConfig::default(), &registry);
        SeverityAnalysis::from_counts(
            report.mtbf.freezes,
            report.shutdowns.self_shutdowns().len(),
            total_hours,
        )
    }

    #[test]
    fn counts_and_grades() {
        let s = severity(730.0);
        assert_eq!(s.battery_pulls(), 1);
        assert_eq!(s.unwanted_reboots(), 1);
        // 730 h ≈ one phone-month: burden ≈ 2 per phone-month.
        let b = s.burden_per_phone_month().unwrap();
        assert!((b - 2.0).abs() < 0.05, "burden {b}");
    }

    #[test]
    fn zero_hours_gives_no_burden() {
        let s = severity(0.0);
        assert!(s.burden_per_phone_month().is_none());
        assert!(s.render().contains("n/a"));
    }

    #[test]
    fn render_contains_counts() {
        let out = severity(730.0).render();
        assert!(out.contains("battery pulls"));
        assert!(out.contains("per phone-month"));
    }
}
