//! Baseline comparison: the paper's logger vs the `D_EXC` panic
//! collector.
//!
//! `D_EXC` sees the same panic notifications as the Panic Detector but
//! records no context, and — having no heartbeat — cannot observe
//! freezes or distinguish self-shutdowns from user shutdowns. This
//! analysis quantifies the difference on the same campaign: which of
//! the paper's artifacts each tool can regenerate, and how much of the
//! user-perceived failure picture the baseline misses.

use serde::{Deserialize, Serialize};

use symfail_stats::{AsciiTable, CategoricalDist, CellAlign};

use super::report::StudyReport;

/// One artifact of the study and whether each tool can produce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactSupport {
    /// The artifact (e.g. "Table 2: panic distribution").
    pub artifact: &'static str,
    /// Whether the paper's logger supports it.
    pub full_logger: bool,
    /// Whether `D_EXC` alone supports it.
    pub dexc: bool,
}

/// The capability matrix, as argued in the paper's related work.
pub const ARTIFACT_SUPPORT: [ArtifactSupport; 8] = [
    ArtifactSupport {
        artifact: "Table 2: panic category/type distribution",
        full_logger: true,
        dexc: true,
    },
    ArtifactSupport {
        artifact: "Figure 3: panic cascades (bursts)",
        full_logger: true,
        dexc: true,
    },
    ArtifactSupport {
        artifact: "Figure 2: reboot durations / self-shutdown filter",
        full_logger: true,
        dexc: false,
    },
    ArtifactSupport {
        artifact: "freeze detection (heartbeat)",
        full_logger: true,
        dexc: false,
    },
    ArtifactSupport {
        artifact: "MTBFr / MTBS estimation",
        full_logger: true,
        dexc: false,
    },
    ArtifactSupport {
        artifact: "Figures 4/5: panic-failure coalescence",
        full_logger: true,
        dexc: false,
    },
    ArtifactSupport {
        artifact: "Table 3: panic vs user activity",
        full_logger: true,
        dexc: false,
    },
    ArtifactSupport {
        artifact: "Table 4 / Figure 6: panic vs running applications",
        full_logger: true,
        dexc: false,
    },
];

/// Measured comparison of the two tools on one campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineComparison {
    /// Panics both tools collected (identical by construction: same
    /// notification hook).
    pub panics_collected: u64,
    /// Panic-code distribution (available to both).
    pub panic_distribution: CategoricalDist,
    /// High-level failures the full logger observed…
    pub hl_events_full: usize,
    /// …and the number `D_EXC` can observe (always zero).
    pub hl_events_dexc: usize,
    /// Panics carrying activity context in the full logger.
    pub panics_with_activity: usize,
    /// Panics carrying a running-apps snapshot in the full logger.
    pub panics_with_running_apps: usize,
    /// Fraction of the study's artifacts `D_EXC` can regenerate.
    pub dexc_artifact_coverage: f64,
}

impl BaselineComparison {
    /// Compares the tools over an analyzed campaign. Context counts
    /// come from the report's coalescence section (one
    /// [`CoalescedPanic`](super::coalesce::CoalescedPanic) per fleet
    /// panic), so no materialized fleet is needed — the streaming
    /// report suffices.
    pub fn new(report: &StudyReport) -> Self {
        let panics_with_activity = report
            .coalescence
            .panics()
            .iter()
            .filter(|p| p.panic.activity.is_some())
            .count();
        let panics_with_running_apps = report
            .coalescence
            .panics()
            .iter()
            .filter(|p| !p.panic.apps.is_empty())
            .count();
        let hl_events_full = report.mtbf.freezes + report.shutdowns.self_shutdowns().len();
        let supported = ARTIFACT_SUPPORT.iter().filter(|a| a.dexc).count();
        Self {
            panics_collected: report.panic_distribution.total(),
            panic_distribution: report.panic_distribution.clone(),
            hl_events_full,
            hl_events_dexc: 0,
            panics_with_activity,
            panics_with_running_apps,
            dexc_artifact_coverage: supported as f64 / ARTIFACT_SUPPORT.len() as f64,
        }
    }

    /// Renders the capability matrix plus the measured numbers.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "artifact".into(),
            "full logger".into(),
            "D_EXC".into(),
        ]);
        t.set_align(0, CellAlign::Left);
        for a in ARTIFACT_SUPPORT {
            let tick = |b: bool| if b { "yes" } else { "-" }.to_string();
            t.add_row(vec![
                a.artifact.to_string(),
                tick(a.full_logger),
                tick(a.dexc),
            ]);
        }
        format!(
            "Baseline comparison: the paper's logger vs D_EXC\n{}\n\
             measured on this campaign:\n\
             \u{20} panics collected by both        : {}\n\
             \u{20} HL failures observed (full)     : {}\n\
             \u{20} HL failures observed (D_EXC)    : {}\n\
             \u{20} panics with activity context    : {}\n\
             \u{20} panics with running-apps context: {}\n\
             \u{20} D_EXC artifact coverage         : {:.0}%\n",
            t.render(),
            self.panics_collected,
            self.hl_events_full,
            self.hl_events_dexc,
            self.panics_with_activity,
            self.panics_with_running_apps,
            100.0 * self.dexc_artifact_coverage,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::{FleetDataset, PhoneDataset};
    use crate::analysis::report::AnalysisConfig;
    use crate::flashfs::FlashFs;
    use crate::logger::{FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::servers::logdb::ActivityKind;
    use symfail_symbian::Panic;

    fn fleet() -> FleetDataset {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext {
            running_apps: &["Messages"],
            battery_percent: 50,
            battery_low: false,
        };
        lg.on_boot(&mut fs, SimTime::ZERO, ctx);
        lg.on_panic(
            &mut fs,
            SimTime::from_secs(100),
            &Panic::new(codes::KERN_EXEC_3, "Messages", "null"),
            ctx,
            Some(ActivityKind::VoiceCall),
        );
        lg.on_panic(
            &mut fs,
            SimTime::from_secs(200),
            &Panic::new(codes::USER_11, "Messages", "overflow"),
            PhoneContext::default(),
            None,
        );
        lg.on_clean_shutdown(&mut fs, SimTime::from_secs(210), ShutdownKind::Reboot);
        lg.on_boot(&mut fs, SimTime::from_secs(300), ctx);
        FleetDataset::from_phones(vec![PhoneDataset::from_flashfs(0, &fs)])
    }

    #[test]
    fn comparison_counts_context() {
        let f = fleet();
        let report = StudyReport::analyze(&f, AnalysisConfig::default());
        let cmp = BaselineComparison::new(&report);
        assert_eq!(cmp.panics_collected, 2);
        assert_eq!(cmp.panics_with_activity, 1);
        assert_eq!(cmp.panics_with_running_apps, 1);
        assert_eq!(cmp.hl_events_dexc, 0);
        assert_eq!(
            cmp.hl_events_full, 1,
            "the 90 s reboot classifies as self-shutdown"
        );
        assert!((cmp.dexc_artifact_coverage - 0.25).abs() < 1e-12);
    }

    #[test]
    fn render_contains_matrix() {
        let f = fleet();
        let report = StudyReport::analyze(&f, AnalysisConfig::default());
        let s = BaselineComparison::new(&report).render();
        assert!(s.contains("D_EXC"));
        assert!(s.contains("Table 2"));
        assert!(s.contains("freeze detection"));
        assert!(s.contains("25%"));
    }

    #[test]
    fn capability_matrix_is_sound() {
        // D_EXC supports a strict subset of the full logger.
        for a in ARTIFACT_SUPPORT {
            assert!(a.full_logger, "the paper's logger covers everything");
            if a.dexc {
                assert!(
                    a.artifact.contains("panic") || a.artifact.contains("cascade"),
                    "D_EXC only sees panics: {}",
                    a.artifact
                );
            }
        }
    }
}
