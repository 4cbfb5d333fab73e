//! Mean time between failures estimation.
//!
//! The paper reports MTBFr (mean time between freezes) of 313 hours
//! and MTBS (mean time between self-shutdowns) of 250 hours, in
//! wall-clock hours averaged per phone — a freeze every ~13 days and a
//! self-shutdown every ~10 days, i.e. a user-perceived failure about
//! every 11 days.

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimDuration;

use super::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use super::passes::{AnalysisPass, PhoneLens};
use super::report::StudyReport;
use crate::logger::LoggerFiles;

/// Heartbeat-gap ceiling used when reconstructing powered-on time from
/// the beats stream (gaps longer than this mean off/frozen).
pub const DEFAULT_UPTIME_GAP: SimDuration = SimDuration::from_mins(5);

/// MTBF estimates for the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MtbfAnalysis {
    /// Total powered-on observation time across the fleet, in hours.
    pub total_hours: f64,
    /// Number of freezes observed.
    pub freezes: usize,
    /// Number of self-shutdowns observed.
    pub self_shutdowns: usize,
    /// Mean time between freezes, hours (`None` with zero freezes).
    pub mtbfr_hours: Option<f64>,
    /// Mean time between self-shutdowns, hours.
    pub mtbs_hours: Option<f64>,
    /// Mean time between failures of either kind, hours.
    pub mtbf_any_hours: Option<f64>,
}

impl MtbfAnalysis {
    /// Derives the estimates from already-summed fleet totals — the
    /// `mtbf` pass's `finish` step. Summing per-phone
    /// [`SimDuration`]s (integer milliseconds) before the single
    /// float conversion keeps this bit-identical for any merge order.
    pub fn from_totals(powered_on: SimDuration, freezes: usize, self_shutdowns: usize) -> Self {
        let total_hours = powered_on.as_hours_f64();
        let div = |n: usize| (n > 0).then(|| total_hours / n as f64);
        Self {
            total_hours,
            freezes,
            self_shutdowns,
            mtbfr_hours: div(freezes),
            mtbs_hours: div(self_shutdowns),
            mtbf_any_hours: div(freezes + self_shutdowns),
        }
    }

    /// Hand-rendered JSON object for the online-MTBF trace
    /// (`repro --mtbf-trace-json`); the workspace serde is a no-op
    /// stub, so rendering is explicit. Floats use Rust's
    /// shortest-roundtrip formatting and `None` becomes `null`.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
        format!(
            "{{\"total_hours\":{},\"freezes\":{},\"self_shutdowns\":{},\
             \"mtbfr_hours\":{},\"mtbs_hours\":{},\"mtbf_any_hours\":{}}}",
            self.total_hours,
            self.freezes,
            self.self_shutdowns,
            opt(self.mtbfr_hours),
            opt(self.mtbs_hours),
            opt(self.mtbf_any_hours)
        )
    }

    /// Mean days between user-perceived failures (freeze or
    /// self-shutdown), assuming 24 h wall-clock days of the averaged
    /// per-phone usage — the paper's "every 11 days" figure is the
    /// average of the per-kind intervals.
    pub fn days_between_failures(&self) -> Option<f64> {
        match (self.mtbfr_hours, self.mtbs_hours) {
            (Some(fr), Some(ss)) => Some((fr / 24.0 + ss / 24.0) / 2.0),
            _ => None,
        }
    }
}

/// MTBF contributions: powered-on time (integer ms, zero for unusable
/// phones) and failure counts.
#[derive(Default)]
pub(super) struct MtbfFold {
    pub(super) powered_on: SimDuration,
    pub(super) freezes: usize,
    pub(super) self_shutdowns: usize,
}

pub(super) struct MtbfPass;

impl AnalysisPass for MtbfPass {
    type Acc = MtbfFold;
    const NAME: &'static str = "mtbf";
    const READS: LoggerFiles = LoggerFiles::LogAndBeats;

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        let powered_on = if lens.phone.defects().unusable {
            SimDuration::ZERO
        } else {
            lens.powered_on
        };
        MtbfFold {
            powered_on,
            freezes: lens.phone.freezes().len(),
            self_shutdowns: lens.self_shutdowns,
        }
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.powered_on += other.powered_on;
        acc.freezes += other.freezes;
        acc.self_shutdowns += other.self_shutdowns;
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.mtbf = MtbfAnalysis::from_totals(acc.powered_on, acc.freezes, acc.self_shutdowns);
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        out.u64(acc.powered_on.as_millis());
        out.usize(acc.freezes);
        out.usize(acc.self_shutdowns);
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        Ok(MtbfFold {
            powered_on: SimDuration::from_millis(src.u64()?),
            freezes: src.usize()?,
            self_shutdowns: src.usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::{ParseScratch, PhoneDataset};
    use crate::analysis::passes::tests::fold_phones;
    use crate::analysis::passes::PassRegistry;
    use crate::analysis::report::AnalysisConfig;
    use crate::flashfs::FlashFs;
    use crate::logger::{FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
    use symfail_sim_core::SimTime;

    /// One phone, ~2 hours powered, one freeze and one fast reboot.
    fn fleet() -> Vec<PhoneDataset> {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext::default();
        lg.on_boot(&mut fs, SimTime::ZERO, || ctx);
        let mut now = 0u64;
        while now < 3600 {
            now += 30;
            lg.on_ticks(&mut fs, SimTime::from_secs(now), 1, || ctx);
        }
        lg.on_clean_shutdown(&mut fs, SimTime::from_secs(now + 5), ShutdownKind::Reboot);
        // 80 s self-shutdown-like reboot
        lg.on_boot(&mut fs, SimTime::from_secs(now + 85), || ctx);
        let base = now + 85;
        let mut t2 = base;
        while t2 < base + 3600 {
            t2 += 30;
            lg.on_ticks(&mut fs, SimTime::from_secs(t2), 1, || ctx);
        }
        // freeze + battery pull + late boot
        lg.on_boot(&mut fs, SimTime::from_secs(t2 + 7200), || ctx);
        vec![PhoneDataset::from_flashfs_with(
            0,
            &fs,
            &mut ParseScratch::default(),
        )]
    }

    /// The `mtbf` section at the paper's 5-minute uptime gap.
    fn mtbf(phones: &[PhoneDataset]) -> MtbfAnalysis {
        let config = AnalysisConfig::default();
        assert_eq!(config.uptime_gap, DEFAULT_UPTIME_GAP);
        let registry = PassRegistry::select("mtbf").unwrap();
        fold_phones(phones, config, &registry).mtbf
    }

    #[test]
    fn estimates_follow_counts() {
        let m = mtbf(&fleet());
        assert_eq!(m.freezes, 1);
        assert_eq!(m.self_shutdowns, 1);
        let hours = m.total_hours;
        assert!((1.9..=2.2).contains(&hours), "uptime {hours}h");
        assert!((m.mtbfr_hours.unwrap() - hours).abs() < 1e-9);
        assert!((m.mtbf_any_hours.unwrap() - hours / 2.0).abs() < 1e-9);
        let days = m.days_between_failures().unwrap();
        assert!((days - hours / 24.0).abs() < 1e-9);
    }

    #[test]
    fn zero_failures_give_none() {
        let m = mtbf(&[]);
        assert!(m.mtbfr_hours.is_none());
        assert!(m.mtbs_hours.is_none());
        assert!(m.mtbf_any_hours.is_none());
        assert!(m.days_between_failures().is_none());
    }

    #[test]
    fn json_rendering_covers_some_and_none() {
        let m = MtbfAnalysis::from_totals(SimDuration::from_secs(7200), 2, 0);
        let j = m.to_json();
        assert!(j.starts_with("{\"total_hours\":2"), "{j}");
        assert!(j.contains("\"freezes\":2"));
        assert!(j.contains("\"mtbfr_hours\":1"));
        assert!(j.contains("\"mtbs_hours\":null"));
        assert!(j.contains("\"mtbf_any_hours\":1"));
    }
}
