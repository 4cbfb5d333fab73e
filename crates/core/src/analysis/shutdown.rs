//! Self-shutdown identification (Figure 2).
//!
//! The heartbeat cannot distinguish a self-shutdown from a
//! user-triggered shutdown — the generated event (`REBOOT`) is the
//! same. The paper discriminates by examining the *reboot duration*:
//! the distribution is bimodal, with a peak below 500 s (median
//! ≈ 80 s) corresponding to self-shutdowns (the phone reboots itself
//! and comes right back) and a second mode near 30 000 s (≈ 8 h 20 m,
//! the night off-time). Shutdowns with duration ≤ 360 s are classified
//! as self-shutdowns.

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};
use symfail_stats::{Ecdf, Histogram};

use super::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use super::dataset::ShutdownEvent;
use super::passes::{AnalysisPass, PhoneLens};
use super::report::StudyReport;

/// The paper's self-shutdown duration threshold.
pub const SELF_SHUTDOWN_THRESHOLD: SimDuration = SimDuration::from_secs(360);

/// Result of the Figure 2 analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShutdownAnalysis {
    events: Vec<ShutdownEvent>,
    self_shutdowns: Vec<ShutdownEvent>,
}

impl ShutdownAnalysis {
    /// Classifies a shutdown-event list with the given duration
    /// threshold (the paper's is [`SELF_SHUTDOWN_THRESHOLD`]) — the
    /// `shutdown` pass's `finish` step, fed events concatenated in
    /// phone-id order.
    pub fn from_events(threshold: SimDuration, events: Vec<ShutdownEvent>) -> Self {
        let self_shutdowns = events
            .iter()
            .copied()
            .filter(|e| e.duration <= threshold)
            .collect();
        Self {
            events,
            self_shutdowns,
        }
    }

    /// Every measurable shutdown event (the 1778 of the paper).
    pub fn all_events(&self) -> &[ShutdownEvent] {
        &self.events
    }

    /// The events classified as self-shutdowns (the 471 of the paper).
    pub fn self_shutdowns(&self) -> &[ShutdownEvent] {
        &self.self_shutdowns
    }

    /// Fraction of shutdown events classified as self-shutdowns.
    pub fn self_shutdown_fraction(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.self_shutdowns.len() as f64 / self.events.len() as f64
    }

    /// Median duration of the self-shutdowns (the ≈ 80 s of Fig. 2),
    /// or `None` when there are none.
    pub fn median_self_shutdown_secs(&self) -> Option<f64> {
        let e = Ecdf::from_samples(self.self_shutdowns.iter().map(|e| e.duration.as_secs_f64()))
            .ok()?;
        Some(e.median())
    }

    /// The full reboot-duration histogram (the outer plot of Fig. 2):
    /// `bins` bins covering durations up to `max_secs`.
    ///
    /// # Errors
    ///
    /// Propagates histogram construction errors for degenerate
    /// parameters.
    pub fn duration_histogram(
        &self,
        max_secs: f64,
        bins: usize,
    ) -> Result<Histogram, symfail_stats::StatsError> {
        let mut h = Histogram::with_bins(0.0, max_secs, bins)?;
        for e in &self.events {
            h.record(e.duration.as_secs_f64());
        }
        Ok(h)
    }

    /// The zoomed histogram of Fig. 2's inset (durations < 500 s).
    ///
    /// # Errors
    ///
    /// Propagates histogram construction errors.
    pub fn zoomed_histogram(&self, bins: usize) -> Result<Histogram, symfail_stats::StatsError> {
        let mut h = Histogram::with_bins(0.0, 500.0, bins)?;
        for e in &self.events {
            let s = e.duration.as_secs_f64();
            if s < 500.0 {
                h.record(s);
            }
        }
        Ok(h)
    }

    /// Sweeps the classification threshold, returning
    /// `(threshold_secs, self_shutdown_count)` pairs — the ablation of
    /// the 360 s design choice.
    pub fn threshold_sweep(&self, thresholds_secs: &[u64]) -> Vec<(u64, usize)> {
        thresholds_secs
            .iter()
            .map(|&th| {
                let d = SimDuration::from_secs(th);
                let n = self.events.iter().filter(|e| e.duration <= d).count();
                (th, n)
            })
            .collect()
    }
}

/// Figure 2: per-phone shutdown events, concatenated in phone order.
pub(super) struct ShutdownPass;

impl AnalysisPass for ShutdownPass {
    type Acc = Vec<ShutdownEvent>;
    const NAME: &'static str = "shutdown";

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        lens.phone.shutdown_events().to_vec()
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.extend(other);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.shutdowns =
            ShutdownAnalysis::from_events(report.config().self_shutdown_threshold, acc);
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        out.usize(acc.len());
        for e in acc {
            write_shutdown_event(out, e);
        }
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        let n = src.usize()?;
        let mut events = Vec::new();
        for _ in 0..n {
            events.push(read_shutdown_event(src)?);
        }
        Ok(events)
    }
}

fn write_shutdown_event(w: &mut ByteWriter, e: &ShutdownEvent) {
    w.u32(e.phone_id);
    w.u64(e.off_at.as_millis());
    w.u64(e.on_at.as_millis());
    w.u64(e.duration.as_millis());
}

fn read_shutdown_event(r: &mut ByteReader<'_>) -> Result<ShutdownEvent, CheckpointError> {
    Ok(ShutdownEvent {
        phone_id: r.u32()?,
        off_at: SimTime::from_millis(r.u64()?),
        on_at: SimTime::from_millis(r.u64()?),
        duration: SimDuration::from_millis(r.u64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::{HlKind, ParseScratch, PhoneDataset};
    use crate::analysis::passes::tests::fold_phones;
    use crate::analysis::passes::PassRegistry;
    use crate::analysis::report::AnalysisConfig;
    use crate::flashfs::FlashFs;
    use crate::logger::{FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
    use symfail_sim_core::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A phone with three reboots: 80 s (self), 90 s (self), 30000 s
    /// (night).
    fn fleet() -> Vec<PhoneDataset> {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext::default();
        let mut now = 0;
        lg.on_boot(&mut fs, t(now), || ctx);
        for off in [80u64, 90, 30_000] {
            now += 600;
            lg.on_clean_shutdown(&mut fs, t(now), ShutdownKind::Reboot);
            now += off;
            lg.on_boot(&mut fs, t(now), || ctx);
        }
        vec![PhoneDataset::from_flashfs_with(
            1,
            &fs,
            &mut ParseScratch::default(),
        )]
    }

    /// The report sections of `passes` over `fleet`, at the paper's
    /// 360 s threshold.
    fn report(phones: &[PhoneDataset], passes: &str) -> StudyReport {
        let config = AnalysisConfig::default();
        assert_eq!(config.self_shutdown_threshold, SELF_SHUTDOWN_THRESHOLD);
        fold_phones(phones, config, &PassRegistry::select(passes).unwrap())
    }

    fn analysis(phones: &[PhoneDataset]) -> ShutdownAnalysis {
        report(phones, "shutdown").shutdowns
    }

    #[test]
    fn classification_by_threshold() {
        let a = analysis(&fleet());
        assert_eq!(a.all_events().len(), 3);
        assert_eq!(a.self_shutdowns().len(), 2);
        assert!((a.self_shutdown_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_self_shutdowns() {
        let a = analysis(&fleet());
        assert_eq!(a.median_self_shutdown_secs(), Some(85.0));
    }

    #[test]
    fn empty_fleet_degenerates_gracefully() {
        let a = analysis(&[]);
        assert_eq!(a.self_shutdown_fraction(), 0.0);
        assert!(a.median_self_shutdown_secs().is_none());
    }

    #[test]
    fn histograms_partition_events() {
        let a = analysis(&fleet());
        let h = a.duration_histogram(40_000.0, 80).unwrap();
        assert_eq!(h.total(), 3);
        let z = a.zoomed_histogram(50).unwrap();
        assert_eq!(z.total(), 2, "only sub-500 s durations in the inset");
    }

    /// The coalescence HL stream holds the self-shutdowns the 360 s
    /// filter keeps; the all-shutdowns variant coalesces against every
    /// shutdown.
    #[test]
    fn hl_event_views() {
        let r = report(&fleet(), "shutdown,coalesce");
        assert_eq!(r.hl_events.len(), 2);
        for e in &r.hl_events {
            assert_eq!(e.kind, HlKind::SelfShutdown);
        }
        assert_eq!(r.coalescence.hl_total(), 2);
        assert_eq!(r.coalescence_all_shutdowns.hl_total(), 3);
    }

    #[test]
    fn threshold_sweep_monotone() {
        let a = analysis(&fleet());
        let sweep = a.threshold_sweep(&[60, 85, 360, 40_000]);
        assert_eq!(sweep, vec![(60, 0), (85, 1), (360, 2), (40_000, 3)]);
    }
}
