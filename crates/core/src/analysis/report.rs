//! The complete study report: every analysis step bundled, rendered,
//! and compared against the paper's numbers.

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimDuration;
use symfail_stats::{
    render_bar_chart, AsciiTable, CategoricalDist, CellAlign, ShapeReport, TargetCheck,
};

use super::activity::ActivityAnalysis;
use super::bursts::{BurstAnalysis, DEFAULT_BURST_GAP};
use super::checkpoint::{read_dist, write_dist, ByteReader, ByteWriter, CheckpointError};
use super::coalesce::{CoalescenceAnalysis, COALESCENCE_WINDOW};
use super::dataset::{FleetDataset, HlEvent};
use super::defects::DefectReport;
use super::firmware::FirmwareBreakdown;
use super::mtbf::{MtbfAnalysis, DEFAULT_UPTIME_GAP};
use super::passes::{AnalysisPass, DeviceLabels, PassRegistry, PhoneLens};
use super::runapps::RunningAppsAnalysis;
use super::shutdown::{ShutdownAnalysis, SELF_SHUTDOWN_THRESHOLD};
use super::targets;
use crate::logger::LoggerFiles;

/// Tunable parameters of the analysis pipeline (the paper's values are
/// the defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Reboot-duration threshold classifying self-shutdowns.
    pub self_shutdown_threshold: SimDuration,
    /// Temporal window for panic–HL coalescence.
    pub coalescence_window: SimDuration,
    /// Gap under which subsequent panics form a cascade.
    pub burst_gap: SimDuration,
    /// Heartbeat gap ceiling for powered-on time reconstruction.
    pub uptime_gap: SimDuration,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            self_shutdown_threshold: SELF_SHUTDOWN_THRESHOLD,
            coalescence_window: COALESCENCE_WINDOW,
            burst_gap: DEFAULT_BURST_GAP,
            uptime_gap: DEFAULT_UPTIME_GAP,
        }
    }
}

/// One row of the per-phone breakdown table, folded per phone by the
/// `perphone` pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhoneRow {
    /// The phone.
    pub phone_id: u32,
    /// Reconstructed powered-on hours.
    pub uptime_hours: f64,
    /// Panic events recorded.
    pub panics: usize,
    /// Freezes detected.
    pub freezes: usize,
    /// Shutdowns classified as self-shutdowns.
    pub self_shutdowns: usize,
}

/// The full Section 6 analysis over a harvested fleet dataset.
#[derive(Debug, Clone)]
pub struct StudyReport {
    config: AnalysisConfig,
    /// Figure 2.
    pub shutdowns: ShutdownAnalysis,
    /// MTBFr / MTBS.
    pub mtbf: MtbfAnalysis,
    /// Figure 3.
    pub bursts: BurstAnalysis,
    /// Figures 4/5 with the self-shutdowns from the Figure 2 filter.
    pub coalescence: CoalescenceAnalysis,
    /// The robustness variant including all shutdown events.
    pub coalescence_all_shutdowns: CoalescenceAnalysis,
    /// Table 3.
    pub activity: ActivityAnalysis,
    /// Table 3 sliced by device class, in label order. A single entry
    /// under the default homogeneous composition.
    pub activity_by_class: Vec<(String, ActivityAnalysis)>,
    /// Table 4 / Figure 6.
    pub runapps: RunningAppsAnalysis,
    /// Table 4 / Figure 6 sliced by device class, in label order.
    pub runapps_by_class: Vec<(String, RunningAppsAnalysis)>,
    /// Per-firmware failure counts and the device-class × failure-type
    /// contingency table from the `firmware` pass.
    pub firmware: FirmwareBreakdown,
    /// Table 2: panic distribution by code.
    pub panic_distribution: CategoricalDist,
    /// Parse-defect accounting from the lossy flash parse.
    pub defects: DefectReport,
    /// Per-phone breakdown rows, in phone-id order.
    pub per_phone: Vec<PhoneRow>,
    /// Freezes + filtered self-shutdowns as HL events,
    /// `(phone, time)`-sorted — the coalescence input stream, exposed
    /// for downstream analyses (inter-arrival, window sweeps).
    pub hl_events: Vec<HlEvent>,
}

impl StudyReport {
    /// Runs the whole pipeline over the fleet dataset: the reference
    /// driver over the full [`PassRegistry`]. It folds the same passes
    /// the streaming campaign driver does, with an identity name
    /// remap, which is what keeps the two byte-identical by
    /// construction.
    pub fn analyze(fleet: &FleetDataset, config: AnalysisConfig) -> Self {
        Self::analyze_with(fleet, config, &PassRegistry::all())
    }

    /// The reference driver over a selected pass registry: folds each
    /// phone in fleet order and merges immediately. The fleet dataset
    /// already interned names fleet-wide, so no merge needs a remap.
    pub fn analyze_with(
        fleet: &FleetDataset,
        config: AnalysisConfig,
        registry: &PassRegistry,
    ) -> Self {
        Self::analyze_with_labels(fleet, config, registry, |_| DeviceLabels::default())
    }

    /// The reference driver with per-phone device labels: `labels`
    /// maps each phone id to its device class and firmware version,
    /// which the class-aware passes use to slice their tables. The
    /// streaming driver feeds the same labels through [`PhoneLens`],
    /// keeping the two byte-identical for any composition.
    pub fn analyze_with_labels(
        fleet: &FleetDataset,
        config: AnalysisConfig,
        registry: &PassRegistry,
        labels: impl Fn(u32) -> DeviceLabels,
    ) -> Self {
        let needs_coalesce = registry.needs_coalesce();
        let mut accs = registry.new_accs();
        for phone in fleet.phones() {
            // Member panics carry fleet ids; resolve against the
            // merged table (phones no longer own copies of it).
            let lens = PhoneLens::with_names_device(
                phone,
                fleet.names(),
                config,
                needs_coalesce,
                labels(phone.phone_id()),
            );
            registry.fold_merge(&lens, &mut accs, None);
        }
        registry.finish(accs, config)
    }

    /// The report of a zero-phone fleet: every section empty. A
    /// registry's `finish` starts from it and each pass writes its own
    /// section, so sections whose pass was not selected stay empty.
    pub(super) fn empty(config: AnalysisConfig) -> Self {
        Self {
            config,
            shutdowns: ShutdownAnalysis::from_events(config.self_shutdown_threshold, Vec::new()),
            mtbf: MtbfAnalysis::from_totals(SimDuration::ZERO, 0, 0),
            bursts: BurstAnalysis::default(),
            coalescence: CoalescenceAnalysis::default(),
            coalescence_all_shutdowns: CoalescenceAnalysis::default(),
            activity: ActivityAnalysis::default(),
            activity_by_class: Vec::new(),
            runapps: RunningAppsAnalysis::default(),
            runapps_by_class: Vec::new(),
            firmware: FirmwareBreakdown::default(),
            panic_distribution: CategoricalDist::new(),
            defects: DefectReport::default(),
            per_phone: Vec::new(),
            hl_events: Vec::new(),
        }
    }

    /// The configuration used.
    pub fn config(&self) -> AnalysisConfig {
        self.config
    }

    /// Renders Table 2 (panic distribution) next to the paper's
    /// percentages.
    pub fn render_table2(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "panic".into(),
            "count".into(),
            "measured %".into(),
            "paper %".into(),
        ]);
        t.set_align(0, CellAlign::Left);
        let total = self.panic_distribution.total().max(1);
        for (code, _, paper_pct) in targets::PANIC_DISTRIBUTION {
            let label = code.to_string();
            let n = self.panic_distribution.count(&label);
            t.add_row(vec![
                label,
                n.to_string(),
                format!("{:.2}", 100.0 * n as f64 / total as f64),
                format!("{paper_pct:.2}"),
            ]);
        }
        t.add_row(vec![
            "total".into(),
            total.to_string(),
            "100.00".into(),
            "100.00".into(),
        ]);
        format!("Table 2: collected panic events\n{}", t.render())
    }

    /// Renders the Figure 2 summary (histogram + headline durations).
    pub fn render_fig2(&self) -> String {
        let mut out = String::from("Figure 2: distribution of reboot durations\n");
        if let Ok(h) = self.shutdowns.duration_histogram(40_000.0, 40) {
            let series: Vec<(String, f64)> = h
                .bins()
                .map(|b| (format!("{:>6.0}s", b.lo), b.count as f64))
                .collect();
            out.push_str(&render_bar_chart(&series, 40));
        }
        // The paper's inset: zoom on durations below 500 s, where the
        // self-shutdown mode lives.
        if let Ok(z) = self.shutdowns.zoomed_histogram(25) {
            if z.total_in_range() > 0 {
                out.push_str("\ninset: durations < 500 s\n");
                let series: Vec<(String, f64)> = z
                    .bins()
                    .map(|b| (format!("{:>4.0}s", b.lo), b.count as f64))
                    .collect();
                out.push_str(&render_bar_chart(&series, 30));
            }
        }
        out.push_str(&format!(
            "\nshutdown events: {}  self-shutdowns (<= {}): {} ({:.1}%)  median self-shutdown: {:.0} s\n",
            self.shutdowns.all_events().len(),
            self.config.self_shutdown_threshold,
            self.shutdowns.self_shutdowns().len(),
            100.0 * self.shutdowns.self_shutdown_fraction(),
            self.shutdowns.median_self_shutdown_secs().unwrap_or(0.0),
        ));
        out
    }

    /// Renders the Figure 3 cascade-size distribution.
    pub fn render_fig3(&self) -> String {
        let d = self.bursts.panic_share_by_cascade_size();
        let total = d.total().max(1) as f64;
        let mut series: Vec<(String, f64)> = d
            .iter()
            .map(|(k, n)| (format!("{k} subsequent"), 100.0 * n as f64 / total))
            .collect();
        series.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then(a.0.cmp(&b.0)));
        format!(
            "Figure 3: distribution of subsequent panics\n{}\npanics in cascades >= 2: {:.1}%\n",
            render_bar_chart(&series, 40),
            100.0 * self.bursts.cascaded_fraction()
        )
    }

    /// Renders the Figure 5 coalescence summary.
    pub fn render_fig5(&self) -> String {
        let (related, isolated) = self.coalescence.by_category();
        let mut t = AsciiTable::new(vec![
            "category".into(),
            "related to HL".into(),
            "isolated".into(),
        ]);
        t.set_align(0, CellAlign::Left);
        let mut cats: Vec<&str> = related
            .iter()
            .map(|(c, _)| c)
            .chain(isolated.iter().map(|(c, _)| c))
            .collect();
        cats.sort_unstable();
        cats.dedup();
        for c in cats {
            t.add_row(vec![
                c.to_string(),
                related.count(c).to_string(),
                isolated.count(c).to_string(),
            ]);
        }
        format!(
            "Figure 5: panics vs high-level events (window {})\n{}\nrelated: {:.1}%  (with all shutdown events: {:.1}%)\n",
            self.config.coalescence_window,
            t.render(),
            100.0 * self.coalescence.related_fraction(),
            100.0 * self.coalescence_all_shutdowns.related_fraction(),
        )
    }

    /// Renders Table 3 (panic–activity).
    pub fn render_table3(&self) -> String {
        let table = self.activity.table().render_percent(
            "Table 3: panic-activity relationship (% of HL-related panics)",
            &[
                "ViewSrv",
                "USER",
                "Phone.app",
                "MSGS Client",
                "KERN-EXEC",
                "E32USER-CBase",
            ],
        );
        let chi2 = self.activity.table().chi_square_independence().ok();
        let p_value = chi2.and_then(|stat| {
            let rows = self.activity.table().rows().len();
            let cols = self.activity.table().cols().len();
            let df = (rows.saturating_sub(1) * cols.saturating_sub(1)) as u32;
            symfail_stats::chi_square_survival(stat, df.max(1)).ok()
        });
        format!(
            "{table}real-time activity share: {:.1}% (paper ~45%){}\n",
            100.0 * self.activity.real_time_fraction(),
            match (chi2, p_value) {
                (Some(stat), Some(p)) =>
                    format!(" | activity-category independence: chi2={stat:.1}, p={p:.3}"),
                _ => String::new(),
            }
        )
    }

    /// Renders Figure 6 (running-application concurrency at panic
    /// time).
    pub fn render_fig6(&self) -> String {
        let d = self.runapps.concurrency();
        let total = d.total().max(1) as f64;
        let mut series: Vec<(String, f64)> = d
            .iter()
            .map(|(k, n)| (format!("{k} apps"), 100.0 * n as f64 / total))
            .collect();
        series.sort_by_key(|(k, _)| k.trim_end_matches(" apps").parse::<usize>().unwrap_or(0));
        format!(
            "Figure 6: number of running applications at panic time\n{}",
            render_bar_chart(&series, 40)
        )
    }

    /// Renders Table 4 (panic–running applications).
    pub fn render_table4(&self) -> String {
        let mut out = self.runapps.table().render_percent(
            "Table 4: panic-running applications relationship (% of grand total)",
            &[],
        );
        out.push_str("\ntop applications at panic time (% of panics):\n");
        for (app, pct) in self.runapps.top_apps(10) {
            out.push_str(&format!("  {app:<16} {pct:.2}%\n"));
        }
        out
    }

    /// Renders the MTBF headline numbers.
    pub fn render_mtbf(&self) -> String {
        // An estimate over zero failures is undefined, not zero.
        let hours = |v: Option<f64>| v.map_or("n/a".into(), |h| format!("{h:.0} h"));
        let days = self.mtbf.days_between_failures();
        format!(
            "MTBF: powered-on {:.0} h across fleet | freezes {} (MTBFr {}) | \
             self-shutdowns {} (MTBS {}) | a failure every {}\n",
            self.mtbf.total_hours,
            self.mtbf.freezes,
            hours(self.mtbf.mtbfr_hours),
            self.mtbf.self_shutdowns,
            hours(self.mtbf.mtbs_hours),
            days.map_or("n/a".into(), |d| format!("{d:.1} days")),
        )
    }

    /// Renders the per-phone breakdown: failures and panics per
    /// device, showing the heterogeneity behind the fleet averages.
    /// Rows come from the `perphone` pass, so this works under both
    /// engines without a materialized fleet.
    pub fn render_per_phone(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "phone".into(),
            "uptime h".into(),
            "panics".into(),
            "freezes".into(),
            "self-shutdowns".into(),
        ]);
        for row in &self.per_phone {
            t.add_row(vec![
                row.phone_id.to_string(),
                format!("{:.0}", row.uptime_hours),
                row.panics.to_string(),
                row.freezes.to_string(),
                row.self_shutdowns.to_string(),
            ]);
        }
        format!(
            "per-phone breakdown
{}",
            t.render()
        )
    }

    /// Renders the parse-defect accounting (the graceful-degradation
    /// section).
    pub fn render_defects(&self) -> String {
        self.defects.render()
    }

    /// Renders the per-firmware failure counts from the `firmware`
    /// pass (the extensions experiment's ground-truth view, derived
    /// from logged data).
    pub fn render_firmware(&self) -> String {
        let mut out = String::from("panic counts by firmware version\n");
        for (version, (phones, panics)) in &self.firmware.versions {
            let per_phone = *panics as f64 / (*phones).max(1) as f64;
            out.push_str(&format!(
                "  {version:<12} {phones:>2} phones  {panics:>4} panics  ({per_phone:.1}/phone)\n"
            ));
        }
        out
    }

    /// Renders the device-class × failure-type breakdown (the paper's
    /// Section 4 cut: do communicators fail differently from
    /// entry-level handsets?). Empty for a homogeneous fleet, where a
    /// one-row table carries no class contrast — which also keeps
    /// default-composition reports byte-identical to the
    /// pre-composition pipeline.
    pub fn render_device_classes(&self) -> String {
        let table = &self.firmware.class_failures;
        if table.rows().len() < 2 {
            return String::new();
        }
        let mut out = table.render_percent(
            "failures by device class (% of failure type)",
            &["panic", "freeze", "self-shutdown"],
        );
        let chi2 = table.chi_square_independence().ok();
        let p_value = chi2.and_then(|stat| {
            let df = (table.rows().len().saturating_sub(1) * table.cols().len().saturating_sub(1))
                as u32;
            symfail_stats::chi_square_survival(stat, df.max(1)).ok()
        });
        out.push_str(&match (chi2, p_value) {
            (Some(stat), Some(p)) => {
                format!("device class vs failure type independence: chi2={stat:.1}, p={p:.3}\n")
            }
            _ => "device class vs failure type independence: n/a\n".to_string(),
        });
        for (class, a) in &self.activity_by_class {
            out.push_str(&format!(
                "  {class:<14} real-time activity share {:.1}% over {} HL-related panics\n",
                100.0 * a.real_time_fraction(),
                a.total(),
            ));
        }
        out
    }

    /// Renders every table and figure. The device-class section only
    /// appears for heterogeneous fleets, so default-composition output
    /// is unchanged.
    pub fn render_all(&self) -> String {
        let mut sections = vec![
            self.render_fig2(),
            self.render_mtbf(),
            self.render_table2(),
            self.render_fig3(),
            self.render_fig5(),
            self.render_table3(),
            self.render_fig6(),
            self.render_table4(),
            self.render_defects(),
        ];
        let classes = self.render_device_classes();
        if !classes.is_empty() {
            sections.push(classes);
        }
        sections.join("\n")
    }

    /// Compares the measured study against the paper's headline
    /// numbers, with shape-level tolerances.
    pub fn shape_report(&self) -> ShapeReport {
        let mut r = ShapeReport::new();
        r.push(TargetCheck::relative(
            "shutdown events",
            targets::SHUTDOWN_EVENTS as f64,
            self.shutdowns.all_events().len() as f64,
            20.0,
        ));
        r.push(TargetCheck::relative(
            "self-shutdowns",
            targets::SELF_SHUTDOWNS as f64,
            self.shutdowns.self_shutdowns().len() as f64,
            20.0,
        ));
        r.push(TargetCheck::relative(
            "freezes",
            targets::FREEZES as f64,
            self.mtbf.freezes as f64,
            20.0,
        ));
        r.push(TargetCheck::relative(
            "total panics",
            targets::TOTAL_PANICS as f64,
            self.panic_distribution.total() as f64,
            20.0,
        ));
        r.push(TargetCheck::relative(
            "MTBFr hours",
            targets::MTBFR_HOURS,
            self.mtbf.mtbfr_hours.unwrap_or(0.0),
            25.0,
        ));
        r.push(TargetCheck::relative(
            "MTBS hours",
            targets::MTBS_HOURS,
            self.mtbf.mtbs_hours.unwrap_or(0.0),
            25.0,
        ));
        r.push(TargetCheck::relative(
            "median self-shutdown secs",
            targets::MEDIAN_SELF_SHUTDOWN_SECS,
            self.shutdowns.median_self_shutdown_secs().unwrap_or(0.0),
            30.0,
        ));
        r.push(TargetCheck::absolute(
            "panics related to HL events %",
            100.0 * targets::RELATED_PANIC_FRACTION,
            100.0 * self.coalescence.related_fraction(),
            9.0,
        ));
        // The paper's robustness argument: adding *all* shutdown
        // events (three times as many) raises the related fraction by
        // only ~4 points — the filtered-out shutdowns are really
        // user-triggered. Check the delta, which is the claim.
        let delta = 100.0
            * (self.coalescence_all_shutdowns.related_fraction()
                - self.coalescence.related_fraction());
        r.push(TargetCheck::absolute(
            "related % increase with all shutdowns",
            100.0
                * (targets::RELATED_PANIC_FRACTION_ALL_SHUTDOWNS - targets::RELATED_PANIC_FRACTION),
            delta,
            4.0,
        ));
        r.push(TargetCheck::absolute(
            "panics in cascades %",
            100.0 * targets::CASCADED_PANIC_FRACTION,
            100.0 * self.bursts.cascaded_fraction(),
            8.0,
        ));
        r.push(TargetCheck::absolute(
            "real-time activity %",
            100.0 * targets::REAL_TIME_ACTIVITY_FRACTION,
            100.0 * self.activity.real_time_fraction(),
            10.0,
        ));
        let total = self.panic_distribution.total().max(1) as f64;
        for (code, _, paper_pct) in targets::PANIC_DISTRIBUTION {
            let measured = 100.0 * self.panic_distribution.count(&code.to_string()) as f64 / total;
            // Percentage-point tolerance ≈ 2.5 Poisson standard
            // deviations of the cell count (count ≈ pct · 396 / 100):
            // the dominant cells must match within a few points, the
            // one-count cells are allowed their sampling noise.
            let expected_count = paper_pct * targets::TOTAL_PANICS as f64 / 100.0;
            let tol = (2.5 * expected_count.sqrt() / targets::TOTAL_PANICS as f64 * 100.0)
                .clamp(0.9, 6.0);
            r.push(TargetCheck::absolute(
                format!("Table 2: {code} %"),
                paper_pct,
                measured,
                tol,
            ));
        }
        r.push(TargetCheck::relative(
            "Figure 6 modal concurrency",
            targets::MODAL_RUNNING_APPS as f64,
            self.runapps.modal_concurrency().unwrap_or(0) as f64,
            0.0,
        ));
        r
    }
}

/// Table 2: panic-code distribution, additively merged.
pub(super) struct PanicDistPass;

impl AnalysisPass for PanicDistPass {
    type Acc = CategoricalDist;
    const NAME: &'static str = "panics";

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        let mut d = CategoricalDist::new();
        for p in lens.phone.panics() {
            d.add(p.code.to_string());
        }
        d
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.merge(&other);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.panic_distribution = acc;
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        write_dist(out, acc);
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        read_dist(src)
    }
}

/// Per-phone breakdown rows, concatenated in phone order.
pub(super) struct PerPhonePass;

impl AnalysisPass for PerPhonePass {
    type Acc = Vec<PhoneRow>;
    const NAME: &'static str = "perphone";
    const READS: LoggerFiles = LoggerFiles::LogAndBeats;

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        vec![PhoneRow {
            phone_id: lens.phone.phone_id(),
            uptime_hours: lens.powered_on.as_hours_f64(),
            panics: lens.phone.panics().len(),
            freezes: lens.phone.freezes().len(),
            self_shutdowns: lens.self_shutdowns,
        }]
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        acc.extend(other);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.per_phone = acc;
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        out.usize(acc.len());
        for row in acc {
            out.u32(row.phone_id);
            out.f64(row.uptime_hours);
            out.usize(row.panics);
            out.usize(row.freezes);
            out.usize(row.self_shutdowns);
        }
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        let n = src.usize()?;
        let mut rows = Vec::new();
        for _ in 0..n {
            rows.push(PhoneRow {
                phone_id: src.u32()?,
                uptime_hours: src.f64()?,
                panics: src.usize()?,
                freezes: src.usize()?,
                self_shutdowns: src.usize()?,
            });
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::PhoneDataset;
    use crate::flashfs::FlashFs;
    use crate::logger::{FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::Panic;

    fn small_fleet() -> FleetDataset {
        let mut phones = Vec::new();
        for id in 0..2u32 {
            let mut fs = FlashFs::new();
            let mut lg = FailureLogger::new(LoggerConfig::default());
            let ctx = PhoneContext {
                running_apps: &["Messages"],
                battery_percent: 70,
                battery_low: false,
            };
            lg.on_boot(&mut fs, SimTime::ZERO, ctx);
            for i in 1..20 {
                lg.on_tick(&mut fs, SimTime::from_secs(i * 30), ctx);
            }
            lg.on_panic(
                &mut fs,
                SimTime::from_secs(590),
                &Panic::new(codes::KERN_EXEC_3, "Messages", "null"),
                ctx,
                None,
            );
            lg.on_clean_shutdown(&mut fs, SimTime::from_secs(600), ShutdownKind::Reboot);
            lg.on_boot(&mut fs, SimTime::from_secs(680), ctx);
            phones.push(PhoneDataset::from_flashfs(id, &fs));
        }
        FleetDataset::from_phones(phones)
    }

    #[test]
    fn analyze_produces_consistent_report() {
        let report = StudyReport::analyze(&small_fleet(), AnalysisConfig::default());
        assert_eq!(report.panic_distribution.total(), 2);
        assert_eq!(report.shutdowns.self_shutdowns().len(), 2);
        assert_eq!(report.mtbf.self_shutdowns, 2);
        // The panic at 590 s coalesces with the shutdown at 600 s.
        assert_eq!(report.coalescence.related_fraction(), 1.0);
        assert_eq!(report.activity.total(), 2);
        assert_eq!(report.runapps.modal_concurrency(), Some(1));
    }

    #[test]
    fn renders_contain_headlines() {
        let report = StudyReport::analyze(&small_fleet(), AnalysisConfig::default());
        let all = report.render_all();
        for needle in [
            "Figure 2",
            "Table 2",
            "Figure 3",
            "Figure 5",
            "Table 3",
            "Figure 6",
            "Table 4",
            "MTBF",
            "KERN-EXEC 3",
            "Parse defects",
        ] {
            assert!(all.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn shape_report_covers_all_table2_rows() {
        let report = StudyReport::analyze(&small_fleet(), AnalysisConfig::default());
        let shape = report.shape_report();
        let t2 = shape
            .checks()
            .iter()
            .filter(|c| c.name.starts_with("Table 2"))
            .count();
        assert_eq!(t2, 20);
        // This tiny fleet obviously misses the paper's totals.
        assert!(!shape.all_pass());
    }

    /// An MTBF estimate over zero failures of its kind renders as
    /// `n/a`, never as `0 h`; a defined one keeps its digits.
    #[test]
    fn zero_failure_mtbf_renders_as_not_available() {
        let hours = SimDuration::from_hours(1200);
        let render = |freezes, self_shutdowns| {
            let mut report = StudyReport::empty(AnalysisConfig::default());
            report.mtbf = MtbfAnalysis::from_totals(hours, freezes, self_shutdowns);
            report.render_mtbf()
        };
        assert_eq!(
            render(0, 4),
            "MTBF: powered-on 1200 h across fleet | freezes 0 (MTBFr n/a) | \
             self-shutdowns 4 (MTBS 300 h) | a failure every n/a\n"
        );
        assert_eq!(
            render(3, 0),
            "MTBF: powered-on 1200 h across fleet | freezes 3 (MTBFr 400 h) | \
             self-shutdowns 0 (MTBS n/a) | a failure every n/a\n"
        );
        assert_eq!(
            render(0, 0),
            "MTBF: powered-on 1200 h across fleet | freezes 0 (MTBFr n/a) | \
             self-shutdowns 0 (MTBS n/a) | a failure every n/a\n"
        );
        assert_eq!(
            render(3, 4),
            "MTBF: powered-on 1200 h across fleet | freezes 3 (MTBFr 400 h) | \
             self-shutdowns 4 (MTBS 300 h) | a failure every 14.6 days\n"
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = AnalysisConfig::default();
        assert_eq!(c.self_shutdown_threshold.as_secs(), 360);
        assert_eq!(c.coalescence_window.as_secs(), 300);
    }
}
