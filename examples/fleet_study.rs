//! The full study: 25 phones, 14 months, every table and figure.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fleet_study
//! ```
//!
//! This is the library-API version of the `repro` binary's `--exp all`
//! mode: it streams the calibrated fleet campaign through the analysis
//! pipeline (each phone's flash is parsed, folded and dropped on a
//! worker thread), prints the reproduced tables/figures, and closes
//! with the paper-vs-measured shape report.

use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::AnalysisConfig;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::fleet::{total_stats, FleetCampaign};
use symfail::sim::SimDuration;

fn main() {
    let params = CalibrationParams::default();
    let campaign = FleetCampaign::new(2005, params);
    eprintln!(
        "running {} phones over {} days...",
        params.phones, params.campaign_days
    );
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    // The analysis sees only the flash files, like the original study.
    let config = AnalysisConfig {
        uptime_gap: SimDuration::from_secs(params.heartbeat_period_secs * 3 + 60),
        ..AnalysisConfig::default()
    };
    let run = campaign.run_streaming(workers, config, &PassRegistry::all());
    let report = run.report;

    // Simulator ground truth (the analysis above never touched it).
    let truth = total_stats(&run.metas);
    eprintln!(
        "ground truth: {} panics, {} freezes, {} self-shutdowns, {} calls, {} messages",
        truth.panics, truth.freezes, truth.self_shutdowns, truth.calls, truth.messages
    );

    println!("{}", report.render_all());
    println!("=== paper-vs-measured shape report ===");
    let shape = report.shape_report();
    println!("{shape}");
    if shape.all_pass() {
        println!("\nevery target within tolerance — the study reproduces.");
    } else {
        println!("\nsome targets missed — see deviations above.");
    }
}
