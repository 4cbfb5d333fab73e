//! D_EXC vs the paper's logger, on the same campaign.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```
//!
//! The related-work section of the paper mentions `D_EXC`, a tool that
//! collects panic events but "does not relate panic events to failure
//! manifestations, running applications, and phone activities". This
//! example runs a campaign, replays the panic stream into a `D_EXC`
//! collector, and shows side by side what each tool lets you conclude.

use symfail::core::analysis::baseline::BaselineComparison;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::flashfs::FlashFs;
use symfail::core::logger::DExcLogger;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::fleet::FleetCampaign;
use symfail::stats::CategoricalDist;
use symfail::symbian::Panic;

fn main() {
    let params = CalibrationParams {
        phones: 8,
        campaign_days: 120,
        enrollment_spread_days: 10,
        attrition_spread_days: 10,
        background_episode_rate_per_hour: 0.01,
        p_episode_per_call: 0.03,
        ..CalibrationParams::default()
    };
    let workers = 2;
    let run = FleetCampaign::new(7, params).run_streaming(
        workers,
        params.analysis_config(),
        &PassRegistry::all(),
    );
    let report = &run.report;

    // Replay the same panic notifications — every panic the
    // coalescence section holds, in phone and time order — into a
    // D_EXC collector: the same RDebug hook, none of the context.
    let mut dexc_fs = FlashFs::new();
    let mut dexc = DExcLogger::new();
    for p in report.coalescence.panics() {
        let event = &p.panic;
        let panic = Panic::new(
            event.code,
            run.names.resolve(event.raised_by),
            run.names.resolve(event.reason),
        );
        dexc.on_panic(&mut dexc_fs, event.at, &panic);
    }
    let collected = DExcLogger::parse(&dexc_fs);
    let dexc_dist: CategoricalDist = collected.iter().map(|(_, c)| c.to_string()).collect();

    println!("=== what D_EXC gives you ===");
    println!("panic stream ({} events), top codes:", collected.len());
    for (code, n) in dexc_dist.top_k(5) {
        println!("  {code:<20} {n}");
    }
    println!("freezes / self-shutdowns / activity / running apps: UNAVAILABLE\n");

    println!("=== what the paper's logger gives you ===");
    println!("{}", report.render_mtbf());
    println!("{}", BaselineComparison::new(report).render());
}
