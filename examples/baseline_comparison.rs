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
use symfail::core::analysis::dataset::FleetDataset;
use symfail::core::analysis::report::StudyReport;
use symfail::core::flashfs::FlashFs;
use symfail::core::logger::DExcLogger;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::fleet::FleetCampaign;
use symfail::stats::CategoricalDist;

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
    let harvest = FleetCampaign::new(7, params).run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    let config = params.analysis_config();
    let report = StudyReport::analyze(&fleet, config);

    // Replay the same panic notifications into a D_EXC collector —
    // the same RDebug hook, none of the context.
    let mut dexc_fs = FlashFs::new();
    let mut dexc = DExcLogger::new();
    for (_, event) in fleet.panics() {
        dexc.on_panic(&mut dexc_fs, event.at, &event.to_panic(fleet.names()));
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
    println!("{}", BaselineComparison::new(&report).render());
}
