//! Quickstart: one phone, one week, and everything the logger saw.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Simulates a single Symbian smart phone for a week with a heavily
//! accelerated fault model (so something interesting happens), then
//! harvests the flash files and walks through what the failure data
//! logger recorded: heartbeats, panic records with their context, and
//! the boot-time freeze/self-shutdown classification.

use symfail::core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail::core::logger::files;
use symfail::core::records::RecordRef;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::device::Phone;
use symfail::sim::SimRng;

fn main() {
    // One week of use, with fault rates cranked ~50x so the demo phone
    // misbehaves visibly.
    let params = CalibrationParams {
        phones: 1,
        campaign_days: 7,
        enrollment_spread_days: 1,
        attrition_spread_days: 1,
        background_episode_rate_per_hour: 0.05,
        p_episode_per_call: 0.25,
        p_episode_per_message: 0.05,
        isolated_freeze_rate_per_hour: 0.01,
        isolated_self_shutdown_rate_per_hour: 0.012,
        ..CalibrationParams::default()
    };
    let mut phone = Phone::new(0, params, SimRng::seed_from(7).fork("quickstart", 0));
    for day in 0..7 {
        phone.simulate_day(day);
    }

    let stats = phone.stats();
    println!("=== one simulated week ===");
    println!(
        "calls: {}  messages: {}  panics: {}  freezes: {}  self-shutdowns: {}",
        stats.calls, stats.messages, stats.panics, stats.freezes, stats.self_shutdowns
    );

    // Harvest the flash files, exactly as the study collected them.
    let fs = phone.flashfs();
    println!("\nflash files harvested:");
    for name in fs.file_names() {
        println!("  {name:<10} {:>8} bytes", fs.size_of(name));
    }

    // Decode the consolidated log, in the order the logger wrote it,
    // and narrate it.
    println!("\n=== consolidated log ===");
    for line in fs.read_lines(files::LOG) {
        match RecordRef::decode(line) {
            Ok(RecordRef::Panic(p)) => {
                println!(
                    "{}  PANIC {:<18} by {:<10} apps={:?} activity={:?} battery={}%",
                    p.at,
                    p.code.to_string(),
                    p.raised_by,
                    p.apps().collect::<Vec<_>>(),
                    p.activity,
                    p.battery
                );
            }
            Ok(RecordRef::Boot(b)) => {
                let verdict = if b.freeze_detected {
                    "FREEZE (battery was pulled)".to_string()
                } else {
                    match b.off_duration {
                        Some(d) => format!("clean shutdown, off for {d}"),
                        None => "first boot".to_string(),
                    }
                };
                println!("{}  BOOT   last={} -> {verdict}", b.boot_at, b.last_event);
            }
            Err(defect) => println!("undecodable line ({defect:?}): {line}"),
        }
    }

    // Parse the files back, as the study's analysis did.
    let dataset = PhoneDataset::from_flashfs_with(0, fs, &mut ParseScratch::default());
    println!(
        "\nshutdown events with measurable duration: {}",
        dataset.shutdown_events().len()
    );
    println!(
        "freezes inferred by the heartbeat check: {}",
        dataset.freezes().len()
    );
}
