//! Logger internals: the heartbeat technique, step by step.
//!
//! Run with:
//!
//! ```text
//! cargo run --example logger_internals
//! ```
//!
//! Drives the failure data logger by hand through the three shutdown
//! signatures the paper's boot-time check discriminates — a clean
//! reboot, a low-battery shutdown and a freeze followed by a battery
//! pull — and prints the raw flash files after each, so you can see
//! exactly what the Panic Detector reads when the phone comes back up.

use symfail::core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail::core::flashfs::FlashFs;
use symfail::core::logger::{files, FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
use symfail::sim::{SimDuration, SimTime};
use symfail::symbian::panic::codes;
use symfail::symbian::servers::logdb::ActivityKind;
use symfail::symbian::Panic;

fn dump(fs: &FlashFs, banner: &str) {
    println!("--- {banner} ---");
    for file in [files::BEATS, files::LOG] {
        println!("{file}:");
        for line in fs.read_lines(file) {
            println!("  {line}");
        }
    }
    println!();
}

fn main() {
    let mut fs = FlashFs::new();
    let mut logger = FailureLogger::new(LoggerConfig {
        heartbeat_period: SimDuration::from_secs(30),
        snapshot_every: 4,
    });
    // What the phone's servers report at a hook: a borrowed view,
    // built in place (the simulator builds it where a record samples
    // it).
    let ctx = PhoneContext {
        running_apps: &["Messages"],
        battery_percent: 76,
        battery_low: false,
    };
    let t = SimTime::from_secs;

    // Scenario 1: normal session ending in a clean user reboot.
    logger.on_boot(&mut fs, t(0), || ctx);
    for i in 1..=3 {
        logger.on_ticks(&mut fs, t(30 * i), 1, || ctx);
    }
    logger.on_clean_shutdown(&mut fs, t(100), ShutdownKind::Reboot);
    logger.on_boot(&mut fs, t(190), || ctx);
    dump(
        &fs,
        "scenario 1: REBOOT then boot 90 s later -> off_duration=90s, no freeze",
    );

    // Scenario 2: a panic, then the kernel reboots the phone
    // (self-shutdown) — note the panic record carrying context and the
    // activity in progress, which the Database Log Server reports.
    let panic = Panic::new(codes::KERN_EXEC_3, "Messages", "dereferenced NULL");
    logger.on_panic(&mut fs, t(250), &panic, ctx, Some(ActivityKind::Message));
    logger.on_clean_shutdown(&mut fs, t(260), ShutdownKind::Reboot);
    logger.on_boot(&mut fs, t(342), || ctx);
    dump(
        &fs,
        "scenario 2: panic + kernel reboot -> 82 s off duration (self-shutdown signature)",
    );

    // Scenario 3: low battery.
    logger.on_ticks(&mut fs, t(372), 1, || ctx);
    logger.on_clean_shutdown(&mut fs, t(400), ShutdownKind::LowBattery);
    logger.on_boot(&mut fs, t(4000), || ctx);
    dump(
        &fs,
        "scenario 3: LOWBT -> excluded from the failure statistics",
    );

    // Scenario 4: freeze. The heartbeat just stops; no final event.
    logger.on_ticks(&mut fs, t(4030), 1, || ctx);
    logger.on_ticks(&mut fs, t(4060), 1, || ctx);
    // ... the phone is frozen here; the user pulls the battery ...
    logger.on_boot(&mut fs, t(4500), || ctx);
    dump(
        &fs,
        "scenario 4: heartbeat stops at ALIVE -> boot record flags a FREEZE",
    );

    // What the analysis extracts from all this:
    let dataset = PhoneDataset::from_flashfs_with(0, &fs, &mut ParseScratch::default());
    println!("analysis view:");
    println!(
        "  measurable shutdown events : {:?}",
        dataset
            .shutdown_events()
            .iter()
            .map(|e| e.duration.as_secs())
            .collect::<Vec<_>>()
    );
    println!("  freezes inferred           : {}", dataset.freezes().len());
    println!("  panics recorded            : {}", dataset.panics().len());
}
