//! Logger recovery invariants over real device histories.
//!
//! Runs phones with heavily accelerated failure rates through many
//! power cycles of every kind (self-shutdowns, night shutdowns, user
//! reboots, battery pulls, LOWBT) and checks the flash-file invariants
//! the whole analysis rests on:
//!
//! * the beats stream is monotonically timestamped;
//! * every boot record agrees with the beats file (the last event
//!   before the boot, and the measured off-duration);
//! * a freeze flag appears exactly when the last event was `ALIVE`;
//! * `LOWBT`/`MAOFF` sessions never enter the shutdown-event set.

use symfail::core::analysis::dataset::PhoneDataset;
use symfail::core::records::{decode_beat, HeartbeatEvent};
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::device::Phone;
use symfail::sim::{SimRng, SimTime};

fn stressed_params() -> CalibrationParams {
    CalibrationParams {
        phones: 1,
        campaign_days: 90,
        enrollment_spread_days: 1,
        attrition_spread_days: 1,
        nightly_shutdown_fraction: 0.5,
        background_episode_rate_per_hour: 0.03,
        p_episode_per_call: 0.10,
        p_episode_per_message: 0.02,
        isolated_freeze_rate_per_hour: 0.02,
        isolated_self_shutdown_rate_per_hour: 0.02,
        user_reboot_rate_per_day: 0.3,
        p_lowbt_per_day: 0.08,
        ..CalibrationParams::default()
    }
}

fn run_phone(seed: u64) -> PhoneDataset {
    let mut phone = Phone::new(
        0,
        stressed_params(),
        SimRng::seed_from(seed).fork("stress", 0),
    );
    for day in 0..90 {
        phone.simulate_day(day);
    }
    PhoneDataset::from_flashfs(0, phone.flashfs())
}

#[test]
fn beats_are_monotone_and_sessions_end_once() {
    for seed in [1u64, 2, 3] {
        let ds = run_phone(seed);
        assert!(ds.beats().len() > 1000, "stressed phone produced beats");
        let mut last = SimTime::ZERO;
        let mut prev_final = false;
        for &(at, ev) in ds.beats() {
            assert!(at >= last, "beats monotone at {at}");
            last = at;
            let is_final = ev != HeartbeatEvent::Alive;
            assert!(
                !(prev_final && is_final),
                "two consecutive final events at {at} (seed {seed})"
            );
            prev_final = is_final;
        }
    }
}

#[test]
fn boot_records_agree_with_beats_file() {
    let ds = run_phone(7);
    let boots = ds.boots();
    assert!(boots.len() > 50, "many power cycles: {}", boots.len());
    for boot in boots.iter().skip(1) {
        // The beats written strictly before this boot; the last one is
        // what the Panic Detector saw.
        let last_beat = ds.beats().iter().rfind(|(at, _)| *at < boot.boot_at);
        let Some(&(at, ev)) = last_beat else { continue };
        assert_eq!(
            boot.last_event, ev,
            "boot at {} recorded last event {:?} but beats say {:?}",
            boot.boot_at, boot.last_event, ev
        );
        assert_eq!(boot.last_event_at, at);
        assert_eq!(boot.freeze_detected, ev == HeartbeatEvent::Alive);
        match ev {
            HeartbeatEvent::Alive => assert!(boot.off_duration.is_none()),
            _ => {
                let measured = boot.off_duration.expect("clean shutdowns have duration");
                assert_eq!(measured, boot.boot_at.saturating_since(at));
            }
        }
    }
}

#[test]
fn lowbt_and_freeze_sessions_never_become_shutdown_events() {
    let ds = run_phone(11);
    let lowbt_times: Vec<SimTime> = ds
        .beats()
        .iter()
        .filter(|(_, ev)| *ev == HeartbeatEvent::LowBattery)
        .map(|(at, _)| *at)
        .collect();
    assert!(!lowbt_times.is_empty(), "scenario exercises LOWBT");
    for e in ds.shutdown_events() {
        assert!(
            !lowbt_times.contains(&e.off_at),
            "LOWBT session leaked into the shutdown set"
        );
    }
    // Freezes and shutdown events are disjoint by construction.
    let freeze_times: Vec<SimTime> = ds.freezes().iter().map(|f| f.at).collect();
    assert!(!freeze_times.is_empty());
    for e in ds.shutdown_events() {
        assert!(!freeze_times.contains(&e.off_at));
    }
}

#[test]
fn raw_flash_lines_all_parse() {
    let mut phone = Phone::new(
        0,
        stressed_params(),
        SimRng::seed_from(13).fork("stress", 0),
    );
    for day in 0..30 {
        phone.simulate_day(day);
    }
    let fs = phone.flashfs();
    for line in fs.read_lines("beats") {
        decode_beat(line.as_bytes()).expect("every beat line parses");
    }
    for line in fs.read_lines("log") {
        symfail::core::records::RecordRef::decode(line).expect("every log line parses");
    }
    assert!(fs.read_lines("log").count() > 10);
}
