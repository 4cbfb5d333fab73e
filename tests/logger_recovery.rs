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
//! * `LOWBT`/`MAOFF` sessions never enter the shutdown-event set;
//! * flash damage to those files gives the str path's reading, never a
//!   panic.

mod oracle;

use std::panic::catch_unwind;

use symfail::core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail::core::logger::{UserReportChannel, UserReportKind, UREPORT_FILE};
use symfail::core::records::{decode_beat, HeartbeatEvent};
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::device::Phone;
use symfail::sim::{SimDuration, SimRng, SimTime};

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
    PhoneDataset::from_flashfs_with(0, phone.flashfs(), &mut ParseScratch::default())
}

#[test]
fn beats_are_monotone_and_sessions_end_once() {
    for seed in [1u64, 2, 3] {
        let ds = run_phone(seed);
        assert!(ds.beats().count() > 1000, "stressed phone produced beats");
        let mut last = SimTime::ZERO;
        let mut prev_final = false;
        for (at, ev) in ds.beats() {
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
        let last_beat = ds.beats().take_while(|(at, _)| *at < boot.boot_at).last();
        let Some((at, ev)) = last_beat else { continue };
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
        .filter(|(_, ev)| *ev == HeartbeatEvent::LowBattery)
        .map(|(at, _)| at)
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

/// One flash-damage mutation of `bytes`, in place: a flipped bit, a
/// deleted, duplicated or moved span, a truncation, or a `\n` made
/// `\r\n`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SimRng) {
    let at = rng.index(bytes.len() + 1);
    let end = (at + 1 + rng.index(256)).min(bytes.len());
    match rng.index(6) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.index(8),
        1 => {
            bytes.drain(at..end);
        }
        2 => {
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
        3 => {
            let span: Vec<u8> = bytes.drain(at..end).collect();
            let to = rng.index(bytes.len() + 1);
            bytes.splice(to..to, span);
        }
        4 => bytes.truncate(at),
        _ => {
            if let Some(feed) = bytes[at..].iter().position(|&b| b == b'\n') {
                bytes.insert(at + feed, b'\r');
            }
        }
    }
}

/// The user reports in `raw` read as lossy text: a line that is not
/// UTF-8 holds a replacement character, which no report field parses.
fn lossy_reports(raw: &[u8]) -> Vec<(SimTime, UserReportKind)> {
    String::from_utf8_lossy(raw)
        .lines()
        .filter_map(|line| {
            let (ms, token) = line.split_once('|')?;
            Some((
                SimTime::from_millis(ms.parse().ok()?),
                UserReportKind::parse(token)?,
            ))
        })
        .collect()
}

/// A deterministic mutation test over one simulated phone's flash: a
/// fixed set of mutants of its `log`, `beats` and `ureport`, drawn from
/// one seeded stream. No reader panics; the parse keeps the str path's
/// beats in its order and counts its defects; powered-on time is the
/// brute-force gap sum of those beats at every threshold; and the user
/// reports are the lossy text's.
#[test]
fn mutated_flash_files_parse_as_the_str_path_does() {
    let mut phone = Phone::new(
        0,
        stressed_params(),
        SimRng::seed_from(17).fork("stress", 0),
    );
    for day in 0..20 {
        phone.simulate_day(day);
    }
    let mut base = phone.into_flashfs();
    // The user files few reports: three more give the damage lines to
    // hit.
    let mut reports = base.read_bytes(UREPORT_FILE).unwrap_or_default().to_vec();
    reports.extend_from_slice(b"60000|OUT\n90000|UNST\n120000|IN\n");
    base.overwrite_raw(UREPORT_FILE, reports);
    let mut rng = SimRng::seed_from(0x5eed_f1a5);
    const MUTANTS: usize = 300;
    let (mut reordered, mut repeated) = (0, 0);
    for mutant in 0..MUTANTS {
        let mut fs = base.clone();
        for file in ["log", "beats", UREPORT_FILE] {
            let mut bytes = fs.read_bytes(file).unwrap_or_default().to_vec();
            for _ in 0..1 + rng.index(3) {
                mutate(&mut bytes, &mut rng);
            }
            fs.overwrite_raw(file, bytes);
        }
        let ds =
            catch_unwind(|| PhoneDataset::from_flashfs_with(0, &fs, &mut ParseScratch::default()))
                .unwrap_or_else(|_| panic!("mutant {mutant}: the parse panicked"));
        let reports = catch_unwind(|| UserReportChannel::parse(&fs))
            .unwrap_or_else(|_| panic!("mutant {mutant}: the report reader panicked"));
        let file = |name| fs.read_bytes(name).unwrap_or_default();
        let (beats, defects) = oracle::str_path_phone(file("log"), file("beats"));
        assert_eq!(ds.beats().collect::<Vec<_>>(), beats, "mutant {mutant}");
        assert_eq!(ds.defects(), &defects, "mutant {mutant}");
        for max_gap in [0, 1, 30_000, 300_000, 3_600_000, u64::MAX] {
            let brute: u64 = beats
                .windows(2)
                .map(|pair| (pair[1].0 - pair[0].0).as_millis())
                .filter(|&gap| gap <= max_gap)
                .sum();
            assert_eq!(
                ds.powered_on_time(SimDuration::from_millis(max_gap)),
                SimDuration::from_millis(brute),
                "mutant {mutant}, max gap {max_gap} ms"
            );
        }
        assert_eq!(
            reports,
            lossy_reports(file(UREPORT_FILE)),
            "mutant {mutant}"
        );
        reordered += usize::from(defects.out_of_order > 0);
        repeated += usize::from(defects.duplicate > 0);
    }
    // Moved and duplicated spans must reach the stray and duplicate
    // paths, or the test exercises neither.
    for (what, count) in [("reordered", reordered), ("repeated", repeated)] {
        assert!(
            (MUTANTS / 10..MUTANTS).contains(&count),
            "{count} of {MUTANTS} mutants {what}"
        );
    }
}
