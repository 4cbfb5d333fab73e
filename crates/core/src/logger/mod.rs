//! The failure data logger (Figure 1 of the paper).
//!
//! The logger is a daemon application that starts at phone start-up
//! and executes in the background. It is composed of active objects:
//!
//! * [`HeartbeatAo`] — detects freezes and self-shutdowns by writing
//!   periodic `ALIVE` events and a final `REBOOT`/`MAOFF`/`LOWBT`
//!   event on clean shutdowns;
//! * [`RunningAppsDetector`] — periodically snapshots the running
//!   application list (from the Application Architecture Server) into
//!   the `runapp` file;
//! * [`LogEngine`] — collects phone activity (calls, messages) from
//!   the Database Log Server into the `activity` file;
//! * [`PowerManager`] — records battery status (the System Agent
//!   Server's, in the paper) into the `power` file;
//! * [`PanicDetector`] — receives panic notifications (the `RDebug`
//!   hook of the Kernel Server), consolidates the other AOs' data into
//!   the single consolidated log file, and at boot inspects the last
//!   heartbeat to classify what ended the previous session.
//!
//! [`FailureLogger`] wires the five together behind the narrow hook
//! API the device simulator drives. Every logger runs every AO on the
//! same schedule; which files it writes is fixed when it is built
//! ([`LoggerFiles`]): all of them, the consolidated log and `beats`, or
//! the consolidated log alone.

mod dexc;
mod heartbeat;
mod logengine;
mod panicdet;
mod power;
mod runapps;
mod user_reports;

pub use dexc::{DExcLogger, DEXC_FILE};
pub use heartbeat::HeartbeatAo;
pub use logengine::LogEngine;
pub use panicdet::PanicDetector;
pub use power::PowerManager;
pub use runapps::RunningAppsDetector;
pub use user_reports::{UserReportChannel, UserReportKind, UREPORT_FILE};

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};
use symfail_symbian::servers::logdb::ActivityKind;
use symfail_symbian::Panic;

use crate::flashfs::FlashFs;
use crate::records::HeartbeatEvent;

/// Flash file names used by the logger.
pub mod files {
    /// Heartbeat events.
    pub const BEATS: &str = "beats";
    /// Running-application snapshots.
    pub const RUNAPP: &str = "runapp";
    /// Phone activity records.
    pub const ACTIVITY: &str = "activity";
    /// Battery status samples.
    pub const POWER: &str = "power";
    /// The consolidated log file.
    pub const LOG: &str = "log";
}

/// Tuning knobs of the logger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoggerConfig {
    /// Heartbeat period (paper's deployment used tens of seconds; the
    /// trade-off is studied in the heartbeat ablation bench).
    pub heartbeat_period: SimDuration,
    /// Snapshot the running apps / power files every N heartbeats.
    pub snapshot_every: u32,
}

impl Default for LoggerConfig {
    fn default() -> Self {
        Self {
            heartbeat_period: SimDuration::from_secs(30),
            snapshot_every: 10,
        }
    }
}

/// The phone state the logger's active objects sample: a borrowed
/// view of the Application Architecture Server's running list and the
/// System Agent Server's battery status. The embedding simulator
/// builds it in place at every hook, so a heartbeat tick copies and
/// allocates nothing. The activity in progress is not part of the
/// view: only the Panic Detector writes it, so it is read from the
/// Database Log Server at the panic site and passed to
/// [`FailureLogger::on_panic`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhoneContext<'a> {
    /// Applications currently running (excluding the logger daemon).
    pub running_apps: &'a [&'static str],
    /// Battery level in percent.
    pub battery_percent: u8,
    /// True when the System Agent reports the battery critically low.
    pub battery_low: bool,
}

/// Which flash files a phone writes, fixed when its logger is built.
/// Every value runs the AOs on the same schedule, and the Heartbeat AO
/// always remembers its last event, so the boot records, panic records
/// and every byte of `log` are the same for all three; so are the bytes
/// of each other file a value writes. Every value writes `log` and the
/// users' `ureport` (the embedding simulator's user report channel).
/// The values are nested sets, ordered by inclusion, so the union of
/// two is their `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoggerFiles {
    /// The consolidated `log` (and `ureport`): what a reader of panics,
    /// boots, freezes and shutdowns reads.
    LogOnly,
    /// `log` and `beats` (and `ureport`): what a reader of powered-on
    /// time or of the beats file's defects reads. The sampled `runapp`,
    /// `power` and `activity` files are never written; the Panic
    /// Detector takes the running applications, the battery and the
    /// activity from the phone, never from them.
    LogAndBeats,
    /// Every file: `beats`, `runapp`, `activity`, `power`, `ureport`
    /// and the consolidated `log` — the deployed logger.
    All,
}

impl LoggerFiles {
    /// The files a phone built this way may write, sorted by name as
    /// [`FlashFs::file_names`] lists them. A file appears on flash only
    /// once something is written to it.
    pub fn names(self) -> &'static [&'static str] {
        match self {
            LoggerFiles::All => &[
                files::ACTIVITY,
                files::BEATS,
                files::LOG,
                files::POWER,
                files::RUNAPP,
                UREPORT_FILE,
            ],
            LoggerFiles::LogAndBeats => &[files::BEATS, files::LOG, UREPORT_FILE],
            LoggerFiles::LogOnly => &[files::LOG, UREPORT_FILE],
        }
    }

    /// `file`'s bytes on `fs` when this set holds it, else empty.
    pub fn read<'a>(self, fs: &'a FlashFs, file: &str) -> &'a [u8] {
        let held = self.names().contains(&file);
        fs.read_bytes(file).filter(|_| held).unwrap_or_default()
    }

    /// `fs`, when `beats` is written.
    fn beats_file(self, fs: &mut FlashFs) -> Option<&mut FlashFs> {
        (self != LoggerFiles::LogOnly).then_some(fs)
    }

    /// `fs`, when the sampled `runapp`, `power` and `activity` files
    /// are written.
    fn sampled_files(self, fs: &mut FlashFs) -> Option<&mut FlashFs> {
        (self == LoggerFiles::All).then_some(fs)
    }
}

/// How a clean shutdown was initiated (drives the final heartbeat
/// event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShutdownKind {
    /// Power-off or reboot via the power button, or a kernel-initiated
    /// reboot: indistinguishable in the beats file, exactly as in the
    /// paper (the reboot-duration analysis separates them later).
    Reboot,
    /// The user turned the logger application off.
    ManualOff,
    /// Shutdown forced by a drained battery.
    LowBattery,
}

/// The failure data logger daemon.
///
/// # Example
///
/// ```
/// use symfail_core::analysis::dataset::PhoneDataset;
/// use symfail_core::flashfs::FlashFs;
/// use symfail_core::logger::{FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
/// use symfail_sim_core::SimTime;
///
/// let mut fs = FlashFs::new();
/// let mut logger = FailureLogger::new(LoggerConfig::default());
/// let running = ["Messages"];
/// let ctx = PhoneContext {
///     running_apps: &running,
///     battery_percent: 80,
///     battery_low: false,
/// };
/// logger.on_boot(&mut fs, SimTime::ZERO, || ctx);
/// logger.on_tick(&mut fs, SimTime::from_secs(30), ctx);
/// logger.on_clean_shutdown(&mut fs, SimTime::from_secs(60), ShutdownKind::Reboot);
/// // Next boot classifies the previous session:
/// logger.on_boot(&mut fs, SimTime::from_secs(142), || ctx);
/// // Harvesting parses the flash back, as the study did:
/// let phone = PhoneDataset::from_flashfs(0, &fs);
/// assert_eq!(phone.boots().len(), 2);
/// assert_eq!(phone.boots()[1].off_duration.unwrap().as_secs(), 82);
/// ```
#[derive(Debug, Clone)]
pub struct FailureLogger {
    config: LoggerConfig,
    files: LoggerFiles,
    heartbeat: HeartbeatAo,
    runapps: RunningAppsDetector,
    logengine: LogEngine,
    power: PowerManager,
    panicdet: PanicDetector,
    ticks_since_snapshot: u32,
}

impl FailureLogger {
    /// Creates a logger with the given configuration that writes every
    /// file.
    pub fn new(config: LoggerConfig) -> Self {
        Self::with_files(config, LoggerFiles::All)
    }

    /// Creates a logger with the given configuration that writes
    /// `files`.
    pub fn with_files(config: LoggerConfig, files: LoggerFiles) -> Self {
        Self {
            config,
            files,
            heartbeat: HeartbeatAo::new(),
            runapps: RunningAppsDetector::new(),
            logengine: LogEngine::new(),
            power: PowerManager::new(),
            panicdet: PanicDetector::new(),
            ticks_since_snapshot: 0,
        }
    }

    /// Called when the phone (and thus the logger daemon) starts. The
    /// Panic Detector asks the Heartbeat AO for the previous session's
    /// last event to classify how it ended, then writes a boot record;
    /// the heartbeat resumes. `ctx` is sampled only for the boot's
    /// `runapp` and `power` snapshot, so only by a logger that writes
    /// every file.
    pub fn on_boot<'a>(
        &mut self,
        fs: &mut FlashFs,
        now: SimTime,
        ctx: impl FnOnce() -> PhoneContext<'a>,
    ) {
        self.panicdet.on_boot(fs, now, self.heartbeat.last_event());
        self.heartbeat.beat(self.files.beats_file(fs), now);
        if let Some(fs) = self.files.sampled_files(fs) {
            self.snapshot(fs, now, ctx());
        }
        self.ticks_since_snapshot = 0;
    }

    /// Periodic heartbeat tick; also drives the lower-frequency
    /// snapshots of the auxiliary files. The one-tick run of
    /// [`Self::on_ticks`].
    pub fn on_tick(&mut self, fs: &mut FlashFs, now: SimTime, ctx: PhoneContext<'_>) {
        self.on_ticks(fs, now, 1, || ctx);
    }

    /// The most ticks the next [`Self::on_ticks`] run may hold: for a
    /// logger that writes every file, the ticks up to and including the
    /// next snapshot tick (at least 1); for any other, which writes no
    /// snapshot, `u32::MAX`.
    pub fn ticks_until_snapshot(&self) -> u32 {
        if self.files != LoggerFiles::All {
            return u32::MAX;
        }
        self.config
            .snapshot_every
            .saturating_sub(self.ticks_since_snapshot)
            .max(1)
    }

    /// A run of `n` heartbeat ticks at `first`, `first + period`, …
    /// (the configured period): `n` `ALIVE` lines through one file
    /// lookup, and — when the run reaches the snapshot tick, which can
    /// only be its last — the `runapp` and `power` snapshot lines at
    /// that tick. `ctx` is sampled only then, so a caller that steps
    /// its state once per tick samples it only where a snapshot is
    /// written (never, unless the logger writes every file). The bytes
    /// and the snapshot counter equal those of `n` single
    /// [`Self::on_tick`] calls.
    ///
    /// # Panics
    ///
    /// When `n` exceeds [`Self::ticks_until_snapshot`].
    pub fn on_ticks<'a>(
        &mut self,
        fs: &mut FlashFs,
        first: SimTime,
        n: u32,
        ctx: impl FnOnce() -> PhoneContext<'a>,
    ) {
        assert!(
            n <= self.ticks_until_snapshot(),
            "a tick run of {n} passes the snapshot due in {}",
            self.ticks_until_snapshot()
        );
        if n == 0 {
            return;
        }
        let period = self.config.heartbeat_period;
        self.heartbeat
            .beats(self.files.beats_file(fs), first, period, n);
        let every = self.config.snapshot_every;
        let since = u64::from(self.ticks_since_snapshot) + u64::from(n);
        if since >= u64::from(every) {
            if let Some(fs) = self.files.sampled_files(fs) {
                self.snapshot(fs, first + period * u64::from(n - 1), ctx());
            }
        }
        // What runs cut at every snapshot tick would leave; a logger
        // that writes every file has just reached 0 or stays below
        // `every`.
        self.ticks_since_snapshot = (since % u64::from(every.max(1))) as u32;
    }

    /// Called when the Database Log Server records a completed
    /// activity; the Log Engine mirrors it into the activity file.
    pub fn on_activity(
        &mut self,
        fs: &mut FlashFs,
        start: SimTime,
        end: SimTime,
        kind: ActivityKind,
    ) {
        if let Some(fs) = self.files.sampled_files(fs) {
            self.logengine.record(fs, start, end, kind);
        }
    }

    /// Called when the kernel notifies a panic (the `RDebug` hook).
    /// The Panic Detector consolidates the context and the activity in
    /// progress (read from the Database Log Server) into the log file.
    pub fn on_panic(
        &mut self,
        fs: &mut FlashFs,
        now: SimTime,
        panic: &Panic,
        ctx: PhoneContext<'_>,
        activity: Option<ActivityKind>,
    ) {
        self.panicdet.on_panic(fs, now, panic, ctx, activity);
    }

    /// Called during a clean shutdown: the OS lets applications finish
    /// their work, which is sufficient for the Heartbeat to record the
    /// final event. A battery pull never reaches this hook.
    pub fn on_clean_shutdown(&mut self, fs: &mut FlashFs, now: SimTime, kind: ShutdownKind) {
        let event = match kind {
            ShutdownKind::Reboot => HeartbeatEvent::Reboot,
            ShutdownKind::ManualOff => HeartbeatEvent::ManualOff,
            ShutdownKind::LowBattery => HeartbeatEvent::LowBattery,
        };
        self.heartbeat
            .final_event(self.files.beats_file(fs), now, event);
    }

    fn snapshot(&mut self, fs: &mut FlashFs, now: SimTime, ctx: PhoneContext<'_>) {
        self.runapps.snapshot(fs, now, ctx.running_apps);
        self.power
            .snapshot(fs, now, ctx.battery_percent, ctx.battery_low);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{encode_beat_into, BootRecord, RecordRef};
    use proptest::prelude::*;
    use symfail_symbian::panic::codes;

    fn ctx() -> PhoneContext<'static> {
        PhoneContext {
            running_apps: &["Messages"],
            battery_percent: 80,
            battery_low: false,
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// The boot records of `fs`'s log, in file order.
    fn boots(fs: &FlashFs) -> Vec<BootRecord> {
        fs.read_lines(files::LOG)
            .filter_map(|line| match RecordRef::decode(line) {
                Ok(RecordRef::Boot(b)) => Some(b),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn first_boot_writes_boot_record_and_alive() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        lg.on_boot(&mut fs, t(0), ctx);
        let boots = boots(&fs);
        assert_eq!(boots.len(), 1);
        assert!(!boots[0].freeze_detected, "first boot is not a freeze");
        assert!(boots[0].off_duration.is_none());
        assert_eq!(fs.last_line(files::BEATS), Some("0|ALIVE"));
    }

    #[test]
    fn clean_reboot_yields_off_duration() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        lg.on_boot(&mut fs, t(0), ctx);
        lg.on_tick(&mut fs, t(30), ctx());
        lg.on_clean_shutdown(&mut fs, t(45), ShutdownKind::Reboot);
        lg.on_boot(&mut fs, t(125), ctx);
        let boots = boots(&fs);
        assert_eq!(boots.len(), 2);
        let b = boots[1];
        assert!(!b.freeze_detected);
        assert_eq!(b.off_duration, Some(SimDuration::from_secs(80)));
        assert_eq!(b.last_event, HeartbeatEvent::Reboot);
    }

    #[test]
    fn battery_pull_after_freeze_detected() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        lg.on_boot(&mut fs, t(0), ctx);
        lg.on_tick(&mut fs, t(30), ctx());
        // Phone freezes: no clean shutdown; the user pulls the battery
        // and boots again later.
        lg.on_boot(&mut fs, t(600), ctx);
        let b = boots(&fs)[1];
        assert!(b.freeze_detected);
        assert_eq!(b.last_event, HeartbeatEvent::Alive);
        assert_eq!(b.last_event_at, t(30));
        assert!(b.off_duration.is_none());
    }

    #[test]
    fn low_battery_and_manual_off_classified() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        lg.on_boot(&mut fs, t(0), ctx);
        lg.on_clean_shutdown(&mut fs, t(10), ShutdownKind::LowBattery);
        lg.on_boot(&mut fs, t(100), ctx);
        lg.on_clean_shutdown(&mut fs, t(200), ShutdownKind::ManualOff);
        lg.on_boot(&mut fs, t(300), ctx);
        let boots = boots(&fs);
        assert_eq!(boots[1].last_event, HeartbeatEvent::LowBattery);
        assert!(!boots[1].freeze_detected);
        assert_eq!(boots[2].last_event, HeartbeatEvent::ManualOff);
    }

    #[test]
    fn panic_consolidates_context() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        lg.on_boot(&mut fs, t(0), ctx);
        let p = Panic::new(codes::KERN_EXEC_3, "Messages", "dereferenced NULL");
        lg.on_panic(&mut fs, t(33), &p, ctx(), Some(ActivityKind::Message));
        let panic_rec = fs
            .read_lines(files::LOG)
            .find_map(|line| match RecordRef::decode(line) {
                Ok(RecordRef::Panic(r)) => Some(r),
                _ => None,
            })
            .expect("panic record present");
        assert_eq!(
            Panic::new(panic_rec.code, panic_rec.raised_by, panic_rec.reason),
            p
        );
        assert_eq!(panic_rec.apps().collect::<Vec<_>>(), ["Messages"]);
        assert_eq!(panic_rec.activity, Some(ActivityKind::Message));
        assert_eq!(panic_rec.battery, 80);
    }

    /// A log-only logger runs the full one's schedule and writes its
    /// `log` byte for byte, boot classifications included, but no other
    /// file; a log-and-beats logger writes the full one's `log` and
    /// `beats` and no sampled file.
    #[test]
    fn log_only_logger_writes_the_full_loggers_log_alone() {
        let config = LoggerConfig {
            heartbeat_period: SimDuration::from_secs(30),
            snapshot_every: 3,
        };
        let p = Panic::new(codes::KERN_EXEC_3, "Messages", "dereferenced NULL");
        let written = [
            LoggerFiles::All,
            LoggerFiles::LogAndBeats,
            LoggerFiles::LogOnly,
        ];
        let [full, analysis, log_only] = written.map(|written| {
            let mut fs = FlashFs::new();
            let mut lg = FailureLogger::with_files(config, written);
            lg.on_boot(&mut fs, t(0), ctx);
            lg.on_ticks(&mut fs, t(30), 2, ctx);
            lg.on_activity(&mut fs, t(40), t(70), ActivityKind::VoiceCall);
            lg.on_panic(&mut fs, t(75), &p, ctx(), Some(ActivityKind::VoiceCall));
            lg.on_tick(&mut fs, t(90), ctx());
            lg.on_clean_shutdown(&mut fs, t(100), ShutdownKind::LowBattery);
            lg.on_boot(&mut fs, t(900), ctx);
            lg.on_ticks(&mut fs, t(930), 3, ctx);
            // A freeze: the session ends without a final event.
            lg.on_boot(&mut fs, t(2000), ctx);
            (lg, fs)
        });
        assert_eq!(
            full.1.file_names(),
            [
                files::ACTIVITY,
                files::BEATS,
                files::LOG,
                files::POWER,
                files::RUNAPP
            ]
        );
        assert_eq!(analysis.1.file_names(), [files::BEATS, files::LOG]);
        assert_eq!(log_only.1.file_names(), [files::LOG]);
        for ((_, fs), files) in [&full, &analysis, &log_only].into_iter().zip(written) {
            assert!(fs.file_names().iter().all(|f| files.names().contains(f)));
        }
        for file in [files::LOG, files::BEATS] {
            assert_eq!(analysis.1.read_bytes(file), full.1.read_bytes(file));
        }
        assert_eq!(
            log_only.1.read_bytes(files::LOG),
            full.1.read_bytes(files::LOG)
        );
        let boots = boots(&log_only.1);
        assert_eq!(boots[1].last_event, HeartbeatEvent::LowBattery);
        assert_eq!(boots[1].off_duration, Some(SimDuration::from_secs(800)));
        assert!(boots[2].freeze_detected);
        assert_eq!(boots[2].last_event_at, t(990), "the run's last beat");
    }

    /// The values are nested sets ordered by inclusion, so `max` is
    /// their union, and every value writes `log` and `ureport`.
    #[test]
    fn file_sets_nest_in_their_order() {
        let sets = [
            LoggerFiles::LogOnly,
            LoggerFiles::LogAndBeats,
            LoggerFiles::All,
        ];
        for a in sets {
            assert!(a.names().contains(&files::LOG) && a.names().contains(&UREPORT_FILE));
            for b in sets {
                let (small, big) = (a.min(b), a.max(b));
                assert!(small.names().iter().all(|f| big.names().contains(f)));
            }
        }
        let mut fs = FlashFs::new();
        fs.append_line(files::BEATS, "0|ALIVE");
        assert_eq!(LoggerFiles::LogOnly.read(&fs, files::BEATS), b"");
        assert_eq!(
            LoggerFiles::LogAndBeats.read(&fs, files::BEATS),
            b"0|ALIVE\n"
        );
        assert_eq!(LoggerFiles::All.read(&fs, files::LOG), b"");
    }

    #[test]
    fn snapshots_written_at_configured_cadence() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig {
            heartbeat_period: SimDuration::from_secs(30),
            snapshot_every: 2,
        });
        lg.on_boot(&mut fs, t(0), ctx); // snapshot #1
        for i in 1..=4 {
            lg.on_tick(&mut fs, t(30 * i), ctx());
        }
        // boot snapshot + ticks 2 and 4
        assert_eq!(fs.read_lines(files::RUNAPP).count(), 3);
        assert_eq!(fs.read_lines(files::POWER).count(), 3);
        assert_eq!(fs.read_lines(files::BEATS).count(), 5);
    }

    #[test]
    fn zero_tick_run_writes_nothing() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig {
            heartbeat_period: SimDuration::from_secs(30),
            snapshot_every: 0,
        });
        lg.on_ticks(&mut fs, t(30), 0, ctx);
        assert!(fs.file_names().is_empty());
        assert_eq!(lg.ticks_until_snapshot(), 1);
    }

    #[test]
    #[should_panic(expected = "passes the snapshot")]
    fn tick_run_past_the_snapshot_is_refused() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig {
            heartbeat_period: SimDuration::from_secs(30),
            snapshot_every: 10,
        });
        lg.on_ticks(&mut fs, t(30), 11, ctx);
    }

    /// The phone state at tick `i` of a run: a battery level that moves
    /// every tick, so a snapshot sampled at the wrong tick shows.
    fn ctx_at(i: u64) -> PhoneContext<'static> {
        PhoneContext {
            running_apps: &["Camera", "Messages"],
            battery_percent: (i % 101) as u8,
            battery_low: i.is_multiple_of(7),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Tick runs cut at the snapshot ticks write the same `beats`,
        /// `runapp` and `power` bytes, wear and logger state as one
        /// `on_tick` per tick, across digit-count rollovers of the
        /// timestamp (…999 → 1…000, up to 20 digits), any period,
        /// snapshot cadence and starting snapshot phase.
        #[test]
        fn tick_runs_equal_single_ticks(
            start in prop_oneof![
                0u64..1_000_000_000_000,
                (1u32..19, 0u64..2_000).prop_map(|(k, below)| 10u64.pow(k).saturating_sub(1 + below)),
                1_000_000_000_000_000_000u64..10_000_000_000_000_000_000,
            ],
            period_ms in prop_oneof![
                Just(1u64),
                Just(300_000u64),
                1u64..10_000_000_000,
                (1u64..1_000, 0u32..10).prop_map(|(m, k)| m * 10u64.pow(k)),
            ],
            n in 0u64..300,
            snapshot_every in prop_oneof![Just(0u32), Just(1u32), Just(10u32), 0u32..40],
            phase in 0u32..40,
        ) {
            let config = LoggerConfig {
                heartbeat_period: SimDuration::from_millis(period_ms),
                snapshot_every,
            };
            let (mut fs_one, mut fs_run) = (FlashFs::new(), FlashFs::new());
            let (mut one, mut run) = (FailureLogger::new(config), FailureLogger::new(config));
            for lg_fs in [(&mut one, &mut fs_one), (&mut run, &mut fs_run)] {
                let (lg, fs) = lg_fs;
                lg.on_boot(fs, SimTime::ZERO, || ctx_at(0));
                for i in 0..u64::from(phase) {
                    lg.on_tick(fs, SimTime::from_millis(i), ctx_at(i));
                }
            }
            for i in 0..n {
                one.on_tick(&mut fs_one, SimTime::from_millis(start + i * period_ms), ctx_at(i));
            }
            let run_from = fs_run.size_of(files::BEATS) as usize;
            let mut done = 0;
            while done < n {
                let len = run.ticks_until_snapshot().min((n - done) as u32);
                let last = done + u64::from(len) - 1;
                let first = SimTime::from_millis(start + done * period_ms);
                run.on_ticks(&mut fs_run, first, len, || ctx_at(last));
                done += u64::from(len);
            }
            // The odometer against the canonical beat encoder.
            let mut want = Vec::new();
            for i in 0..n {
                encode_beat_into(&mut want, SimTime::from_millis(start + i * period_ms), HeartbeatEvent::Alive);
                want.push(b'\n');
            }
            prop_assert_eq!(&fs_run.read_bytes(files::BEATS).unwrap_or_default()[run_from..], &want[..]);
            for file in [files::BEATS, files::RUNAPP, files::POWER] {
                prop_assert_eq!(fs_run.read_bytes(file), fs_one.read_bytes(file), "{}", file);
            }
            prop_assert_eq!(fs_run.bytes_written(), fs_one.bytes_written());
            prop_assert_eq!(format!("{run:?}"), format!("{one:?}"));
        }
    }

    /// One powered session of a phone's life: the gap before its boot,
    /// the tick counts of the advances it is driven with, and how it
    /// ends (0 a freeze, else a clean shutdown of one of the three
    /// kinds).
    type Session = (u64, Vec<u32>, u32);

    /// Drives `lg` through `sessions` from `start`, one `on_ticks` run
    /// per advance, cut at the snapshot ticks when `cut`, with a panic
    /// after each advance and each session's end between its last beat
    /// and its next boot. Returns the `ALIVE`/final lines written, as
    /// the beat encoder writes each one from scratch.
    fn drive(
        lg: &mut FailureLogger,
        fs: &mut FlashFs,
        start: u64,
        sessions: &[Session],
        cut: bool,
    ) -> Vec<u8> {
        let period = lg.config.heartbeat_period.as_millis();
        let p = Panic::new(codes::KERN_EXEC_3, "Messages", "dereferenced NULL");
        let mut want = Vec::new();
        let mut line = |at: u64, event| {
            encode_beat_into(&mut want, SimTime::from_millis(at), event);
            want.push(b'\n');
        };
        let mut now = start;
        for (gap, advances, end) in sessions {
            now += gap;
            lg.on_boot(fs, SimTime::from_millis(now), ctx);
            line(now, HeartbeatEvent::Alive);
            let mut next = now + period;
            for &ticks in advances {
                let mut done = 0;
                while done < ticks {
                    let run = if cut {
                        lg.ticks_until_snapshot().min(ticks - done)
                    } else {
                        ticks - done
                    };
                    lg.on_ticks(fs, SimTime::from_millis(next), run, ctx);
                    for i in 0..u64::from(run) {
                        line(next + i * period, HeartbeatEvent::Alive);
                    }
                    next += u64::from(run) * period;
                    done += run;
                }
                lg.on_panic(fs, SimTime::from_millis(next - 1), &p, ctx(), None);
            }
            now = next;
            let kind = match end {
                0 => continue,
                1 => ShutdownKind::Reboot,
                2 => ShutdownKind::ManualOff,
                _ => ShutdownKind::LowBattery,
            };
            lg.on_clean_shutdown(fs, SimTime::from_millis(now), kind);
            let event = [
                HeartbeatEvent::Reboot,
                HeartbeatEvent::ManualOff,
                HeartbeatEvent::LowBattery,
            ][*end as usize - 1];
            line(now, event);
            now += 1;
        }
        want
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A logger that writes no sampled file takes each advance as
        /// one uncut run and writes the `log` and `beats` bytes, and
        /// keeps the last event and snapshot counter, of a full logger
        /// cut at every snapshot tick; and its beats, whose digits
        /// continue from run to run, are the lines the encoder formats
        /// one by one, across gaps, freezes, final events and reboots —
        /// a gap of 0 boots one period after the last beat, where the
        /// digits continue across the reboot.
        #[test]
        fn uncut_runs_write_what_cut_runs_write(
            start in prop_oneof![
                0u64..1_000_000_000_000,
                (1u32..19, 0u64..2_000).prop_map(|(k, below)| 10u64.pow(k).saturating_sub(1 + below)),
            ],
            period_ms in prop_oneof![Just(1u64), Just(300_000u64), 1u64..10_000_000_000],
            sessions in prop::collection::vec(
                (
                    prop_oneof![Just(0u64), 1u64..100_000_000],
                    prop::collection::vec(0u32..40, 0..4),
                    0u32..4,
                ),
                1..5,
            ),
            snapshot_every in prop_oneof![Just(0u32), Just(10u32), 0u32..20],
        ) {
            let config = LoggerConfig {
                heartbeat_period: SimDuration::from_millis(period_ms),
                snapshot_every,
            };
            let mut full = FailureLogger::new(config);
            let mut full_fs = FlashFs::new();
            let want = drive(&mut full, &mut full_fs, start, &sessions, true);
            prop_assert_eq!(full_fs.read_bytes(files::BEATS).unwrap_or_default(), &want[..]);
            for written in [LoggerFiles::LogOnly, LoggerFiles::LogAndBeats] {
                let mut lg = FailureLogger::with_files(config, written);
                let mut fs = FlashFs::new();
                drive(&mut lg, &mut fs, start, &sessions, false);
                for file in [files::LOG, files::BEATS] {
                    prop_assert_eq!(
                        fs.read_bytes(file),
                        written.names().contains(&file).then(|| full_fs.read_bytes(file)).flatten(),
                        "{:?} {}", written, file
                    );
                }
                prop_assert_eq!(lg.heartbeat.last_event(), full.heartbeat.last_event());
                prop_assert_eq!(lg.ticks_since_snapshot, full.ticks_since_snapshot);
            }
        }
    }

    #[test]
    fn activity_mirrored() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        lg.on_boot(&mut fs, t(0), ctx);
        lg.on_activity(&mut fs, t(10), t(70), ActivityKind::VoiceCall);
        assert_eq!(fs.read_lines(files::ACTIVITY).count(), 1);
        let line = fs.last_line(files::ACTIVITY).unwrap();
        assert!(line.contains('V'), "{line}");
    }
}
