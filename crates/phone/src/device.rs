//! One simulated smart phone: OS servers, battery, logger, user
//! behaviour and fault activation, advanced one day at a time.
//!
//! The phone is a small state machine — `On`, `Off(until)` or
//! `Frozen(boot_at)` — driven by a per-day action list (calls,
//! messages, application sessions, shutdowns, fault episodes). While
//! `On`, the embedded failure logger receives heartbeat ticks; a
//! freeze silences the heartbeat without a final event, and a clean
//! shutdown writes one, exactly reproducing the signatures the
//! paper's boot-time check discriminates. The logger's files are fixed
//! when the phone is built ([`LoggerFiles`]): a phone that writes fewer
//! files draws every random number a full one draws and writes the same
//! bytes to each file it does write.

use symfail_core::flashfs::FlashFs;
use symfail_core::logger::{
    FailureLogger, LoggerConfig, LoggerFiles, PhoneContext, ShutdownKind, UserReportChannel,
    UserReportKind,
};
use symfail_sim_core::{SimDuration, SimRng, SimTime};
use symfail_symbian::servers::applist::AppArchServer;
use symfail_symbian::servers::logdb::{ActivityKind, LogDbServer};

use crate::apps;
use crate::battery::Battery;
use crate::calibration::{CalibrationParams, EpisodeContext};
use crate::faults::{execute_fault, plan_episode, Escalation};
use crate::firmware::SymbianVersion;
use crate::user::UserProfile;

/// Power state of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PowerState {
    /// Running; heartbeats flow.
    On,
    /// Cleanly shut down until the given instant.
    Off(SimTime),
    /// Frozen; the user will pull the battery and reboot at the given
    /// instant. No heartbeat is written in between.
    Frozen(SimTime),
}

/// Counters the simulator keeps for sanity checks (the *analysis*
/// never reads these — it only sees the flash files).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhoneStats {
    /// Panics raised through the substrate mechanisms.
    pub panics: u64,
    /// Freezes entered (escalated or isolated).
    pub freezes: u64,
    /// Self-shutdowns performed.
    pub self_shutdowns: u64,
    /// Clean user/night reboots.
    pub user_shutdowns: u64,
    /// Low-battery shutdowns.
    pub lowbt_shutdowns: u64,
    /// Voice calls completed.
    pub calls: u64,
    /// Messages handled.
    pub messages: u64,
    /// Output failures experienced (invisible to the base logger).
    pub output_failures: u64,
    /// Output failures the user actually reported.
    pub user_reports: u64,
}

/// A timed action within one simulated day.
#[derive(Debug, Clone, Copy)]
enum Action {
    CallStart {
        duration: SimDuration,
        episode: bool,
        episode_offset: SimDuration,
    },
    MessageEvent {
        episode: bool,
        deferred: bool,
    },
    SessionStart {
        app: &'static str,
        duration: SimDuration,
    },
    SessionEnd {
        app: &'static str,
    },
    BackgroundEpisode,
    EpisodeAt(EpisodeContext),
    OutputFailure,
    IsolatedFreeze,
    IsolatedSelfShutdown,
    UserReboot,
    LowBatteryShutdown,
    NightShutdown,
    EndOfDay,
}

/// One simulated phone with its embedded failure logger.
#[derive(Debug)]
pub struct Phone {
    /// Identifier within the fleet.
    pub id: u32,
    /// The behaviour profile of its owner.
    pub profile: UserProfile,
    /// The Symbian OS release the phone runs.
    pub firmware: SymbianVersion,
    params: CalibrationParams,
    rng: SimRng,
    fs: FlashFs,
    logger: FailureLogger,
    apps: AppArchServer,
    logdb: LogDbServer,
    user_reports: UserReportChannel,
    battery: Battery,
    state: PowerState,
    next_beat: SimTime,
    stats: PhoneStats,
    booted_once: bool,
    /// The day's action queue, kept between days so its buffer is
    /// allocated once per phone.
    queue: Vec<(SimTime, Action)>,
}

impl Phone {
    /// Creates a phone whose logger writes every file; `rng` must be
    /// an independent stream for this phone.
    pub fn new(id: u32, params: CalibrationParams, mut rng: SimRng) -> Self {
        let profile = UserProfile::sample(&params, &mut rng);
        Self::with_profile(id, params, profile, rng, LoggerFiles::All)
    }

    /// Creates a phone with a caller-chosen behaviour profile (the
    /// fleet campaign stratifies traits across phones) that writes
    /// `files`, the set its harvest's reader and damage need.
    ///
    /// # Panics
    ///
    /// When `params.heartbeat_period_secs` is zero: the heartbeat
    /// would never advance.
    pub fn with_profile(
        id: u32,
        params: CalibrationParams,
        profile: UserProfile,
        rng: SimRng,
        files: LoggerFiles,
    ) -> Self {
        assert!(
            params.heartbeat_period_secs > 0,
            "heartbeat_period_secs must be positive: a zero period never advances the heartbeat"
        );
        let logger = FailureLogger::with_files(
            LoggerConfig {
                heartbeat_period: SimDuration::from_secs(params.heartbeat_period_secs),
                snapshot_every: 10,
            },
            files,
        );
        Self {
            id,
            profile,
            firmware: SymbianVersion::V8_0,
            params,
            rng,
            fs: FlashFs::new(),
            logger,
            apps: AppArchServer::new(),
            logdb: LogDbServer::with_retention(SimDuration::from_days(30)),
            user_reports: UserReportChannel::new(),
            battery: Battery::new(),
            state: PowerState::Off(SimTime::ZERO),
            next_beat: SimTime::ZERO,
            stats: PhoneStats::default(),
            booted_once: false,
            queue: Vec::new(),
        }
    }

    /// Moves the phone onto `fs`, the flash of a phone already
    /// harvested: emptied here ([`FlashFs::clear`]), so the phone
    /// starts with no file and a zero wear counter and writes the bytes
    /// it writes on fresh flash, but each file it creates takes `fs`'s
    /// buffer of the same name instead of growing one from empty.
    pub fn with_flash(mut self, mut fs: FlashFs) -> Self {
        fs.clear();
        self.fs = fs;
        self
    }

    /// Sets the Symbian OS release (older firmware carries more
    /// residual faults; see [`SymbianVersion::fault_multiplier`]).
    pub fn set_firmware(&mut self, firmware: SymbianVersion) {
        self.firmware = firmware;
    }

    /// The harvested flash filesystem (what the study collects).
    pub fn flashfs(&self) -> &FlashFs {
        &self.fs
    }

    /// Consumes the phone and yields its flash filesystem without
    /// copying — harvesting is the phone's end of life.
    pub fn into_flashfs(self) -> FlashFs {
        self.fs
    }

    /// Simulator-internal ground-truth counters.
    pub fn stats(&self) -> PhoneStats {
        self.stats
    }

    /// Advances the heartbeat stream (and battery drain) up to `now`:
    /// the due ticks go to the logger in runs that end at its snapshot
    /// ticks. The battery drains once per tick, so its floating-point
    /// levels do not depend on how the ticks are cut into runs, and
    /// the logger samples the phone only where it writes a snapshot.
    fn advance(&mut self, now: SimTime) {
        match self.state {
            PowerState::On => {
                if self.next_beat > now {
                    return;
                }
                let period = SimDuration::from_secs(self.params.heartbeat_period_secs);
                let mut due =
                    now.saturating_since(self.next_beat).as_millis() / period.as_millis() + 1;
                while due > 0 {
                    let run = u32::try_from(due)
                        .unwrap_or(u32::MAX)
                        .min(self.logger.ticks_until_snapshot());
                    for _ in 0..run {
                        self.battery.drain(period, SimDuration::ZERO);
                    }
                    let (apps, battery) = (&self.apps, &self.battery);
                    self.logger.on_ticks(&mut self.fs, self.next_beat, run, || {
                        logger_view(apps, battery)
                    });
                    self.next_beat += period * u64::from(run);
                    due -= u64::from(run);
                }
            }
            PowerState::Off(until) | PowerState::Frozen(until) => {
                if now >= until {
                    self.power_on(until.max(SimTime::ZERO));
                    self.advance(now);
                }
            }
        }
    }

    fn power_on(&mut self, at: SimTime) {
        self.apps.reset();
        let ctx = logger_view(&self.apps, &self.battery);
        self.logger.on_boot(&mut self.fs, at, ctx);
        self.state = PowerState::On;
        self.booted_once = true;
        self.next_beat = at + SimDuration::from_secs(self.params.heartbeat_period_secs);
    }

    fn clean_shutdown(&mut self, at: SimTime, kind: ShutdownKind, off_for: SimDuration) {
        if self.state != PowerState::On {
            return;
        }
        self.advance(at);
        if self.state != PowerState::On {
            return;
        }
        self.logger.on_clean_shutdown(&mut self.fs, at, kind);
        self.state = PowerState::Off(at + off_for);
    }

    fn freeze(&mut self, at: SimTime) {
        if self.state != PowerState::On {
            return;
        }
        self.stats.freezes += 1;
        // The user notices, pulls the battery, waits, reboots.
        let notice = SimDuration::from_secs_f64(self.rng.lognormal(180.0, 0.8));
        let off = SimDuration::from_secs_f64(self.rng.lognormal(120.0, 0.7));
        self.state = PowerState::Frozen(at + notice + off);
    }

    fn self_shutdown(&mut self, at: SimTime) {
        if self.state != PowerState::On {
            return;
        }
        self.stats.self_shutdowns += 1;
        let dur = SimDuration::from_secs_f64(self.rng.lognormal(
            self.params.self_shutdown_median_secs,
            self.params.self_shutdown_sigma,
        ));
        self.clean_shutdown(at, ShutdownKind::Reboot, dur);
    }

    /// Runs one fault episode: raises the panic(s) mechanically, lets
    /// the kernel terminate offending applications, then applies the
    /// escalation.
    fn run_episode(&mut self, at: SimTime, context: EpisodeContext) {
        if self.state != PowerState::On {
            return;
        }
        let episode = plan_episode(&self.params, context, &mut self.rng);
        // Make sure some application is in the foreground: faults
        // activate under use.
        let mut offender = match context {
            EpisodeContext::VoiceCall => "Telephone",
            EpisodeContext::Message | EpisodeContext::DeferredMessaging => "Messages",
            EpisodeContext::Background => match self.apps.running().first() {
                Some(&app) => app,
                None => {
                    let idx = self.rng.weighted_index(&apps::LAUNCH_WEIGHTS);
                    let app = apps::CATALOG[idx].name;
                    self.apps.notify_started(app);
                    app
                }
            },
        };
        let mut t = at;
        let codes = std::iter::once(episode.primary).chain(episode.cascade.iter().copied());
        for (i, code) in codes.enumerate() {
            self.advance(t);
            if self.state != PowerState::On {
                return;
            }
            let panic = execute_fault(code, offender, &mut self.rng);
            // The one place the logger records the activity in
            // progress, so the only read of the log database.
            let activity = self.logdb.activity_at(t);
            let ctx = logger_view(&self.apps, &self.battery);
            self.logger.on_panic(&mut self.fs, t, &panic, ctx, activity);
            self.stats.panics += 1;
            // Kernel recovery: terminate the offending application.
            self.apps.notify_exited(offender);
            // Error propagation: the next panic in the cascade hits
            // another component shortly after.
            if i < episode.cascade.len() {
                t += SimDuration::from_secs(3 + self.rng.next_u64() % 27);
                offender = match self.apps.running().first() {
                    Some(&app) => app,
                    None => {
                        let idx = self.rng.weighted_index(&apps::LAUNCH_WEIGHTS);
                        apps::CATALOG[idx].name
                    }
                };
            }
        }
        match episode.escalation {
            None => {
                // Sometimes the user notices the misbehaviour and
                // power-cycles the phone; the off time follows the
                // user-reboot distribution, so most of these escape
                // the 360 s self-shutdown filter.
                if self.rng.chance(self.params.p_user_reboot_after_panic) {
                    let delay = SimDuration::from_secs(20 + self.rng.next_u64() % 200);
                    let dur = SimDuration::from_secs_f64(self.rng.lognormal(
                        self.params.user_reboot_median_secs,
                        self.params.user_reboot_sigma,
                    ));
                    self.stats.user_shutdowns += 1;
                    self.clean_shutdown(t + delay, ShutdownKind::Reboot, dur);
                }
            }
            Some(Escalation::Freeze) => {
                let delay = SimDuration::from_secs(5 + self.rng.next_u64() % 90);
                self.advance(t + delay);
                self.freeze(t + delay);
            }
            Some(Escalation::SelfShutdown) => {
                let delay = SimDuration::from_secs(5 + self.rng.next_u64() % 60);
                self.self_shutdown(t + delay);
            }
        }
    }

    /// Simulates one day of the campaign.
    pub fn simulate_day(&mut self, day: u64) {
        let params = self.params;
        let day_start = SimTime::ZERO + SimDuration::from_days(day);
        let jitter = |rng: &mut SimRng, secs: u64| SimDuration::from_secs(rng.next_u64() % secs);
        let wake = day_start
            + SimDuration::from_secs(self.profile.wake_secs)
            + jitter(&mut self.rng, 1200);
        let sleep = day_start
            + SimDuration::from_secs(self.profile.sleep_secs)
            + jitter(&mut self.rng, 1200);
        let waking_secs = sleep.saturating_since(wake).as_secs().max(1);

        // Morning: the phone charged overnight — unless today is the
        // day the user forgets, which ends in a LOWBT shutdown.
        let lowbt_today = self.rng.chance(params.p_lowbt_per_day);
        if lowbt_today {
            self.battery.recharge_to(30.0);
        } else {
            self.battery.recharge_full();
        }

        // First boot of the fleet member / nightly power-on.
        if !self.booted_once {
            self.power_on(wake);
        }
        self.advance(wake);

        // Today's actions, in yesterday's buffer.
        let mut actions = std::mem::take(&mut self.queue);
        actions.clear();
        let at_random =
            |rng: &mut SimRng| wake + SimDuration::from_secs(rng.next_u64() % waking_secs);

        // Voice calls.
        let n_calls = sample_count(self.profile.calls_per_day, &mut self.rng);
        for _ in 0..n_calls {
            let t = at_random(&mut self.rng);
            let duration = SimDuration::from_secs_f64(
                self.rng
                    .lognormal(self.profile.call_median_secs, 0.9)
                    .max(5.0),
            );
            let episode = self
                .rng
                .chance(params.p_episode_per_call * self.firmware.fault_multiplier());
            let episode_offset =
                SimDuration::from_millis((duration.as_millis() as f64 * self.rng.uniform()) as u64);
            actions.push((
                t,
                Action::CallStart {
                    duration,
                    episode,
                    episode_offset,
                },
            ));
        }

        // Messages.
        let n_msgs = sample_count(self.profile.messages_per_day, &mut self.rng);
        for _ in 0..n_msgs {
            let t = at_random(&mut self.rng);
            let episode = self
                .rng
                .chance(params.p_episode_per_message * self.firmware.fault_multiplier());
            let deferred = episode && self.rng.chance(params.p_message_episode_deferred);
            actions.push((t, Action::MessageEvent { episode, deferred }));
        }

        // Application sessions.
        let n_sessions = sample_count(self.profile.app_sessions_per_day, &mut self.rng);
        for _ in 0..n_sessions {
            let t = at_random(&mut self.rng);
            let idx = self.rng.weighted_index(&apps::LAUNCH_WEIGHTS);
            let spec = apps::CATALOG[idx];
            let duration = SimDuration::from_secs_f64(
                self.rng
                    .lognormal(spec.session_median_secs, spec.session_sigma)
                    .max(5.0),
            );
            actions.push((
                t,
                Action::SessionStart {
                    app: spec.name,
                    duration,
                },
            ));
        }

        // Powered span today (for rate-based events): waking hours
        // plus, for always-on users, the night.
        let powered_hours = if self.profile.nightly_shutdown {
            waking_secs as f64 / 3600.0
        } else {
            24.0
        };
        if self.rng.chance(
            params.background_episode_rate_per_hour
                * powered_hours
                * self.firmware.fault_multiplier(),
        ) {
            actions.push((at_random(&mut self.rng), Action::BackgroundEpisode));
        }
        if self
            .rng
            .chance(params.output_failure_rate_per_hour * powered_hours)
        {
            actions.push((at_random(&mut self.rng), Action::OutputFailure));
        }
        if self
            .rng
            .chance(params.isolated_freeze_rate_per_hour * powered_hours)
        {
            actions.push((at_random(&mut self.rng), Action::IsolatedFreeze));
        }
        if self
            .rng
            .chance(params.isolated_self_shutdown_rate_per_hour * powered_hours)
        {
            actions.push((at_random(&mut self.rng), Action::IsolatedSelfShutdown));
        }
        if self.rng.chance(params.user_reboot_rate_per_day) {
            actions.push((at_random(&mut self.rng), Action::UserReboot));
        }
        if lowbt_today {
            let evening = sleep - SimDuration::from_secs(self.rng.next_u64() % 7200);
            actions.push((evening, Action::LowBatteryShutdown));
        }
        if self.profile.nightly_shutdown {
            actions.push((sleep, Action::NightShutdown));
        }
        actions.push((sleep + SimDuration::from_secs(1), Action::EndOfDay));
        actions.sort_by_key(|(t, _)| *t);

        // Process in time order; executing an action may insert
        // follow-ups (session ends, call-attached episodes) into the
        // not-yet-processed tail.
        let mut queue = actions;
        let mut i = 0;
        while i < queue.len() {
            let (t, action) = queue[i];
            i += 1;
            self.advance(t);
            if !matches!(self.state, PowerState::On) {
                // Device off or frozen: user actions are lost; the
                // boot happens lazily in advance().
                continue;
            }
            match action {
                Action::CallStart {
                    duration,
                    episode,
                    episode_offset,
                } => {
                    let end = t + duration;
                    self.stats.calls += 1;
                    self.apps.notify_started("Telephone");
                    self.logdb.record(t, end, ActivityKind::VoiceCall);
                    self.logger
                        .on_activity(&mut self.fs, t, end, ActivityKind::VoiceCall);
                    self.battery.drain(SimDuration::ZERO, duration);
                    if episode {
                        insert_sorted(
                            &mut queue,
                            i,
                            (
                                t + episode_offset,
                                Action::EpisodeAt(EpisodeContext::VoiceCall),
                            ),
                        );
                    }
                    insert_sorted(
                        &mut queue,
                        i,
                        (end, Action::SessionEnd { app: "Telephone" }),
                    );
                }
                Action::MessageEvent { episode, deferred } => {
                    let end = t + SimDuration::from_secs(40);
                    self.stats.messages += 1;
                    self.apps.notify_started("Messages");
                    self.logdb.record(t, end, ActivityKind::Message);
                    self.logger
                        .on_activity(&mut self.fs, t, end, ActivityKind::Message);
                    if episode {
                        if deferred {
                            let delay = SimDuration::from_secs(60 + self.rng.next_u64() % 180);
                            insert_sorted(
                                &mut queue,
                                i,
                                (
                                    t + delay,
                                    Action::EpisodeAt(EpisodeContext::DeferredMessaging),
                                ),
                            );
                        } else {
                            let off = SimDuration::from_secs(self.rng.next_u64() % 38);
                            insert_sorted(
                                &mut queue,
                                i,
                                (t + off, Action::EpisodeAt(EpisodeContext::Message)),
                            );
                        }
                    }
                    insert_sorted(&mut queue, i, (end, Action::SessionEnd { app: "Messages" }));
                }
                Action::SessionStart { app, duration } => {
                    self.apps.notify_started(app);
                    self.battery
                        .drain(SimDuration::ZERO, duration.min(SimDuration::from_hours(1)));
                    insert_sorted(&mut queue, i, (t + duration, Action::SessionEnd { app }));
                }
                Action::SessionEnd { app } => {
                    self.apps.notify_exited(app);
                }
                Action::BackgroundEpisode => {
                    self.run_episode(t, EpisodeContext::Background);
                }
                Action::EpisodeAt(ctx) => {
                    self.run_episode(t, ctx);
                }
                Action::OutputFailure => {
                    // A value failure the heartbeat cannot see: the
                    // charge indicator is wrong, a reminder fires at
                    // the wrong time… Only the user notices, and only
                    // sometimes files a report (the future-work
                    // extension's unreliability finding).
                    self.stats.output_failures += 1;
                    if self.rng.chance(params.p_user_reports_output_failure) {
                        let delay = SimDuration::from_secs(60 + self.rng.next_u64() % 1740);
                        let kind = match self.rng.weighted_index(&[7.0, 1.0, 2.0]) {
                            0 => UserReportKind::OutputFailure,
                            1 => UserReportKind::InputFailure,
                            _ => UserReportKind::UnstableBehavior,
                        };
                        self.user_reports
                            .on_user_report(&mut self.fs, t + delay, kind);
                        self.stats.user_reports += 1;
                    }
                }
                Action::IsolatedFreeze => {
                    self.freeze(t);
                }
                Action::IsolatedSelfShutdown => {
                    self.self_shutdown(t);
                }
                Action::UserReboot => {
                    self.stats.user_shutdowns += 1;
                    let dur = SimDuration::from_secs_f64(
                        self.rng
                            .lognormal(params.user_reboot_median_secs, params.user_reboot_sigma),
                    );
                    self.clean_shutdown(t, ShutdownKind::Reboot, dur);
                }
                Action::LowBatteryShutdown => {
                    self.stats.lowbt_shutdowns += 1;
                    // The user finds a charger within an hour or three.
                    let dur = SimDuration::from_secs(3600 + self.rng.next_u64() % 7200);
                    self.clean_shutdown(t, ShutdownKind::LowBattery, dur);
                }
                Action::NightShutdown => {
                    self.stats.user_shutdowns += 1;
                    // Off until tomorrow's wake, log-normally jittered
                    // around the nominal night span (the ~30 000 s mode
                    // of Figure 2).
                    let nominal = self.profile.night_span().as_secs_f64();
                    let dur =
                        SimDuration::from_secs_f64(self.rng.lognormal(nominal, params.night_sigma));
                    self.clean_shutdown(t, ShutdownKind::Reboot, dur);
                }
                Action::EndOfDay => {
                    // Idle drain for the evening hours already flowed
                    // through heartbeats; nothing else to do.
                }
            }
        }
        self.queue = queue;
    }
}

/// The borrowed state the logger samples at a hook: the running list
/// and the battery status, read in place.
fn logger_view<'a>(apps: &'a AppArchServer, battery: &Battery) -> PhoneContext<'a> {
    PhoneContext {
        running_apps: apps.running(),
        battery_percent: battery.percent(),
        battery_low: battery.is_low(),
    }
}

/// Inserts an item into the not-yet-processed tail of the queue,
/// keeping it time-sorted.
fn insert_sorted(queue: &mut Vec<(SimTime, Action)>, from: usize, item: (SimTime, Action)) {
    let pos = queue[from..]
        .iter()
        .position(|(t, _)| *t > item.0)
        .map(|p| from + p)
        .unwrap_or(queue.len());
    queue.insert(pos, item);
}

/// Samples an integer count with the given mean (mixed
/// floor + Bernoulli on the fractional part, with user-level noise).
fn sample_count(mean: f64, rng: &mut SimRng) -> u64 {
    let noisy = (mean * rng.lognormal(1.0, 0.25)).max(0.0);
    let base = noisy.floor() as u64;
    base + u64::from(rng.chance(noisy - base as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> CalibrationParams {
        CalibrationParams {
            phones: 1,
            campaign_days: 10,
            enrollment_spread_days: 1,
            attrition_spread_days: 1,
            ..CalibrationParams::default()
        }
    }

    fn run_days(seed: u64, days: u64) -> Phone {
        let mut phone = Phone::new(0, small_params(), SimRng::seed_from(seed).fork("phone", 0));
        for d in 0..days {
            phone.simulate_day(d);
        }
        phone
    }

    #[test]
    fn produces_heartbeats_and_boot_records() {
        let phone = run_days(1, 3);
        let fs = phone.flashfs();
        assert!(fs.read_lines("beats").count() > 100);
        assert!(fs.read_lines("log").count() >= 1);
        assert!(fs.read_lines("runapp").count() > 5);
        assert!(fs.read_lines("power").count() > 5);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_days(42, 5);
        let b = run_days(42, 5);
        assert_eq!(
            a.flashfs().read_bytes("beats"),
            b.flashfs().read_bytes("beats")
        );
        assert_eq!(a.flashfs().read_bytes("log"), b.flashfs().read_bytes("log"));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_days(1, 5);
        let b = run_days(2, 5);
        assert_ne!(
            a.flashfs().read_bytes("beats"),
            b.flashfs().read_bytes("beats")
        );
    }

    #[test]
    fn calls_and_messages_logged_as_activity() {
        let phone = run_days(7, 5);
        assert!(phone.stats().calls > 0);
        assert!(phone.stats().messages > 0);
        assert!(phone.flashfs().read_lines("activity").count() > 0);
    }

    #[test]
    #[should_panic(expected = "heartbeat_period_secs must be positive")]
    fn zero_heartbeat_period_is_refused() {
        let params = CalibrationParams {
            heartbeat_period_secs: 0,
            ..small_params()
        };
        Phone::new(0, params, SimRng::seed_from(1));
    }

    #[test]
    fn forced_freeze_leaves_alive_signature() {
        let mut phone = Phone::new(0, small_params(), SimRng::seed_from(5).fork("phone", 0));
        phone.simulate_day(0);
        // Force a freeze mid-day-2 via an isolated freeze with full
        // probability.
        phone.params.isolated_freeze_rate_per_hour = 10.0;
        phone.simulate_day(1);
        phone.simulate_day(2);
        assert!(phone.stats().freezes > 0);
        let log: Vec<&str> = phone.flashfs().read_lines("log").collect();
        assert!(
            // The freeze flag is the last payload field, just before
            // the checksum trailer.
            log.iter().any(|l| l.starts_with('B') && l.contains("|1|c")),
            "a boot record with the freeze flag exists: {log:?}"
        );
    }
}
