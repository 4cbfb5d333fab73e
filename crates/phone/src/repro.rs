//! Signature-driven repro campaigns and ddmin-style minimization.
//!
//! Given a [`FailureSignature`] observed in a fleet campaign, this
//! module hunts for the *minimal* single-phone campaign that
//! deterministically reproduces a matching panic — the delta-debugging
//! loop the `repro minimize` subcommand drives:
//!
//! 1. **Seed search.** Probe single-phone campaigns at the full fault
//!    mix and the day budget, seed 0, 1, 2, … — the first reproducing
//!    seed wins. Every probe simulates the phone, corrupts its flash
//!    and scans the harvested `log` file for the signature, never a
//!    simulator-internal shortcut: the Panic Detector writes every
//!    panic there with its context, and the boot-time heartbeat check
//!    writes every freeze and shutdown into a boot record there, so a
//!    signature is a function of the log alone
//!    ([`FailureSignature::READS`]). A probe's phone writes the files
//!    the campaign driver's rule gives that reader
//!    ([`CorruptionProfile::written_files`]): `log` (and `ureport`)
//!    under profile `none`, byte for byte the full phone's; `beats`
//!    too under a damaging profile, because the injector draws the
//!    log's damage after the beats file's line count. The scan
//!    ([`FailureSignature::matches_log`]) decodes only the lines that
//!    name the signature's raiser; the log is parsed in full
//!    ([`PhoneDataset::from_log`](symfail_core::analysis::dataset::PhoneDataset::from_log))
//!    only under `Strict`, after the scan
//!    found a panic of the signature's core identity.
//! 2. **Corruption drop.** If the starting profile injected flash
//!    damage, try the clean profile first — damage is part of the
//!    campaign config, not of the failure class.
//! 3. **Day bisection.** With spreads zeroed a repro phone never reads
//!    `campaign_days`, so a shorter campaign's harvest is a longer
//!    one's with every file cut at the length it had after the shorter
//!    campaign's last day (pinned by a proptest). Plain binary search
//!    then looks for the least reproducing day count; it runs under the
//!    search's own match mode, and `Strict` is not monotone in days (a
//!    later day can add a freeze inside a panic's coalescence window
//!    and flip its `related` outcome), so under `Strict` it finds *a*
//!    reproducing day count, not always the least. The search keeps
//!    the clean harvest of its last simulated probe that reproduced,
//!    with each file's length after every day
//!    ([`ReproHarvest`]): a later probe of the same seed and channels
//!    and no more days — the corruption drop and both bisections — is
//!    answered from that harvest instead of simulating again: a clean
//!    probe scans the kept log's prefix up to the day's length in
//!    place, and a corrupted one cuts every file at its day's length
//!    and corrupts the cut from the campaign's own stream — when the
//!    kept harvest holds `beats`; a log-only one cannot answer it,
//!    so that probe simulates afresh. The answer is the fresh probe's.
//! 4. **Greedy channel drop.** Disable fault channels one at a time in
//!    fixed order, keeping each drop only if the repro still holds
//!    (dropping a channel removes its RNG draws, so the remaining
//!    stream shifts — every drop is re-proven by a freshly simulated
//!    probe).
//! 5. **Final re-bisection** of days under the surviving channel set.
//!
//! Every accepted shrink step is itself a reproducing config and is
//! recorded on the [`Minimized::trail`], which is what the replay
//! harness re-runs; [`ReproConfig::replay`] always simulates afresh,
//! log-only when its profile is `none`.
//! The whole search is a pure function of `(signature, options)`, so
//! the emitted [`ReproConfig`] JSON is byte-identical across runs and
//! machines.

use std::fmt;

use symfail_core::analysis::passes::{DeviceLabels, PassRegistry};
use symfail_core::analysis::report::AnalysisConfig;
use symfail_core::analysis::signature::{distinct_signatures, FailureSignature, MatchMode};
use symfail_core::flashfs::FlashFs;
use symfail_core::json::{self, Value};
use symfail_core::logger::{files, LoggerFiles};
use symfail_sim_core::SimRng;

use crate::calibration::CalibrationParams;
use crate::composition::{DeviceClass, DeviceProfile};
use crate::corruption::{CorruptionModel, CorruptionProfile};
use crate::device::{Phone, PhoneStats};
use crate::firmware::SymbianVersion;
use crate::fleet::FleetCampaign;
use crate::user::UserProfile;

/// One independently switchable source of failure events in a repro
/// campaign — the ddmin search space's "fault mix" dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultChannel {
    /// Fault episodes carried by voice calls.
    Voice,
    /// Fault episodes carried by messages (immediate and deferred).
    Message,
    /// Background fault episodes.
    Background,
    /// Isolated (panic-less) freezes.
    IsolatedFreeze,
    /// Isolated self-shutdowns.
    IsolatedSelfShutdown,
    /// User-initiated reboots (scheduled and post-panic).
    UserReboot,
    /// Battery-flat (LOWBT) shutdowns.
    LowBattery,
    /// Output failures (value failures the logger cannot see).
    OutputFailure,
}

impl FaultChannel {
    /// Every channel, in the fixed greedy-drop order.
    pub const ALL: [FaultChannel; 8] = [
        FaultChannel::Voice,
        FaultChannel::Message,
        FaultChannel::Background,
        FaultChannel::IsolatedFreeze,
        FaultChannel::IsolatedSelfShutdown,
        FaultChannel::UserReboot,
        FaultChannel::LowBattery,
        FaultChannel::OutputFailure,
    ];

    /// The config-file name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultChannel::Voice => "voice",
            FaultChannel::Message => "message",
            FaultChannel::Background => "background",
            FaultChannel::IsolatedFreeze => "isolated-freeze",
            FaultChannel::IsolatedSelfShutdown => "isolated-self-shutdown",
            FaultChannel::UserReboot => "user-reboot",
            FaultChannel::LowBattery => "low-battery",
            FaultChannel::OutputFailure => "output-failure",
        }
    }

    /// Parses a config-file name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// Episode-channel boosts applied to a repro phone. The fleet's
/// calibrated rates make any single failure class a months-scale
/// event on one phone; reproduction compresses the exposure so a
/// ≤ 10-day campaign exercises every channel daily. The boosts change
/// *when* faults fire, never *what* a fault does — code tables,
/// escalation policy and kernel recovery stay at fleet calibration.
pub mod boosts {
    /// Probability a voice call carries a fault episode.
    pub const P_EPISODE_PER_CALL: f64 = 0.35;
    /// Probability a message carries a fault episode.
    pub const P_EPISODE_PER_MESSAGE: f64 = 0.25;
    /// Background episode rate per powered hour.
    pub const BACKGROUND_RATE_PER_HOUR: f64 = 0.30;
    /// Isolated freeze rate per powered hour.
    pub const ISOLATED_FREEZE_RATE_PER_HOUR: f64 = 0.02;
    /// Isolated self-shutdown rate per powered hour.
    pub const ISOLATED_SELF_SHUTDOWN_RATE_PER_HOUR: f64 = 0.02;
}

/// The calibration of a single-phone repro campaign: one phone, no
/// enrollment stagger, no nightly-shutdown quota, every enabled
/// channel boosted (see [`boosts`]) and every disabled channel zeroed.
pub fn repro_params(days: u32, channels: &[FaultChannel]) -> CalibrationParams {
    let on = |c: FaultChannel| channels.contains(&c);
    let gate = |c: FaultChannel, rate: f64| if on(c) { rate } else { 0.0 };
    let base = CalibrationParams::default();
    CalibrationParams {
        phones: 1,
        campaign_days: days,
        enrollment_spread_days: 0,
        attrition_spread_days: 0,
        nightly_shutdown_fraction: 0.0,
        p_episode_per_call: gate(FaultChannel::Voice, boosts::P_EPISODE_PER_CALL),
        p_episode_per_message: gate(FaultChannel::Message, boosts::P_EPISODE_PER_MESSAGE),
        background_episode_rate_per_hour: gate(
            FaultChannel::Background,
            boosts::BACKGROUND_RATE_PER_HOUR,
        ),
        isolated_freeze_rate_per_hour: gate(
            FaultChannel::IsolatedFreeze,
            boosts::ISOLATED_FREEZE_RATE_PER_HOUR,
        ),
        isolated_self_shutdown_rate_per_hour: gate(
            FaultChannel::IsolatedSelfShutdown,
            boosts::ISOLATED_SELF_SHUTDOWN_RATE_PER_HOUR,
        ),
        user_reboot_rate_per_day: gate(FaultChannel::UserReboot, base.user_reboot_rate_per_day),
        p_user_reboot_after_panic: gate(FaultChannel::UserReboot, base.p_user_reboot_after_panic),
        p_lowbt_per_day: gate(FaultChannel::LowBattery, base.p_lowbt_per_day),
        output_failure_rate_per_hour: gate(
            FaultChannel::OutputFailure,
            base.output_failure_rate_per_hour,
        ),
        ..base
    }
}

/// A fully specified single-phone repro campaign. Unlike a
/// [`FleetCampaign`] of size one — whose scatter formulas would pin
/// the phone to the composition's first class and the majority
/// firmware — the device profile here is explicit, so the repro phone
/// carries exactly the class and firmware line of the signature it
/// hunts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproCampaign {
    /// Root seed of the phone's RNG streams.
    pub seed: u64,
    /// Simulated days (the phone is enrolled for the whole span).
    pub days: u32,
    /// Enabled fault channels, in [`FaultChannel::ALL`] order.
    pub channels: Vec<FaultChannel>,
    /// Flash corruption injected after the harvest.
    pub corruption: CorruptionProfile,
    /// The pinned device class + firmware line.
    pub device: DeviceProfile,
}

impl ReproCampaign {
    /// The device labels the repro phone's folds carry.
    pub fn labels(&self) -> DeviceLabels {
        DeviceLabels {
            device_class: self.device.class.as_str(),
            firmware: self.device.firmware.as_str(),
        }
    }

    /// The files the campaign's phone writes: what every verdict reads,
    /// the log alone ([`FailureSignature::READS`]), joined with what
    /// its profile's damage needs ([`CorruptionProfile::written_files`]).
    pub fn files(&self) -> LoggerFiles {
        self.corruption.written_files(FailureSignature::READS)
    }

    /// Simulates the campaign's clean harvest — the simulate step
    /// [`FleetCampaign`] applies to each member, with phone id 0 and the
    /// pinned device profile, writing [`Self::files`] — marking every
    /// file's length at the end of each day.
    pub fn harvest(&self) -> ReproHarvest {
        let params = self
            .device
            .scale_params(&repro_params(self.days, &self.channels));
        let mut rng = SimRng::seed_from(self.seed).fork("phone", 0);
        let profile = UserProfile::sample_with_nightly(&params, &mut rng, false);
        let files = self.files();
        let mut phone = Phone::with_profile(0, params, profile, rng.fork("device", 0), files);
        phone.set_firmware(self.device.firmware);
        let mut harvest = ReproHarvest {
            flash: FlashFs::new(),
            stats: PhoneStats::default(),
            names: Vec::new(),
            ends: Vec::new(),
            rows: vec![0],
        };
        harvest.mark(phone.flashfs());
        for day in 0..self.days as u64 {
            phone.simulate_day(day);
            harvest.mark(phone.flashfs());
        }
        harvest.stats = phone.stats();
        harvest.flash = phone.into_flashfs();
        harvest
    }

    /// Damages `fs` as the campaign's corruption profile prescribes,
    /// drawing from the campaign's own `fork("corruption", 0)` stream;
    /// profile `none` leaves it untouched.
    pub fn corrupt(&self, fs: &mut FlashFs) {
        if self.corruption != CorruptionProfile::None {
            let mut crng = SimRng::seed_from(self.seed).fork("corruption", 0);
            let rates = self.device.scale_corruption(self.corruption.rates());
            CorruptionModel::new(rates).inject(fs, &mut crng);
        }
    }

    /// Simulates the campaign and corrupts its harvest — the simulate →
    /// corrupt chain [`FleetCampaign`] applies to each member.
    fn flash(&self) -> FlashFs {
        let mut fs = self.harvest().flash;
        self.corrupt(&mut fs);
        fs
    }

    /// Whether this campaign reproduces `signature` under `mode` — one
    /// full deterministic probe: a fresh simulation, corrupted, its log
    /// scanned for the signature.
    pub fn reproduces(
        &self,
        signature: &FailureSignature,
        config: &AnalysisConfig,
        mode: MatchMode,
    ) -> bool {
        self.log_matches(log_of(&self.flash()), signature, config, mode)
    }

    /// Whether `log`, this campaign's (corrupted) harvest's log, holds
    /// a panic matching `signature` — a signature is a function of the
    /// log alone.
    fn log_matches(
        &self,
        log: &[u8],
        signature: &FailureSignature,
        config: &AnalysisConfig,
        mode: MatchMode,
    ) -> bool {
        signature.matches_log(log, config, self.labels(), mode)
    }
}

/// The consolidated log on `fs` (empty when the phone wrote none).
fn log_of(fs: &FlashFs) -> &[u8] {
    fs.read_bytes(files::LOG).unwrap_or_default()
}

/// A repro phone's clean flash, its ground-truth counters and every
/// file's length at the end of each simulated day. With spreads zeroed
/// a repro phone never reads `campaign_days`, so the harvest of the
/// same campaign run for fewer days is this one cut back to a day's
/// lengths ([`Self::cut`]).
#[derive(Debug, Clone)]
pub struct ReproHarvest {
    /// The flash after the last day, before any corruption.
    flash: FlashFs,
    /// The simulator's counters after the last day.
    stats: PhoneStats,
    /// The files the phone wrote, in the order they appeared.
    names: Vec<String>,
    /// Day `d`'s row, `ends[rows[d]..rows[d + 1]]`, holds the length of
    /// each of `names`' first files after `d` days; a file, once
    /// written, never goes away. Row 0 is the empty flash before the
    /// first day.
    ends: Vec<usize>,
    rows: Vec<usize>,
}

impl ReproHarvest {
    /// The flash after the last simulated day: only the files of its
    /// campaign's [`ReproCampaign::files`].
    pub fn flash(&self) -> &FlashFs {
        &self.flash
    }

    /// The simulator's ground-truth counters after the last day.
    pub fn stats(&self) -> PhoneStats {
        self.stats
    }

    /// The flash the same campaign leaves after `days` days: every file
    /// that existed then, cut to the length it had then. The wear
    /// counter is not carried over.
    ///
    /// # Panics
    ///
    /// When `days` exceeds the days simulated.
    pub fn cut(&self, days: u32) -> FlashFs {
        let mut fs = FlashFs::new();
        for (name, &end) in self.names.iter().zip(self.row(days)) {
            let bytes = self
                .flash
                .read_bytes(name)
                .expect("a file once written stays");
            fs.overwrite_raw(name, bytes[..end].to_vec());
        }
        fs
    }

    /// The `log` file the same campaign leaves after `days` days: the
    /// kept log's prefix up to the length it had then, borrowed in
    /// place — `cut(days)`'s log without copying any file.
    ///
    /// # Panics
    ///
    /// When `days` exceeds the days simulated.
    pub fn log(&self, days: u32) -> &[u8] {
        let row = self.row(days);
        match self.names.iter().position(|n| n == files::LOG) {
            Some(i) if i < row.len() => &log_of(&self.flash)[..row[i]],
            _ => &[],
        }
    }

    /// The length of each of `names`' first files after `days` days.
    fn row(&self, days: u32) -> &[usize] {
        &self.ends[self.rows[days as usize]..self.rows[days as usize + 1]]
    }

    /// Appends the row of `fs`'s current file lengths.
    fn mark(&mut self, fs: &FlashFs) {
        for name in fs.file_names() {
            if !self.names.iter().any(|n| n == name) {
                self.names.push(name.to_string());
            }
        }
        self.ends
            .extend(self.names.iter().map(|name| fs.size_of(name) as usize));
        self.rows.push(self.ends.len());
    }
}

/// The emitted minimal campaign config: everything needed to replay
/// the repro, plus the signature it reproduces. Serializes with a
/// fixed field order so equal configs are byte-equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproConfig {
    /// Root seed of the repro phone.
    pub seed: u64,
    /// Simulated days.
    pub days: u32,
    /// Enabled fault channels.
    pub channels: Vec<FaultChannel>,
    /// Corruption profile.
    pub corruption: CorruptionProfile,
    /// Match strictness the config was minimized under.
    pub mode: MatchMode,
    /// The signature this config reproduces.
    pub signature: FailureSignature,
}

impl ReproConfig {
    /// The campaign this config describes, with the device profile
    /// recovered from the signature's labels.
    pub fn campaign(&self) -> Result<ReproCampaign, String> {
        Ok(ReproCampaign {
            seed: self.seed,
            days: self.days,
            channels: self.channels.clone(),
            corruption: self.corruption,
            device: device_of(&self.signature)?,
        })
    }

    /// Replays the config: one full probe, true when the signature
    /// still reproduces.
    pub fn replay(&self, config: &AnalysisConfig) -> Result<bool, String> {
        Ok(self
            .campaign()?
            .reproduces(&self.signature, config, self.mode))
    }

    /// Serializes the config as JSON with a fixed field order.
    pub fn to_json(&self) -> String {
        let channels: Vec<String> = self
            .channels
            .iter()
            .map(|c| format!("\"{}\"", c.as_str()))
            .collect();
        format!(
            "{{\n  \"schema\": \"symfail-repro/1\",\n  \"seed\": {},\n  \
             \"days\": {},\n  \"channels\": [{}],\n  \"corruption\": \"{}\",\n  \
             \"match\": \"{}\",\n  \"signature\": {}\n}}\n",
            self.seed,
            self.days,
            channels.join(", "),
            self.corruption.as_str(),
            self.mode.as_str(),
            self.signature.to_json()
        )
    }

    /// Reads a config as [`Self::to_json`] writes it.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let err = |e| format!("repro config: {e}");
        let v = json::parse(text).map_err(|e| err(e.to_string()))?;
        let name = |key| v.field(key, "a string", Value::as_str).map_err(err);
        let count = |key| {
            v.field(key, "an unsigned integer", Value::as_u64)
                .map_err(err)
        };
        let days = u32::try_from(count("days")?).map_err(|_| err("days out of range".into()))?;
        let channels = v
            .field("channels", "an array of strings", |f| {
                f.as_array()?
                    .iter()
                    .map(Value::as_str)
                    .collect::<Option<Vec<_>>>()
            })
            .map_err(err)?;
        let (corruption, mode) = (name("corruption")?, name("match")?);
        Ok(Self {
            seed: count("seed")?,
            days,
            channels: channels
                .into_iter()
                .map(|c| FaultChannel::parse(c).ok_or_else(|| err(format!("unknown channel {c}"))))
                .collect::<Result<_, _>>()?,
            corruption: CorruptionProfile::parse(corruption)
                .ok_or_else(|| err(format!("unknown corruption {corruption}")))?,
            mode: MatchMode::parse(mode)
                .ok_or_else(|| err(format!("unknown match mode {mode}")))?,
            signature: FailureSignature::from_json(
                v.field("signature", "an object", Value::as_object)
                    .map_err(err)?,
            )
            .map_err(err)?,
        })
    }
}

/// Tuning knobs of [`minimize`].
#[derive(Debug, Clone, Copy)]
pub struct MinimizeOptions {
    /// Day budget: the repro must land within this many simulated
    /// days (also the day count every seed probe runs at).
    pub max_days: u32,
    /// Seed budget for the initial search.
    pub max_seeds: u64,
    /// Corruption profile the search starts from (step 2 tries to
    /// drop it).
    pub corruption: CorruptionProfile,
    /// Match strictness of every probe.
    pub mode: MatchMode,
    /// Analysis thresholds the matcher judges under.
    pub config: AnalysisConfig,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        Self {
            max_days: 10,
            max_seeds: 256,
            corruption: CorruptionProfile::None,
            mode: MatchMode::Core,
            config: AnalysisConfig::default(),
        }
    }
}

/// A finished minimization: the minimal config, the accepted-shrink
/// trail (every entry reproduces; the last is `config`), and the
/// probe and simulation counts the search spent.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The minimal reproducing config.
    pub config: ReproConfig,
    /// Every accepted search state, first (full) to last (minimal).
    pub trail: Vec<ReproConfig>,
    /// Probes the search ran, each a simulate → corrupt → match verdict
    /// whether simulated afresh or answered from a kept harvest.
    pub probes: u64,
    /// The probes that simulated afresh; the rest were answered from a
    /// kept harvest.
    pub simulated: u64,
}

/// Why [`minimize`] found nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinimizeError {
    /// The signature names a device class or firmware line the
    /// simulator does not model.
    UnknownDevice(String),
    /// No seed in the budget reproduced the signature.
    NoRepro {
        /// Seeds probed.
        seeds: u64,
        /// Day budget each probe ran at.
        days: u32,
    },
}

impl fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinimizeError::UnknownDevice(what) => {
                write!(f, "signature names an unknown device: {what}")
            }
            MinimizeError::NoRepro { seeds, days } => write!(
                f,
                "no repro in {seeds} seeds at {days} days; raise --max-seeds or --max-days"
            ),
        }
    }
}

impl std::error::Error for MinimizeError {}

/// Recovers the pinned device profile from a signature's labels.
fn device_of(signature: &FailureSignature) -> Result<DeviceProfile, String> {
    let class = DeviceClass::parse(&signature.device_class)
        .ok_or(format!("unknown device class {:?}", signature.device_class))?;
    let firmware = SymbianVersion::ALL
        .into_iter()
        .find(|v| v.as_str() == signature.firmware)
        .ok_or(format!("unknown firmware {:?}", signature.firmware))?;
    Ok(DeviceProfile { class, firmware })
}

/// Runs the ddmin-style search described in the module docs. Pure in
/// `(signature, opts)`: the same inputs yield the same probes in the
/// same order and therefore a byte-identical minimal config.
pub fn minimize(
    signature: &FailureSignature,
    opts: &MinimizeOptions,
) -> Result<Minimized, MinimizeError> {
    let device = device_of(signature).map_err(MinimizeError::UnknownDevice)?;
    let mut prober = Prober {
        signature,
        opts,
        probes: 0,
        simulated: 0,
        kept: None,
    };
    let mut probe = |seed: u64, days: u32, channels: &[FaultChannel], corruption| {
        prober.probe(ReproCampaign {
            seed,
            days,
            channels: channels.to_vec(),
            corruption,
            device,
        })
    };

    // 1. Seed search at the full mix and the day budget.
    let all = FaultChannel::ALL.to_vec();
    let seed = (0..opts.max_seeds)
        .find(|&s| probe(s, opts.max_days, &all, opts.corruption))
        .ok_or(MinimizeError::NoRepro {
            seeds: opts.max_seeds,
            days: opts.max_days,
        })?;
    let mut cur = ReproConfig {
        seed,
        days: opts.max_days,
        channels: all,
        corruption: opts.corruption,
        mode: opts.mode,
        signature: signature.clone(),
    };
    let mut trail = vec![cur.clone()];

    // 2. Corruption is campaign noise, not failure identity: drop it
    // if the clean run still reproduces.
    if cur.corruption != CorruptionProfile::None
        && probe(seed, cur.days, &cur.channels, CorruptionProfile::None)
    {
        cur.corruption = CorruptionProfile::None;
        trail.push(cur.clone());
    }

    // 3 / 5. Day bisection, also rerun after channel drops. The last
    // simulated probe that reproduced ran this seed and channel set at
    // `cur.days`, so every probe here is cut from its harvest
    // (see module docs).
    fn bisect_days<F: FnMut(u64, u32, &[FaultChannel], CorruptionProfile) -> bool>(
        cur: &mut ReproConfig,
        trail: &mut Vec<ReproConfig>,
        probe: &mut F,
    ) {
        let (mut lo, mut hi) = (1u32, cur.days);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if probe(cur.seed, mid, &cur.channels, cur.corruption) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if hi < cur.days {
            cur.days = hi;
            trail.push(cur.clone());
        }
    }
    bisect_days(&mut cur, &mut trail, &mut probe);

    // 4. Greedy channel drop in the fixed ALL order; each accepted
    // drop is proven by a fresh probe at the current day count.
    for ch in FaultChannel::ALL {
        if !cur.channels.contains(&ch) || cur.channels.len() == 1 {
            continue;
        }
        let rest: Vec<FaultChannel> = cur.channels.iter().copied().filter(|&c| c != ch).collect();
        if probe(cur.seed, cur.days, &rest, cur.corruption) {
            cur.channels = rest;
            trail.push(cur.clone());
        }
    }

    bisect_days(&mut cur, &mut trail, &mut probe);
    Ok(Minimized {
        config: cur,
        trail,
        probes: prober.probes,
        simulated: prober.simulated,
    })
}

/// Answers [`minimize`]'s probes of one signature and counts them.
struct Prober<'a> {
    signature: &'a FailureSignature,
    opts: &'a MinimizeOptions,
    probes: u64,
    simulated: u64,
    /// The last simulated probe that reproduced, with its clean
    /// harvest. A later probe of the same seed and channels and no more
    /// days — the corruption drop and both bisections — is answered
    /// from it at its day count instead of simulating again, unless the
    /// harvest lacks a file the probe's phone writes (the `beats` a
    /// damaging probe needs).
    kept: Option<(ReproCampaign, ReproHarvest)>,
}

impl Prober<'_> {
    /// Whether `campaign` reproduces the signature: the verdict of
    /// [`ReproCampaign::reproduces`], from the kept harvest when it can
    /// answer.
    fn probe(&mut self, campaign: ReproCampaign) -> bool {
        self.probes += 1;
        let (signature, opts) = (self.signature, self.opts);
        // A clean harvest answers at any of its day counts; the harvest
        // itself stays clean, so only a cut of it is ever damaged.
        let answer = |harvest: &ReproHarvest| {
            if campaign.corruption == CorruptionProfile::None {
                let log = harvest.log(campaign.days);
                return campaign.log_matches(log, signature, &opts.config, opts.mode);
            }
            let mut fs = harvest.cut(campaign.days);
            campaign.corrupt(&mut fs);
            campaign.log_matches(log_of(&fs), signature, &opts.config, opts.mode)
        };
        if let Some((_, harvest)) = self.kept.as_ref().filter(|(k, _)| {
            k.seed == campaign.seed
                && k.channels == campaign.channels
                && campaign.days <= k.days
                && campaign.files() <= k.files()
        }) {
            return answer(harvest);
        }
        self.simulated += 1;
        let harvest = campaign.harvest();
        let hit = answer(&harvest);
        if hit {
            self.kept = Some((campaign, harvest));
        }
        hit
    }
}

/// The campaign's distinct-signature catalog — `(signature,
/// occurrences)` sorted by key — as the campaign driver's output: one
/// worker over the `coalesce` pass, whose phones write and parse the log
/// alone, then [`distinct_signatures`] over the finished coalesce
/// section, as the checkpoint route reads it.
pub fn extract_fleet_signatures(
    campaign: &FleetCampaign,
    config: &AnalysisConfig,
) -> Vec<(FailureSignature, u64)> {
    let registry = PassRegistry::select("coalesce").expect("coalesce is a pass");
    let run = campaign.run_streaming(1, *config, &registry);
    distinct_signatures(run.report.coalescence.panics(), &run.names, |id| {
        campaign.device_labels(id)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symfail_core::analysis::dataset::PhoneDataset;

    fn some_signature() -> FailureSignature {
        // A cheap fleet slice is guaranteed to panic somewhere under
        // boosted single-phone probing; take a catalog entry from a
        // short boosted run instead of hand-writing one.
        let campaign = ReproCampaign {
            seed: 11,
            days: 6,
            channels: FaultChannel::ALL.to_vec(),
            corruption: CorruptionProfile::None,
            device: DeviceProfile {
                class: DeviceClass::Smartphone,
                firmware: SymbianVersion::V8_0,
            },
        };
        let phone = PhoneDataset::from_log(0, log_of(&campaign.flash()));
        let sigs =
            FailureSignature::from_phone(&phone, &AnalysisConfig::default(), campaign.labels());
        sigs.into_iter().next().expect("boosted run panics")
    }

    #[test]
    fn repro_campaign_is_deterministic() {
        let campaign = ReproCampaign {
            seed: 5,
            days: 3,
            channels: FaultChannel::ALL.to_vec(),
            corruption: CorruptionProfile::Light,
            device: DeviceProfile {
                class: DeviceClass::Communicator,
                firmware: SymbianVersion::V7_0,
            },
        };
        let (a, b) = (campaign.flash(), campaign.flash());
        assert_eq!(a.file_names(), b.file_names());
        for name in a.file_names() {
            assert_eq!(a.read_bytes(name), b.read_bytes(name), "{name}");
        }
    }

    #[test]
    fn channel_names_round_trip() {
        for c in FaultChannel::ALL {
            assert_eq!(FaultChannel::parse(c.as_str()), Some(c));
        }
        assert_eq!(FaultChannel::parse("bogus"), None);
    }

    #[test]
    fn config_json_round_trips() {
        let cfg = ReproConfig {
            seed: 42,
            days: 7,
            channels: vec![FaultChannel::Voice, FaultChannel::Background],
            corruption: CorruptionProfile::Moderate,
            mode: MatchMode::Strict,
            signature: some_signature(),
        };
        let parsed = ReproConfig::parse_json(&cfg.to_json()).unwrap();
        assert_eq!(parsed, cfg);
        // A day count past u32 is refused, not truncated (2^32 + 1
        // would otherwise read back as 1 day).
        let too_long = cfg
            .to_json()
            .replace("\"days\": 7,", "\"days\": 4294967297,");
        assert_ne!(too_long, cfg.to_json());
        assert_eq!(
            ReproConfig::parse_json(&too_long),
            Err("repro config: days out of range".to_string())
        );
    }

    #[test]
    fn minimize_finds_and_replays() {
        let sig = some_signature();
        let opts = MinimizeOptions::default();
        let min = minimize(&sig, &opts).expect("signature from a boosted run minimizes");
        assert!(min.config.days <= opts.max_days);
        assert!(min.config.replay(&opts.config).unwrap());
        assert_eq!(min.trail.last().unwrap(), &min.config);
        assert!(min.probes >= min.trail.len() as u64);
    }

    #[test]
    fn minimize_is_deterministic() {
        let sig = some_signature();
        let opts = MinimizeOptions::default();
        let a = minimize(&sig, &opts).unwrap();
        let b = minimize(&sig, &opts).unwrap();
        assert_eq!(a.config.to_json(), b.config.to_json());
        assert_eq!(a.probes, b.probes);
    }

    /// A probe answered from the kept harvest — fewer days, any
    /// corruption profile — gives the verdict of a fresh simulation. A
    /// clean one reads the kept log's prefix in place, which is the
    /// log of the harvest cut at its day count.
    #[test]
    fn kept_harvest_answers_as_fresh_probes_do() {
        let config = AnalysisConfig::default();
        for seed in [11, 12] {
            let full = ReproCampaign {
                seed,
                days: 8,
                channels: FaultChannel::ALL.to_vec(),
                corruption: CorruptionProfile::None,
                device: DeviceProfile {
                    class: DeviceClass::Communicator,
                    firmware: SymbianVersion::V7_0,
                },
            };
            let phone = PhoneDataset::from_log(0, log_of(&full.flash()));
            let sigs = FailureSignature::from_phone(&phone, &config, full.labels());
            assert!(sigs.len() > 2, "a boosted 8-day phone panics");
            for (i, signature) in sigs.iter().enumerate().step_by(sigs.len() / 3) {
                let mode = [MatchMode::Core, MatchMode::Strict][i % 2];
                let opts = MinimizeOptions {
                    mode,
                    config,
                    ..MinimizeOptions::default()
                };
                let mut prober = Prober {
                    signature,
                    opts: &opts,
                    probes: 0,
                    simulated: 0,
                    kept: None,
                };
                assert!(prober.probe(full.clone()), "its own panic reproduces");
                for days in (1..=8).rev() {
                    let (_, kept) = prober.kept.as_ref().expect("a reproducing probe is kept");
                    assert_eq!(kept.log(days), log_of(&kept.cut(days)), "{days} days");
                    for corruption in [
                        CorruptionProfile::None,
                        CorruptionProfile::Light,
                        CorruptionProfile::Moderate,
                        CorruptionProfile::Worst,
                    ] {
                        let probe = ReproCampaign {
                            days,
                            corruption,
                            ..full.clone()
                        };
                        assert_eq!(
                            prober.probe(probe.clone()),
                            probe.reproduces(signature, &config, mode),
                            "{} at {days} days, {}",
                            signature.key(),
                            corruption.as_str()
                        );
                    }
                }
                assert_eq!(prober.probes, 1 + 8 * 4);
            }
        }
    }

    #[test]
    fn unknown_device_is_refused() {
        let mut sig = some_signature();
        sig.device_class = "toaster".to_string();
        assert!(matches!(
            minimize(&sig, &MinimizeOptions::default()),
            Err(MinimizeError::UnknownDevice(_))
        ));
    }
}
