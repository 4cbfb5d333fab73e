//! Signature-driven repro campaigns and ddmin-style minimization.
//!
//! Given a [`FailureSignature`] observed in a fleet campaign, this
//! module hunts for the *minimal* single-phone campaign that
//! deterministically reproduces a matching panic — the delta-debugging
//! loop the `repro minimize` subcommand drives:
//!
//! 1. **Seed search.** Probe single-phone campaigns at the full fault
//!    mix and the day budget, seed 0, 1, 2, … — the first reproducing
//!    seed wins. Every probe is a complete simulate → parse → match
//!    run over the phone's harvested flash, never a simulator-internal
//!    shortcut.
//! 2. **Corruption drop.** If the starting profile injected flash
//!    damage, try the clean profile first — damage is part of the
//!    campaign config, not of the failure class.
//! 3. **Day bisection.** With spreads zeroed a phone's RNG stream does
//!    not depend on `campaign_days`, so a shorter campaign's log is a
//!    byte prefix of a longer one's — core-mode matching is monotone
//!    in days and plain binary search finds the least reproducing day
//!    count.
//! 4. **Greedy channel drop.** Disable fault channels one at a time in
//!    fixed order, keeping each drop only if the repro still holds
//!    (dropping a channel removes its RNG draws, so the remaining
//!    stream shifts — every drop is re-proven by a full probe).
//! 5. **Final re-bisection** of days under the surviving channel set.
//!
//! Every accepted shrink step is itself a reproducing config and is
//! recorded on the [`Minimized::trail`], which is what the replay
//! harness re-runs. The whole search is a pure function of
//! `(signature, options)`, so the emitted [`ReproConfig`] JSON is
//! byte-identical across runs and machines.

use std::fmt;

use symfail_core::analysis::dataset::PhoneDataset;
use symfail_core::analysis::passes::DeviceLabels;
use symfail_core::analysis::report::AnalysisConfig;
use symfail_core::analysis::signature::{FailureSignature, MatchMode};
use symfail_sim_core::SimRng;

use crate::calibration::CalibrationParams;
use crate::composition::{DeviceClass, DeviceProfile};
use crate::corruption::{CorruptionModel, CorruptionProfile};
use crate::device::Phone;
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

    /// Runs the campaign and parses the harvested flash — the same
    /// simulate → corrupt → parse chain [`FleetCampaign`] applies to
    /// each member, with phone id 0 and the pinned device profile.
    pub fn run(&self) -> PhoneDataset {
        let params = self
            .device
            .scale_params(&repro_params(self.days, &self.channels));
        let mut rng = SimRng::seed_from(self.seed).fork("phone", 0);
        let profile = UserProfile::sample_with_nightly(&params, &mut rng, false);
        let mut phone = Phone::with_profile(0, params, profile, rng.fork("device", 0));
        phone.set_firmware(self.device.firmware);
        for day in 0..self.days as u64 {
            phone.simulate_day(day);
        }
        let mut fs = phone.into_flashfs();
        if self.corruption != CorruptionProfile::None {
            let mut crng = SimRng::seed_from(self.seed).fork("corruption", 0);
            let rates = self.device.scale_corruption(self.corruption.rates());
            CorruptionModel::new(rates).inject(&mut fs, &mut crng);
        }
        PhoneDataset::from_flashfs(0, &fs)
    }

    /// Whether this campaign reproduces `signature` under `mode` — one
    /// full deterministic probe.
    pub fn reproduces(
        &self,
        signature: &FailureSignature,
        config: &AnalysisConfig,
        mode: MatchMode,
    ) -> bool {
        signature.matches_phone(&self.run(), config, self.labels(), mode)
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

    /// Parses a config written by [`Self::to_json`].
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let seed = json_u64(text, "seed").ok_or("repro config: missing seed")?;
        let days = json_u64(text, "days").ok_or("repro config: missing days")?;
        let days = u32::try_from(days).map_err(|_| "repro config: days out of range")?;
        let channels = json_name_array(text, "channels")
            .ok_or("repro config: missing channels")?
            .iter()
            .map(|name| {
                FaultChannel::parse(name).ok_or(format!("repro config: unknown channel {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let corruption_name =
            json_name(text, "corruption").ok_or("repro config: missing corruption")?;
        let corruption = CorruptionProfile::parse(&corruption_name).ok_or(format!(
            "repro config: unknown corruption {corruption_name}"
        ))?;
        let mode_name = json_name(text, "match").ok_or("repro config: missing match mode")?;
        let mode = MatchMode::parse(&mode_name)
            .ok_or(format!("repro config: unknown match mode {mode_name}"))?;
        let sig_at = text
            .find("\"signature\":")
            .ok_or("repro config: missing signature")?;
        let mut signatures =
            symfail_core::analysis::signature::signatures_from_json(&text[sig_at..])
                .map_err(|e| format!("repro config: {e}"))?;
        if signatures.len() != 1 {
            return Err("repro config: expected exactly one signature".to_string());
        }
        Ok(Self {
            seed,
            days,
            channels,
            corruption,
            mode,
            signature: signatures.remove(0),
        })
    }
}

/// Reads a bare unsigned integer field from flat JSON text.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads a quoted enum-name field (no escapes) from flat JSON text.
fn json_name(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Reads an array of quoted enum names from flat JSON text.
fn json_name_array(text: &str, key: &str) -> Option<Vec<String>> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(part.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    Some(out)
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
/// probe count the search spent.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The minimal reproducing config.
    pub config: ReproConfig,
    /// Every accepted search state, first (full) to last (minimal).
    pub trail: Vec<ReproConfig>,
    /// Full simulate→parse→match probes the search ran.
    pub probes: u64,
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
    let mut probes = 0u64;
    let mut probe = |seed: u64, days: u32, channels: &[FaultChannel], corruption| {
        probes += 1;
        ReproCampaign {
            seed,
            days,
            channels: channels.to_vec(),
            corruption,
            device,
        }
        .reproduces(signature, &opts.config, opts.mode)
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

    // 3 / 5. Day bisection, also rerun after channel drops. Sound
    // because with zero spreads the log at d days is a byte prefix of
    // the log at D > d days (see module docs), so matching is
    // monotone in `days`.
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
        probes,
    })
}

/// Streams the fleet campaign phone by phone and extracts the
/// distinct-signature catalog — `(signature, occurrences)` sorted by
/// key — without ever materializing the fleet. Each phone's panics
/// resolve against its own name table; interner independence makes
/// the result identical to extraction from the merged fleet.
pub fn extract_fleet_signatures(
    campaign: &FleetCampaign,
    config: &AnalysisConfig,
) -> Vec<(FailureSignature, u64)> {
    let mut out: Vec<(FailureSignature, u64)> = Vec::new();
    for id in 0..campaign.params().phones {
        let harvest = campaign.run_single(id);
        let phone = PhoneDataset::from_flashfs(id, &harvest.flashfs);
        for sig in FailureSignature::from_phone(&phone, config, campaign.device_labels(id)) {
            match out.iter_mut().find(|(s, _)| *s == sig) {
                Some((_, n)) => *n += 1,
                None => out.push((sig, 1)),
            }
        }
    }
    out.sort_by_key(|(s, _)| s.key());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let phone = campaign.run();
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
        let a = campaign.run();
        let b = campaign.run();
        assert_eq!(a.panics(), b.panics());
        assert_eq!(a.names(), b.names());
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
