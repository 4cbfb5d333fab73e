//! Per-phone user behaviour profiles.
//!
//! The study's phones belonged to students, researchers and professors
//! in Italy and the USA under normal use; behaviour varies per person
//! but is stable per phone. A [`UserProfile`] is sampled once per
//! phone from the calibration parameters and then drives the daily
//! schedule: waking hours, nightly power-off habits, call/message/app
//! volumes and the occasional deliberate reboot.

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimRng};

use crate::calibration::CalibrationParams;

/// Which deployment site a phone belongs to (the study ran in Italy
/// and the USA; the site only affects labelling, not behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Site {
    /// Università di Napoli Federico II.
    Italy,
    /// University of Illinois at Urbana-Champaign.
    Usa,
}

/// The per-phone behaviour profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// Deployment site.
    pub site: Site,
    /// Whether the user powers the phone off at night.
    pub nightly_shutdown: bool,
    /// Wake time as seconds after midnight.
    pub wake_secs: u64,
    /// Sleep time as seconds after midnight.
    pub sleep_secs: u64,
    /// Mean voice calls per day for this user.
    pub calls_per_day: f64,
    /// Mean messages per day.
    pub messages_per_day: f64,
    /// Mean app sessions per day.
    pub app_sessions_per_day: f64,
    /// Median call duration in seconds.
    pub call_median_secs: f64,
}

impl UserProfile {
    /// Samples a profile for one phone.
    pub fn sample(params: &CalibrationParams, rng: &mut SimRng) -> Self {
        let nightly = rng.chance(params.nightly_shutdown_fraction);
        Self::sample_with_nightly(params, rng, nightly)
    }

    /// Samples a profile with the nightly-shutdown habit fixed by the
    /// caller. The fleet campaign stratifies this trait across phones
    /// (exactly ⌈fraction · fleet⌉ nightly users) so that the fleet's
    /// shutdown-event total does not swing on a binomial draw — the
    /// paper reports one concrete fleet, not an ensemble.
    pub fn sample_with_nightly(
        params: &CalibrationParams,
        rng: &mut SimRng,
        nightly_shutdown: bool,
    ) -> Self {
        let site = if rng.chance(0.5) {
            Site::Italy
        } else {
            Site::Usa
        };
        // Wake 06:30–08:30, sleep 22:00–00:00.
        let wake_secs = 6 * 3600 + 1800 + (rng.uniform() * 7200.0) as u64;
        let sleep_secs = 22 * 3600 + (rng.uniform() * 7200.0) as u64;
        // Per-user volume multipliers around the fleet means.
        let vol = |mean: f64, rng: &mut SimRng| (mean * rng.lognormal(1.0, 0.35)).max(0.3);
        Self {
            site,
            nightly_shutdown,
            wake_secs,
            sleep_secs: sleep_secs.min(24 * 3600 - 1),
            calls_per_day: vol(params.calls_per_day, rng),
            messages_per_day: vol(params.messages_per_day, rng),
            app_sessions_per_day: vol(params.app_sessions_per_day, rng),
            call_median_secs: 90.0 * rng.lognormal(1.0, 0.3),
        }
    }

    /// Night span (sleep to next wake).
    pub fn night_span(&self) -> SimDuration {
        SimDuration::from_secs(24 * 3600 - self.sleep_secs + self.wake_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> UserProfile {
        let params = CalibrationParams::default();
        let mut rng = SimRng::seed_from(seed);
        UserProfile::sample(&params, &mut rng)
    }

    #[test]
    fn waking_hours_are_plausible() {
        for seed in 0..50 {
            let p = sample(seed);
            assert!(p.wake_secs >= 6 * 3600 && p.wake_secs <= 9 * 3600);
            assert!(p.sleep_secs >= 22 * 3600 && p.sleep_secs < 24 * 3600);
            let span = SimDuration::from_secs(p.sleep_secs - p.wake_secs);
            assert!(span >= SimDuration::from_hours(13));
            assert!(span <= SimDuration::from_hours(18));
            let night = p.night_span();
            assert!(night >= SimDuration::from_hours(6));
            assert!(night <= SimDuration::from_hours(11));
        }
    }

    #[test]
    fn volumes_positive() {
        for seed in 0..50 {
            let p = sample(seed);
            assert!(p.calls_per_day > 0.0);
            assert!(p.messages_per_day > 0.0);
            assert!(p.app_sessions_per_day > 0.0);
            assert!(p.call_median_secs > 0.0);
        }
    }

    #[test]
    fn nightly_fraction_roughly_matches() {
        let n = 1000;
        let nightly = (0..n).filter(|&s| sample(s).nightly_shutdown).count();
        let frac = nightly as f64 / n as f64;
        assert!(
            (frac - 0.20).abs() < 0.05,
            "nightly fraction {frac} far from configured 0.20"
        );
    }

    #[test]
    fn deterministic_for_equal_seed() {
        assert_eq!(sample(7), sample(7));
    }
}
