//! Virtual time: instants and durations with millisecond resolution.
//!
//! Millisecond resolution is sufficient for every phenomenon in the
//! study (the finest-grained mechanism, the heartbeat, ticks at
//! multi-second periods) while keeping 14 simulated months well within
//! `u64` range (a 14-month campaign is ~3.7 × 10¹⁰ ms).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant on the simulation clock, measured in milliseconds since
/// the campaign epoch (September 2005 in the paper's deployment).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The campaign epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs an instant from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Constructs an instant from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Elapsed duration since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Milliseconds into the current simulated day (days are exactly
    /// 24 h long; the campaign epoch is midnight).
    pub fn time_of_day(self) -> SimDuration {
        SimDuration(self.0 % SimDuration::DAY.0)
    }

    /// Index of the simulated day this instant falls in.
    pub const fn day_index(self) -> u64 {
        self.0 / (24 * 3_600_000)
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One 24-hour day.
    pub const DAY: SimDuration = SimDuration(24 * 3_600_000);

    /// Constructs a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Constructs a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Constructs a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Constructs a duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 24 * 3_600_000)
    }

    /// Constructs a duration from fractional seconds, rounding to the
    /// nearest millisecond and saturating below zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1000.0).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day_index();
        let rem = self.time_of_day();
        let h = rem.as_millis() / 3_600_000;
        let m = rem.as_millis() % 3_600_000 / 60_000;
        let s = rem.as_millis() % 60_000 / 1000;
        let ms = rem.as_millis() % 1000;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    /// Renders the most significant two units, e.g. `2d2h`, `1m20s`,
    /// `830ms`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms >= 24 * 3_600_000 {
            write!(
                f,
                "{}d{}h",
                ms / (24 * 3_600_000),
                ms % (24 * 3_600_000) / 3_600_000
            )
        } else if ms >= 3_600_000 {
            write!(f, "{}h{}m", ms / 3_600_000, ms % 3_600_000 / 60_000)
        } else if ms >= 60_000 {
            write!(f, "{}m{}s", ms / 60_000, ms % 60_000 / 1000)
        } else if ms >= 1000 {
            write!(f, "{}.{:03}s", ms / 1000, ms % 1000)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(5).as_millis(), 5000);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::from_days(1), SimDuration::DAY);
        assert_eq!(SimDuration::from_mins(3).as_millis(), 180_000);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimDuration::from_secs_f64(-2.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0004), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(100);
        let t2 = t + SimDuration::from_secs(50);
        assert_eq!((t2 - t).as_secs(), 50);
        assert_eq!((t2 - SimDuration::from_secs(25)).as_secs(), 125);
        assert_eq!(SimDuration::from_secs(10) * 6, SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(1) / 60, SimDuration::from_secs(1));
    }

    #[test]
    fn saturating_since_never_negative() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(20);
        assert_eq!(late.saturating_since(early).as_secs(), 10);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn time_of_day_and_day_index() {
        let t = SimTime::ZERO + SimDuration::from_days(3) + SimDuration::from_hours(7);
        assert_eq!(t.day_index(), 3);
        assert_eq!(t.time_of_day(), SimDuration::from_hours(7));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        let minute = SimDuration::from_mins(1);
        assert!(SimDuration::from_hours(1) > minute);
        assert_eq!(
            SimDuration::from_secs(30).min(minute),
            SimDuration::from_secs(30)
        );
        assert_eq!(SimDuration::from_secs(30).max(minute), minute);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_millis(830).to_string(), "830ms");
        assert_eq!(SimDuration::from_secs(80).to_string(), "1m20s");
        assert_eq!(SimDuration::from_secs(30_000).to_string(), "8h20m");
        assert_eq!(SimDuration::from_hours(50).to_string(), "2d2h");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        let t = SimTime::from_secs(90_061) + SimDuration::from_millis(7);
        assert_eq!(t.to_string(), "d1+01:01:01.007");
    }

    #[test]
    fn as_hours() {
        assert!((SimDuration::from_hours(313).as_hours_f64() - 313.0).abs() < 1e-12);
    }
}
