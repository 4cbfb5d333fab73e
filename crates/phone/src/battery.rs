//! A coarse battery model.
//!
//! The logger only needs the battery *level* at sampling instants and
//! the low-battery flag, so the model is intentionally simple: linear
//! discharge over the powered day and a full overnight recharge. Days
//! on which the user forgets to charge produce the `LOWBT` shutdowns
//! the Power Manager exists to classify.
//!
//! [`Battery::drain`] takes an activity span beside the elapsed time,
//! but counts activity only up to the elapsed time. The simulator
//! drains calls and sessions with zero elapsed time, so activity never
//! drains the battery: such a drain leaves the level bit-identical.
//! Making activity drain would move the battery byte of panic records.
//!
//! Idle drain is lazy. The simulator drains once per heartbeat tick,
//! but the level is read only where the logger records it, so
//! [`Battery::idle_ticks`] counts ticks and every read of the level
//! first applies them one by one, in order: the levels are the
//! floating-point values an eager drain per tick gives.

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimDuration;

/// The battery state of one phone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    /// The level as of the last applied drain; `pending_ticks` more
    /// idle drains are due before it is read.
    level: f64,
    /// Percent drained per powered hour at idle.
    idle_drain_per_hour: f64,
    /// Extra percent drained per hour of calls/sessions.
    active_drain_per_hour: f64,
    /// Idle ticks counted but not yet applied to `level`.
    pending_ticks: u64,
    /// The drain of each pending tick.
    pending_drain: f64,
}

impl Battery {
    /// A fresh, fully charged battery with typical 2005-era drain
    /// rates (~2 days idle life).
    pub fn new() -> Self {
        Self {
            level: 100.0,
            idle_drain_per_hour: 2.2,
            active_drain_per_hour: 9.0,
            pending_ticks: 0,
            pending_drain: 0.0,
        }
    }

    /// Current level in whole percent.
    pub fn percent(&mut self) -> u8 {
        self.level().clamp(0.0, 100.0).round() as u8
    }

    /// True when at or below the 5% low-battery threshold.
    pub fn is_low(&mut self) -> bool {
        self.level() <= 5.0
    }

    /// The level, once the pending idle ticks are applied.
    fn level(&mut self) -> f64 {
        for _ in 0..std::mem::take(&mut self.pending_ticks) {
            self.apply(self.pending_drain);
        }
        self.level
    }

    /// Drains for `elapsed` of idle operation plus `active` of
    /// activity (calls, camera, sessions). Activity counts only up to
    /// `elapsed`, so a zero-elapsed drain changes nothing.
    pub fn drain(&mut self, elapsed: SimDuration, active: SimDuration) {
        let amount = self.drain_amount(elapsed, active);
        // Subtracting zero from a non-negative level is the identity,
        // so a zero drain need not apply the pending ticks first.
        if amount != 0.0 {
            self.level();
            self.apply(amount);
        }
    }

    /// `n` heartbeat ticks of idle drain, `drain(period, ZERO)` each,
    /// applied at the next read of the level.
    pub fn idle_ticks(&mut self, period: SimDuration, n: u64) {
        let amount = self.drain_amount(period, SimDuration::ZERO);
        if amount != self.pending_drain {
            self.level();
            self.pending_drain = amount;
        }
        self.pending_ticks += n;
    }

    /// Overnight charge to full; the pending ticks no longer matter.
    pub fn recharge_full(&mut self) {
        self.pending_ticks = 0;
        self.level = 100.0;
    }

    /// Partial recharge (forgot the charger; plugged briefly).
    pub fn recharge_to(&mut self, percent: f64) {
        self.level = self.level().max(percent.clamp(0.0, 100.0));
    }

    fn drain_amount(&self, elapsed: SimDuration, active: SimDuration) -> f64 {
        let idle_h = elapsed.as_hours_f64();
        let act_h = active.as_hours_f64().min(idle_h);
        idle_h * self.idle_drain_per_hour + act_h * self.active_drain_per_hour
    }

    fn apply(&mut self, amount: f64) {
        self.level -= amount;
        self.level = self.level.max(0.0);
    }
}

impl Default for Battery {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_battery_full() {
        let mut b = Battery::new();
        assert_eq!(b.percent(), 100);
        assert!(!b.is_low());
    }

    #[test]
    fn drains_with_time_and_activity() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(10), SimDuration::ZERO);
        let idle_only = b.percent();
        assert!(idle_only < 100);
        let mut c = Battery::new();
        c.drain(SimDuration::from_hours(10), SimDuration::from_hours(2));
        assert!(c.percent() < idle_only, "activity drains more");
    }

    #[test]
    fn never_negative_and_low_flag() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(1000), SimDuration::from_hours(1000));
        assert_eq!(b.percent(), 0);
        assert!(b.is_low());
    }

    #[test]
    fn recharge() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(30), SimDuration::ZERO);
        b.recharge_to(50.0);
        assert_eq!(b.percent(), 50);
        b.recharge_to(20.0);
        assert_eq!(b.percent(), 50, "recharge_to never discharges");
        b.recharge_full();
        assert_eq!(b.percent(), 100);
    }

    #[test]
    fn active_time_clamped_to_elapsed() {
        let mut a = Battery::new();
        a.drain(SimDuration::from_hours(1), SimDuration::from_hours(50));
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(1), SimDuration::from_hours(1));
        assert_eq!(a.percent(), b.percent());
    }

    /// What the simulator drains for a call or session: nothing. A
    /// zero-elapsed drain leaves the level bit-identical, whatever the
    /// activity and whatever is pending.
    #[test]
    fn zero_elapsed_drain_leaves_the_level_bit_identical() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_secs(4321), SimDuration::ZERO);
        b.idle_ticks(SimDuration::from_secs(300), 7);
        let mut c = b;
        for active in [1, 300, 3_600, 86_400] {
            b.drain(SimDuration::ZERO, SimDuration::from_secs(active));
        }
        assert_eq!(b.level().to_bits(), c.level().to_bits());
        let mut empty = Battery::new();
        empty.drain(SimDuration::from_hours(1000), SimDuration::ZERO);
        empty.drain(SimDuration::ZERO, SimDuration::from_hours(1));
        assert_eq!(empty.level().to_bits(), 0.0f64.to_bits());
    }

    /// Lazy idle ticks give the levels of one eager drain per tick, at
    /// every read, with eager drains and recharges in between; a full
    /// recharge drops what is pending.
    #[test]
    fn idle_ticks_equal_one_drain_per_tick() {
        let period = SimDuration::from_secs(300);
        let (mut lazy, mut eager) = (Battery::new(), Battery::new());
        for round in 0..60u64 {
            let n = round * 7 % 40;
            lazy.idle_ticks(period, n);
            for _ in 0..n {
                eager.drain(period, SimDuration::ZERO);
            }
            match round % 5 {
                0 => {
                    lazy.recharge_to(30.0);
                    eager.recharge_to(30.0);
                }
                1 => {
                    lazy.drain(SimDuration::from_secs(round), SimDuration::ZERO);
                    eager.drain(SimDuration::from_secs(round), SimDuration::ZERO);
                }
                2 if round % 3 == 0 => {
                    lazy.recharge_full();
                    eager.recharge_full();
                }
                _ => {}
            }
            assert_eq!(
                lazy.level().to_bits(),
                eager.level.to_bits(),
                "round {round}"
            );
            assert_eq!(lazy.is_low(), eager.is_low());
        }
        // A different period applies the ticks pending at the old one.
        let (mut lazy, mut eager) = (Battery::new(), Battery::new());
        lazy.idle_ticks(period, 3);
        lazy.idle_ticks(SimDuration::from_secs(30), 2);
        for p in [300, 300, 300, 30, 30] {
            eager.drain(SimDuration::from_secs(p), SimDuration::ZERO);
        }
        assert_eq!(lazy.level().to_bits(), eager.level.to_bits());
    }
}
