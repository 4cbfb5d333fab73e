//! The Heartbeat active object.
//!
//! During normal execution it writes periodic `ALIVE` events to the
//! `beats` file. When a clean shutdown begins, the OS lets
//! applications complete their tasks — enough for the Heartbeat to
//! write the final `REBOOT`, `MAOFF` or `LOWBT` event. A freeze or a
//! battery pull writes nothing, which is precisely the signature the
//! boot-time check keys on. The AO remembers the last event it wrote,
//! which is the last line of the `beats` file as long as nothing else
//! touches that file, and the boot-time check asks it for that event.

use symfail_sim_core::{SimDuration, SimTime};

use crate::flashfs::FlashFs;
use crate::records::{encode_beat_into, write_u64_digits, HeartbeatEvent};

use super::files;

/// Decimal digits of the widest timestamp, `u64::MAX` milliseconds.
const MAX_DIGITS: usize = 20;

/// What follows the timestamp on every `ALIVE` line.
const ALIVE_TAIL: &[u8] = b"|ALIVE\n";

/// A millisecond timestamp as decimal digits that advance in place:
/// right-aligned in a fixed buffer whose unused high places hold `'0'`.
/// Adding the period is a carry chain over those ASCII digits — an
/// odometer — so a run of beats formats no integer after its first.
struct Odometer {
    digits: [u8; MAX_DIGITS],
    /// Index of the most significant digit.
    start: usize,
}

impl Odometer {
    fn new(ms: u64) -> Self {
        let mut digits = [b'0'; MAX_DIGITS];
        let start = write_u64_digits(&mut digits, ms);
        Self { digits, start }
    }

    /// Appends one `ALIVE` line at the current timestamp, as two
    /// appends — the digits, then `|ALIVE\n` — so a fresh file's buffer
    /// grows through the same capacities as under the per-field beat
    /// encoder. One append per line would shift every later capacity
    /// doubling, and with it the peak heap.
    fn push_alive(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.digits[self.start..]);
        buf.extend_from_slice(ALIVE_TAIL);
    }

    /// Adds `step × 10^skip` milliseconds. The `skip` low places are
    /// untouched (the period's trailing zeros), so a 300 s period adds
    /// one digit and carries; a carry past the most significant digit
    /// lands on a `'0'` place and widens the number (999 → 1000).
    fn advance(&mut self, step: u64, skip: usize) {
        let mut i = MAX_DIGITS - 1 - skip;
        let mut carry = step;
        loop {
            let sum = u64::from(self.digits[i] - b'0') + carry % 10;
            carry = carry / 10 + sum / 10;
            self.digits[i] = b'0' + (sum % 10) as u8;
            if carry == 0 {
                break;
            }
            i -= 1;
        }
        self.start = self.start.min(i);
    }
}

/// The heartbeat writer.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatAo {
    beats_written: u64,
    /// The last event emitted, with its time.
    last: Option<(SimTime, HeartbeatEvent)>,
}

impl HeartbeatAo {
    /// Creates the active object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes an `ALIVE` beat: the one-beat run of [`Self::beats`].
    pub fn beat(&mut self, fs: Option<&mut FlashFs>, now: SimTime) {
        self.beats(fs, now, SimDuration::ZERO, 1);
    }

    /// Writes a run of `n` `ALIVE` beats at `first`, `first + period`,
    /// … with one file lookup; each timestamp after the first is the
    /// previous one's digits plus the period, carried in place. The
    /// bytes are exactly those of `n` single beats at the same times.
    /// The last timestamp must fit in a `u64`. With `fs` `None` (a
    /// log-only logger) nothing is written, but the run is counted and
    /// its last beat remembered all the same.
    pub fn beats(&mut self, fs: Option<&mut FlashFs>, first: SimTime, period: SimDuration, n: u32) {
        if n == 0 {
            return;
        }
        self.beats_written += u64::from(n);
        self.last = Some((first + period * u64::from(n - 1), HeartbeatEvent::Alive));
        let Some(fs) = fs else { return };
        fs.append_lines_with(files::BEATS, |buf| {
            let mut at = Odometer::new(first.as_millis());
            at.push_alive(buf);
            if n > 1 {
                let (mut step, mut skip) = (period.as_millis(), 0);
                while step != 0 && step % 10 == 0 {
                    step /= 10;
                    skip += 1;
                }
                for _ in 1..n {
                    at.advance(step, skip);
                    at.push_alive(buf);
                }
            }
        });
    }

    /// Writes the final event of a clean shutdown; with `fs` `None`,
    /// only remembers it.
    pub fn final_event(&mut self, fs: Option<&mut FlashFs>, now: SimTime, event: HeartbeatEvent) {
        debug_assert!(event != HeartbeatEvent::Alive, "final event is never ALIVE");
        self.last = Some((now, event));
        if let Some(fs) = fs {
            fs.append_line_with(files::BEATS, |buf| encode_beat_into(buf, now, event));
        }
    }

    /// The last event written (or, log-only, that would have been),
    /// with its time: `None` before the first beat. This is what the
    /// boot-time check classifies the previous session by.
    pub fn last_event(&self) -> Option<(SimTime, HeartbeatEvent)> {
        self.last
    }

    /// Number of ALIVE beats emitted, whether or not written
    /// (log-volume metric).
    pub fn beats_written(&self) -> u64 {
        self.beats_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::decode_beat;

    #[test]
    fn beats_accumulate() {
        let mut fs = FlashFs::new();
        let mut hb = HeartbeatAo::new();
        assert_eq!(hb.last_event(), None);
        hb.beat(Some(&mut fs), SimTime::from_secs(1));
        hb.beat(Some(&mut fs), SimTime::from_secs(2));
        assert_eq!(
            hb.last_event(),
            Some((SimTime::from_secs(2), HeartbeatEvent::Alive))
        );
        hb.final_event(Some(&mut fs), SimTime::from_secs(3), HeartbeatEvent::Reboot);
        assert_eq!(hb.beats_written(), 2);
        let events: Vec<HeartbeatEvent> = fs
            .read_lines(files::BEATS)
            .map(|l| decode_beat(l.as_bytes()).unwrap().1)
            .collect();
        assert_eq!(
            events,
            vec![
                HeartbeatEvent::Alive,
                HeartbeatEvent::Alive,
                HeartbeatEvent::Reboot
            ]
        );
    }
}
