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
use crate::records::{encode_beat_into, write_u64_digits, HeartbeatEvent, ALIVE_TAIL};

use super::files;

/// Decimal digits of the widest timestamp, `u64::MAX` milliseconds.
const MAX_DIGITS: usize = 20;

/// Room for the widest line, 20 digits and `|ALIVE\n`, as two 16-byte
/// stores.
const LINE: usize = 32;

/// The register holds the timestamp's value below this: its low eight
/// decimal digits.
const LOW_SPAN: u64 = 100_000_000;

/// `'0'` in every byte: a register of digit values (0–9 per byte) OR
/// this is their ASCII.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// `v` (below [`LOW_SPAN`]) as eight decimal digit values, one per
/// byte, the most significant digit in the most significant byte.
fn spread_digits(mut v: u64) -> u64 {
    let mut out = 0;
    for byte in 0..8 {
        out |= (v % 10) << (8 * byte);
        v /= 10;
    }
    out
}

/// Adds two registers of eight decimal digit values with decimal
/// carries; the flag is the carry out of the top digit. Each byte sum
/// is at most 18, so the plain addition carries nothing between bytes.
/// Adding 246 to every byte then makes a byte overflow exactly when
/// its sum (with the carry from below) reaches 10, leaving that sum
/// minus 10 and carrying into the next digit up; a byte that did not
/// overflow still holds the 246 (its high bit is set), taken back off.
fn add_digits(a: u64, b: u64) -> (u64, bool) {
    let (biased, carry) = (a + b).overflowing_add(0xF6F6_F6F6_F6F6_F6F6);
    let unbias = ((biased & 0x8080_8080_8080_8080) >> 7) * 0xF6;
    (biased - unbias, carry)
}

/// A period split as [`BeatDigits`] adds it.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    ms: u64,
    /// `ms % LOW_SPAN`, spread one digit per byte.
    low: u64,
    /// `ms / LOW_SPAN`.
    high: u64,
}

impl Step {
    fn new(period: SimDuration) -> Self {
        let ms = period.as_millis();
        Self {
            ms,
            low: spread_digits(ms % LOW_SPAN),
            high: ms / LOW_SPAN,
        }
    }
}

/// The last `ALIVE` line written, kept so the next line is the period
/// added to its digits: the low eight digits sit in one register, one
/// digit per byte, and a period's low eight digits add to them in one
/// integer addition whose byte carries are decimal carries (SWAR:
/// SIMD within a register). A line is a copy of a template holding
/// the digits above the register and `|ALIVE\n`, with the register
/// stored over its place; the template is rendered from the integer
/// only when those digits change — a carry out of the register, or a
/// timestamp below `10^8` ms, whose leading zeros are not written. So
/// no line reloads digit bytes it has just stored.
#[derive(Debug, Clone)]
struct BeatDigits {
    /// The timestamp, in milliseconds.
    at: u64,
    /// `at / LOW_SPAN`.
    high: u64,
    /// `at % LOW_SPAN`, spread one digit per byte.
    low: u64,
    /// `<at>|ALIVE\n` as last rendered, zero-padded; while `high > 0`
    /// its register digits are stale.
    line: [u8; LINE],
    /// The line's length.
    len: usize,
}

impl BeatDigits {
    fn new(at: u64) -> Self {
        let mut digits = Self {
            at,
            high: at / LOW_SPAN,
            low: spread_digits(at % LOW_SPAN),
            line: [0; LINE],
            len: 0,
        };
        digits.render();
        digits
    }

    /// Writes the whole line from `at`.
    fn render(&mut self) {
        let mut digits = [b'0'; MAX_DIGITS];
        let start = write_u64_digits(&mut digits, self.at);
        let width = MAX_DIGITS - start;
        self.line = [0; LINE];
        self.line[..width].copy_from_slice(&digits[start..]);
        self.line[width..width + ALIVE_TAIL.len()].copy_from_slice(ALIVE_TAIL);
        self.len = width + ALIVE_TAIL.len();
    }

    /// Moves to the next beat, one `step` later. The last timestamp
    /// must fit in a `u64`.
    fn advance(&mut self, step: &Step) {
        let (low, carry) = add_digits(self.low, step.low);
        self.low = low;
        self.at += step.ms;
        let high = self.high + step.high + u64::from(carry);
        if high != self.high || high == 0 {
            self.high = high;
            self.render();
        }
    }

    /// Appends the line. With room for a whole [`LINE`] in the buffer,
    /// that is one fixed-size copy of the template, the register stored
    /// over its digits, cut back to the line; nearer the buffer's end,
    /// the digits and then `|ALIVE\n`, the appends the per-field
    /// encoder made, so a growing buffer takes the capacities it always
    /// took.
    fn push(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        if buf.capacity() - start >= LINE {
            buf.extend_from_slice(&self.line);
            let digits_end = start + self.len - ALIVE_TAIL.len();
            if self.high > 0 {
                buf[digits_end - 8..digits_end]
                    .copy_from_slice(&(self.low | ASCII_ZEROS).to_be_bytes());
            }
            buf.truncate(start + self.len);
        } else {
            let mut digits = [0; MAX_DIGITS];
            let first = write_u64_digits(&mut digits, self.at);
            buf.extend_from_slice(&digits[first..]);
            buf.extend_from_slice(ALIVE_TAIL);
        }
    }
}

/// The heartbeat writer.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatAo {
    /// The last event emitted, with its time.
    last: Option<(SimTime, HeartbeatEvent)>,
    /// The last `ALIVE` line written, while it is the file's last line.
    digits: Option<BeatDigits>,
    /// The last run's period, split.
    step: Step,
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
    /// … with one file lookup. Each line is the previous one's digits
    /// plus the period, added in a register; the run's first line continues
    /// the last run's digits when it starts one period after that run's
    /// last beat, and formats its timestamp otherwise. The bytes are
    /// exactly those of `n` single beats at the same times. The last
    /// timestamp must fit in a `u64`. With `fs` `None` (a log-only
    /// logger) nothing is written, but the run's last beat is
    /// remembered all the same.
    pub fn beats(&mut self, fs: Option<&mut FlashFs>, first: SimTime, period: SimDuration, n: u32) {
        if n == 0 {
            return;
        }
        self.last = Some((first + period * u64::from(n - 1), HeartbeatEvent::Alive));
        let Some(fs) = fs else { return };
        if self.step.ms != period.as_millis() {
            self.step = Step::new(period);
        }
        let (step, first) = (self.step, first.as_millis());
        // The digits work out of a local, which the buffer's byte
        // stores cannot alias, so they stay in registers over the run.
        let mut digits = match self.digits.take() {
            Some(mut digits) if digits.at.checked_add(step.ms) == Some(first) => {
                digits.advance(&step);
                digits
            }
            _ => BeatDigits::new(first),
        };
        fs.append_lines_with(files::BEATS, |buf| {
            digits.push(buf);
            for _ in 1..n {
                digits.advance(&step);
                digits.push(buf);
            }
        });
        self.digits = Some(digits);
    }

    /// Writes the final event of a clean shutdown; with `fs` `None`,
    /// only remembers it.
    pub fn final_event(&mut self, fs: Option<&mut FlashFs>, now: SimTime, event: HeartbeatEvent) {
        debug_assert!(event != HeartbeatEvent::Alive, "final event is never ALIVE");
        self.last = Some((now, event));
        self.digits = None;
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

    /// The register's decimal addition against integer addition, on
    /// every digit count and carry chain (…9999 + 1, 99999999 + 1 out
    /// of the register).
    #[test]
    fn register_addition_carries_in_decimal() {
        let values = [
            0u64, 1, 9, 10, 99, 4_321, 300_000, 999_999, 49_999_999, 50_000_000, 99_999_999,
            12_345_678, 87_654_321,
        ];
        for a in values {
            for b in values {
                let (sum, carry) = add_digits(spread_digits(a), spread_digits(b));
                assert_eq!(sum, spread_digits((a + b) % LOW_SPAN), "{a} + {b}");
                assert_eq!(carry, a + b >= LOW_SPAN, "{a} + {b}");
            }
        }
    }
}
