//! The Heartbeat active object.
//!
//! During normal execution it writes periodic `ALIVE` events to the
//! `beats` file. When a clean shutdown begins, the OS lets
//! applications complete their tasks — enough for the Heartbeat to
//! write the final `REBOOT`, `MAOFF` or `LOWBT` event. A freeze or a
//! battery pull writes nothing, which is precisely the signature the
//! boot-time check keys on.

use symfail_sim_core::SimTime;

use crate::flashfs::FlashFs;
use crate::records::{encode_beat_into, HeartbeatEvent};

use super::files;

/// The heartbeat writer.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatAo {
    beats_written: u64,
}

impl HeartbeatAo {
    /// Creates the active object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes an `ALIVE` beat.
    pub fn beat(&mut self, fs: &mut FlashFs, now: SimTime) {
        fs.append_line_with(files::BEATS, |buf| {
            encode_beat_into(buf, now, HeartbeatEvent::Alive);
        });
        self.beats_written += 1;
    }

    /// Writes the final event of a clean shutdown.
    pub fn final_event(&mut self, fs: &mut FlashFs, now: SimTime, event: HeartbeatEvent) {
        debug_assert!(event != HeartbeatEvent::Alive, "final event is never ALIVE");
        fs.append_line_with(files::BEATS, |buf| encode_beat_into(buf, now, event));
    }

    /// Number of ALIVE beats written (log-volume metric).
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
        hb.beat(&mut fs, SimTime::from_secs(1));
        hb.beat(&mut fs, SimTime::from_secs(2));
        hb.final_event(&mut fs, SimTime::from_secs(3), HeartbeatEvent::Reboot);
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
