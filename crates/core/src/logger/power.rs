//! The Power Manager active object.
//!
//! Records battery status (gathered from the System Agent Server in
//! the paper, from the [`super::PhoneContext`] here) into the `power`
//! file. Nothing reads the file back: the Panic Detector takes the
//! battery level from the context, and the analysis tells low-battery
//! shutdowns apart from failures by the `LOWBT` event in the boot
//! records of the consolidated log.

use symfail_sim_core::SimTime;

use crate::flashfs::FlashFs;
use crate::records::push_u64;

use super::files;

/// The battery-status sampler.
#[derive(Debug, Clone, Default)]
pub struct PowerManager;

impl PowerManager {
    /// Creates the active object.
    pub fn new() -> Self {
        Self
    }

    /// Writes one sample line: `<ms>|<percent>|<LOW or OK>`.
    pub fn snapshot(&mut self, fs: &mut FlashFs, now: SimTime, percent: u8, low: bool) {
        fs.append_line_with(files::POWER, |buf| {
            push_u64(buf, now.as_millis());
            buf.push(b'|');
            push_u64(buf, u64::from(percent));
            buf.push(b'|');
            buf.extend_from_slice(if low { b"LOW" } else { b"OK" });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_writes_one_line_per_sample() {
        let mut fs = FlashFs::new();
        let mut pm = PowerManager::new();
        pm.snapshot(&mut fs, SimTime::from_secs(9), 42, false);
        pm.snapshot(&mut fs, SimTime::from_secs(10), 4, true);
        let lines: Vec<&str> = fs.read_lines(files::POWER).collect();
        assert_eq!(lines, ["9000|42|OK", "10000|4|LOW"]);
    }
}
