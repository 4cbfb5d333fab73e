//! The Running Applications Detector active object.
//!
//! Periodically stores the list of applications running on the phone
//! (obtained from the Application Architecture Server) into the
//! `runapp` file. Nothing reads the file back: at panic time the Panic
//! Detector takes the running list from the [`super::PhoneContext`]
//! and writes it into the consolidated record, which is what the
//! Table 4 / Figure 6 analyses read.

use symfail_sim_core::SimTime;

use crate::flashfs::FlashFs;
use crate::records::push_u64;

use super::files;

/// The running-applications snapshotter.
#[derive(Debug, Clone, Default)]
pub struct RunningAppsDetector;

impl RunningAppsDetector {
    /// Creates the active object.
    pub fn new() -> Self {
        Self
    }

    /// Writes one snapshot line: `<ms>|app1,app2,…`.
    pub fn snapshot(&mut self, fs: &mut FlashFs, now: SimTime, apps: &[&str]) {
        fs.append_line_with(files::RUNAPP, |buf| {
            push_u64(buf, now.as_millis());
            buf.push(b'|');
            for (i, app) in apps.iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                buf.extend_from_slice(app.as_bytes());
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_writes_one_line_per_call() {
        let mut fs = FlashFs::new();
        let mut det = RunningAppsDetector::new();
        det.snapshot(&mut fs, SimTime::from_secs(5), &["A", "B"]);
        det.snapshot(&mut fs, SimTime::from_secs(10), &[]);
        let lines: Vec<&str> = fs.read_lines(files::RUNAPP).collect();
        assert_eq!(lines, ["5000|A,B", "10000|"]);
    }
}
