//! The Running Applications Detector active object.
//!
//! Periodically stores the list of applications running on the phone
//! (obtained from the Application Architecture Server) into the
//! `runapp` file. At panic time the Panic Detector folds the freshest
//! snapshot into the consolidated record — this is what makes the
//! Table 4 / Figure 6 analyses possible.

use symfail_sim_core::SimTime;

use crate::flashfs::FlashFs;
use crate::records::push_u64;

use super::files;

/// The running-applications snapshotter.
#[derive(Debug, Clone, Default)]
pub struct RunningAppsDetector {
    snapshots: u64,
}

impl RunningAppsDetector {
    /// Creates the active object.
    pub fn new() -> Self {
        Self::default()
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
        self.snapshots += 1;
    }

    /// Number of snapshots taken.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Parses the most recent snapshot from the file.
    pub fn latest(fs: &FlashFs) -> Option<(SimTime, Vec<String>)> {
        let line = fs.last_line(files::RUNAPP)?;
        let (ms, apps) = line.split_once('|')?;
        let at = SimTime::from_millis(ms.parse().ok()?);
        let list = if apps.is_empty() {
            Vec::new()
        } else {
            apps.split(',').map(str::to_string).collect()
        };
        Some((at, list))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip() {
        let mut fs = FlashFs::new();
        let mut det = RunningAppsDetector::new();
        det.snapshot(&mut fs, SimTime::from_secs(5), &["A", "B"]);
        det.snapshot(&mut fs, SimTime::from_secs(10), &[]);
        assert_eq!(det.snapshots(), 2);
        let (at, apps) = RunningAppsDetector::latest(&fs).unwrap();
        assert_eq!(at, SimTime::from_secs(10));
        assert!(apps.is_empty());
    }

    #[test]
    fn latest_on_empty_fs_is_none() {
        assert!(RunningAppsDetector::latest(&FlashFs::new()).is_none());
    }
}
