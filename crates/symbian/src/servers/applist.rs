//! The Application Architecture Server.
//!
//! Tracks which applications are currently running; the failure
//! logger's Running Applications Detector polls this server and stores
//! the list in the `runapp` file, which is how the study could relate
//! panics to the set of applications alive at panic time (Table 4,
//! Figure 6).

use serde::{Deserialize, Serialize};

/// The Application Architecture Server: the registry of running
/// applications.
///
/// # Example
///
/// ```
/// use symfail_symbian::servers::applist::AppArchServer;
///
/// let mut apps = AppArchServer::new();
/// apps.notify_started("Messages");
/// apps.notify_started("Camera");
/// assert_eq!(apps.running(), ["Camera", "Messages"]);
/// apps.notify_exited("Camera");
/// assert_eq!(apps.count(), 1);
/// ```
///
/// Application names are `'static`: every application a phone runs
/// comes from a fixed catalogue, so a start or an exit copies no
/// string.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppArchServer {
    /// Sorted, without duplicates.
    running: Vec<&'static str>,
}

impl AppArchServer {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `app` sits in the sorted list, or where it would go.
    fn find(&self, app: &str) -> Result<usize, usize> {
        self.running.binary_search_by(|a| (*a).cmp(app))
    }

    /// Registers an application start. Starting an already-running
    /// application is a no-op (it comes to the foreground instead).
    pub fn notify_started(&mut self, app: &'static str) {
        if let Err(at) = self.find(app) {
            self.running.insert(at, app);
        }
    }

    /// Registers an application exit (normal quit or kernel
    /// termination after a panic). Returns true if the app was
    /// running.
    pub fn notify_exited(&mut self, app: &str) -> bool {
        self.find(app).map(|at| self.running.remove(at)).is_ok()
    }

    /// True when the application is currently running.
    pub fn is_running(&self, app: &str) -> bool {
        self.find(app).is_ok()
    }

    /// The running applications, sorted (borrowed: the logger samples
    /// it on every snapshot without copying).
    pub fn running(&self) -> &[&'static str] {
        &self.running
    }

    /// Number of running applications.
    pub fn count(&self) -> usize {
        self.running.len()
    }

    /// Clears the registry (device reboot).
    pub fn reset(&mut self) {
        self.running.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_exit_lifecycle() {
        let mut s = AppArchServer::new();
        s.notify_started("Clock");
        s.notify_started("Messages");
        s.notify_started("Clock"); // duplicate start ignored
        assert_eq!(s.count(), 2);
        assert!(s.is_running("Clock"));
        assert!(s.notify_exited("Clock"));
        assert!(!s.notify_exited("Clock"));
        assert!(!s.is_running("Clock"));
    }

    #[test]
    fn snapshot_is_sorted() {
        let mut s = AppArchServer::new();
        for app in ["TomTom", "Camera", "Messages"] {
            s.notify_started(app);
        }
        assert_eq!(s.running(), ["Camera", "Messages", "TomTom"]);
    }

    #[test]
    fn reset_clears() {
        let mut s = AppArchServer::new();
        s.notify_started("x");
        s.reset();
        assert_eq!(s.count(), 0);
    }
}
