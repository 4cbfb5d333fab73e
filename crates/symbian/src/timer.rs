//! Asynchronous timer service (`RTimer`) — home of `KERN-EXEC 15`.
//!
//! An `RTimer` supports one outstanding request at a time. Calling
//! `At()`, `After()` or `Lock()` again before the previous request
//! completed raises `KERN-EXEC 15`.

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};

use crate::panic::{codes, Panic};

/// An asynchronous timer with at most one outstanding request.
///
/// # Example
///
/// ```
/// use symfail_sim_core::{SimDuration, SimTime};
/// use symfail_symbian::timer::RTimer;
/// use symfail_symbian::panic::codes;
///
/// let mut t = RTimer::new("Clock");
/// let due = t.after(SimTime::ZERO, SimDuration::from_secs(10))?;
/// assert_eq!(due.as_secs(), 10);
/// // A second request while the first is pending panics:
/// let p = t.after(SimTime::from_secs(1), SimDuration::from_secs(1)).unwrap_err();
/// assert_eq!(p.code, codes::KERN_EXEC_15);
/// # Ok::<(), symfail_symbian::Panic>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RTimer {
    owner: String,
    pending: Option<SimTime>,
}

impl RTimer {
    /// Creates a timer owned by the named component.
    pub fn new(owner: &str) -> Self {
        Self {
            owner: owner.to_string(),
            pending: None,
        }
    }

    /// Requests a timer event `delay` after `now` (`After()`).
    /// Returns the due time.
    ///
    /// # Errors
    ///
    /// Raises `KERN-EXEC 15` if a request is already outstanding.
    pub fn after(&mut self, now: SimTime, delay: SimDuration) -> Result<SimTime, Panic> {
        self.at(now + delay)
    }

    /// Requests a timer event at an absolute instant (`At()`).
    ///
    /// # Errors
    ///
    /// Raises `KERN-EXEC 15` if a request is already outstanding.
    pub fn at(&mut self, due: SimTime) -> Result<SimTime, Panic> {
        if self.pending.is_some() {
            return Err(Panic::new(
                codes::KERN_EXEC_15,
                self.owner.clone(),
                "timer event requested while another is outstanding",
            ));
        }
        self.pending = Some(due);
        Ok(due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_pending() {
        let mut t = RTimer::new("app");
        assert!(t.pending.is_none());
        t.after(SimTime::ZERO, SimDuration::from_secs(5)).unwrap();
        assert_eq!(t.pending, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn double_request_is_kern_exec_15() {
        let mut t = RTimer::new("Clock");
        t.at(SimTime::from_secs(1)).unwrap();
        let p = t.at(SimTime::from_secs(2)).unwrap_err();
        assert_eq!(p.code, codes::KERN_EXEC_15);
        assert_eq!(p.raised_by, "Clock");
        // The original request is untouched.
        assert_eq!(t.pending, Some(SimTime::from_secs(1)));
    }
}
