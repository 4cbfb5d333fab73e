//! Active objects and the active scheduler — Symbian's upper level of
//! multitasking.
//!
//! Multiple active objects (AOs) run within a thread, scheduled by a
//! non-preemptive, event-driven *active scheduler*: an AO issues an
//! asynchronous request (`SetActive`), the service signals completion,
//! and the scheduler dispatches the highest-priority signalled AO's
//! `RunL()` handler. Because dispatch is cooperative, a handler that
//! runs too long starves every other AO in the thread — including the
//! application's ViewSrv AO, which the View Server uses to probe
//! responsiveness; starving it gets the application panicked with
//! `ViewSrv 11`.
//!
//! Three panic codes of Table 2 live here:
//! * `E32USER-CBase 46` — a *stray signal*: a completion arrived for
//!   an AO that never had a request outstanding;
//! * `E32USER-CBase 47` — an AO's `RunL()` left and the scheduler's
//!   default `Error()` handler was not replaced;
//! * `ViewSrv 11` — an event handler monopolized the scheduler loop.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimDuration;

use crate::leave::LeaveCode;
use crate::panic::{codes, Panic};

/// Identifier of an active object within its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AoId(u32);

/// Lifecycle state of an active object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AoState {
    /// No request outstanding.
    Idle,
    /// A request was issued (`SetActive`) and has not completed.
    Active,
    /// The request completed; the AO awaits dispatch.
    Signalled,
}

/// The outcome of running an AO's `RunL()` handler, as reported by the
/// embedding simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The handler returned normally.
    Ok,
    /// The handler left with the given code.
    Leave(LeaveCode),
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct AoRecord {
    name: String,
    state: AoState,
    /// Whether the application replaced the scheduler's `Error()`
    /// virtual function for this AO's leaves.
    handles_errors: bool,
}

/// A per-thread active scheduler.
///
/// # Example
///
/// ```
/// use symfail_sim_core::SimDuration;
/// use symfail_symbian::active::{ActiveScheduler, RunOutcome};
///
/// let mut sched = ActiveScheduler::new("Messages", SimDuration::from_secs(10));
/// let ao = sched.add("receive-sms", true);
/// sched.set_active(ao)?;
/// sched.signal(ao)?;
/// sched.run(ao, RunOutcome::Ok, SimDuration::from_millis(5))?;
/// # Ok::<(), symfail_symbian::Panic>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActiveScheduler {
    app: String,
    viewsrv_timeout: SimDuration,
    aos: BTreeMap<u32, AoRecord>,
    next_id: u32,
}

impl ActiveScheduler {
    /// Creates a scheduler for the named application. `viewsrv_timeout`
    /// is the View Server's responsiveness deadline: any single
    /// handler running longer than this starves the ViewSrv AO and
    /// panics the application.
    pub fn new(app: &str, viewsrv_timeout: SimDuration) -> Self {
        Self {
            app: app.to_string(),
            viewsrv_timeout,
            aos: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Registers an active object. `handles_errors` records whether
    /// the application replaced the scheduler's `Error()` function for
    /// this AO (well-written applications always do).
    pub fn add(&mut self, name: &str, handles_errors: bool) -> AoId {
        let id = self.next_id;
        self.next_id += 1;
        self.aos.insert(
            id,
            AoRecord {
                name: name.to_string(),
                state: AoState::Idle,
                handles_errors,
            },
        );
        AoId(id)
    }

    /// Issues a request on behalf of the AO (`SetActive`).
    ///
    /// # Errors
    ///
    /// Raises `E32USER-CBase 46` for an unknown AO (its request would
    /// signal a scheduler slot that no longer exists — observed as a
    /// stray signal), and is a no-op returning `Ok` when already
    /// active (real code panics with a code outside the study's
    /// taxonomy; the study never observed it, so the model tolerates
    /// it).
    pub fn set_active(&mut self, id: AoId) -> Result<(), Panic> {
        match self.aos.get_mut(&id.0) {
            Some(r) => {
                if r.state == AoState::Idle {
                    r.state = AoState::Active;
                }
                Ok(())
            }
            None => Err(self.stray_signal(id)),
        }
    }

    /// Delivers a completion signal to an AO.
    ///
    /// # Errors
    ///
    /// Raises `E32USER-CBase 46` (stray signal) when the AO does not
    /// exist or has no request outstanding.
    pub fn signal(&mut self, id: AoId) -> Result<(), Panic> {
        match self.aos.get_mut(&id.0) {
            Some(r) if r.state == AoState::Active => {
                r.state = AoState::Signalled;
                Ok(())
            }
            Some(_) => Err(self.stray_signal(id)),
            None => Err(self.stray_signal(id)),
        }
    }

    /// Dispatches the AO's `RunL()` with the outcome and duration the
    /// embedding simulation determined.
    ///
    /// # Errors
    ///
    /// * `ViewSrv 11` when `duration` exceeds the View Server
    ///   deadline (the handler monopolized the scheduler loop);
    /// * `E32USER-CBase 47` when the handler left and the AO does not
    ///   handle errors;
    /// * `E32USER-CBase 46` when the AO was not in the signalled
    ///   state.
    pub fn run(
        &mut self,
        id: AoId,
        outcome: RunOutcome,
        duration: SimDuration,
    ) -> Result<(), Panic> {
        let record = match self.aos.get_mut(&id.0) {
            Some(r) if r.state == AoState::Signalled => r,
            _ => return Err(self.stray_signal(id)),
        };
        record.state = AoState::Idle;
        let name = record.name.clone();
        let handles_errors = record.handles_errors;
        if duration > self.viewsrv_timeout {
            return Err(Panic::new(
                codes::VIEWSRV_11,
                self.app.clone(),
                format!(
                    "active object '{name}' monopolized the active scheduler for {duration} \
                     (ViewSrv deadline {})",
                    self.viewsrv_timeout
                ),
            ));
        }
        match outcome {
            RunOutcome::Ok => Ok(()),
            RunOutcome::Leave(code) if handles_errors => {
                // Application's Error() handled the leave.
                let _ = code;
                Ok(())
            }
            RunOutcome::Leave(code) => Err(Panic::new(
                codes::E32USER_CBASE_47,
                self.app.clone(),
                format!("RunL of '{name}' left with {code} and Error() was not replaced"),
            )),
        }
    }

    fn stray_signal(&self, id: AoId) -> Panic {
        Panic::new(
            codes::E32USER_CBASE_46,
            self.app.clone(),
            format!("stray signal for active object slot {}", id.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> ActiveScheduler {
        ActiveScheduler::new("TestApp", SimDuration::from_secs(10))
    }

    impl ActiveScheduler {
        fn state(&self, id: AoId) -> Option<AoState> {
            self.aos.get(&id.0).map(|r| r.state)
        }
    }

    #[test]
    fn request_signal_run_cycle() {
        let mut s = sched();
        let ao = s.add("worker", true);
        assert_eq!(s.state(ao), Some(AoState::Idle));
        s.set_active(ao).unwrap();
        assert_eq!(s.state(ao), Some(AoState::Active));
        s.signal(ao).unwrap();
        assert_eq!(s.state(ao), Some(AoState::Signalled));
        s.run(ao, RunOutcome::Ok, SimDuration::from_millis(1))
            .unwrap();
        assert_eq!(s.state(ao), Some(AoState::Idle));
    }

    #[test]
    fn stray_signal_on_idle_ao_is_cbase_46() {
        let mut s = sched();
        let ao = s.add("worker", true);
        let p = s.signal(ao).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_46);
        assert_eq!(p.raised_by, "TestApp");
    }

    #[test]
    fn stray_signal_on_unknown_ao() {
        let mut s = sched();
        let p = s.signal(AoId(99)).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_46);
        let p = s.set_active(AoId(99)).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_46);
    }

    #[test]
    fn unhandled_leave_is_cbase_47() {
        let mut s = sched();
        let ao = s.add("careless", false);
        s.set_active(ao).unwrap();
        s.signal(ao).unwrap();
        let p = s
            .run(
                ao,
                RunOutcome::Leave(LeaveCode::NotFound),
                SimDuration::ZERO,
            )
            .unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_47);
        assert!(p.reason.contains("KErrNotFound"));
    }

    #[test]
    fn handled_leave_is_fine() {
        let mut s = sched();
        let ao = s.add("careful", true);
        s.set_active(ao).unwrap();
        s.signal(ao).unwrap();
        s.run(
            ao,
            RunOutcome::Leave(LeaveCode::NotFound),
            SimDuration::ZERO,
        )
        .unwrap();
    }

    #[test]
    fn monopolizing_handler_is_viewsrv_11() {
        let mut s = sched();
        let ao = s.add("spinner", true);
        s.set_active(ao).unwrap();
        s.signal(ao).unwrap();
        let p = s
            .run(ao, RunOutcome::Ok, SimDuration::from_secs(11))
            .unwrap_err();
        assert_eq!(p.code, codes::VIEWSRV_11);
        assert!(p.reason.contains("spinner"));
    }

    #[test]
    fn run_on_unsignalled_ao_is_stray() {
        let mut s = sched();
        let ao = s.add("worker", true);
        let p = s.run(ao, RunOutcome::Ok, SimDuration::ZERO).unwrap_err();
        assert_eq!(p.code, codes::E32USER_CBASE_46);
    }

    #[test]
    fn set_active_twice_is_tolerated() {
        let mut s = sched();
        let ao = s.add("worker", true);
        s.set_active(ao).unwrap();
        s.set_active(ao).unwrap();
        assert_eq!(s.state(ao), Some(AoState::Active));
    }
}
