//! The built-in Phone application — the telephony front end whose
//! (undocumented) internal failure is `Phone.app 2`.
//!
//! Phone.app is one of the two *core* applications (with the messaging
//! server): the paper found that when either panics, the kernel always
//! reboots the phone. The model drives a small call state machine;
//! a state-machine violation — a second outgoing call, or incoming
//! signalling colliding with an outgoing call — raises the panic.

use serde::{Deserialize, Serialize};

use crate::panic::{codes, Panic};

/// The telephony call state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallState {
    /// No call in progress.
    Idle,
    /// Outgoing call being established.
    Dialing,
    /// Incoming call alerting.
    Ringing,
}

/// The Phone application.
///
/// # Example
///
/// ```
/// use symfail_symbian::servers::telephony::PhoneApp;
///
/// let mut phone = PhoneApp::new();
/// phone.dial()?;
/// // Incoming signalling while dialing violates the state machine:
/// assert!(phone.incoming().is_err());
/// # Ok::<(), symfail_symbian::Panic>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhoneApp {
    state: CallState,
}

impl PhoneApp {
    /// Creates the application in the idle state.
    pub fn new() -> Self {
        Self {
            state: CallState::Idle,
        }
    }

    /// Starts an outgoing call.
    ///
    /// # Errors
    ///
    /// Raises `Phone.app 2` when a call is already in progress (the
    /// state machine was violated).
    pub fn dial(&mut self) -> Result<(), Panic> {
        match self.state {
            CallState::Idle => {
                self.state = CallState::Dialing;
                Ok(())
            }
            other => Err(self.internal_error(format!("dial in state {other:?}"))),
        }
    }

    /// Signals an incoming call.
    ///
    /// # Errors
    ///
    /// Raises `Phone.app 2` when the state machine cannot accept it
    /// (e.g. incoming signalling while dialing — the collision the
    /// fault injector uses).
    pub fn incoming(&mut self) -> Result<(), Panic> {
        match self.state {
            CallState::Idle => {
                self.state = CallState::Ringing;
                Ok(())
            }
            other => Err(self.internal_error(format!("incoming call in state {other:?}"))),
        }
    }

    fn internal_error(&self, reason: String) -> Panic {
        Panic::new(
            codes::PHONE_APP_2,
            "Phone.app",
            format!("telephony state machine violation: {reason}"),
        )
    }
}

impl Default for PhoneApp {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outgoing_call_lifecycle() {
        let mut p = PhoneApp::new();
        p.dial().unwrap();
        assert_eq!(p.state, CallState::Dialing);
    }

    #[test]
    fn incoming_call_lifecycle() {
        let mut p = PhoneApp::new();
        p.incoming().unwrap();
        assert_eq!(p.state, CallState::Ringing);
    }

    #[test]
    fn collisions_raise_phone_app_2() {
        let mut p = PhoneApp::new();
        p.dial().unwrap();
        assert_eq!(p.dial().unwrap_err().code, codes::PHONE_APP_2);
        assert_eq!(p.incoming().unwrap_err().code, codes::PHONE_APP_2);
    }
}
