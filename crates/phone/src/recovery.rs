//! The kernel recovery policy: what the kernel does with a panic.
//!
//! Section 2 of the paper: "Information associated with a panic (panic
//! category and panic type) is delivered to the kernel, which decides
//! on the recovery action, e.g., application termination or system
//! reboot." Section 6 adds the field observations the policy encodes:
//!
//! * EIKON-LISTBOX, EIKCOCTL, MMFAudioClient and KERN-SVR panics are
//!   plain application-level failures — the kernel terminates the
//!   offending application and the phone keeps working;
//! * Phone.app and MSGS Client are core applications — the kernel
//!   always reboots the phone when either fails;
//! * system-level panics (KERN-EXEC, E32USER-CBase, USER, ViewSrv) may
//!   propagate — depending on the component hit and the load, the
//!   phone can crash (freeze or reboot) or survive with the offending
//!   application terminated.

use serde::{Deserialize, Serialize};

use symfail_symbian::PanicCode;

/// The kernel's deterministic classification of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelDecision {
    /// Terminate the offending application; the phone keeps working
    /// and no high-level failure can result.
    TerminateApplication,
    /// A core application failed: reboot the phone (observed as a
    /// self-shutdown).
    RebootPhone,
    /// A system-level panic: terminate the application, but the error
    /// may have propagated — escalation to a freeze or self-shutdown
    /// is possible (the probabilistic part lives in the fault model).
    TerminateWithEscalationRisk,
}

/// Classifies a panic per the policy above.
pub fn kernel_decision(code: PanicCode) -> KernelDecision {
    if code.category.is_core_application() {
        KernelDecision::RebootPhone
    } else if code.category.is_application_level() {
        KernelDecision::TerminateApplication
    } else {
        KernelDecision::TerminateWithEscalationRisk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symfail_symbian::panic::codes;

    #[test]
    fn core_applications_always_reboot() {
        assert_eq!(
            kernel_decision(codes::PHONE_APP_2),
            KernelDecision::RebootPhone
        );
        assert_eq!(
            kernel_decision(codes::MSGS_CLIENT_3),
            KernelDecision::RebootPhone
        );
    }

    #[test]
    fn application_level_panics_never_escalate() {
        for code in [
            codes::EIKON_LISTBOX_3,
            codes::EIKON_LISTBOX_5,
            codes::EIKCOCTL_70,
            codes::MMF_AUDIO_CLIENT_4,
            codes::KERN_SVR_0,
            codes::KERN_SVR_70,
        ] {
            assert_eq!(kernel_decision(code), KernelDecision::TerminateApplication);
        }
    }

    #[test]
    fn system_panics_carry_escalation_risk() {
        for code in [
            codes::KERN_EXEC_0,
            codes::KERN_EXEC_3,
            codes::KERN_EXEC_15,
            codes::E32USER_CBASE_33,
            codes::E32USER_CBASE_46,
            codes::E32USER_CBASE_47,
            codes::E32USER_CBASE_69,
            codes::E32USER_CBASE_91,
            codes::E32USER_CBASE_92,
            codes::USER_10,
            codes::USER_11,
            codes::VIEWSRV_11,
        ] {
            assert_eq!(
                kernel_decision(code),
                KernelDecision::TerminateWithEscalationRisk
            );
        }
    }

    #[test]
    fn every_taxonomy_code_is_classified() {
        for (code, _) in codes::ALL {
            let _ = kernel_decision(code); // total function, no panic
        }
    }
}
