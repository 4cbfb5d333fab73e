//! The panic taxonomy of Table 2.
//!
//! A *panic* is a non-recoverable error condition signalled to the
//! kernel by a user or system component. The information associated
//! with a panic — its category (a short string naming the subsystem)
//! and its type (a small integer) — is delivered to the kernel, which
//! decides on the recovery action: terminating the offending
//! application or rebooting the device.
//!
//! Every panic the simulator can raise is one of the twenty codes the
//! paper observed in the field; [`codes`] lists them all with the
//! documentation text the paper reproduces from the Symbian OS
//! documentation.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The subsystem a panic originates from (the panic *category* string
/// in Symbian terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PanicCategory {
    /// Kernel Executive: raised while executing kernel-side code on
    /// behalf of a user thread (memory access, handles, timers).
    KernExec,
    /// E32USER-CBase: the CBase runtime — cleanup stack, active
    /// scheduler, CObject reference counting, heap bookkeeping.
    E32UserCBase,
    /// USER: descriptor (string/buffer) misuse in user code.
    User,
    /// Kernel Server: the kernel-side server thread managing kernel
    /// object lifecycles and request completion.
    KernSvr,
    /// View Server: monitors application responsiveness; panics
    /// applications whose active objects monopolize the scheduler.
    ViewSrv,
    /// EIKON listbox UI framework component.
    EikonListbox,
    /// EIKCOCTL UI controls library (edwin text editor control).
    Eikcoctl,
    /// The built-in telephony application.
    PhoneApp,
    /// The messaging server client library.
    MsgsClient,
    /// The multimedia framework audio client.
    MmfAudioClient,
}

impl PanicCategory {
    /// All categories, in the fixed order used by reports.
    pub const ALL: [PanicCategory; 10] = [
        PanicCategory::KernExec,
        PanicCategory::E32UserCBase,
        PanicCategory::User,
        PanicCategory::KernSvr,
        PanicCategory::ViewSrv,
        PanicCategory::EikonListbox,
        PanicCategory::Eikcoctl,
        PanicCategory::PhoneApp,
        PanicCategory::MsgsClient,
        PanicCategory::MmfAudioClient,
    ];

    /// The category string exactly as it appears in the paper.
    pub fn as_str(&self) -> &'static str {
        match self {
            PanicCategory::KernExec => "KERN-EXEC",
            PanicCategory::E32UserCBase => "E32USER-CBase",
            PanicCategory::User => "USER",
            PanicCategory::KernSvr => "KERN-SVR",
            PanicCategory::ViewSrv => "ViewSrv",
            PanicCategory::EikonListbox => "EIKON-LISTBOX",
            PanicCategory::Eikcoctl => "EIKCOCTL",
            PanicCategory::PhoneApp => "Phone.app",
            PanicCategory::MsgsClient => "MSGS Client",
            PanicCategory::MmfAudioClient => "MMFAudioClient",
        }
    }

    /// Parses a category string (as produced by [`Self::as_str`]).
    pub fn parse(s: &str) -> Option<PanicCategory> {
        Self::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// True for panics of the two core built-in applications whose
    /// failure always reboots the phone (Section 6, Fig. 5 analysis).
    pub fn is_core_application(&self) -> bool {
        matches!(self, PanicCategory::PhoneApp | PanicCategory::MsgsClient)
    }

    /// True for plain application-level panics (view/audio widgets)
    /// that the paper observed never manifest as high-level events.
    pub fn is_application_level(&self) -> bool {
        matches!(
            self,
            PanicCategory::EikonListbox
                | PanicCategory::Eikcoctl
                | PanicCategory::MmfAudioClient
                | PanicCategory::KernSvr
        )
    }
}

impl fmt::Display for PanicCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fully qualified panic code: category plus numeric type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PanicCode {
    /// The subsystem raising the panic.
    pub category: PanicCategory,
    /// The numeric panic type within the category.
    pub panic_type: u16,
}

impl PanicCode {
    /// Creates a code from its parts.
    pub const fn new(category: PanicCategory, panic_type: u16) -> Self {
        Self {
            category,
            panic_type,
        }
    }

    /// Parses strings of the form `"KERN-EXEC 3"`.
    pub fn parse(s: &str) -> Option<PanicCode> {
        let (cat, ty) = s.rsplit_once(' ')?;
        Some(PanicCode::new(PanicCategory::parse(cat)?, ty.parse().ok()?))
    }
}

impl fmt::Display for PanicCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.category, self.panic_type)
    }
}

/// A raised panic event: the code plus the context the Panic Detector
/// records (which component raised it and a human-readable reason).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Panic {
    /// The panic code delivered to the kernel.
    pub code: PanicCode,
    /// The component (application or server) that raised it.
    pub raised_by: String,
    /// Mechanism-specific explanation, e.g. "dereferenced null".
    pub reason: String,
}

impl Panic {
    /// Creates a panic event.
    pub fn new(code: PanicCode, raised_by: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            code,
            raised_by: raised_by.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Panic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}: {}", self.code, self.raised_by, self.reason)
    }
}

impl std::error::Error for Panic {}

/// The twenty panic codes of Table 2, with their documentation.
pub mod codes {
    use super::{PanicCategory, PanicCode};

    /// Kernel Executive cannot find an object in the object index for
    /// the current process or thread (a bad raw handle number).
    pub const KERN_EXEC_0: PanicCode = PanicCode::new(PanicCategory::KernExec, 0);
    /// An unhandled exception: most commonly an access violation from
    /// dereferencing NULL; also general protection faults, invalid
    /// instructions and alignment checks.
    pub const KERN_EXEC_3: PanicCode = PanicCode::new(PanicCategory::KernExec, 3);
    /// A timer event was requested from an `RTimer` while another
    /// timer event was still outstanding.
    pub const KERN_EXEC_15: PanicCode = PanicCode::new(PanicCategory::KernExec, 15);
    /// Raised by the destructor of a `CObject` when the reference
    /// count is not zero.
    pub const E32USER_CBASE_33: PanicCode = PanicCode::new(PanicCategory::E32UserCBase, 33);
    /// Stray signal delivered to an active scheduler.
    pub const E32USER_CBASE_46: PanicCode = PanicCode::new(PanicCategory::E32UserCBase, 46);
    /// An active object's `RunL()` left and the active scheduler's
    /// default `Error()` function was invoked.
    pub const E32USER_CBASE_47: PanicCode = PanicCode::new(PanicCategory::E32UserCBase, 47);
    /// A leave occurred with no trap handler installed (in practice,
    /// `CTrapCleanup::New()` was not called before using the cleanup
    /// stack).
    pub const E32USER_CBASE_69: PanicCode = PanicCode::new(PanicCategory::E32UserCBase, 69);
    /// Not documented (heap bookkeeping inconsistency: freeing a cell
    /// twice).
    pub const E32USER_CBASE_91: PanicCode = PanicCode::new(PanicCategory::E32UserCBase, 91);
    /// Not documented (heap bookkeeping inconsistency: freeing an
    /// unknown cell / corrupt cell header).
    pub const E32USER_CBASE_92: PanicCode = PanicCode::new(PanicCategory::E32UserCBase, 92);
    /// A position value passed to a 16-bit descriptor member function
    /// (`Left`, `Right`, `Mid`, `Insert`, `Delete`, `Replace`) was out
    /// of bounds.
    pub const USER_10: PanicCode = PanicCode::new(PanicCategory::User, 10);
    /// An operation that moves or copies data to a 16-bit descriptor
    /// caused its length to exceed its maximum length (`Insert`,
    /// `Replace`, `Fill`, `Append`, `SetLength`, …).
    pub const USER_11: PanicCode = PanicCode::new(PanicCategory::User, 11);
    /// The Kernel Server could not find the object for a handle while
    /// servicing `RHandleBase::Close()` — most likely a corrupt
    /// handle.
    pub const KERN_SVR_0: PanicCode = PanicCode::new(PanicCategory::KernSvr, 0);
    /// Completing a client/server request found a null `RMessagePtr`.
    pub const KERN_SVR_70: PanicCode = PanicCode::new(PanicCategory::KernSvr, 70);
    /// An active object's event handler monopolized the thread's
    /// active scheduler loop, so the application's ViewSrv active
    /// object could not respond in time and the View Server closed the
    /// application.
    pub const VIEWSRV_11: PanicCode = PanicCode::new(PanicCategory::ViewSrv, 11);
    /// A listbox was used with no view defined to display it.
    pub const EIKON_LISTBOX_3: PanicCode = PanicCode::new(PanicCategory::EikonListbox, 3);
    /// A listbox was given an invalid current item index.
    pub const EIKON_LISTBOX_5: PanicCode = PanicCode::new(PanicCategory::EikonListbox, 5);
    /// Corrupt edwin state during inline editing.
    pub const EIKCOCTL_70: PanicCode = PanicCode::new(PanicCategory::Eikcoctl, 70);
    /// Not documented (internal error of the built-in telephony
    /// application).
    pub const PHONE_APP_2: PanicCode = PanicCode::new(PanicCategory::PhoneApp, 2);
    /// Failed to write data into an asynchronous call descriptor to be
    /// passed back to the client.
    pub const MSGS_CLIENT_3: PanicCode = PanicCode::new(PanicCategory::MsgsClient, 3);
    /// The `TInt` value passed to `SetVolume(TInt)` was 10 or more.
    pub const MMF_AUDIO_CLIENT_4: PanicCode = PanicCode::new(PanicCategory::MmfAudioClient, 4);

    /// Every code in the taxonomy with its documentation string, in
    /// Table 2 row order.
    pub const ALL: [(PanicCode, &str); 20] = [
        (KERN_EXEC_0, "Kernel Executive cannot find an object in the object index for the current process or thread using the specified object index number (the raw handle number)."),
        (KERN_EXEC_3, "An unhandled exception occurred. Exceptions have many causes, but the most common are access violations caused, for example, by dereferencing NULL; other causes include general protection faults, executing an invalid instruction and alignment checks."),
        (KERN_EXEC_15, "A timer event was requested from an asynchronous timer service (an RTimer) while a timer event was already outstanding (At(), After() or Lock() called again before the previous request completed)."),
        (E32USER_CBASE_33, "Raised by the destructor of a CObject: an attempt was made to delete the CObject while its reference count was not zero."),
        (E32USER_CBASE_46, "Raised by an active scheduler (CActiveScheduler); caused by a stray signal."),
        (E32USER_CBASE_47, "Raised by the Error() virtual member function of an active scheduler when an active object's RunL() function leaves and Error() was not replaced."),
        (E32USER_CBASE_69, "Raised when a leave occurs and no trap handler has been installed; in practice CTrapCleanup::New() was not called before using the cleanup stack."),
        (E32USER_CBASE_91, "Not documented (heap bookkeeping inconsistency observed as a double free)."),
        (E32USER_CBASE_92, "Not documented (heap bookkeeping inconsistency observed as an unknown or corrupt cell)."),
        (USER_10, "A position value passed to a 16-bit variant descriptor member function (Left(), Right(), Mid(), Insert(), Delete(), Replace()) was out of bounds."),
        (USER_11, "An operation moving or copying data to a 16-bit variant descriptor caused its length to exceed its maximum length (copying, appending, formatting, Insert(), Replace(), Fill(), Fillz(), ZeroTerminate() or SetLength())."),
        (KERN_SVR_0, "Raised by the Kernel Server when closing a kernel object in response to RHandleBase::Close() and the object represented by the handle cannot be found; the most likely cause is a corrupt handle."),
        (KERN_SVR_70, "Raised when attempting to complete a client/server request and the RMessagePtr is null."),
        (VIEWSRV_11, "An active object's event handler monopolized the thread's active scheduler loop and the application's ViewSrv active object could not respond in time; the View Server closed the application."),
        (EIKON_LISTBOX_3, "A listbox object from the EIKON framework was used with no view defined to display the object."),
        (EIKON_LISTBOX_5, "A listbox object from the EIKON framework was given an invalid Current Item Index."),
        (EIKCOCTL_70, "Corrupt edwin state for inline editing."),
        (PHONE_APP_2, "Not documented (internal error of the built-in telephony application)."),
        (MSGS_CLIENT_3, "Failed to write data into an asynchronous call descriptor to be passed back to the client."),
        (MMF_AUDIO_CLIENT_4, "The TInt value passed to SetVolume(TInt) was 10 or more."),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_has_twenty_codes() {
        assert_eq!(codes::ALL.len(), 20);
        // All distinct.
        let mut seen: Vec<PanicCode> = codes::ALL.iter().map(|(c, _)| *c).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn display_matches_paper_strings() {
        assert_eq!(codes::KERN_EXEC_3.to_string(), "KERN-EXEC 3");
        assert_eq!(codes::E32USER_CBASE_69.to_string(), "E32USER-CBase 69");
        assert_eq!(codes::MSGS_CLIENT_3.to_string(), "MSGS Client 3");
        assert_eq!(codes::VIEWSRV_11.to_string(), "ViewSrv 11");
    }

    #[test]
    fn parse_round_trips() {
        for (code, _) in codes::ALL {
            assert_eq!(PanicCode::parse(&code.to_string()), Some(code));
        }
        assert_eq!(PanicCode::parse("NOT-A-CATEGORY 3"), None);
        assert_eq!(PanicCode::parse("KERN-EXEC"), None);
        assert_eq!(PanicCode::parse("KERN-EXEC x"), None);
    }

    #[test]
    fn category_parse_round_trips() {
        for cat in PanicCategory::ALL {
            assert_eq!(PanicCategory::parse(cat.as_str()), Some(cat));
        }
        assert_eq!(PanicCategory::parse("nope"), None);
    }

    #[test]
    fn core_and_application_level_classes_are_disjoint() {
        for cat in PanicCategory::ALL {
            assert!(
                !(cat.is_core_application() && cat.is_application_level()),
                "{cat} must be in at most one class"
            );
        }
    }

    #[test]
    fn documentation_present_for_taxonomy() {
        for (_, doc) in codes::ALL {
            assert!(!doc.is_empty());
        }
    }

    #[test]
    fn panic_event_display() {
        let p = Panic::new(codes::KERN_EXEC_3, "Camera", "dereferenced null");
        let s = p.to_string();
        assert!(s.contains("KERN-EXEC 3"));
        assert!(s.contains("Camera"));
        assert!(s.contains("null"));
    }
}
