//! # symfail-symbian
//!
//! An executable model of the Symbian OS mechanisms whose failures the
//! paper measures. This crate is the *mechanistic substrate* of the
//! reproduction: every panic code in the paper's Table 2 is raised by
//! a concrete failing code path in one of these modules, not sampled
//! from a distribution.
//!
//! | Mechanism | Module | Panics it can raise |
//! |---|---|---|
//! | kernel executive, memory access | [`exec`] | `KERN-EXEC 3` |
//! | kernel object index, handles | [`object_index`] | `KERN-EXEC 0`, `KERN-SVR 0`, `E32USER-CBase 33` |
//! | asynchronous timers | [`timer`] | `KERN-EXEC 15` |
//! | heap management | [`heap`] | `E32USER-CBase 91`, `E32USER-CBase 92` |
//! | cleanup stack + trap/leave | [`cleanup`] | `E32USER-CBase 69` |
//! | active objects + active scheduler | [`active`] | `E32USER-CBase 46`, `E32USER-CBase 47`, `ViewSrv 11` |
//! | 16-bit descriptors | [`descriptor`] | `USER 10`, `USER 11` |
//! | client/server IPC | [`ipc`] | `KERN-SVR 70`, `MSGS Client 3` |
//! | UI framework (listbox, edwin) | [`servers::ui`] | `EIKON-LISTBOX 3/5`, `EIKCOCTL 70` |
//! | telephony / media servers | [`servers`] | `Phone.app 2`, `MMFAudioClient 4` |
//!
//! The design follows the OS described in Section 2 of the paper: a
//! micro-kernel with system services provided by server applications,
//! cooperatively scheduled active objects inside each thread, and
//! memory management built around the cleanup stack, the trap/leave
//! technique and two-phase construction.
//!
//! Mechanisms report failures as `Result<_, Panic>`; the embedding
//! simulator (the `symfail-phone` crate) routes raised panics into the
//! kernel's recovery policy, exactly as the real kernel decides
//! between terminating the offending application and rebooting the
//! device.
//!
//! # Example: a descriptor overflow raising `USER 11`
//!
//! ```
//! use symfail_symbian::descriptor::TBuf;
//! use symfail_symbian::panic::codes;
//!
//! let mut buf = TBuf::with_max_length(4);
//! buf.copy("abcd").unwrap();
//! let err = buf.append("e").unwrap_err();
//! assert_eq!(err.code, codes::USER_11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod cleanup;
pub mod descriptor;
pub mod exec;
pub mod heap;
pub mod ipc;
pub mod leave;
pub mod object_index;
pub mod panic;
pub mod servers;
pub mod timer;

pub use leave::LeaveCode;
pub use panic::{Panic, PanicCategory, PanicCode};
