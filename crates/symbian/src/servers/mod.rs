//! System servers and framework components.
//!
//! In the micro-kernel design of Section 2 all system services are
//! provided by server applications. This module models the servers the
//! failure study touches:
//!
//! * [`applist`] — the Application Architecture Server, source of the
//!   running-applications list the logger snapshots;
//! * [`logdb`] — the Database Log Server, recording phone activity
//!   (voice calls, messages) the logger correlates panics with;
//! * [`sysagent`] — the System Agent Server, source of battery status;
//! * [`ui`] — the EIKON UI framework pieces (listbox, edwin) with
//!   their application-level panics;
//! * [`media`] — the multimedia framework audio client;
//! * [`telephony`] — the built-in Phone application.

pub mod applist;
pub mod logdb;
pub mod media;
pub mod sysagent;
pub mod telephony;
pub mod ui;
