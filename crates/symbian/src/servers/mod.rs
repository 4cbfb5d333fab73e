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
//! * [`ui`] — the EIKON UI framework pieces (listbox, edwin) with
//!   their application-level panics;
//! * [`media`] — the multimedia framework audio client;
//! * [`telephony`] — the built-in Phone application.
//!
//! The System Agent Server, from which the paper's Power Manager reads
//! battery status, has no model here: the phone simulator's battery
//! (`symfail_phone::battery::Battery`) hands the logger its level
//! through `PhoneContext`.

pub mod applist;
pub mod logdb;
pub mod media;
pub mod telephony;
pub mod ui;
