//! # symfail-core
//!
//! The paper's primary contribution, implemented as a library: the
//! **failure data logger** for Symbian OS smart phones and the
//! **measurement-based failure analysis methodology** applied to the
//! data it collects.
//!
//! ## The logger (Section 5 of the paper)
//!
//! [`logger::FailureLogger`] is the daemon of Figure 1: a set of
//! active objects —
//! [`logger::HeartbeatAo`], [`logger::RunningAppsDetector`],
//! [`logger::LogEngine`], [`logger::PowerManager`] and
//! [`logger::PanicDetector`] — writing the `beats`, `runapp`,
//! `activity`, `power` and consolidated log files onto a persistent
//! [`flashfs::FlashFs`] that survives reboots and battery pulls.
//! Freezes and self-shutdowns are detected with the heartbeat
//! technique: at boot the Panic Detector inspects the last heartbeat
//! event (`ALIVE` ⇒ the phone froze and the user pulled the battery;
//! `REBOOT`/`LOWBT`/`MAOFF` ⇒ a clean shutdown) and records the
//! reboot duration used to separate self-shutdowns from
//! user-triggered shutdowns. The embedding simulator hands the logger
//! a borrowed [`logger::PhoneContext`] view (running applications,
//! battery) at every hook, so a heartbeat tick allocates nothing; the
//! activity in progress is read only when a panic record is written.
//!
//! ## The analysis (Section 6 of the paper)
//!
//! The [`analysis`] module reproduces every step of the paper's data
//! analysis: reboot-duration histogram and self-shutdown filtering
//! (Fig. 2), MTBF estimation, panic classification (Table 2), panic
//! cascade detection (Fig. 3), temporal coalescence of panics with
//! high-level events (Figs. 4/5), panic-vs-activity (Table 3) and
//! panic-vs-running-applications analysis (Table 4, Fig. 6).
//!
//! # Example
//!
//! ```
//! use symfail_core::flashfs::FlashFs;
//! use symfail_core::logger::{FailureLogger, LoggerConfig, PhoneContext};
//! use symfail_sim_core::SimTime;
//!
//! let mut fs = FlashFs::new();
//! let mut logger = FailureLogger::new(LoggerConfig::default());
//! logger.on_boot(&mut fs, SimTime::ZERO, PhoneContext::default);
//! logger.on_ticks(&mut fs, SimTime::from_secs(30), 1, PhoneContext::default);
//! assert!(fs.read_lines("beats").count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod flashfs;
pub mod intern;
pub mod json;
pub mod logger;
pub mod records;
