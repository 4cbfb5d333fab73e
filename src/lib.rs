//! # symfail
//!
//! A full reproduction of **"How Do Mobile Phones Fail? A Failure Data
//! Analysis of Symbian OS Smart Phones"** (Cinque, Cotroneo,
//! Kalbarczyk, Iyer — DSN 2007) as a Rust library suite.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] (`symfail-core`) — the paper's contribution: the failure
//!   data logger and the measurement-based analysis methodology;
//! * [`symbian`] (`symfail-symbian`) — the executable Symbian-OS-like
//!   substrate whose mechanisms raise every panic code of Table 2;
//! * [`phone`] (`symfail-phone`) — the smart-phone device and fleet
//!   simulator (battery, user behaviour, fault injection);
//! * [`forum`] (`symfail-forum`) — the Section 4 web-forum study
//!   (corpus generation and rule-based classification);
//! * [`stats`] (`symfail-stats`) — histograms, contingency tables and
//!   the paper-vs-measured shape checks;
//! * [`sim`] (`symfail-sim-core`) — the deterministic virtual clock
//!   and forked RNG streams underneath it all.
//!
//! # Quickstart
//!
//! Run the 25-phone, 14-month campaign and reproduce the study:
//!
//! ```
//! use symfail::core::analysis::dataset::FleetDataset;
//! use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
//! use symfail::phone::calibration::CalibrationParams;
//! use symfail::phone::fleet::FleetCampaign;
//!
//! let mut params = CalibrationParams::default();
//! params.phones = 2;          // keep the doctest fast
//! params.campaign_days = 30;
//! let harvest = FleetCampaign::new(42, params).run();
//! let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
//! let report = StudyReport::analyze(&fleet, AnalysisConfig::default());
//! assert!(report.shutdowns.all_events().len() < 1000);
//! ```
//!
//! See `crates/bench/src/bin/repro.rs` (the `repro` binary) for the
//! harness that regenerates every table and figure, and DESIGN.md /
//! EXPERIMENTS.md for the experiment index and the paper-vs-measured
//! record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use symfail_core as core;
pub use symfail_forum as forum;
pub use symfail_phone as phone;
pub use symfail_sim_core as sim;
pub use symfail_stats as stats;
pub use symfail_symbian as symbian;
