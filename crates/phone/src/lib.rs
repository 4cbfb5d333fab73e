//! # symfail-phone
//!
//! The smart-phone device and fleet simulator: the substrate standing
//! in for the paper's 25 instrumented Symbian handsets.
//!
//! A [`device::Phone`] combines the `symfail-symbian` OS substrate
//! (system servers, panic mechanisms), a battery model, a user
//! behaviour model and a software fault injector. The failure data
//! logger from `symfail-core` runs *inside* the simulated phone and
//! only ever observes what a real logger could: heartbeats it wrote,
//! panic notifications, server queries.
//!
//! The causal chain for every panic is mechanistic: the fault injector
//! ([`faults`]) picks a fault *class*, executes the corresponding
//! failing operation against the OS substrate (a null dereference, a
//! descriptor overflow, a stray signal…), and the substrate raises the
//! panic code of the paper's Table 2. The kernel recovery policy then
//! terminates the application, propagates the error (panic cascades),
//! freezes the device or reboots it.
//!
//! [`fleet::FleetCampaign`] runs the 25-phone / 14-month campaign with
//! staggered enrollment and per-user behaviour profiles: each phone's
//! harvested flash filesystem is parsed and folded by
//! `symfail_core::analysis` as soon as it is simulated.
//!
//! # Example
//!
//! ```
//! use symfail_core::analysis::passes::PassRegistry;
//! use symfail_phone::calibration::CalibrationParams;
//! use symfail_phone::fleet::FleetCampaign;
//!
//! // A small campaign: 3 phones, 30 days.
//! let mut params = CalibrationParams::default();
//! params.phones = 3;
//! params.campaign_days = 30;
//! params.enrollment_spread_days = 5;
//! let campaign = FleetCampaign::new(42, params);
//! let run = campaign.run_streaming(1, params.analysis_config(), &PassRegistry::all());
//! assert_eq!(run.metas.len(), 3);
//! // One phone alone, as the campaign simulates it:
//! assert_eq!(campaign.run_single(0).phone_id, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod battery;
pub mod calibration;
pub mod composition;
pub mod corruption;
pub mod device;
pub mod faults;
pub mod firmware;
pub mod fleet;
pub mod plan;
pub mod recovery;
pub mod repro;
pub mod user;
