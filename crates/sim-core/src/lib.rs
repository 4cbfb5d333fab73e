//! # symfail-sim-core
//!
//! The deterministic time and randomness underneath the simulation.
//!
//! Everything in the symfail suite that "happens over time" — phone
//! usage, battery drain, heartbeats, fault activations — is stamped
//! on a monotonic virtual clock ([`SimTime`], [`SimDuration`]) and
//! drawn from a deterministic random number generator ([`SimRng`])
//! with independent per-entity streams. The phone simulator orders
//! each day's actions in a time-sorted `Vec`.
//!
//! Determinism is a hard requirement of the reproduction: two runs
//! with the same seed must produce byte-identical log files, so every
//! table and figure in `EXPERIMENTS.md` can be regenerated exactly.
//! The RNG therefore forks child streams by hashing `(seed, stream)`
//! rather than sharing mutable state.
//!
//! # Example
//!
//! ```
//! use symfail_sim_core::{SimDuration, SimRng, SimTime};
//!
//! // Phone 3's stream is the same whichever order phones run in.
//! let mut a = SimRng::seed_from(2005).fork("phone", 3);
//! let mut b = SimRng::seed_from(2005).fork("phone", 3);
//! let gap = SimDuration::from_secs_f64(a.exponential(60.0));
//! assert_eq!(gap, SimDuration::from_secs_f64(b.exponential(60.0)));
//! let t = SimTime::ZERO + SimDuration::from_secs(5) + gap;
//! assert!(t >= SimTime::ZERO + SimDuration::from_secs(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod time;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
