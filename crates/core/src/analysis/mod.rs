//! The measurement-based failure analysis methodology (Section 6).
//!
//! The pipeline consumes the raw flash files the logger wrote — it
//! never sees simulator internals — and reproduces every analysis step
//! of the paper:
//!
//! 1. [`dataset`] parses per-phone flash files into a
//!    [`dataset::FleetDataset`];
//! 2. [`shutdown`] builds the reboot-duration histogram and applies
//!    the 360 s filter identifying self-shutdowns (Figure 2);
//! 3. [`mtbf`] estimates powered-on time from the heartbeat stream and
//!    derives MTBFr / MTBS;
//! 4. [`bursts`] detects cascades of subsequent panics (Figure 3);
//! 5. [`coalesce`] relates panics to high-level events within a
//!    five-minute temporal window (Figures 4 and 5);
//! 6. [`activity`] crosses panics with the user activity at panic time
//!    (Table 3);
//! 7. [`runapps`] crosses panics with the set of running applications
//!    (Table 4, Figure 6);
//! 8. [`report`] bundles everything into a printable study report and
//!    compares it against the paper's numbers ([`targets`]).
//!
//! Every step is expressed as an [`passes::AnalysisPass`] — a
//! per-phone fold with a phone-ordered merge — so the same code runs
//! both as the reference driver over a materialized
//! [`dataset::FleetDataset`] and inside the streaming campaign driver
//! (peak memory bounded by `workers × per-phone state`). Each step's
//! pass lives in the step's own module, beside the section it builds;
//! [`passes`] holds the framework they share.

pub mod activity;
pub mod baseline;
pub mod bursts;
pub mod checkpoint;
pub mod coalesce;
pub mod dataset;
pub mod defects;
pub mod firmware;
pub mod interarrival;
pub mod mtbf;
pub mod output_failures;
pub mod passes;
pub mod report;
pub mod runapps;
pub mod severity;
pub mod shutdown;
pub mod signature;
pub mod targets;

/// Candidate coalescence windows (seconds) for the Figure 4/5 sweep
/// that justifies the five-minute choice. Single source of truth for
/// `repro --exp fig5 --sweep`, the ablation experiment, and the
/// `fig5_coalescence` bench.
pub const COALESCENCE_SWEEP_WINDOWS_SECS: [u64; 9] =
    [10, 30, 60, 120, 300, 600, 1800, 7200, 36_000];

/// Reduced window list used by the ablation benches, bracketing the
/// paper's 300 s choice at log-ish spacing.
pub const COALESCENCE_ABLATION_WINDOWS_SECS: [u64; 5] = [10, 60, 300, 1800, 36_000];

/// Candidate self-shutdown thresholds (seconds) for the Figure 2
/// classification ablation, bracketing the paper's 360 s choice.
pub const SHUTDOWN_THRESHOLD_SWEEP_SECS: [u64; 7] = [60, 120, 240, 360, 500, 1000, 3600];
