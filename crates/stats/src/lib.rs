//! # symfail-stats
//!
//! Statistical building blocks for measurement-based failure data
//! analysis: histograms, empirical distributions, contingency tables,
//! summary statistics, distance measures between distributions and
//! plain-text rendering of tables and bar charts.
//!
//! The crate is deliberately dependency-light (only `serde` for data
//! interchange) and fully deterministic: every estimator is a pure
//! function of its inputs, which keeps the reproduction pipeline
//! auditable end to end.
//!
//! # Example
//!
//! ```
//! use symfail_stats::Histogram;
//!
//! let mut h = Histogram::with_bins(0.0, 100.0, 10)?;
//! for v in [3.0, 7.0, 55.0, 55.5, 99.0] {
//!     h.record(v);
//! }
//! assert_eq!(h.total(), 5);
//! assert_eq!(h.count(5), 2); // the two 55s land in bin 5
//! # Ok::<(), symfail_stats::StatsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod categorical;
mod chi2;
mod contingency;
mod ecdf;
mod error;
mod histogram;
mod render;
mod summary;
mod tolerance;

pub use categorical::CategoricalDist;
pub use chi2::{chi_square_survival, normal_cdf};
pub use contingency::ContingencyTable;
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use histogram::{Histogram, HistogramBin};
pub use render::{render_bar_chart, AsciiTable, CellAlign};
pub use summary::OnlineSummary;
pub use tolerance::{within_pct, within_pts, ShapeReport, TargetCheck};
