//! Error type shared by the statistics primitives.

use std::error::Error;
use std::fmt;

/// Errors raised when constructing or querying statistical objects.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A histogram or binning range was empty or inverted.
    InvalidRange {
        /// Lower edge that was requested.
        lo: f64,
        /// Upper edge that was requested.
        hi: f64,
    },
    /// Zero bins (or another zero-sized shape parameter) was requested.
    ZeroBins,
    /// An operation that requires data was invoked on an empty dataset.
    EmptyData,
    /// A probability or fraction argument was outside `[0, 1]`.
    InvalidProbability(f64),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidRange { lo, hi } => {
                write!(f, "invalid range: lo {lo} must be finite and below hi {hi}")
            }
            StatsError::ZeroBins => write!(f, "at least one bin is required"),
            StatsError::EmptyData => write!(f, "operation requires at least one observation"),
            StatsError::InvalidProbability(p) => {
                write!(f, "probability {p} outside the unit interval")
            }
        }
    }
}

impl Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            StatsError::InvalidRange { lo: 3.0, hi: 1.0 },
            StatsError::ZeroBins,
            StatsError::EmptyData,
            StatsError::InvalidProbability(1.5),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_trait_object_is_usable() {
        let e: Box<dyn Error> = Box::new(StatsError::ZeroBins);
        assert!(e.source().is_none());
    }
}
