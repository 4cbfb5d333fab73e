//! Paper-vs-measured comparison helpers.
//!
//! The reproduction does not chase the paper's absolute numbers bit
//! for bit — the substrate is a simulator, not the authors' 25
//! handsets — but the *shape* must hold. These helpers express "within
//! x% relative" and "within x percentage points" checks and accumulate
//! them into a printable report used by `EXPERIMENTS.md` generation
//! and by `tests/paper_targets.rs`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// True when `measured` is within `pct` percent (relative) of `paper`.
/// A zero paper value only matches a zero measurement.
///
/// # Example
///
/// ```
/// assert!(symfail_stats::within_pct(313.0, 330.0, 10.0));
/// assert!(!symfail_stats::within_pct(313.0, 500.0, 10.0));
/// ```
pub fn within_pct(paper: f64, measured: f64, pct: f64) -> bool {
    if paper == 0.0 {
        return measured == 0.0;
    }
    ((measured - paper) / paper).abs() * 100.0 <= pct
}

/// True when `measured` is within `pts` absolute percentage points of
/// `paper` (both expressed in percent).
///
/// # Example
///
/// ```
/// assert!(symfail_stats::within_pts(56.31, 54.0, 3.0));
/// ```
pub fn within_pts(paper: f64, measured: f64, pts: f64) -> bool {
    (measured - paper).abs() <= pts
}

/// One paper-vs-measured comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetCheck {
    /// What is being compared (e.g. "Table 2: KERN-EXEC 3 %").
    pub name: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction measured.
    pub measured: f64,
    /// Allowed deviation.
    pub tolerance: Tolerance,
}

/// The tolerance mode of a [`TargetCheck`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Tolerance {
    /// Relative tolerance in percent of the paper value.
    RelativePct(f64),
    /// Absolute tolerance in percentage points.
    AbsolutePts(f64),
}

impl TargetCheck {
    /// Builds a relative-tolerance check.
    pub fn relative(name: impl Into<String>, paper: f64, measured: f64, pct: f64) -> Self {
        Self {
            name: name.into(),
            paper,
            measured,
            tolerance: Tolerance::RelativePct(pct),
        }
    }

    /// Builds an absolute-points check.
    pub fn absolute(name: impl Into<String>, paper: f64, measured: f64, pts: f64) -> Self {
        Self {
            name: name.into(),
            paper,
            measured,
            tolerance: Tolerance::AbsolutePts(pts),
        }
    }

    /// Whether the measurement satisfies the tolerance.
    pub fn passes(&self) -> bool {
        match self.tolerance {
            Tolerance::RelativePct(pct) => within_pct(self.paper, self.measured, pct),
            Tolerance::AbsolutePts(pts) => within_pts(self.paper, self.measured, pts),
        }
    }

    /// Deviation in the units of the tolerance mode.
    pub fn deviation(&self) -> f64 {
        match self.tolerance {
            Tolerance::RelativePct(_) => {
                if self.paper == 0.0 {
                    if self.measured == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    ((self.measured - self.paper) / self.paper).abs() * 100.0
                }
            }
            Tolerance::AbsolutePts(_) => (self.measured - self.paper).abs(),
        }
    }
}

impl fmt::Display for TargetCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mode, bound) = match self.tolerance {
            Tolerance::RelativePct(p) => ("rel", p),
            Tolerance::AbsolutePts(p) => ("abs", p),
        };
        write!(
            f,
            "{:<46} paper={:>9.2} measured={:>9.2} dev={:>6.2} ({mode} tol {bound}) {}",
            self.name,
            self.paper,
            self.measured,
            self.deviation(),
            if self.passes() { "OK" } else { "MISS" }
        )
    }
}

/// A collection of [`TargetCheck`]s forming a shape-comparison report
/// for one experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShapeReport {
    checks: Vec<TargetCheck>,
}

impl ShapeReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a check.
    pub fn push(&mut self, check: TargetCheck) -> &mut Self {
        self.checks.push(check);
        self
    }

    /// All checks.
    pub fn checks(&self) -> &[TargetCheck] {
        &self.checks
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&TargetCheck> {
        self.checks.iter().filter(|c| !c.passes()).collect()
    }
}

impl fmt::Display for ShapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            writeln!(f, "{c}")?;
        }
        let pass = self.checks.iter().filter(|c| c.passes()).count();
        write!(f, "{pass}/{} targets within tolerance", self.checks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_pct_basics() {
        assert!(within_pct(100.0, 105.0, 5.0));
        assert!(!within_pct(100.0, 106.0, 5.0));
        assert!(within_pct(0.0, 0.0, 5.0));
        assert!(!within_pct(0.0, 0.1, 5.0));
        assert!(within_pct(-100.0, -104.0, 5.0));
    }

    #[test]
    fn within_pts_basics() {
        assert!(within_pts(56.31, 53.32, 3.0));
        assert!(!within_pts(56.31, 52.0, 3.0));
    }

    #[test]
    fn check_pass_and_deviation() {
        let c = TargetCheck::relative("mtbfr", 313.0, 330.0, 10.0);
        assert!(c.passes());
        assert!((c.deviation() - 5.43).abs() < 0.01);
        let c = TargetCheck::absolute("kern-exec", 56.31, 70.0, 5.0);
        assert!(!c.passes());
        assert!((c.deviation() - 13.69).abs() < 0.01);
    }

    #[test]
    fn deviation_zero_paper() {
        let z = TargetCheck::relative("z", 0.0, 0.0, 1.0);
        assert_eq!(z.deviation(), 0.0);
        let nz = TargetCheck::relative("nz", 0.0, 1.0, 1.0);
        assert!(nz.deviation().is_infinite());
        assert!(!nz.passes());
    }

    #[test]
    fn report_aggregation() {
        let mut r = ShapeReport::new();
        r.push(TargetCheck::relative("a", 10.0, 10.5, 10.0));
        r.push(TargetCheck::relative("b", 10.0, 20.0, 10.0));
        assert!(r.checks().iter().any(|c| !c.passes()));
        assert_eq!(r.failures().len(), 1);
        assert_eq!(r.failures()[0].name, "b");
        let display = r.to_string();
        assert!(display.contains("1/2 targets"));
        assert!(display.contains("MISS"));
    }
}
