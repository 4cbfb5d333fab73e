//! Scalar summary statistics (mean, variance).

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator using Welford's algorithm, so
/// per-phone statistics can be folded without keeping raw samples.
///
/// # Example
///
/// ```
/// use symfail_stats::OnlineSummary;
///
/// let mut s = OnlineSummary::new();
/// for v in [10.0, 12.0, 14.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), Some(12.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineSummary {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineSummary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance, `None` with fewer than two samples.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &OnlineSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

impl Extend<f64> for OnlineSummary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for OnlineSummary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = OnlineSummary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
    }

    #[test]
    fn single_value() {
        let s: OnlineSummary = [7.0].into_iter().collect();
        assert_eq!(s.mean(), Some(7.0));
        assert_eq!(s.variance(), None);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: OnlineSummary = data.into_iter().collect();
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        // Two-pass variance: sum((x-5)^2)/(n-1) = 32/7
        assert!((s.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_stream() {
        let data = [1.0, 5.0, 2.0, 8.0, 3.5, -1.0, 0.0];
        let whole: OnlineSummary = data.into_iter().collect();
        let mut a: OnlineSummary = data[..3].iter().copied().collect();
        let b: OnlineSummary = data[3..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineSummary = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineSummary::new());
        assert_eq!(a, before);
        let mut e = OnlineSummary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
