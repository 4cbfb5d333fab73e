//! Empirical cumulative distribution functions.
//!
//! Used for exact (un-binned) quantiles — e.g. the median
//! self-shutdown duration of Figure 2.

use serde::{Deserialize, Serialize};

use crate::StatsError;

/// An empirical CDF built from a finite sample.
///
/// # Example
///
/// ```
/// use symfail_stats::Ecdf;
///
/// let e = Ecdf::from_samples([80.0, 75.0, 90.0, 30000.0])?;
/// assert_eq!(e.median(), 85.0);
/// # Ok::<(), symfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples; non-finite values are rejected.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyData`] if the iterator yields no values,
    /// [`StatsError::InvalidRange`] if any value is not finite.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Result<Self, StatsError> {
        let mut sorted: Vec<f64> = Vec::new();
        for v in samples {
            if !v.is_finite() {
                return Err(StatsError::InvalidRange { lo: v, hi: v });
            }
            sorted.push(v);
        }
        if sorted.is_empty() {
            return Err(StatsError::EmptyData);
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
        Ok(Self { sorted })
    }

    /// Exact sample quantile with linear interpolation (type 7, the R
    /// default).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidProbability`] if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidProbability(q));
        }
        let n = self.sorted.len();
        if n == 1 {
            return Ok(self.sorted[0]);
        }
        let h = q * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        let frac = h - lo as f64;
        Ok(self.sorted[lo] + frac * (self.sorted[hi] - self.sorted[lo]))
    }

    /// Sample median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5).expect("0.5 is a valid probability")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(matches!(Ecdf::from_samples([]), Err(StatsError::EmptyData)));
        assert!(Ecdf::from_samples([1.0, f64::NAN]).is_err());
    }

    #[test]
    fn median_odd_and_even() {
        let odd = Ecdf::from_samples([3.0, 1.0, 2.0]).unwrap();
        assert_eq!(odd.median(), 2.0);
        let even = Ecdf::from_samples([1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median(), 2.5);
    }

    #[test]
    fn quantile_endpoints() {
        let e = Ecdf::from_samples([5.0, 10.0, 15.0]).unwrap();
        assert_eq!(e.quantile(0.0).unwrap(), 5.0);
        assert_eq!(e.quantile(1.0).unwrap(), 15.0);
        assert!(e.quantile(-0.1).is_err());
    }

    #[test]
    fn single_sample() {
        let e = Ecdf::from_samples([42.0]).unwrap();
        assert_eq!(e.median(), 42.0);
        assert_eq!(e.quantile(0.99).unwrap(), 42.0);
    }
}
