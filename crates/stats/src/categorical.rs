//! Labelled categorical count distributions.
//!
//! The workhorse behind Table 2 (panic categories), the forum
//! failure-type marginals and the Figure 3/5/6 series: a multiset of
//! labels with percentage views and ranking.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A count distribution over string-labelled categories.
///
/// Labels are kept in a `BTreeMap` so iteration order — and therefore
/// every rendered table — is deterministic.
///
/// # Example
///
/// ```
/// use symfail_stats::CategoricalDist;
///
/// let mut d = CategoricalDist::new();
/// d.add("KERN-EXEC 3");
/// d.add("KERN-EXEC 3");
/// d.add("USER 11");
/// assert_eq!(d.total(), 3);
/// assert!((d.percent("KERN-EXEC 3").unwrap() - 66.666).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CategoricalDist {
    counts: BTreeMap<String, u64>,
}

impl CategoricalDist {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the count for `label` by one.
    pub fn add(&mut self, label: impl Into<String>) {
        *self.counts.entry(label.into()).or_insert(0) += 1;
    }

    /// Increments the count for `label` by `n`.
    pub fn add_n(&mut self, label: impl Into<String>, n: u64) {
        *self.counts.entry(label.into()).or_insert(0) += n;
    }

    /// Count for a label (0 if absent).
    pub fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Percentage (0–100) of the total held by `label`.
    ///
    /// Returns `None` when the distribution is empty.
    pub fn percent(&self, label: &str) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| 100.0 * self.count(label) as f64 / total as f64)
    }

    /// Iterator over `(label, count)` in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Labels sorted by descending count (ties broken by label order).
    pub fn ranked(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// The `k` most frequent labels.
    pub fn top_k(&self, k: usize) -> Vec<(&str, u64)> {
        let mut v = self.ranked();
        v.truncate(k);
        v
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &CategoricalDist) {
        for (label, count) in other.iter() {
            self.add_n(label, count);
        }
    }
}

impl<S: Into<String>> FromIterator<S> for CategoricalDist {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut d = Self::new();
        for label in iter {
            d.add(label);
        }
        d
    }
}

impl<S: Into<String>> Extend<S> for CategoricalDist {
    fn extend<T: IntoIterator<Item = S>>(&mut self, iter: T) {
        for label in iter {
            self.add(label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CategoricalDist {
        let mut d = CategoricalDist::new();
        d.add_n("a", 6);
        d.add_n("b", 3);
        d.add_n("c", 1);
        d
    }

    #[test]
    fn counting_and_percent() {
        let d = sample();
        assert_eq!(d.total(), 10);
        assert_eq!(d.count("a"), 6);
        assert_eq!(d.count("zzz"), 0);
        assert_eq!(d.percent("a"), Some(60.0));
        assert_eq!(CategoricalDist::new().percent("a"), None);
    }

    #[test]
    fn ranked_orders_desc_with_stable_ties() {
        let mut d = CategoricalDist::new();
        d.add_n("x", 2);
        d.add_n("a", 2);
        d.add_n("big", 5);
        let r = d.ranked();
        assert_eq!(r[0].0, "big");
        assert_eq!(r[1].0, "a"); // tie broken alphabetically
        assert_eq!(r[2].0, "x");
    }

    #[test]
    fn top_k_truncates() {
        assert_eq!(sample().top_k(2).len(), 2);
        assert_eq!(sample().top_k(99).len(), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.count("a"), 12);
        assert_eq!(a.total(), 20);
    }

    #[test]
    fn from_iterator_counts_duplicates() {
        let d: CategoricalDist = ["x", "y", "x"].into_iter().collect();
        assert_eq!(d.count("x"), 2);
        assert_eq!(d.count("y"), 1);
    }
}
