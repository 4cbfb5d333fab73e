//! Temporal behaviour of failures: time-between-failure
//! distributions.
//!
//! Characterizing the *temporal* behaviour of errors is one of the
//! stated goals of measurement-based analysis (Section 3 of the
//! paper). This module analyzes the inter-arrival times of
//! user-perceived failures (freezes and self-shutdowns): the empirical
//! distribution, a maximum-likelihood exponential fit, the
//! Kolmogorov–Smirnov distance to that fit, and the coefficient of
//! variation — whose excess over 1 signals burstiness beyond a Poisson
//! process (consistent with the error-propagation finding of
//! Figure 3).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimTime;
use symfail_stats::OnlineSummary;

use super::dataset::HlEvent;

/// Inter-arrival analysis over the fleet's high-level failures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterArrivalAnalysis {
    gaps_hours: Vec<f64>,
    mean_hours: f64,
    cv: f64,
    ks_to_exponential: f64,
}

impl InterArrivalAnalysis {
    /// Builds the analysis from HL events (wall-clock inter-arrival
    /// per phone, pooled over the fleet). Events are grouped by
    /// `phone_id`, so the caller needs no materialized fleet — the
    /// streaming report's `hl_events` section is enough. Returns
    /// `None` when fewer than two events exist on every phone.
    pub fn new(events: &[HlEvent]) -> Option<Self> {
        let mut by_phone: BTreeMap<u32, Vec<SimTime>> = BTreeMap::new();
        for e in events {
            by_phone.entry(e.phone_id).or_default().push(e.at);
        }
        let mut gaps_hours: Vec<f64> = Vec::new();
        for (_, mut times) in by_phone {
            times.sort();
            for pair in times.windows(2) {
                let gap = pair[1].saturating_since(pair[0]).as_hours_f64();
                if gap > 0.0 {
                    gaps_hours.push(gap);
                }
            }
        }
        if gaps_hours.is_empty() {
            return None;
        }
        let summary: OnlineSummary = gaps_hours.iter().copied().collect();
        let mean = summary.mean()?;
        let cv = summary.stddev().unwrap_or(0.0) / mean;
        let ks = ks_to_exponential(&gaps_hours, mean);
        Some(Self {
            gaps_hours,
            mean_hours: mean,
            cv,
            ks_to_exponential: ks,
        })
    }

    /// Mean time between failures, hours (the exponential MLE rate is
    /// its reciprocal).
    pub fn mean_hours(&self) -> f64 {
        self.mean_hours
    }

    /// KS distance between the empirical gap distribution and the
    /// fitted exponential.
    pub fn ks_to_exponential(&self) -> f64 {
        self.ks_to_exponential
    }

    /// Renders a short summary.
    pub fn render(&self, label: &str) -> String {
        format!(
            "inter-arrival of {label}: n={} mean={:.0} h cv={:.2} KS-to-exponential={:.3}\n",
            self.gaps_hours.len(),
            self.mean_hours,
            self.cv,
            self.ks_to_exponential
        )
    }
}

/// One-sample KS statistic against Exp(mean).
fn ks_to_exponential(gaps: &[f64], mean: f64) -> f64 {
    let mut sorted = gaps.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite gaps"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let model = 1.0 - (-x / mean).exp();
        let emp_hi = (i + 1) as f64 / n;
        let emp_lo = i as f64 / n;
        d = d.max((model - emp_lo).abs()).max((emp_hi - model).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::HlKind;

    fn event(phone: u32, hours: u64) -> HlEvent {
        HlEvent {
            phone_id: phone,
            at: SimTime::ZERO + symfail_sim_core::SimDuration::from_hours(hours),
            kind: HlKind::Freeze,
        }
    }

    #[test]
    fn needs_two_events_somewhere() {
        assert!(InterArrivalAnalysis::new(&[]).is_none());
        assert!(InterArrivalAnalysis::new(&[event(0, 1)]).is_none());
        assert!(InterArrivalAnalysis::new(&[event(0, 1), event(1, 2)]).is_none());
        assert!(InterArrivalAnalysis::new(&[event(0, 1), event(0, 2)]).is_some());
    }

    #[test]
    fn gaps_are_per_phone() {
        let events = [event(0, 0), event(0, 10), event(1, 5), event(1, 25)];
        let a = InterArrivalAnalysis::new(&events).unwrap();
        assert_eq!(a.gaps_hours.len(), 2);
        assert!((a.mean_hours() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn regular_gaps_have_zero_cv_and_large_ks() {
        let events: Vec<HlEvent> = (0..20).map(|i| event(0, 10 * i)).collect();
        let a = InterArrivalAnalysis::new(&events).unwrap();
        assert!(a.cv < 1e-9);
        // A deterministic process is far from exponential.
        assert!(a.ks_to_exponential() > 0.3);
    }

    #[test]
    fn exponential_gaps_fit_well() {
        use symfail_sim_core::SimRng;
        let mut rng = SimRng::seed_from(9);
        let mut t = 0.0;
        let mut events = Vec::new();
        for _ in 0..2000 {
            t += rng.exponential(100.0);
            events.push(HlEvent {
                phone_id: 0,
                at: SimTime::from_millis((t * 3_600_000.0) as u64),
                kind: HlKind::Freeze,
            });
        }
        let a = InterArrivalAnalysis::new(&events).unwrap();
        assert!((a.cv - 1.0).abs() < 0.1, "cv {}", a.cv);
        assert!(a.ks_to_exponential() < 0.05, "ks {}", a.ks_to_exponential);
        assert!((a.mean_hours() - 100.0).abs() < 10.0);
    }

    #[test]
    fn render_reports_count_and_label() {
        let events = [event(0, 0), event(0, 10), event(0, 30)];
        let a = InterArrivalAnalysis::new(&events).unwrap();
        let s = a.render("freezes");
        assert!(s.contains("n=2"));
        assert!(s.contains("freezes"));
    }
}
