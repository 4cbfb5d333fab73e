//! Cost-balanced shard planning for multi-process campaigns.
//!
//! PR 7's fixed `[iP/N, (i+1)P/N)` split pins the distributed
//! critical path to whichever shard drew the expensive phones —
//! stratified enrollment makes low phone ids observe far longer than
//! high ids, so shard 0 of 2 carries roughly 3× the work of shard 1
//! and 2 processes bought only 1.35×. The planner here replaces the
//! uniform split with the classic measured-cost shape: estimate a
//! cost per phone ([`crate::fleet::FleetCampaign::estimate_phone_costs`]
//! statically, or a `--costs-json` vector measured from a prior run's
//! per-phone `parse_seconds`), then choose contiguous-but-uneven cut
//! points minimizing the maximum shard cost.
//!
//! The optimizer is prefix sums + a binary search on the max-cost
//! bound `B`: a bound is feasible when a greedy sweep (each shard
//! takes the longest prefix that fits under `B`, found by
//! `partition_point` on the prefix sums) covers all phones within
//! `count` shards. Bisection over `B` converges to the optimum —
//! the textbook "painters' partition" scheme, `O(P + count · log P)`
//! per probe.
//!
//! Cuts stay *contiguous* on purpose: the checkpoint-merge contract
//! (disjoint intervals, jointly covering, absorbed strictly in
//! phone-id order) and the byte-identical-report invariant both rely
//! on each process owning one interval of the id space. Schema v4
//! checkpoints carry the explicit `[start, end)` interval, so any cut
//! set the planner picks round-trips through `merge-checkpoints`
//! unchanged.

use symfail_core::analysis::checkpoint::ShardTopology;
use symfail_core::json::{self, Value};

/// How a sharded run assigns phones to shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum BalanceMode {
    /// The PR 7 fixed split: shard `i` of `N` owns `[iP/N, (i+1)P/N)`.
    #[default]
    Uniform,
    /// Cost-balanced cuts from the static per-phone cost estimator
    /// (campaign config only — no prior run needed).
    Static,
    /// Cost-balanced cuts from measured per-phone costs (seconds), as
    /// recorded in a prior run's timing JSON (`phone_costs`). Must
    /// hold exactly one entry per phone in the fleet.
    Measured(Vec<f64>),
}

impl BalanceMode {
    /// Stable CLI/JSON label.
    pub fn as_str(&self) -> &'static str {
        match self {
            BalanceMode::Uniform => "uniform",
            BalanceMode::Static => "static",
            BalanceMode::Measured(_) => "measured",
        }
    }
}

/// A planned contiguous partition of `[0, fleet_phones)` into `count`
/// shards, with the per-shard predicted cost under the cost vector it
/// was planned from. Cut `i` owns phones `[cuts[i], cuts[i+1])`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// `count + 1` ascending cut points; `cuts[0] == 0` and
    /// `cuts[count] == fleet_phones`.
    cuts: Vec<u32>,
    /// Predicted cost of each shard (sum of its phones' costs, in the
    /// cost vector's units — estimator units for `static`, seconds
    /// for `measured`).
    predicted: Vec<f64>,
}

impl ShardPlan {
    /// Plans `count` cost-balanced shards over `costs` (one entry per
    /// phone). Negative, NaN and infinite costs are treated as zero.
    pub fn from_costs(costs: &[f64], count: u32) -> Self {
        let cuts = plan_cuts(costs, count);
        Self::with_cuts(cuts, costs)
    }

    /// The PR 7 uniform `i/N` partition, costed under `costs` — what
    /// `plan-shards` prints alongside the balanced plan so the
    /// predicted imbalance is visible.
    pub fn uniform(costs: &[f64], count: u32) -> Self {
        assert!(count >= 1, "shard count must be >= 1");
        let phones = costs.len() as u32;
        let mut cuts = Vec::with_capacity(count as usize + 1);
        cuts.push(0);
        for index in 0..count {
            cuts.push(ShardTopology::uniform(index, count, phones).end);
        }
        Self::with_cuts(cuts, costs)
    }

    fn with_cuts(cuts: Vec<u32>, costs: &[f64]) -> Self {
        let predicted = cuts
            .windows(2)
            .map(|w| {
                costs[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|&c| sanitize(c))
                    .sum()
            })
            .collect();
        Self { cuts, predicted }
    }

    /// Number of shards in the plan.
    pub fn count(&self) -> u32 {
        (self.cuts.len() - 1) as u32
    }

    /// Total phones the plan partitions.
    pub fn fleet_phones(&self) -> u32 {
        *self.cuts.last().expect("cuts never empty")
    }

    /// The interval `[start, end)` of shard `index`.
    pub fn interval(&self, index: u32) -> (u32, u32) {
        (self.cuts[index as usize], self.cuts[index as usize + 1])
    }

    /// Predicted cost of shard `index` under the planning cost vector.
    pub fn predicted_cost(&self, index: u32) -> f64 {
        self.predicted[index as usize]
    }

    /// The predicted critical path: the most expensive shard's cost.
    pub fn max_predicted_cost(&self) -> f64 {
        self.predicted.iter().cloned().fold(0.0, f64::max)
    }

    /// The checkpoint topology of shard `index` under this plan.
    pub fn topology(&self, index: u32) -> ShardTopology {
        let (start, end) = self.interval(index);
        ShardTopology {
            index,
            count: self.count(),
            fleet_phones: self.fleet_phones(),
            start,
            end,
        }
    }
}

/// The `phone_cost_start` and `phone_costs` of a `repro --timing-json`
/// file (schema v7 on): the first phone's id and each phone's measured
/// seconds from there, for [`BalanceMode::Measured`].
pub fn phone_costs_from_json(text: &str) -> Result<(u64, Vec<f64>), String> {
    let timing = json::parse(text).map_err(|e| e.to_string())?;
    let start = timing.field("phone_cost_start", "an unsigned integer", Value::as_u64)?;
    let costs = timing.field("phone_costs", "an array of finite numbers", |f| {
        f.as_array()?.iter().map(Value::as_f64).collect()
    })?;
    Ok((start, costs))
}

fn sanitize(c: f64) -> f64 {
    if c.is_finite() && c > 0.0 {
        c
    } else {
        0.0
    }
}

/// Chooses `count + 1` ascending cut points partitioning
/// `[0, costs.len())` into `count` contiguous intervals minimizing the
/// maximum interval cost. Always returns an exact partition
/// (`cuts[0] == 0`, `cuts[count] == costs.len()`, non-decreasing) for
/// any cost vector — including empty fleets, all-zero costs, and
/// `count > costs.len()` (trailing shards come out empty).
pub fn plan_cuts(costs: &[f64], count: u32) -> Vec<u32> {
    assert!(count >= 1, "shard count must be >= 1");
    let mut prefix = Vec::with_capacity(costs.len() + 1);
    let mut sum = 0.0f64;
    prefix.push(0.0);
    for &c in costs {
        sum += sanitize(c);
        prefix.push(sum);
    }
    let max_single = costs.iter().map(|&c| sanitize(c)).fold(0.0, f64::max);
    // The optimum lies in [max(max_single, total/count), total]:
    // bisect the feasibility predicate. `hi` stays feasible
    // throughout (one interval holding everything always fits under
    // the total), so the final reconstruction cannot fail.
    let mut lo = max_single.max(sum / count as f64);
    let mut hi = sum.max(lo);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if cuts_for_bound(&prefix, count, mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    cuts_for_bound(&prefix, count, hi).expect("hi bound is always feasible")
}

/// Greedy feasibility sweep: each shard takes the longest prefix whose
/// cost fits under `bound`. Returns the cut points when all phones fit
/// in `count` shards, `None` otherwise.
fn cuts_for_bound(prefix: &[f64], count: u32, bound: f64) -> Option<Vec<u32>> {
    let phones = prefix.len() - 1;
    let mut cuts = Vec::with_capacity(count as usize + 1);
    cuts.push(0u32);
    let mut at = 0usize;
    for _ in 0..count {
        if at >= phones {
            // More shards than remaining phones: trailing shards own
            // the empty interval [phones, phones).
            cuts.push(phones as u32);
            continue;
        }
        let limit = prefix[at] + bound;
        // Largest j with prefix[j] <= limit. prefix[at] <= limit, so
        // the probe lands at least at `at`; clamp forces one phone of
        // progress even when a single phone exceeds the bound (the
        // sweep then fails feasibility at the end instead of looping).
        let j = prefix.partition_point(|&s| s <= limit) - 1;
        let j = j.clamp(at + 1, phones);
        cuts.push(j as u32);
        at = j;
    }
    (at >= phones).then_some(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(cuts: &[u32], count: u32, phones: u32) {
        assert_eq!(cuts.len() as u32, count + 1);
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().unwrap(), phones);
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1], "cuts must be non-decreasing: {cuts:?}");
        }
    }

    /// Brute-force min-max over every contiguous partition (small
    /// inputs only) — the optimality oracle.
    fn brute_force_best(costs: &[f64], count: u32) -> f64 {
        fn go(costs: &[f64], count: u32) -> f64 {
            if count == 1 {
                return costs.iter().sum();
            }
            let mut best = f64::INFINITY;
            for head in 0..=costs.len() {
                let head_cost: f64 = costs[..head].iter().sum();
                let rest = go(&costs[head..], count - 1);
                best = best.min(head_cost.max(rest));
            }
            best
        }
        go(costs, count)
    }

    #[test]
    fn planner_matches_brute_force_on_small_inputs() {
        let cases: &[(&[f64], u32)] = &[
            (&[1.0, 1.0, 1.0, 1.0], 2),
            (&[10.0, 1.0, 1.0, 1.0], 2),
            (&[5.0, 4.0, 3.0, 2.0, 1.0], 3),
            (&[1.0, 2.0, 3.0, 4.0, 5.0], 2),
            (&[8.0, 1.0, 1.0, 1.0, 1.0, 8.0], 3),
            (&[0.0, 0.0, 7.0, 0.0], 2),
            (&[3.0], 4),
        ];
        for &(costs, count) in cases {
            let plan = ShardPlan::from_costs(costs, count);
            assert_partition(&plan.cuts, count, costs.len() as u32);
            let best = brute_force_best(costs, count);
            let got = plan.max_predicted_cost();
            assert!(
                (got - best).abs() <= 1e-9 * best.max(1.0),
                "planner max {got} vs optimal {best} for {costs:?} / {count}"
            );
        }
    }

    #[test]
    fn balanced_cuts_beat_uniform_on_a_monotone_gradient() {
        // The campaign's actual shape: early phones cost ~3× late ones.
        let costs: Vec<f64> = (0..1000).map(|i| 3.0 - 2.0 * (i as f64) / 1000.0).collect();
        for count in [2, 4, 8] {
            let balanced = ShardPlan::from_costs(&costs, count);
            let uniform = ShardPlan::uniform(&costs, count);
            assert_partition(&balanced.cuts, count, 1000);
            // At 2 shards the optimum is total/2 = 1000.5 vs uniform's
            // 1250.5 — a 0.80 ratio exactly; larger counts do better.
            assert!(
                balanced.max_predicted_cost() < 0.85 * uniform.max_predicted_cost(),
                "{count} shards: balanced {} not clearly under uniform {}",
                balanced.max_predicted_cost(),
                uniform.max_predicted_cost()
            );
        }
    }

    #[test]
    fn degenerate_inputs_still_partition_exactly() {
        // Empty fleet.
        assert_partition(&plan_cuts(&[], 3), 3, 0);
        // All-zero costs.
        assert_partition(&plan_cuts(&[0.0; 7], 3), 3, 7);
        // NaN / negative / infinite costs sanitize to zero.
        let weird = [f64::NAN, -1.0, f64::INFINITY, 2.0, 1.0];
        assert_partition(&plan_cuts(&weird, 2), 2, 5);
        // More shards than phones.
        assert_partition(&plan_cuts(&[1.0, 2.0], 5), 5, 2);
    }

    #[test]
    fn plan_topologies_chain_into_a_cover() {
        let costs: Vec<f64> = (0..100).map(|i| (i % 13) as f64 + 0.5).collect();
        let plan = ShardPlan::from_costs(&costs, 4);
        let mut cursor = 0;
        for index in 0..4 {
            let topo = plan.topology(index);
            assert_eq!(topo.index, index);
            assert_eq!(topo.count, 4);
            assert_eq!(topo.fleet_phones, 100);
            assert_eq!(topo.start, cursor);
            cursor = topo.end;
        }
        assert_eq!(cursor, 100);
    }

    #[test]
    fn uniform_plan_matches_the_formula_topology() {
        let costs = vec![1.0; 10];
        let plan = ShardPlan::uniform(&costs, 3);
        for index in 0..3 {
            assert_eq!(
                plan.topology(index),
                ShardTopology::uniform(index, 3, 10),
                "uniform plan must reproduce the i/N formula"
            );
        }
    }
}
