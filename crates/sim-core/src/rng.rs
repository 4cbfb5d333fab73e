//! Deterministic random number generation for the simulation.
//!
//! [`SimRng`] wraps a fixed, seedable generator and adds the sampling
//! primitives the failure models need (exponential inter-arrival
//! times, log-normal durations, weighted categorical choices). Child
//! streams are *forked by hashing*, not by sharing state, so each
//! phone in the fleet has an independent stream and adding a phone
//! never perturbs the others — the property that keeps per-phone
//! results stable when the fleet grows.

/// The underlying generator: xoshiro256++, seeded by expanding a
/// 64-bit seed through splitmix64 (the construction its authors
/// recommend). Self-contained so the simulation has no external RNG
/// dependency and the byte-exact output stream is pinned by this
/// crate alone.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix(z);
        }
        Xoshiro256pp { s }
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

/// A deterministic simulation RNG.
///
/// # Example
///
/// ```
/// use symfail_sim_core::SimRng;
///
/// let mut a = SimRng::seed_from(42).fork("phone", 3);
/// let mut b = SimRng::seed_from(42).fork("phone", 3);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: Xoshiro256pp,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            seed,
            inner: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream identified by a label and
    /// an index (e.g. `fork("phone", 7)`). Forking is a pure function
    /// of `(root seed, label, index)` and does not consume randomness
    /// from the parent.
    pub fn fork(&self, label: &str, index: u64) -> SimRng {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = splitmix(h ^ b as u64);
        }
        h = splitmix(h ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        SimRng::seed_from(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        // Lemire's multiply-shift range reduction; the bias is below
        // n / 2^64, far under anything the simulation can observe.
        ((self.inner.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// Exponentially distributed value with the given mean
    /// (inter-arrival sampling for Poisson processes).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential requires mean > 0"
        );
        // Avoid ln(0): uniform() is in [0,1), so 1-u is in (0,1].
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Standard normal via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal sample parameterized by its *median* and the sigma
    /// of the underlying normal — the natural parameterization for
    /// duration models ("median self-shutdown ≈ 80 s").
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0` or `sigma < 0`.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(
            median > 0.0 && sigma >= 0.0,
            "lognormal requires median > 0, sigma >= 0"
        );
        (median.ln() + sigma * self.standard_normal()).exp()
    }

    /// Chooses an index with probability proportional to `weights`.
    /// Zero-weight entries are never chosen.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index requires weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(
                    w >= 0.0 && w.is_finite(),
                    "weights must be finite and non-negative"
                );
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("total > 0 implies a positive weight")
    }

    /// Chooses a reference from a non-empty slice uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let mut parent = SimRng::seed_from(1);
        let fork_before = parent.fork("x", 0);
        parent.next_u64();
        let fork_after = parent.fork("x", 0);
        let mut f1 = fork_before;
        let mut f2 = fork_after;
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn forks_differ_by_label_and_index() {
        let root = SimRng::seed_from(1);
        let mut by_label_a = root.fork("phone", 0);
        let mut by_label_b = root.fork("forum", 0);
        let mut by_index = root.fork("phone", 1);
        let a = by_label_a.next_u64();
        assert_ne!(a, by_label_b.next_u64());
        assert_ne!(a, by_index.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed_from(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(250.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean was {mean}");
    }

    #[test]
    fn lognormal_median_converges() {
        let mut r = SimRng::seed_from(5);
        let mut samples: Vec<f64> = (0..20_001).map(|_| r.lognormal(80.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 80.0).abs() < 4.0, "median was {median}");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::seed_from(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "var was {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::seed_from(9);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.weighted_index(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight entry must never be chosen");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn weighted_index_rejects_all_zero() {
        SimRng::seed_from(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn index_rejects_zero() {
        SimRng::seed_from(1).index(0);
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SimRng::seed_from(2);
        let items = ["a", "b", "c"];
        for _ in 0..50 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
