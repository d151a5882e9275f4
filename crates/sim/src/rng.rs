//! Deterministic randomness for scenarios.
//!
//! All stochastic choices in the framework — heartbeat jitter, mobility
//! waypoints, discovery latencies, failure injection — draw from a
//! [`SimRng`] seeded by the scenario. Re-running a scenario with the same
//! seed therefore reproduces the exact event trace, which the integration
//! tests assert.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::SimDuration;

/// A seedable random number generator with simulation-oriented helpers.
///
/// # Examples
///
/// ```
/// use hbr_sim::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.range(0..100u32), b.range(0..100u32));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit scenario seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator, e.g. one per device, so
    /// adding a device does not perturb the streams of the others.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the parent's next word with the stream index through
        // splitmix64 so sibling forks are decorrelated.
        let mut z = self
            .inner
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Uniform sample from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed duration with the given mean — the
    /// classic inter-arrival model for foreground app traffic.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is the zero duration.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        assert!(
            !mean.is_zero(),
            "exp_duration requires a positive mean duration"
        );
        // Inverse-CDF sampling; clamp the uniform away from 0 so ln is finite.
        let u = self.unit().max(1e-12);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// A duration jittered uniformly within `±frac` of `base` (e.g. ±5%
    /// heartbeat timer slack).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is negative or not finite.
    pub fn jitter(&mut self, base: SimDuration, frac: f64) -> SimDuration {
        assert!(
            frac.is_finite() && frac >= 0.0,
            "jitter fraction must be finite and non-negative, got {frac}"
        );
        if frac == 0.0 || base.is_zero() {
            return base;
        }
        let factor = 1.0 + self.range(-frac..frac);
        base.mul_f64(factor.max(0.0))
    }

    /// Gaussian sample via Box–Muller (no extra dependency needed).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// Returns [`None`] for an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.range(0..items.len());
            Some(&items[idx])
        }
    }
}

impl Snap for SimRng {
    /// Captures the exact generator state words, so a restored stream
    /// continues from the same position — not from a reseed.
    fn snap(&self, w: &mut SnapshotWriter) {
        for word in self.inner.state() {
            w.put_u64(word);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.take_u64()?;
        }
        Ok(SimRng {
            inner: StdRng::from_state(s),
        })
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn forks_are_deterministic_and_decorrelated() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut parent3 = SimRng::seed_from(9);
        let mut g0 = parent3.fork(0);
        // A different stream index gives a different sequence even from the
        // same parent state.
        let mut parent4 = SimRng::seed_from(9);
        let mut g1 = parent4.fork(1);
        assert_ne!(g0.next_u64(), g1.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0), "p is clamped to [0,1]");
    }

    #[test]
    fn exp_duration_mean_is_close() {
        let mut rng = SimRng::seed_from(11);
        let mean = SimDuration::from_secs(10);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| rng.exp_duration(mean).as_secs_f64())
            .sum::<f64>();
        let avg = total / n as f64;
        assert!(
            (avg - 10.0).abs() < 0.3,
            "empirical mean {avg} too far from 10"
        );
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = SimRng::seed_from(13);
        let base = SimDuration::from_secs(100);
        for _ in 0..1000 {
            let j = rng.jitter(base, 0.05);
            assert!(j >= SimDuration::from_secs(95) && j <= SimDuration::from_secs(105));
        }
        assert_eq!(rng.jitter(base, 0.0), base);
    }

    #[test]
    fn normal_is_roughly_centred() {
        let mut rng = SimRng::seed_from(17);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.normal(5.0, 2.0)).sum();
        let avg = sum / n as f64;
        assert!((avg - 5.0).abs() < 0.1, "empirical mean {avg} off from 5");
    }

    #[test]
    fn pick_handles_empty_and_full() {
        let mut rng = SimRng::seed_from(19);
        let empty: [u8; 0] = [];
        assert_eq!(rng.pick(&empty), None);
        let items = [1, 2, 3];
        assert!(items.contains(rng.pick(&items).unwrap()));
    }
}
