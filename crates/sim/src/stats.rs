//! Small summary-statistics helpers used by the experiment reports.

use std::fmt;

use crate::snap_struct;

/// Online summary of a stream of `f64` samples: count, sum, min, max,
/// mean, and variance (Welford's algorithm — one pass, no sample
/// storage, numerically stable).
///
/// # Examples
///
/// ```
/// use hbr_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), Some(2.0));
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(3.0));
/// assert_eq!(s.variance(), Some(2.0 / 3.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Welford running mean (kept separately from `sum / count` for the
    /// update's stability; the public [`mean`](Self::mean) stays derived
    /// from the sum so existing outputs do not move).
    welford_mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            welford_mean: 0.0,
            m2: 0.0,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN sample would silently poison every
    /// derived statistic.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "Summary::record called with NaN");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let delta = value - self.welford_mean;
        self.welford_mean += delta / self.count as f64;
        self.m2 += delta * (value - self.welford_mean);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the samples, or [`None`] before any sample arrives.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample, or [`None`] before any sample arrives.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or [`None`] before any sample arrives.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population variance (`M2 / n`), or [`None`] before any sample
    /// arrives. A single sample has variance `0`.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation, or [`None`] before any sample
    /// arrives.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merges another summary into this one, combining the variance
    /// accumulators with the parallel formula (Chan et al.): the result
    /// matches recording both sample streams into a single summary, up
    /// to floating-point rounding.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let delta = other.welford_mean - self.welford_mean;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.welford_mean += delta * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

snap_struct!(Summary {
    count,
    sum,
    min,
    max,
    welford_mean,
    m2
});

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={:.3} min={:.3} max={:.3}",
                self.count, mean, self.min, self.max
            ),
            None => write!(f, "n=0 (empty)"),
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_has_no_stats() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(format!("{s}"), "n=0 (empty)");
    }

    #[test]
    fn summary_accumulates() {
        let s: Summary = [4.0, -2.0, 10.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 12.0);
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.min(), Some(-2.0));
        assert_eq!(s.max(), Some(10.0));
    }

    #[test]
    fn summary_merge() {
        let mut a: Summary = [1.0, 2.0].into_iter().collect();
        let b: Summary = [3.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), Some(2.0));
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn variance_matches_the_two_pass_formula() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: Summary = samples.into_iter().collect();
        // Textbook set: population variance 4, stddev 2.
        assert!((s.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((s.stddev().unwrap() - 2.0).abs() < 1e-12);
        // Single sample: defined, and zero.
        let one: Summary = [42.0].into_iter().collect();
        assert_eq!(one.variance(), Some(0.0));
        assert_eq!(Summary::new().variance(), None);
        assert_eq!(Summary::new().stddev(), None);
    }

    #[test]
    fn merged_variance_equals_sequential_variance() {
        // Splitting a stream at any point and merging must give the
        // same moments as recording it sequentially (Chan et al.).
        let samples: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let whole: Summary = samples.iter().copied().collect();
        for split in [0usize, 1, 13, 50, 99, 100] {
            let mut left: Summary = samples[..split].iter().copied().collect();
            let right: Summary = samples[split..].iter().copied().collect();
            left.merge(&right);
            assert_eq!(left.count(), whole.count());
            assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
            assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Naive sum-of-squares cancels catastrophically here; Welford
        // keeps the small spread around a huge mean.
        let offset = 1.0e9;
        let s: Summary = [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]
            .into_iter()
            .collect();
        assert!((s.variance().unwrap() - 22.5).abs() < 1e-6);
    }
}
