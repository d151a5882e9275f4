//! Virtual clock types.
//!
//! Simulated time is measured in whole microseconds since the start of the
//! scenario. A microsecond grid is fine enough to resolve every interval in
//! the paper (the shortest modelled activity is a sub-millisecond layer-3
//! message; the longest is a multi-hour workload) while keeping arithmetic
//! exact — no floating-point clock drift between runs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulated clock, in microseconds since scenario start.
///
/// `SimTime` is an absolute point in time; the span between two instants is
/// a [`SimDuration`].
///
/// # Examples
///
/// ```
/// use hbr_sim::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs(270);
/// assert_eq!(t + SimDuration::from_secs(30), SimTime::from_secs(300));
/// assert_eq!(t.as_secs_f64(), 270.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in whole microseconds.
///
/// # Examples
///
/// ```
/// use hbr_sim::SimDuration;
///
/// let period = SimDuration::from_secs(270);
/// assert_eq!(period * 2, SimDuration::from_secs(540));
/// assert_eq!(period / 2, SimDuration::from_secs(135));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The scenario start instant (time zero).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after scenario start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after scenario start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after scenario start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from fractional seconds, rounding to the
    /// microsecond grid.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Whole microseconds since scenario start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since scenario start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds since scenario start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Seconds since scenario start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Span since an earlier instant, or [`None`] if `earlier` is later
    /// than `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Span since an earlier instant, clamping to zero if `earlier` is in
    /// fact later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`] instead of
    /// overflowing.
    pub fn saturating_add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; useful as an "infinite" timeout.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a span from fractional seconds, rounding to the microsecond
    /// grid.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Whole microseconds in this span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this span (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds in this span (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// This span in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// `true` if this is the zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the span by a non-negative float, rounding to the microsecond
    /// grid.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64 requires a finite non-negative factor, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The shorter of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The longer of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Subtracts, clamping at zero instead of panicking.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: scenario clock exceeded u64 microseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: instant before scenario start"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// Span between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::checked_since`] when ordering is not statically known.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow: rhs is later than self"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;

    /// How many whole `rhs` spans fit into `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is the zero span.
    fn div(self, rhs: SimDuration) -> u64 {
        assert!(!rhs.is_zero(), "division by zero-length SimDuration");
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is the zero span.
    fn rem(self, rhs: SimDuration) -> SimDuration {
        assert!(!rhs.is_zero(), "remainder by zero-length SimDuration");
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
        assert_eq!(
            SimDuration::from_secs_f64(0.0001),
            SimDuration::from_micros(100)
        );
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(9) / d, 2);
        assert_eq!(SimDuration::from_secs(9) % d, SimDuration::from_secs(1));
    }

    #[test]
    fn checked_and_saturating() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.checked_since(early), Some(SimDuration::from_secs(4)));
        assert_eq!(early.checked_since(late), None);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::MAX), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_past_start_panics() {
        let _ = SimTime::from_secs(1) - SimDuration::from_secs(2);
    }

    // Bad fractional inputs must be loud. An `as u64` cast would map a
    // negative or NaN input to a silent zero (and +inf to u64::MAX),
    // turning a mistyped duration into a zero-length run.
    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-0.001);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn infinite_duration_panics() {
        let _ = SimDuration::from_secs_f64(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_scale_factor_panics() {
        let _ = SimDuration::from_secs(10).mul_f64(-2.0);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn nan_scale_factor_panics() {
        let _ = SimDuration::from_secs(10).mul_f64(f64::NAN);
    }

    #[test]
    fn sum_and_scaling() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.5),
            SimDuration::from_secs(5)
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "t=1.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.min(y), x);
        assert_eq!(x.max(y), y);
    }
}
