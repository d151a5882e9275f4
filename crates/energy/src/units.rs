//! Electrical units used throughout the evaluation.
//!
//! The paper reports instantaneous current in mA (Figs. 6, 7, 12, 13) and
//! integrated charge in µAh (Tables III, IV; Figs. 8–11) at a constant
//! 3.7 V supply, so those are the canonical units here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use hbr_sim::snapshot::SnapshotError;
use hbr_sim::{snap_struct, SimDuration};

/// Instantaneous current in milliamps.
///
/// # Examples
///
/// ```
/// use hbr_energy::MilliAmps;
/// use hbr_sim::SimDuration;
///
/// let tail = MilliAmps::new(430.0);
/// let charge = tail.over(SimDuration::from_secs(36));
/// assert!((charge.as_micro_amp_hours() - 4300.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MilliAmps(f64);

/// Integrated charge in micro-amp-hours (the paper's energy unit at fixed
/// supply voltage).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MicroAmpHours(f64);

impl MilliAmps {
    /// Zero current.
    pub const ZERO: MilliAmps = MilliAmps(0.0);

    /// Creates a current value.
    ///
    /// # Panics
    ///
    /// Panics if `ma` is negative or not finite — a device never feeds
    /// charge back into the Power Monitor.
    pub fn new(ma: f64) -> Self {
        assert!(
            ma.is_finite() && ma >= 0.0,
            "current must be finite and non-negative, got {ma} mA"
        );
        MilliAmps(ma)
    }

    /// The raw mA value.
    pub fn as_milli_amps(self) -> f64 {
        self.0
    }

    /// Charge accumulated by drawing this current for `duration`:
    /// `µAh = mA × hours × 1000`.
    pub fn over(self, duration: SimDuration) -> MicroAmpHours {
        MicroAmpHours(self.0 * duration.as_secs_f64() / 3600.0 * 1000.0)
    }
}

impl MicroAmpHours {
    /// Zero charge.
    pub const ZERO: MicroAmpHours = MicroAmpHours(0.0);

    /// Creates a charge value.
    ///
    /// # Panics
    ///
    /// Panics if `uah` is negative or not finite.
    pub fn new(uah: f64) -> Self {
        assert!(
            uah.is_finite() && uah >= 0.0,
            "charge must be finite and non-negative, got {uah} µAh"
        );
        MicroAmpHours(uah)
    }

    /// The raw µAh value.
    pub fn as_micro_amp_hours(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, rhs: MicroAmpHours) -> MicroAmpHours {
        MicroAmpHours((self.0 - rhs.0).max(0.0))
    }

    /// The fraction `self / total`, or 0 when `total` is zero. Useful for
    /// "saved energy %" style report lines.
    pub fn fraction_of(self, total: MicroAmpHours) -> f64 {
        if total.0 == 0.0 {
            0.0
        } else {
            self.0 / total.0
        }
    }
}

snap_struct!(MilliAmps(0) check check_current);

fn check_current(ma: &MilliAmps) -> Result<(), SnapshotError> {
    if !(ma.0.is_finite() && ma.0 >= 0.0) {
        return Err(SnapshotError::Corrupt(format!("current {} mA", ma.0)));
    }
    Ok(())
}

snap_struct!(MicroAmpHours(0) check check_charge);

fn check_charge(uah: &MicroAmpHours) -> Result<(), SnapshotError> {
    if !(uah.0.is_finite() && uah.0 >= 0.0) {
        return Err(SnapshotError::Corrupt(format!("charge {} µAh", uah.0)));
    }
    Ok(())
}

impl Add for MicroAmpHours {
    type Output = MicroAmpHours;

    fn add(self, rhs: MicroAmpHours) -> MicroAmpHours {
        MicroAmpHours(self.0 + rhs.0)
    }
}

impl AddAssign for MicroAmpHours {
    fn add_assign(&mut self, rhs: MicroAmpHours) {
        self.0 += rhs.0;
    }
}

impl Sub for MicroAmpHours {
    type Output = MicroAmpHours;

    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`MicroAmpHours::saturating_sub`] when order is not known.
    fn sub(self, rhs: MicroAmpHours) -> MicroAmpHours {
        MicroAmpHours::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for MicroAmpHours {
    type Output = MicroAmpHours;

    fn mul(self, rhs: f64) -> MicroAmpHours {
        MicroAmpHours::new(self.0 * rhs)
    }
}

impl Div<f64> for MicroAmpHours {
    type Output = MicroAmpHours;

    fn div(self, rhs: f64) -> MicroAmpHours {
        MicroAmpHours::new(self.0 / rhs)
    }
}

impl Sum for MicroAmpHours {
    fn sum<I: Iterator<Item = MicroAmpHours>>(iter: I) -> MicroAmpHours {
        iter.fold(MicroAmpHours::ZERO, Add::add)
    }
}

impl Add for MilliAmps {
    type Output = MilliAmps;

    fn add(self, rhs: MilliAmps) -> MilliAmps {
        MilliAmps(self.0 + rhs.0)
    }
}

impl AddAssign for MilliAmps {
    fn add_assign(&mut self, rhs: MilliAmps) {
        self.0 += rhs.0;
    }
}

impl Sum for MilliAmps {
    fn sum<I: Iterator<Item = MilliAmps>>(iter: I) -> MilliAmps {
        iter.fold(MilliAmps::ZERO, Add::add)
    }
}

impl Mul<f64> for MilliAmps {
    type Output = MilliAmps;

    fn mul(self, rhs: f64) -> MilliAmps {
        MilliAmps::new(self.0 * rhs)
    }
}

impl fmt::Display for MilliAmps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}mA", self.0)
    }
}

impl fmt::Display for MicroAmpHours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}µAh", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};

    #[test]
    fn restore_refuses_negative_or_non_finite_amounts() {
        for v in [-1.0, f64::NAN, f64::INFINITY] {
            let mut w = SnapshotWriter::new();
            MilliAmps(v).snap(&mut w);
            MicroAmpHours(v).snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            assert!(matches!(
                MilliAmps::unsnap(&mut r),
                Err(SnapshotError::Corrupt(_))
            ));
            assert!(matches!(
                MicroAmpHours::unsnap(&mut r),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn charge_integration_matches_hand_math() {
        // 600 mA for 8 s: 600 * 8 / 3600 * 1000 = 1333.33 µAh.
        let e = MilliAmps::new(600.0).over(SimDuration::from_secs(8));
        assert!((e.as_micro_amp_hours() - 1333.333).abs() < 0.01);
    }

    #[test]
    fn zero_duration_zero_charge() {
        assert_eq!(
            MilliAmps::new(999.0).over(SimDuration::ZERO),
            MicroAmpHours::ZERO
        );
    }

    #[test]
    fn arithmetic() {
        let a = MicroAmpHours::new(10.0);
        let b = MicroAmpHours::new(4.0);
        assert_eq!(a + b, MicroAmpHours::new(14.0));
        assert_eq!(a - b, MicroAmpHours::new(6.0));
        assert_eq!(b.saturating_sub(a), MicroAmpHours::ZERO);
        assert_eq!(a * 2.0, MicroAmpHours::new(20.0));
        assert_eq!(a / 2.0, MicroAmpHours::new(5.0));
        assert_eq!(b.fraction_of(a), 0.4);
        assert_eq!(b.fraction_of(MicroAmpHours::ZERO), 0.0);
    }

    #[test]
    fn sums() {
        let total: MicroAmpHours = (1..=3).map(|i| MicroAmpHours::new(i as f64)).sum();
        assert_eq!(total, MicroAmpHours::new(6.0));
        let amps: MilliAmps = vec![MilliAmps::new(1.0), MilliAmps::new(2.5)]
            .into_iter()
            .sum();
        assert_eq!(amps, MilliAmps::new(3.5));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_current_rejected() {
        MilliAmps::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_charge_subtraction_panics() {
        let _ = MicroAmpHours::new(1.0) - MicroAmpHours::new(2.0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", MilliAmps::new(430.25)), "430.2mA");
        assert_eq!(format!("{}", MicroAmpHours::new(132.239)), "132.24µAh");
    }
}
