//! Finite battery state, for failure injection.
//!
//! §III-A motivates the fallback mechanism with relays that "ran out of
//! battery … before all the collected heartbeat messages are sent to BS".
//! A [`Battery`] tracks remaining charge against an
//! [`EnergyMeter`](crate::EnergyMeter) so
//! scenarios can model exactly that.

use std::fmt;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::units::MicroAmpHours;

/// A device battery with finite capacity.
///
/// # Examples
///
/// ```
/// use hbr_energy::{Battery, MicroAmpHours};
///
/// let mut battery = Battery::with_capacity_mah(2600.0); // Galaxy S4 pack
/// battery.drain(MicroAmpHours::new(1_000_000.0));
/// assert!((battery.level() - 0.615).abs() < 0.001);
/// assert!(!battery.is_depleted());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity: MicroAmpHours,
    drained: MicroAmpHours,
}

impl Battery {
    /// Creates a full battery with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: MicroAmpHours) -> Self {
        assert!(
            capacity > MicroAmpHours::ZERO,
            "battery capacity must be positive"
        );
        Battery {
            capacity,
            drained: MicroAmpHours::ZERO,
        }
    }

    /// Creates a full battery with a capacity in mAh (the usual datasheet
    /// unit; the Galaxy S4 used in the paper ships a 2600 mAh pack).
    pub fn with_capacity_mah(mah: f64) -> Self {
        Battery::new(MicroAmpHours::new(mah * 1000.0))
    }

    /// Rated capacity.
    pub fn capacity(&self) -> MicroAmpHours {
        self.capacity
    }

    /// Charge drained so far (clamped to capacity).
    pub fn drained(&self) -> MicroAmpHours {
        self.drained
    }

    /// Charge remaining.
    pub fn remaining(&self) -> MicroAmpHours {
        self.capacity.saturating_sub(self.drained)
    }

    /// Remaining fraction in `[0, 1]`.
    pub fn level(&self) -> f64 {
        self.remaining().fraction_of(self.capacity)
    }

    /// Removes charge from the battery. Draining past empty clamps at
    /// zero remaining and marks the battery depleted.
    pub fn drain(&mut self, amount: MicroAmpHours) {
        let new_total = self.drained + amount;
        self.drained = if new_total > self.capacity {
            self.capacity
        } else {
            new_total
        };
    }

    /// `true` once the battery has been fully drained.
    pub fn is_depleted(&self) -> bool {
        self.remaining() == MicroAmpHours::ZERO
    }
}

impl Snap for Battery {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.capacity.snap(w);
        self.drained.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let capacity = MicroAmpHours::unsnap(r)?;
        let drained = MicroAmpHours::unsnap(r)?;
        // `partial_cmp`, not `<=`: a NaN capacity must be rejected too.
        if capacity.partial_cmp(&MicroAmpHours::ZERO) != Some(std::cmp::Ordering::Greater) {
            return Err(SnapshotError::Corrupt(format!(
                "battery capacity {capacity}"
            )));
        }
        if drained > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "battery drained {drained} past capacity {capacity}"
            )));
        }
        Ok(Battery { capacity, drained })
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "battery {:.1}% of {}",
            self.level() * 100.0,
            self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_and_depletes() {
        let mut b = Battery::new(MicroAmpHours::new(100.0));
        assert_eq!(b.level(), 1.0);
        b.drain(MicroAmpHours::new(30.0));
        assert_eq!(b.remaining(), MicroAmpHours::new(70.0));
        assert!(!b.is_depleted());
        b.drain(MicroAmpHours::new(500.0));
        assert!(b.is_depleted());
        assert_eq!(b.remaining(), MicroAmpHours::ZERO);
        assert_eq!(b.drained(), b.capacity());
    }

    #[test]
    fn mah_constructor() {
        let b = Battery::with_capacity_mah(2.0);
        assert_eq!(b.capacity(), MicroAmpHours::new(2000.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Battery::new(MicroAmpHours::ZERO);
    }

    #[test]
    fn display_mentions_level() {
        let b = Battery::new(MicroAmpHours::new(10.0));
        assert!(format!("{b}").contains("100.0%"));
    }
}
