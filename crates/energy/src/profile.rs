//! Piecewise-constant current profiles.
//!
//! A radio operation (an RRC cycle, a D2D discovery scan, a transfer)
//! describes its electrical cost as a [`CurrentProfile`]: a sequence of
//! `(offset, duration, current, phase)` segments relative to the moment the
//! operation starts. The device's [`EnergyMeter`](crate::EnergyMeter)
//! anchors the profile at an absolute instant and accumulates it.

use hbr_sim::{snap_struct, SimDuration};

use crate::phase::Phase;
use crate::units::{MicroAmpHours, MilliAmps};

/// One constant-current stretch within a profile. The default is an
/// empty baseline stretch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Segment {
    /// Start offset relative to the profile anchor.
    pub offset: SimDuration,
    /// How long the current flows.
    pub duration: SimDuration,
    /// The current drawn during the segment.
    pub current: MilliAmps,
    /// The activity this energy is attributed to.
    pub phase: Phase,
}

impl Segment {
    /// Charge contributed by this segment.
    pub fn charge(&self) -> MicroAmpHours {
        self.current.over(self.duration)
    }

    /// End offset relative to the profile anchor.
    pub fn end(&self) -> SimDuration {
        self.offset + self.duration
    }
}

snap_struct!(Segment {
    offset,
    duration,
    current,
    phase
});

/// A relative, piecewise-constant current draw describing one operation.
///
/// Segments may overlap (e.g. a baseline floor underneath a transfer
/// spike); overlapping currents are additive, exactly as a shunt resistor
/// would see them.
///
/// # Examples
///
/// ```
/// use hbr_energy::{CurrentProfile, MilliAmps, Phase};
/// use hbr_sim::SimDuration;
///
/// // A D2D send: 0.2 s spike at 600 mA, then 0.3 s settle at 150 mA.
/// let profile = CurrentProfile::builder()
///     .then(MilliAmps::new(600.0), SimDuration::from_millis(200), Phase::D2dSend)
///     .then(MilliAmps::new(150.0), SimDuration::from_millis(300), Phase::D2dSend)
///     .build();
/// assert_eq!(profile.total_duration(), SimDuration::from_millis(500));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CurrentProfile {
    segments: Vec<Segment>,
}

impl CurrentProfile {
    /// An empty profile drawing no current.
    pub fn empty() -> Self {
        CurrentProfile::default()
    }

    /// A single-segment profile starting at offset zero.
    pub fn constant(current: MilliAmps, duration: SimDuration, phase: Phase) -> Self {
        CurrentProfile {
            segments: vec![Segment {
                offset: SimDuration::ZERO,
                duration,
                current,
                phase,
            }],
        }
    }

    /// Starts building a profile of consecutive segments.
    pub fn builder() -> CurrentProfileBuilder {
        CurrentProfileBuilder {
            cursor: SimDuration::ZERO,
            segments: Vec::new(),
        }
    }

    /// Adds a segment at an explicit offset (may overlap others).
    pub fn push(&mut self, segment: Segment) {
        self.segments.push(segment);
    }

    /// The segments of this profile, in insertion order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Sum of all segment charges.
    pub fn total_charge(&self) -> MicroAmpHours {
        self.segments.iter().map(Segment::charge).sum()
    }

    /// The offset at which the last segment ends (the operation latency).
    pub fn total_duration(&self) -> SimDuration {
        self.segments
            .iter()
            .map(Segment::end)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Merges another profile into this one at the given extra offset.
    pub fn merge(&mut self, other: &CurrentProfile, at: SimDuration) {
        for s in other.segments() {
            self.push(Segment {
                offset: s.offset + at,
                ..*s
            });
        }
    }
}

/// Builder producing back-to-back segments; see
/// [`CurrentProfile::builder`].
#[derive(Debug)]
pub struct CurrentProfileBuilder {
    cursor: SimDuration,
    segments: Vec<Segment>,
}

impl CurrentProfileBuilder {
    /// Appends a segment immediately after the previous one.
    pub fn then(mut self, current: MilliAmps, duration: SimDuration, phase: Phase) -> Self {
        self.segments.push(Segment {
            offset: self.cursor,
            duration,
            current,
            phase,
        });
        self.cursor += duration;
        self
    }

    /// Appends a silent gap (no current) before the next segment.
    pub fn gap(mut self, duration: SimDuration) -> Self {
        self.cursor += duration;
        self
    }

    /// Finishes the profile.
    pub fn build(self) -> CurrentProfile {
        CurrentProfile {
            segments: self.segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(x: f64) -> MilliAmps {
        MilliAmps::new(x)
    }

    #[test]
    fn builder_chains_offsets() {
        let p = CurrentProfile::builder()
            .then(ma(100.0), SimDuration::from_secs(1), Phase::D2dDiscovery)
            .gap(SimDuration::from_secs(2))
            .then(ma(200.0), SimDuration::from_secs(3), Phase::D2dSend)
            .build();
        let segs = p.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].offset, SimDuration::ZERO);
        assert_eq!(segs[1].offset, SimDuration::from_secs(3));
        assert_eq!(p.total_duration(), SimDuration::from_secs(6));
    }

    #[test]
    fn charge_sums_segments() {
        let p = CurrentProfile::builder()
            .then(ma(360.0), SimDuration::from_secs(10), Phase::CellularActive)
            .then(ma(360.0), SimDuration::from_secs(10), Phase::CellularTail)
            .build();
        // 360 mA × 20 s = 2000 µAh
        assert!((p.total_charge().as_micro_amp_hours() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn merge_overlays() {
        let mut base =
            CurrentProfile::constant(ma(10.0), SimDuration::from_secs(10), Phase::Baseline);
        let spike = CurrentProfile::constant(ma(500.0), SimDuration::from_secs(1), Phase::D2dSend);
        base.merge(&spike, SimDuration::from_secs(4));
        assert_eq!(base.segments().len(), 2);
        assert_eq!(base.segments()[1].offset, SimDuration::from_secs(4));
    }

    #[test]
    fn empty_profile_is_inert() {
        let p = CurrentProfile::empty();
        assert_eq!(p.total_charge(), MicroAmpHours::ZERO);
        assert_eq!(p.total_duration(), SimDuration::ZERO);
    }
}
