//! Per-device energy accumulation.

use std::collections::BTreeMap;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{SimDuration, SimTime};

use crate::phase::{Phase, PhaseGroup};
use crate::profile::{CurrentProfile, Segment};
use crate::units::{MicroAmpHours, MilliAmps};

/// Accumulates every current segment a device draws over a scenario and
/// answers the questions the evaluation asks: total charge, per-phase
/// breakdowns (Table III/IV), instantaneous current (Figs. 6–7) and
/// windowed integrals.
///
/// # Examples
///
/// ```
/// use hbr_energy::{CurrentProfile, EnergyMeter, MilliAmps, Phase, PhaseGroup};
/// use hbr_sim::{SimDuration, SimTime};
///
/// let mut meter = EnergyMeter::new();
/// meter.apply(
///     SimTime::ZERO,
///     &CurrentProfile::constant(
///         MilliAmps::new(360.0),
///         SimDuration::from_secs(10),
///         Phase::D2dDiscovery,
///     ),
/// );
/// assert!((meter.total().as_micro_amp_hours() - 1000.0).abs() < 1e-9);
/// assert_eq!(meter.group_total(PhaseGroup::Discovery), meter.total());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    segments: Vec<(SimTime, Segment)>,
    by_phase: BTreeMap<Phase, MicroAmpHours>,
    total: MicroAmpHours,
    compact: bool,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Creates a meter that keeps only the running totals, dropping the
    /// raw segment log.
    ///
    /// Aggregate queries — [`EnergyMeter::total`], [`EnergyMeter::phase_total`],
    /// [`EnergyMeter::group_breakdown`] — return exactly what a full
    /// meter would (same values, same accumulation order), but windowed
    /// queries ([`EnergyMeter::current_at`], [`EnergyMeter::charge_between`])
    /// see no segments. The crowd engine uses this so a million-device
    /// fleet's meters stay O(1) each instead of growing with every
    /// radio burst.
    pub fn compact() -> Self {
        EnergyMeter {
            compact: true,
            ..EnergyMeter::default()
        }
    }

    /// Records one absolute-time segment.
    pub fn add_segment(&mut self, start: SimTime, segment: Segment) {
        let charge = segment.charge();
        debug_assert!(
            charge.as_micro_amp_hours().is_finite() && charge >= MicroAmpHours::ZERO,
            "energy segments must carry finite, non-negative charge (got {charge:?})"
        );
        *self
            .by_phase
            .entry(segment.phase)
            .or_insert(MicroAmpHours::ZERO) += charge;
        self.total += charge;
        if !self.compact {
            self.segments.push((start + segment.offset, segment));
        }
    }

    /// Anchors a whole profile at `start` and records every segment.
    pub fn apply(&mut self, start: SimTime, profile: &CurrentProfile) {
        for segment in profile.segments() {
            self.add_segment(start, *segment);
        }
    }

    /// Total charge drawn so far.
    pub fn total(&self) -> MicroAmpHours {
        self.total
    }

    /// Charge attributed to one fine-grained phase.
    pub fn phase_total(&self, phase: Phase) -> MicroAmpHours {
        self.by_phase
            .get(&phase)
            .copied()
            .unwrap_or(MicroAmpHours::ZERO)
    }

    /// Charge attributed to a paper-level phase group.
    pub fn group_total(&self, group: PhaseGroup) -> MicroAmpHours {
        Phase::ALL
            .iter()
            .filter(|p| p.group() == group)
            .map(|p| self.phase_total(*p))
            .sum()
    }

    /// Per-group breakdown in display order, omitting empty groups — the
    /// Table III rows for one device.
    pub fn group_breakdown(&self) -> Vec<(PhaseGroup, MicroAmpHours)> {
        PhaseGroup::ALL
            .iter()
            .filter_map(|g| {
                let c = self.group_total(*g);
                (c > MicroAmpHours::ZERO).then_some((*g, c))
            })
            .collect()
    }

    /// Per-phase breakdown in display order, omitting empty phases.
    pub fn breakdown(&self) -> Vec<(Phase, MicroAmpHours)> {
        Phase::ALL
            .iter()
            .filter_map(|p| {
                let c = self.phase_total(*p);
                (c > MicroAmpHours::ZERO).then_some((*p, c))
            })
            .collect()
    }

    /// Instantaneous current at `t`: the sum of all segments covering `t`
    /// (half-open intervals `[start, end)`), exactly what a shunt sees.
    pub fn current_at(&self, t: SimTime) -> MilliAmps {
        self.segments
            .iter()
            .filter(|(start, seg)| {
                let end = start.saturating_add(seg.duration);
                *start <= t && t < end
            })
            .map(|(_, seg)| seg.current)
            .sum()
    }

    /// Exact integral of the current between `from` and `to` (half-open),
    /// accounting for partial segment overlap.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn charge_between(&self, from: SimTime, to: SimTime) -> MicroAmpHours {
        assert!(from <= to, "charge_between requires from <= to");
        self.segments
            .iter()
            .map(|(start, seg)| {
                let seg_end = start.saturating_add(seg.duration);
                let lo = (*start).max(from);
                let hi = seg_end.min(to);
                match hi.checked_since(lo) {
                    Some(overlap) if !overlap.is_zero() => seg.current.over(overlap),
                    _ => MicroAmpHours::ZERO,
                }
            })
            .sum()
    }

    /// The instant the last recorded segment ends — the extent of the
    /// meter's timeline.
    pub fn end_time(&self) -> SimTime {
        self.segments
            .iter()
            .map(|(start, seg)| start.saturating_add(seg.duration))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Merges all segments of `other` into this meter (e.g. whole-system
    /// totals across devices).
    pub fn merge(&mut self, other: &EnergyMeter) {
        for (start, seg) in &other.segments {
            // `add_segment` re-applies the offset, so strip it here.
            let anchored = Segment {
                offset: SimDuration::ZERO,
                ..*seg
            };
            self.add_segment(*start, anchored);
        }
    }
}

impl Snap for EnergyMeter {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_bool(self.compact);
        self.total.snap(w);
        self.by_phase.snap(w);
        self.segments.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(EnergyMeter {
            compact: r.take_bool()?,
            total: MicroAmpHours::unsnap(r)?,
            by_phase: BTreeMap::unsnap(r)?,
            segments: Vec::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ma(x: f64) -> MilliAmps {
        MilliAmps::new(x)
    }

    fn constant(current: f64, secs: u64, phase: Phase) -> CurrentProfile {
        CurrentProfile::constant(ma(current), SimDuration::from_secs(secs), phase)
    }

    #[test]
    fn totals_and_phases() {
        let mut m = EnergyMeter::new();
        m.apply(SimTime::ZERO, &constant(360.0, 10, Phase::D2dSend));
        m.apply(
            SimTime::from_secs(10),
            &constant(720.0, 5, Phase::CellularActive),
        );
        assert!((m.total().as_micro_amp_hours() - 2000.0).abs() < 1e-9);
        assert!((m.phase_total(Phase::D2dSend).as_micro_amp_hours() - 1000.0).abs() < 1e-9);
        assert!((m.group_total(PhaseGroup::Cellular).as_micro_amp_hours() - 1000.0).abs() < 1e-9);
        assert_eq!(m.phase_total(Phase::Baseline), MicroAmpHours::ZERO);
        assert_eq!(m.breakdown().len(), 2);
    }

    #[test]
    fn instantaneous_current_sums_overlaps() {
        let mut m = EnergyMeter::new();
        m.apply(SimTime::ZERO, &constant(100.0, 10, Phase::Baseline));
        m.apply(SimTime::from_secs(4), &constant(500.0, 2, Phase::D2dSend));
        assert_eq!(m.current_at(SimTime::from_secs(1)), ma(100.0));
        assert_eq!(m.current_at(SimTime::from_secs(5)), ma(600.0));
        assert_eq!(
            m.current_at(SimTime::from_secs(6)),
            ma(100.0),
            "half-open end"
        );
        assert_eq!(m.current_at(SimTime::from_secs(10)), MilliAmps::ZERO);
    }

    #[test]
    fn windowed_charge_handles_partial_overlap() {
        let mut m = EnergyMeter::new();
        m.apply(SimTime::from_secs(10), &constant(360.0, 10, Phase::D2dSend));
        // Window covers half the segment: 360 mA × 5 s = 500 µAh.
        let half = m.charge_between(SimTime::from_secs(15), SimTime::from_secs(60));
        assert!((half.as_micro_amp_hours() - 500.0).abs() < 1e-9);
        // Disjoint window sees nothing.
        assert_eq!(
            m.charge_between(SimTime::ZERO, SimTime::from_secs(10)),
            MicroAmpHours::ZERO
        );
        // Full window equals the total.
        assert_eq!(
            m.charge_between(SimTime::ZERO, SimTime::from_secs(100)),
            m.total()
        );
    }

    #[test]
    #[should_panic(expected = "from <= to")]
    fn reversed_window_panics() {
        EnergyMeter::new().charge_between(SimTime::from_secs(2), SimTime::from_secs(1));
    }

    #[test]
    fn merge_combines_meters() {
        let mut a = EnergyMeter::new();
        a.apply(SimTime::ZERO, &constant(100.0, 36, Phase::D2dSend));
        let mut b = EnergyMeter::new();
        b.apply(SimTime::ZERO, &constant(100.0, 36, Phase::D2dReceive));
        a.merge(&b);
        assert!((a.total().as_micro_amp_hours() - 2000.0).abs() < 1e-9);
        assert_eq!(a.current_at(SimTime::from_secs(1)), ma(200.0));
    }

    #[test]
    fn end_time_tracks_latest_segment() {
        let mut m = EnergyMeter::new();
        assert_eq!(m.end_time(), SimTime::ZERO);
        m.apply(SimTime::from_secs(5), &constant(1.0, 10, Phase::Baseline));
        m.apply(SimTime::from_secs(2), &constant(1.0, 1, Phase::Baseline));
        assert_eq!(m.end_time(), SimTime::from_secs(15));
    }

    #[test]
    fn profile_offsets_are_respected() {
        let profile = CurrentProfile::builder()
            .gap(SimDuration::from_secs(5))
            .then(ma(100.0), SimDuration::from_secs(1), Phase::D2dSend)
            .build();
        let mut m = EnergyMeter::new();
        m.apply(SimTime::from_secs(10), &profile);
        assert_eq!(m.current_at(SimTime::from_secs(12)), MilliAmps::ZERO);
        assert_eq!(m.current_at(SimTime::from_secs(15)), ma(100.0));
    }
}
