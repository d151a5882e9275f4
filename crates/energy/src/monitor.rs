//! The emulated Monsoon Power Monitor.
//!
//! §V-A: *"we ran the prototype … and captured the instant current every
//! 0.1 seconds through Power Monitor … with the constant voltage 3.7 V."*
//! [`PowerMonitor`] reproduces that instrument: it samples an
//! [`EnergyMeter`]'s instantaneous current on a fixed grid and integrates
//! the samples, which is what the paper's figures and tables actually show.

use hbr_sim::{SimDuration, SimTime};

use crate::meter::EnergyMeter;
use crate::units::{MicroAmpHours, MilliAmps};

/// One sampled point of a current trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sampling instant.
    pub time: SimTime,
    /// Current observed at that instant.
    pub current: MilliAmps,
}

/// Samples an [`EnergyMeter`] at a fixed interval, like the Monsoon
/// instrument on the lab bench.
///
/// # Examples
///
/// ```
/// use hbr_energy::{CurrentProfile, EnergyMeter, MilliAmps, Phase, PowerMonitor};
/// use hbr_sim::{SimDuration, SimTime};
///
/// let mut meter = EnergyMeter::new();
/// meter.apply(
///     SimTime::ZERO,
///     &CurrentProfile::constant(
///         MilliAmps::new(360.0),
///         SimDuration::from_secs(1),
///         Phase::D2dSend,
///     ),
/// );
///
/// let monitor = PowerMonitor::paper_instrument();
/// let trace = monitor.trace(&meter, SimTime::ZERO, SimTime::from_secs(2));
/// assert_eq!(trace.len(), 21); // 0.0s..=2.0s at 0.1s steps
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMonitor {
    interval: SimDuration,
}

impl PowerMonitor {
    /// Creates a monitor with a custom sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        PowerMonitor { interval }
    }

    /// The paper's instrument: 0.1 s sampling (§V-A).
    pub fn paper_instrument() -> Self {
        PowerMonitor::new(SimDuration::from_millis(100))
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Samples the meter's instantaneous current on `[from, to]`
    /// inclusive of both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn trace(&self, meter: &EnergyMeter, from: SimTime, to: SimTime) -> Vec<Sample> {
        assert!(from <= to, "trace requires from <= to");
        let mut out = Vec::new();
        let mut t = from;
        loop {
            out.push(Sample {
                time: t,
                current: meter.current_at(t),
            });
            if t >= to {
                break;
            }
            t = (t + self.interval).min(to);
        }
        out
    }

    /// Riemann integration of a sampled trace (left rule), the way the
    /// bench software turns a current log into µAh.
    pub fn integrate(&self, trace: &[Sample]) -> MicroAmpHours {
        trace
            .windows(2)
            .map(|w| w[0].current.over(w[1].time - w[0].time))
            .sum()
    }

    /// Convenience: trace + integrate in one call.
    pub fn measure(&self, meter: &EnergyMeter, from: SimTime, to: SimTime) -> MicroAmpHours {
        self.integrate(&self.trace(meter, from, to))
    }
}

impl Default for PowerMonitor {
    fn default() -> Self {
        PowerMonitor::paper_instrument()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::profile::CurrentProfile;

    fn spike_meter() -> EnergyMeter {
        let mut m = EnergyMeter::new();
        m.apply(
            SimTime::from_secs(1),
            &CurrentProfile::constant(
                MilliAmps::new(500.0),
                SimDuration::from_secs(2),
                Phase::D2dSend,
            ),
        );
        m
    }

    #[test]
    fn trace_grid_is_inclusive() {
        let monitor = PowerMonitor::paper_instrument();
        let trace = monitor.trace(&spike_meter(), SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(trace.len(), 11);
        assert_eq!(trace.first().unwrap().time, SimTime::ZERO);
        assert_eq!(trace.last().unwrap().time, SimTime::from_secs(1));
    }

    #[test]
    fn sampled_integral_matches_exact_for_grid_aligned_profiles() {
        let meter = spike_meter();
        let monitor = PowerMonitor::paper_instrument();
        let sampled = monitor.measure(&meter, SimTime::ZERO, SimTime::from_secs(5));
        let exact = meter.total();
        let err = (sampled.as_micro_amp_hours() - exact.as_micro_amp_hours()).abs();
        assert!(err < 1e-6, "sampled {sampled} vs exact {exact} (err {err})");
    }

    #[test]
    fn sampled_integral_close_for_unaligned_profiles() {
        let mut meter = EnergyMeter::new();
        meter.apply(
            SimTime::from_millis(123),
            &CurrentProfile::constant(
                MilliAmps::new(700.0),
                SimDuration::from_millis(1517),
                Phase::CellularActive,
            ),
        );
        let monitor = PowerMonitor::paper_instrument();
        let sampled = monitor.measure(&meter, SimTime::ZERO, SimTime::from_secs(3));
        let exact = meter.total();
        // The instrument may be off by up to two samples' worth of charge.
        let bound = MilliAmps::new(700.0)
            .over(SimDuration::from_millis(200))
            .as_micro_amp_hours();
        assert!(
            (sampled.as_micro_amp_hours() - exact.as_micro_amp_hours()).abs() <= bound,
            "sampled {sampled} too far from exact {exact}"
        );
    }

    #[test]
    fn trace_observes_spike_shape() {
        let monitor = PowerMonitor::paper_instrument();
        let trace = monitor.trace(&spike_meter(), SimTime::ZERO, SimTime::from_secs(4));
        let peak = trace
            .iter()
            .map(|s| s.current.as_milli_amps())
            .fold(0.0, f64::max);
        assert_eq!(peak, 500.0);
        assert_eq!(trace.first().unwrap().current, MilliAmps::ZERO);
        assert_eq!(trace.last().unwrap().current, MilliAmps::ZERO);
    }

    #[test]
    fn custom_interval() {
        let monitor = PowerMonitor::new(SimDuration::from_secs(1));
        let trace = monitor.trace(&spike_meter(), SimTime::ZERO, SimTime::from_secs(4));
        assert_eq!(trace.len(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        PowerMonitor::new(SimDuration::ZERO);
    }

    #[test]
    fn empty_trace_integrates_to_zero() {
        let monitor = PowerMonitor::paper_instrument();
        assert_eq!(monitor.integrate(&[]), MicroAmpHours::ZERO);
    }
}
