//! Energy accounting: the simulated Monsoon Power Monitor.
//!
//! The paper measures energy by sampling a phone's instantaneous current
//! every 0.1 s at a constant 3.7 V supply and integrating to µAh (§V-A,
//! Fig. 5). This crate reproduces that *measurement pipeline* so the rest
//! of the workspace can be evaluated the same way the paper's prototype
//! was:
//!
//! * [`MilliAmps`] / [`MicroAmpHours`] — the units the paper reports.
//! * [`Phase`] — which activity the current belongs to (D2D discovery,
//!   connection, forwarding, cellular tail, …), so we can regenerate the
//!   per-phase breakdowns of Table III/IV.
//! * [`CurrentProfile`] — a piecewise-constant current draw emitted by a
//!   radio operation (e.g. "spike to 620 mA for 0.4 s, then tail at
//!   430 mA for 7 s").
//! * [`EnergyMeter`] — one per device; accumulates profiles and answers
//!   exact integrals, per-phase totals and instantaneous-current queries.
//! * [`PowerMonitor`] — samples a meter on a fixed grid like the real
//!   instrument, producing the current traces of Figs. 6–7.
//! * [`Battery`] — finite charge for failure injection (a relay dying
//!   mid-session, §III-A).
//!
//! # Examples
//!
//! ```
//! use hbr_energy::{CurrentProfile, EnergyMeter, MilliAmps, Phase};
//! use hbr_sim::{SimDuration, SimTime};
//!
//! let mut meter = EnergyMeter::new();
//! let spike = CurrentProfile::constant(
//!     MilliAmps::new(600.0),
//!     SimDuration::from_millis(500),
//!     Phase::D2dSend,
//! );
//! meter.apply(SimTime::ZERO, &spike);
//!
//! // 600 mA for 0.5 s = 600 * 0.5/3600 * 1000 µAh ≈ 83.33 µAh
//! let total = meter.total().as_micro_amp_hours();
//! assert!((total - 83.333).abs() < 0.01);
//! ```

pub mod battery;
pub mod meter;
pub mod monitor;
pub mod phase;
pub mod profile;
pub mod units;

pub use battery::Battery;
pub use meter::EnergyMeter;
pub use monitor::{PowerMonitor, Sample};
pub use phase::{Phase, PhaseGroup};
pub use profile::{CurrentProfile, Segment};
pub use units::{MicroAmpHours, MilliAmps};
