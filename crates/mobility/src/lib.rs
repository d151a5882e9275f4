//! Positions, mobility and radio-range estimation.
//!
//! The paper's framework cares about smartphone movement for exactly two
//! reasons:
//!
//! 1. **Relay matching** — a UE ranks discovered relays by the *relative
//!    distance* estimated from D2D discovery signal strength (§III-C), and
//!    prefers the nearest to reduce the chance of disconnection.
//! 2. **Session survival** — a D2D pair disconnects when the devices drift
//!    past the technology's communication range (§III-A, §V-C), forcing the
//!    UE onto the cellular fallback path.
//!
//! This crate provides the minimal substrate for both: 2-D [`Position`]s, a
//! family of [`Mobility`] models (static crowds for the stadium scenario,
//! random waypoint for ambient movement, linear walks for controlled range
//! sweeps), a log-distance [`rssi`] path-loss model with its inverse
//! estimator, and a [`Field`] that holds every device's track in a table
//! indexed by [`DeviceId`](hbr_sim::DeviceId), so a position is one array
//! read, and answers distance and neighbourhood queries.
//!
//! # Examples
//!
//! ```
//! use hbr_mobility::{Field, Mobility, Position};
//! use hbr_sim::{DeviceId, SimRng, SimTime};
//!
//! let mut field = Field::new();
//! field.insert(DeviceId::new(0), Mobility::stationary(Position::new(0.0, 0.0)));
//! field.insert(DeviceId::new(1), Mobility::stationary(Position::new(3.0, 4.0)));
//!
//! let mut rng = SimRng::seed_from(1);
//! field.advance_to(SimTime::from_secs(60), &mut rng);
//! let d = field.distance(DeviceId::new(0), DeviceId::new(1)).unwrap();
//! assert_eq!(d, 5.0);
//! ```

pub mod field;
pub mod model;
pub mod position;
pub mod rssi;

pub use field::Field;
pub use model::{Bounds, Mobility};
pub use position::Position;
pub use rssi::{PathLoss, Rssi};
