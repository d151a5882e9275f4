//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation of the D2D heartbeat relaying framework
//! reproduction: every other crate (cellular radios, Wi-Fi Direct links,
//! energy accounting, the relaying framework itself) runs on top of the
//! event engine defined here.
//!
//! The kernel is deliberately small and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution virtual clock.
//! * [`Simulation`] — a priority event queue with stable FIFO ordering for
//!   simultaneous events. It has no cancellation: the world's guards
//!   (generation stamps, tracker lookups) neutralise stale timers when
//!   they fire.
//! * [`SimRng`] — a seedable random number generator wrapper so that a
//!   scenario seed reproduces the exact same trace, run after run.
//! * [`stats`] — tiny summary-statistics helpers shared by the reports.
//!
//! # Examples
//!
//! ```
//! use hbr_sim::{SimDuration, SimTime, Simulation};
//!
//! #[derive(Debug, PartialEq)]
//! enum Event {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_after(SimDuration::from_secs(1), Event::Ping);
//! sim.schedule_after(SimDuration::from_secs(2), Event::Pong);
//!
//! let mut seen = Vec::new();
//! while let Some(fired) = sim.pop() {
//!     seen.push(fired.event);
//! }
//! assert_eq!(seen, vec![Event::Ping, Event::Pong]);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```

pub mod engine;
pub mod fault;
pub mod ids;
pub mod inline;
pub mod json;
pub mod rng;
pub mod signal;
pub mod snapshot;
pub mod spans;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod vec_map;

pub use engine::{FiredEvent, Simulation};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use ids::DeviceId;
pub use inline::InlineVec;
pub use rng::SimRng;
pub use snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter, FORMAT_VERSION};
pub use spans::{Span, SpanEvent, SpanRecord, SpanRecorder, SpanRef};
pub use stats::Summary;
pub use telemetry::{
    EventLog, EventRecord, Histogram, MetricsRegistry, MetricsSnapshot, SortedRuns, Telemetry,
    TelemetryEvent,
};
pub use time::{SimDuration, SimTime};
pub use vec_map::VecMap;
