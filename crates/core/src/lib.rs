//! The D2D heartbeat relaying framework — the paper's contribution.
//!
//! Smartphones take one of two roles. **UEs** hand their IM heartbeats to
//! a nearby **relay** over an energy-efficient D2D link instead of waking
//! their own cellular radio; the relay aggregates the collected heartbeats
//! with its own and ships them to the base station over a *single* RRC
//! connection. One connection per relay period instead of one per
//! heartbeat per device is where both savings come from: fewer RRC
//! establish/release cycles (less layer-3 signaling for the operator) and
//! fewer promotion-plus-tail energy cycles (longer battery life for
//! users).
//!
//! The three prototype components of §III-B map to modules here:
//!
//! * The Message Monitor — each device's
//!   [`HeartbeatSchedule`](hbr_apps::HeartbeatSchedule)s, one per
//!   participating app, read its period, size and expiration from the
//!   app's [`AppProfile`](hbr_apps::AppProfile), and each
//!   [`Heartbeat`](hbr_apps::Heartbeat) carries its `size` and
//!   `expires_at` to the scheduler.
//! * [`D2dDetector`] — discovery, distance
//!   pre-judgment and relay matching (§III-C, §IV-C).
//! * [`MessageScheduler`] — Algorithm 1, the
//!   Nagle-inspired flush rule.
//!
//! Supporting mechanisms: [`FeedbackTracker`]
//! (the delivery-feedback / cellular-fallback path of §III-A),
//! [`RewardLedger`] (Karma-Go-style relay
//! incentives), and two harnesses — [`experiment`] for the paper's
//! controlled bench setups and [`world`] for full event-driven scenarios
//! with mobility and failures.
//!
//! # Quick start
//!
//! ```
//! use hbr_core::experiment::{ControlledExperiment, ExperimentConfig};
//!
//! // The paper's headline setup: one relay, one UE, 1 m apart,
//! // seven forwarded heartbeats.
//! let run = ControlledExperiment::new(ExperimentConfig {
//!     ue_count: 1,
//!     transmissions: 7,
//!     distance_m: 1.0,
//!     ..ExperimentConfig::default()
//! })
//! .run();
//!
//! let saved = run.system_saving();
//! assert!(saved > 0.2, "the D2D framework must beat per-device cellular");
//! ```

pub mod config;
pub mod delivery;
pub mod detector;
pub mod experiment;
pub mod feedback;
pub mod fleet;
pub mod incentive;
pub mod invariant;
pub mod scheduler;
pub mod world;

pub use config::FrameworkConfig;
pub use delivery::{BackoffPolicy, DeliveryLedger, DeliveryState, RetryReason};
pub use detector::{D2dDetector, MatchDecision, RelayAdvert};
pub use feedback::{FeedbackTracker, PendingForward};
pub use incentive::RewardLedger;
pub use invariant::{DeliveryAudit, DeviceProbe, InvariantChecker};
pub use scheduler::{FlushReason, MessageScheduler, ScheduleDecision, SchedulerStats};
