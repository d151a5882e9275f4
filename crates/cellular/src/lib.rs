//! The cellular substrate: RRC state machine, layer-3 signaling, power.
//!
//! The paper's target metric is **cellular signaling traffic**: every data
//! transfer over a WCDMA/LTE network first establishes a Radio Resource
//! Control (RRC) connection and later releases it, and each
//! establish/release cycle exchanges a burst of layer-3 control messages
//! with the base station (§II-B). Frequent small heartbeat transfers
//! therefore translate into disproportionate control-channel load — the
//! *signaling storm* — and into energy wasted in the radio's high-power
//! tail states (Fig. 7).
//!
//! This crate models exactly the pieces the evaluation measures:
//!
//! * [`RrcConfig`] — timers, currents, data rates and signaling message
//!   sequences; defaults are calibrated against the paper (see
//!   `RrcConfig::wcdma_galaxy_s4`).
//! * [`CellularRadio`] — a per-device lazy state machine
//!   (IDLE / CELL_DCH / CELL_FACH) that, for every transmission, yields
//!   the energy segments and the timestamped [`L3Message`]s the operation
//!   produces. This is the NetOptiMaster-equivalent capture point.
//! * [`SignalingCapture`] — the log of layer-3 messages (Fig. 14/15).
//! * [`BaseStation`] — aggregates signaling load across radios and exposes
//!   the congestion signal (paging failure) that motivates the work (§II-B).
//!
//! # Examples
//!
//! ```
//! use hbr_cellular::{CellularRadio, RrcConfig};
//! use hbr_sim::SimTime;
//!
//! let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
//! let outcome = radio.transmit(SimTime::ZERO, 74); // one WeChat heartbeat
//! assert_eq!(outcome.rrc_connections, 1);
//! assert!(outcome.activity.message_count() > 0);
//! ```

pub mod bs;
pub mod config;
pub mod l3;
pub mod radio;

pub use bs::BaseStation;
pub use config::RrcConfig;
pub use l3::{L3Message, SignalingCapture};
pub use radio::{
    CellularRadio, RadioActivity, RrcState, RrcTransitionRecord, StateOccupancy, TransmitOutcome,
};
