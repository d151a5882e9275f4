//! Device-to-device link models: Wi-Fi Direct, Bluetooth, LTE Direct.
//!
//! The paper's prototype uses **Wi-Fi Direct** (§IV-A) because Bluetooth's
//! ~10 m range is too short and LTE Direct is not deployed; this crate
//! models all three so the technique-choice trade-off can be explored as
//! an ablation. A D2D exchange has three billed phases — **discovery**,
//! **connection** (group-owner negotiation + link setup) and
//! **forwarding** (transfer) — whose per-phase charges are calibrated to
//! the paper's Table III (UE vs relay) and Table IV (per-message receive
//! cost), see [`TechProfile::wifi_direct`].
//!
//! Key physical behaviours reproduced here:
//!
//! * D2D transfers are short spikes (Fig. 6) rather than the cellular
//!   promotion-plus-tail plateau (Fig. 7) — no lingering tail states.
//! * Transfer energy grows with **communication distance** (Fig. 12:
//!   beyond some distance the D2D approach loses to cellular) and only
//!   marginally with **message size** (Fig. 13: flat for heartbeat-sized
//!   payloads).
//! * Links fail: the pair can drift out of range, and transfers have a
//!   distance-dependent loss probability — the triggers for the paper's
//!   feedback/fallback mechanism (§III-A).
//!
//! # Examples
//!
//! ```
//! use hbr_d2d::{D2dRole, TechProfile};
//! use hbr_sim::SimTime;
//!
//! let wifi = TechProfile::wifi_direct();
//! let scan = wifi.discovery(SimTime::ZERO, D2dRole::Initiator);
//! // Table III: UE discovery ≈ 132.24 µAh.
//! let uah: f64 = scan
//!     .segments
//!     .iter()
//!     .map(|(_, s)| s.charge().as_micro_amp_hours())
//!     .sum();
//! assert!((uah - 132.24).abs() < 0.5);
//! ```

pub mod group;
pub mod link;
pub mod tech;

pub use group::GoIntent;
pub use link::{D2dLink, LinkState, TransferOutcome};
pub use tech::{D2dActivity, D2dRole, D2dTechnology, TechProfile};
