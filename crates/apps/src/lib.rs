//! IM application models: heartbeat profiles, traffic mixes, presence.
//!
//! Heartbeats exist to keep an IM client "always online": the server arms
//! an expiration timer and the app must refresh it periodically (§II-A).
//! Everything the relaying framework needs to know about an app is its
//! heartbeat **period**, **size** and **expiration budget**; everything
//! the motivation tables need is how heartbeats mix with foreground
//! traffic. This crate provides both:
//!
//! * [`AppProfile`] — per-app constants with the paper's published values
//!   (WeChat 270 s / 74 B, QQ 300 s / 378 B, WhatsApp 240 s / 66 B, and
//!   the Table I heartbeat shares).
//! * [`Heartbeat`] / [`HeartbeatSchedule`] — the periodic messages with
//!   timer jitter.
//! * [`TrafficGenerator`] — heartbeats + Poisson foreground messages whose
//!   mix reproduces Table I.
//! * [`ImServer`] — the server-side expiration timers; lets experiments
//!   measure whether a scheduling policy ever lets presence lapse.
//!
//! # Examples
//!
//! ```
//! use hbr_apps::AppProfile;
//!
//! let wechat = AppProfile::wechat();
//! assert_eq!(wechat.heartbeat_period.as_secs(), 270);
//! assert_eq!(wechat.heartbeat_size, 74);
//! ```

pub mod generator;
pub mod message;
pub mod profile;
pub mod server;

pub use generator::{HeartbeatSchedule, TrafficEvent, TrafficGenerator};
pub use message::{Heartbeat, MessageId, MessageIdGen};
pub use profile::{AppId, AppProfile};
pub use server::{DeliveryOutcome, ImServer, Session};
