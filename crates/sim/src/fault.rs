//! Declarative, seeded fault plans for chaos scenarios.
//!
//! A [`FaultPlan`] is a time-ordered schedule of [`FaultEvent`]s the
//! scenario engine executes deterministically: every fault fires at its
//! configured instant, and any randomness a fault needs (e.g. windowed
//! payload loss) is drawn from a dedicated fault stream seeded via
//! [`fault_stream_seed`] — a splitmix64 derivation of the scenario seed —
//! so faulted runs stay byte-reproducible at any thread count and an
//! *empty* plan leaves every other RNG stream untouched.
//!
//! The taxonomy mirrors the failure modes the paper's fallback loop must
//! survive (§III-A): the aggregation point leaving or dying, the D2D
//! link degrading or dropping mid-transfer, discovery going dark, and —
//! beyond the paper — the cellular uplink itself blacking out.
//!
//! # Examples
//!
//! ```
//! use hbr_sim::fault::{FaultKind, FaultPlan};
//! use hbr_sim::{DeviceId, SimDuration, SimTime};
//!
//! let plan = FaultPlan::new()
//!     .with(
//!         SimTime::from_secs(1800),
//!         FaultKind::CellularOutage {
//!             duration: SimDuration::from_secs(120),
//!         },
//!     )
//!     .with(
//!         SimTime::from_secs(3600),
//!         FaultKind::RelayDeparture {
//!             device: DeviceId::new(0),
//!             rejoin_after: Some(SimDuration::from_secs(900)),
//!         },
//!     );
//! assert_eq!(plan.events().len(), 2);
//! ```

use crate::ids::DeviceId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::{snap_enum, snap_struct};

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device's D2D link dies and its D2D radio stays unusable for a
    /// window: any current attachment tears down and heartbeats take the
    /// direct cellular path until the window closes.
    LinkDrop {
        /// The affected device (a UE's uplink, or a relay — which drops
        /// every member's link at once).
        device: DeviceId,
        /// How long the device's D2D radio stays down.
        d2d_down_for: SimDuration,
    },
    /// Interference window: transfers on the device's link suffer this
    /// much extra loss probability on top of the distance-based model.
    LinkDegrade {
        /// The sender whose link degrades (applies to re-established
        /// links too while the window lasts).
        device: DeviceId,
        /// Additional loss probability, clamped to `[0, 1]`.
        extra_loss: f64,
        /// How long the interference lasts.
        duration: SimDuration,
    },
    /// A relay leaves the system (powered off, walked away): members are
    /// detached, its buffered batch is discarded (the sources' feedback
    /// timers rescue those heartbeats) and it stops advertising.
    RelayDeparture {
        /// The departing relay.
        device: DeviceId,
        /// If set, the relay returns to service after this long (churn);
        /// [`None`] means it never comes back.
        rejoin_after: Option<SimDuration>,
    },
    /// Discovery goes dark globally: no UE can (re)match a relay while
    /// the window lasts; unmatched heartbeats take the cellular path.
    DiscoveryBlackout {
        /// Blackout length.
        duration: SimDuration,
    },
    /// The cellular uplink is down for everyone: transmissions queue at
    /// the devices and drain when the outage ends.
    CellularOutage {
        /// Outage length.
        duration: SimDuration,
    },
    /// Windowed heartbeat payload loss on the device's D2D transfers:
    /// each forwarded payload is lost with `probability`, drawn from the
    /// dedicated fault stream (the link itself stays up — models
    /// payload-level corruption the link layer does not detect).
    PayloadLoss {
        /// The sender whose payloads are at risk.
        device: DeviceId,
        /// Per-transfer loss probability, clamped to `[0, 1]`.
        probability: f64,
        /// How long the loss window lasts.
        duration: SimDuration,
    },
    /// Boundary churn: the device's mobility is replaced by a shuttle
    /// that oscillates across the nearest cell-grid boundary — a
    /// migration stress pattern that makes the device cross cells at
    /// every epoch barrier of a roaming crowd run. The world layer
    /// resolves the boundary from its cell topology; the fault itself
    /// carries only the corridor geometry, so this crate stays below
    /// the mobility model in the dependency order. Never picked by
    /// [`FaultPlan::random`] (it is only meaningful under roaming).
    BoundaryChurn {
        /// The device sent shuttling.
        device: DeviceId,
        /// Half the corridor width, metres: the shuttle runs from
        /// `boundary - half_span_m` to `boundary + half_span_m`.
        half_span_m: f64,
        /// Shuttle speed, metres per second.
        speed_mps: f64,
    },
}

impl FaultKind {
    /// Short kebab-case label for metrics and event streams.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LinkDrop { .. } => "link-drop",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::RelayDeparture { .. } => "relay-departure",
            FaultKind::DiscoveryBlackout { .. } => "discovery-blackout",
            FaultKind::CellularOutage { .. } => "cellular-outage",
            FaultKind::PayloadLoss { .. } => "payload-loss",
            FaultKind::BoundaryChurn { .. } => "boundary-churn",
        }
    }

    /// The device the fault targets, if the kind has one (blackouts and
    /// outages are global).
    pub fn device(self) -> Option<DeviceId> {
        match self {
            FaultKind::LinkDrop { device, .. }
            | FaultKind::LinkDegrade { device, .. }
            | FaultKind::RelayDeparture { device, .. }
            | FaultKind::PayloadLoss { device, .. }
            | FaultKind::BoundaryChurn { device, .. } => Some(device),
            FaultKind::DiscoveryBlackout { .. } | FaultKind::CellularOutage { .. } => None,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, time-ordered schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults — the default for every scenario).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` if the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a fault, keeping the schedule sorted by firing time (stable:
    /// simultaneous faults keep insertion order).
    pub fn schedule(&mut self, at: SimTime, kind: FaultKind) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// Appends an event *without* the sorted insert, returning its
    /// stable index. Mid-run injection (`Scenario::inject_fault`)
    /// requires this: indices already handed out to scheduled
    /// fault-due events must keep pointing at the same entries, which
    /// [`schedule`](Self::schedule)'s sorted insert would shift.
    pub fn append(&mut self, at: SimTime, kind: FaultKind) -> usize {
        self.events.push(FaultEvent { at, kind });
        self.events.len() - 1
    }

    /// Builder-style [`schedule`](Self::schedule).
    #[must_use]
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.schedule(at, kind);
        self
    }

    /// The scheduled faults, sorted by firing time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Generates a random plan for stress runs: roughly one fault per
    /// `mean_interval` across `duration`, mixing every [`FaultKind`],
    /// targeting devices drawn from `devices`. Deterministic in `seed`.
    pub fn random(
        seed: u64,
        duration: SimDuration,
        mean_interval: SimDuration,
        devices: &[DeviceId],
    ) -> Self {
        let mut rng = SimRng::seed_from(fault_stream_seed(seed));
        let mut plan = FaultPlan::new();
        if devices.is_empty() {
            return plan;
        }
        let mut t = SimTime::ZERO + rng.exp_duration(mean_interval);
        let horizon = SimTime::ZERO + duration;
        while t < horizon {
            let device = *rng.pick(devices).expect("devices is non-empty");
            let window = SimDuration::from_secs(rng.range(30u64..300));
            let kind = match rng.range(0u8..6) {
                0 => FaultKind::LinkDrop {
                    device,
                    d2d_down_for: window,
                },
                1 => FaultKind::LinkDegrade {
                    device,
                    extra_loss: rng.unit(),
                    duration: window,
                },
                2 => FaultKind::RelayDeparture {
                    device,
                    rejoin_after: rng.chance(0.7).then_some(window),
                },
                3 => FaultKind::DiscoveryBlackout { duration: window },
                4 => FaultKind::CellularOutage { duration: window },
                _ => FaultKind::PayloadLoss {
                    device,
                    probability: rng.unit(),
                    duration: window,
                },
            };
            plan.schedule(t, kind);
            t += rng.exp_duration(mean_interval);
        }
        plan
    }
}

snap_enum!(FaultKind "fault kind" {
    0 => LinkDrop { device, d2d_down_for },
    1 => LinkDegrade { device, extra_loss, duration },
    2 => RelayDeparture { device, rejoin_after },
    3 => DiscoveryBlackout { duration },
    4 => CellularOutage { duration },
    5 => PayloadLoss { device, probability, duration },
    6 => BoundaryChurn { device, half_span_m, speed_mps },
});

snap_struct!(FaultEvent { at, kind });

// Events travel in their stored order — NOT re-sorted — because
// scheduled fault-due events address entries by index.
snap_struct!(FaultPlan { events });

/// Derives the seed of the dedicated fault RNG stream from the scenario
/// seed (splitmix64 finalizer over a tagged input). Keeping the fault
/// stream separate means injecting faults never perturbs the draws of
/// the mobility/jitter/discovery streams: a faulted run diverges from
/// its clean twin only through the faults themselves.
pub fn fault_stream_seed(scenario_seed: u64) -> u64 {
    let mut z = scenario_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xFAC1_7000_0000_0001);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of the dedicated *retry* RNG stream (backoff jitter
/// for the reliable-delivery layer) from the scenario seed. Same
/// splitmix64 finalizer shape as [`fault_stream_seed`] but a different
/// stream tag, so the two streams are decorrelated from each other and
/// from the scenario streams. The retry stream is only drawn from when a
/// retransmission is actually scheduled, so clean (fault-free) runs
/// consume zero draws and golden traces stay byte-identical.
pub fn retry_stream_seed(scenario_seed: u64) -> u64 {
    let mut z = scenario_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD2D0_ACC0_0000_0002);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_time_order() {
        let plan = FaultPlan::new()
            .with(
                SimTime::from_secs(100),
                FaultKind::DiscoveryBlackout {
                    duration: SimDuration::from_secs(10),
                },
            )
            .with(
                SimTime::from_secs(50),
                FaultKind::CellularOutage {
                    duration: SimDuration::from_secs(10),
                },
            )
            .with(
                SimTime::from_secs(100),
                FaultKind::LinkDrop {
                    device: DeviceId::new(1),
                    d2d_down_for: SimDuration::from_secs(5),
                },
            );
        let times: Vec<_> = plan.events().iter().map(|e| e.at.as_secs_f64()).collect();
        assert_eq!(times, vec![50.0, 100.0, 100.0]);
        // Stable: the blackout scheduled first stays ahead of the drop.
        assert!(matches!(
            plan.events()[1].kind,
            FaultKind::DiscoveryBlackout { .. }
        ));
    }

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::default().events().is_empty());
    }

    #[test]
    fn fault_stream_seed_differs_from_scenario_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_ne!(fault_stream_seed(seed), seed);
        }
        assert_ne!(fault_stream_seed(1), fault_stream_seed(2));
    }

    #[test]
    fn retry_stream_is_distinct_from_fault_and_scenario_streams() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_ne!(retry_stream_seed(seed), seed);
            assert_ne!(retry_stream_seed(seed), fault_stream_seed(seed));
        }
        assert_ne!(retry_stream_seed(1), retry_stream_seed(2));
    }

    #[test]
    fn random_plans_are_deterministic_and_bounded() {
        let devices = [DeviceId::new(0), DeviceId::new(1), DeviceId::new(2)];
        let duration = SimDuration::from_secs(4 * 3600);
        let mean = SimDuration::from_secs(1800);
        let a = FaultPlan::random(7, duration, mean, &devices);
        let b = FaultPlan::random(7, duration, mean, &devices);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "4 h at a 30 min mean should yield faults");
        let horizon = SimTime::ZERO + duration;
        assert!(a.events().iter().all(|e| e.at < horizon));
        let c = FaultPlan::random(8, duration, mean, &devices);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn random_plan_without_devices_is_empty() {
        assert!(FaultPlan::random(
            1,
            SimDuration::from_secs(3600),
            SimDuration::from_secs(60),
            &[]
        )
        .is_empty());
    }
}
