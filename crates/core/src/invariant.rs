//! Runtime invariant checker: the paper's safety properties, asserted
//! after every engine step.
//!
//! The fallback design of §III-A only works if a handful of conservation
//! properties hold no matter what faults hit the system. This module
//! checks them *while a scenario runs* instead of trusting end-of-run
//! aggregates:
//!
//! * **Message conservation** — every heartbeat an alive device emitted
//!   is delivered or expired exactly once; none is accepted by an IM
//!   server past its expiration `T_k`, none silently vanishes.
//! * **Scheduler bound** — a relay's buffer never exceeds Algorithm 1's
//!   capacity `M`.
//! * **RRC legality** — consecutive observed radio states follow the
//!   §II-B state machine ([`RrcState::can_transition_to`]).
//! * **Energy sanity** — cumulative charge is finite, non-negative and
//!   monotone; batteries only ever lose charge.
//! * **No silent lapse** — a session never reads offline while its
//!   device is alive and the cellular fallback is available.
//!
//! The checker is pure observation: it draws no randomness and emits
//! nothing into reports, so enabling it cannot change a scenario's
//! byte-for-byte results. It is on by default in debug builds (i.e. for
//! every workspace test) and off in release experiment binaries unless
//! the `HBR_CHECK_INVARIANTS` env var enables it ("0" force-disables).
//! Violations panic, carrying the scenario's trace — its newest typed
//! events, formatted as JSONL only at the moment of the panic — so the
//! failing run explains itself.

use std::collections::{HashMap, HashSet};

use hbr_apps::{Heartbeat, MessageId};
use hbr_cellular::RrcState;
use hbr_sim::telemetry::EventRecord;
use hbr_sim::{snap_enum, snap_struct, DeviceId, SimTime};

/// What the message ledger knows about one emitted heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HbFate {
    /// Emitted, not yet at a server — must be in some buffer or pending
    /// set, or eventually delivered/expired.
    InFlight,
    /// Accepted by its IM server.
    Delivered,
    /// Reached its server too late and was rejected as expired.
    Expired,
    /// Physically lost when the device holding it ran out of battery —
    /// the one legal way a heartbeat disappears.
    DroppedDead,
}

/// One device's observable state after an engine step, assembled by the
/// scenario loop for [`InvariantChecker::check_device`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceProbe {
    /// The device under observation.
    pub device: DeviceId,
    /// `false` once its battery depleted (no fallback exists then).
    pub alive: bool,
    /// Heartbeats in its Algorithm 1 buffer (0 for UEs).
    pub buffered: usize,
    /// The scheduler capacity `M` (`usize::MAX` for UEs).
    pub capacity: usize,
    /// Cumulative charge drawn, µAh.
    pub energy_uah: f64,
    /// Remaining battery charge, µAh ([`None`] = mains powered).
    pub battery_remaining_uah: Option<f64>,
    /// The RRC state the radio reads at this instant.
    pub rrc: RrcState,
    /// `true` if every one of its sessions is online right now.
    pub online: bool,
    /// `true` while an injected fault legitimately suspends the
    /// no-silent-lapse invariant (cellular outage + recovery window).
    pub offline_exempt: bool,
}

#[derive(Debug, Clone, Copy)]
struct DeviceLast {
    energy_uah: f64,
    battery_remaining_uah: Option<f64>,
    rrc: RrcState,
}

/// The runtime checker. See the module docs for the invariant list.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    enabled: bool,
    ledger: HashMap<MessageId, HbFate>,
    last: Vec<Option<DeviceLast>>,
    /// Scenario provenance (seed, shard cell) stamped into every
    /// violation panic so a CI failure is reproducible from the log
    /// alone.
    context: Option<String>,
}

/// Resolves the default enablement: the `HBR_CHECK_INVARIANTS` env var
/// if set (anything but "0" enables), else on in debug builds and off in
/// release builds.
pub fn default_enabled() -> bool {
    match std::env::var("HBR_CHECK_INVARIANTS") {
        Ok(v) => v != "0",
        Err(_) => cfg!(debug_assertions),
    }
}

const EPS: f64 = 1e-9;

impl InvariantChecker {
    /// A checker; a disabled one ignores every call at near-zero cost.
    pub fn new(enabled: bool) -> Self {
        InvariantChecker {
            enabled,
            ledger: HashMap::new(),
            last: Vec::new(),
            context: None,
        }
    }

    /// `true` if violations are being checked.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps scenario provenance into every violation panic: the RNG
    /// seed and, for sharded crowd runs, the cell index whose derived
    /// seed reproduces the failing cell in isolation.
    pub fn set_context(&mut self, seed: u64, cell: Option<usize>) {
        self.context = Some(match cell {
            Some(cell) => format!("seed={seed} cell={cell}"),
            None => format!("seed={seed}"),
        });
    }

    /// Records a heartbeat emitted by an alive device.
    pub fn on_emitted(&mut self, hb: &Heartbeat) {
        if !self.enabled {
            return;
        }
        let prev = self.ledger.insert(hb.id, HbFate::InFlight);
        assert!(
            prev.is_none(),
            "invariant violation: duplicate message id {} emitted",
            hb.id
        );
    }

    /// Records a delivery attempt at an IM server: `accepted` is the
    /// server's verdict at instant `at`. `trace` is the scenario's
    /// trace, reported if the check fails (as in every check below).
    pub fn on_delivery(
        &mut self,
        hb: &Heartbeat,
        at: SimTime,
        accepted: bool,
        trace: &[EventRecord],
    ) {
        if !self.enabled {
            return;
        }
        let fate = self.ledger.get(&hb.id).copied();
        if accepted {
            if !hb.is_fresh(at) {
                fail(
                    self.context.as_deref(),
                    trace,
                    at,
                    &format!(
                        "{} accepted past its expiration T_k ({})",
                        hb.id, hb.expires_at
                    ),
                );
            }
            match fate {
                Some(HbFate::InFlight) | Some(HbFate::DroppedDead) => {
                    // DroppedDead → Delivered is legal: the source died
                    // after handing a copy to a relay that then flushed.
                    self.ledger.insert(hb.id, HbFate::Delivered);
                }
                Some(HbFate::Delivered) => fail(
                    self.context.as_deref(),
                    trace,
                    at,
                    &format!("{} delivered twice", hb.id),
                ),
                Some(HbFate::Expired) => fail(
                    self.context.as_deref(),
                    trace,
                    at,
                    &format!("{} accepted after the server expired it", hb.id),
                ),
                None => fail(
                    self.context.as_deref(),
                    trace,
                    at,
                    &format!("{} delivered but never tracked as emitted", hb.id),
                ),
            }
        } else {
            match fate {
                // A rejected duplicate of an already-terminal heartbeat
                // (relay flush + fallback race) is the dedup working.
                Some(HbFate::Delivered) | Some(HbFate::Expired) => {}
                Some(HbFate::InFlight) | Some(HbFate::DroppedDead) => {
                    if hb.is_fresh(at) {
                        fail(
                            self.context.as_deref(),
                            trace,
                            at,
                            &format!("fresh {} rejected by its server", hb.id),
                        );
                    }
                    self.ledger.insert(hb.id, HbFate::Expired);
                }
                None => fail(
                    self.context.as_deref(),
                    trace,
                    at,
                    &format!("{} rejected but never tracked as emitted", hb.id),
                ),
            }
        }
    }

    /// Records a heartbeat that physically died with a depleted device —
    /// the one legal disappearance.
    pub fn on_dropped_dead(&mut self, hb: &Heartbeat) {
        if !self.enabled {
            return;
        }
        if self.ledger.get(&hb.id) == Some(&HbFate::InFlight) {
            self.ledger.insert(hb.id, HbFate::DroppedDead);
        }
    }

    /// Checks one device's per-step invariants against its previous
    /// observation.
    pub fn check_device(
        &mut self,
        now: SimTime,
        index: usize,
        probe: &DeviceProbe,
        trace: &[EventRecord],
    ) {
        if !self.enabled {
            return;
        }
        if probe.buffered > probe.capacity {
            fail(
                self.context.as_deref(),
                trace,
                now,
                &format!(
                    "{} buffers {} heartbeats past capacity M = {}",
                    probe.device, probe.buffered, probe.capacity
                ),
            );
        }
        if !probe.energy_uah.is_finite() || probe.energy_uah < -EPS {
            fail(
                self.context.as_deref(),
                trace,
                now,
                &format!(
                    "{} energy is not finite/non-negative: {}",
                    probe.device, probe.energy_uah
                ),
            );
        }
        if let Some(remaining) = probe.battery_remaining_uah {
            if !remaining.is_finite() || remaining < -EPS {
                fail(
                    self.context.as_deref(),
                    trace,
                    now,
                    &format!("{} battery went negative: {remaining}", probe.device),
                );
            }
        }
        if probe.alive && !probe.offline_exempt && !probe.online {
            fail(
                self.context.as_deref(),
                trace,
                now,
                &format!(
                    "{} session reads offline while its cellular fallback exists",
                    probe.device
                ),
            );
        }
        if self.last.len() <= index {
            self.last.resize(index + 1, None);
        }
        if let Some(last) = self.last[index] {
            if probe.energy_uah + EPS < last.energy_uah {
                fail(
                    self.context.as_deref(),
                    trace,
                    now,
                    &format!(
                        "{} cumulative energy decreased: {} -> {}",
                        probe.device, last.energy_uah, probe.energy_uah
                    ),
                );
            }
            if let (Some(prev), Some(cur)) =
                (last.battery_remaining_uah, probe.battery_remaining_uah)
            {
                if cur > prev + EPS {
                    fail(
                        self.context.as_deref(),
                        trace,
                        now,
                        &format!("{} battery recharged itself: {prev} -> {cur}", probe.device),
                    );
                }
            }
            if !last.rrc.can_transition_to(probe.rrc) {
                fail(
                    self.context.as_deref(),
                    trace,
                    now,
                    &format!(
                        "{} illegal RRC transition {:?} -> {:?}",
                        probe.device, last.rrc, probe.rrc
                    ),
                );
            }
        }
        self.last[index] = Some(DeviceLast {
            energy_uah: probe.energy_uah,
            battery_remaining_uah: probe.battery_remaining_uah,
            rrc: probe.rrc,
        });
    }

    /// Ledger audit for the reliable-delivery layer: counts of
    /// (delivered, expired, dropped-dead, still-in-flight) fates across
    /// every emitted heartbeat. Only meaningful when the checker is
    /// enabled (all zeros otherwise). The exactly-once SLO is
    /// `delivered + expired + dropped_dead + in_flight == emitted`,
    /// which holds by construction of the fate map — the interesting
    /// assertion for callers is that under a finished chaos run
    /// `in_flight` matches the surviving buffers and nothing else.
    pub fn delivery_audit(&self) -> DeliveryAudit {
        let mut audit = DeliveryAudit::default();
        for fate in self.ledger.values() {
            match fate {
                HbFate::InFlight => audit.in_flight += 1,
                HbFate::Delivered => audit.delivered += 1,
                HbFate::Expired => audit.expired += 1,
                HbFate::DroppedDead => audit.dropped_dead += 1,
            }
        }
        audit
    }

    /// End-of-run conservation audit: every heartbeat still marked
    /// in-flight must sit in one of the surviving buffers (`surviving`
    /// is the union of scheduler buffers, own-pending sets, link queues,
    /// feedback trackers, the delivery ledger and the outage queue).
    /// Anything else vanished silently.
    pub fn on_finish(&mut self, surviving: &HashSet<MessageId>, trace: &[EventRecord]) {
        if !self.enabled {
            return;
        }
        for (id, fate) in &self.ledger {
            if *fate == HbFate::InFlight && !surviving.contains(id) {
                let audit = self.delivery_audit();
                fail(
                    self.context.as_deref(),
                    trace,
                    SimTime::MAX,
                    &format!(
                        "{id} was emitted but silently lost (no buffer holds it); \
                         audit: delivered={} expired={} dropped_dead={} in_flight={}",
                        audit.delivered, audit.expired, audit.dropped_dead, audit.in_flight
                    ),
                );
            }
        }
    }
}

/// Fate tallies from [`InvariantChecker::delivery_audit`]: every emitted
/// heartbeat counted under exactly one terminal (or in-flight) state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryAudit {
    /// Accepted by an IM server exactly once.
    pub delivered: u64,
    /// Rejected by the server past `T_k` (accounted, not lost).
    pub expired: u64,
    /// Died with a depleted device — the one legal disappearance.
    pub dropped_dead: u64,
    /// Still sitting in a buffer when the audit ran.
    pub in_flight: u64,
}

fn fail(run: Option<&str>, trace: &[EventRecord], at: SimTime, msg: &str) -> ! {
    let context = if trace.is_empty() {
        String::from("(no events traced: set trace_capacity for context)\n")
    } else {
        trace.iter().map(|r| r.to_jsonl() + "\n").collect()
    };
    let provenance = match run {
        Some(run) => format!(" [{run}]"),
        None => String::new(),
    };
    panic!("invariant violation at {at}{provenance}: {msg}\nrecent trace:\n{context}");
}

snap_enum!(HbFate "heartbeat fate" { 0 => InFlight, 1 => Delivered, 2 => Expired, 3 => DroppedDead });

snap_struct!(DeviceLast {
    energy_uah,
    battery_remaining_uah,
    rrc
});

snap_struct!(InvariantChecker {
    enabled,
    ledger,
    last,
    context
});

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_apps::AppId;
    use hbr_sim::SimDuration;

    fn hb(id_gen: &mut hbr_apps::MessageIdGen, created: u64) -> Heartbeat {
        let created_at = SimTime::from_secs(created);
        Heartbeat {
            id: id_gen.next_id(),
            app: AppId::new(1),
            source: DeviceId::new(0),
            seq: 0,
            size: 74,
            created_at,
            expires_at: created_at + SimDuration::from_secs(810),
        }
    }

    fn probe() -> DeviceProbe {
        DeviceProbe {
            device: DeviceId::new(0),
            alive: true,
            buffered: 0,
            capacity: 7,
            energy_uah: 0.0,
            battery_remaining_uah: None,
            rrc: RrcState::Idle,
            online: true,
            offline_exempt: false,
        }
    }

    #[test]
    fn clean_lifecycle_passes() {
        let mut c = InvariantChecker::new(true);
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        c.on_delivery(&m, SimTime::from_secs(10), true, &[]);
        // The fallback's duplicate is rejected by dedup: legal.
        c.on_delivery(&m, SimTime::from_secs(20), false, &[]);
        c.on_finish(&HashSet::new(), &[]);
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn double_acceptance_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        c.on_delivery(&m, SimTime::from_secs(10), true, &[]);
        c.on_delivery(&m, SimTime::from_secs(20), true, &[]);
    }

    #[test]
    #[should_panic(expected = "past its expiration")]
    fn late_acceptance_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        c.on_delivery(&m, SimTime::from_secs(2000), true, &[]);
    }

    #[test]
    #[should_panic(expected = "[seed=7 cell=3]")]
    fn conservation_panic_names_seed_and_cell() {
        let mut c = InvariantChecker::new(true);
        c.set_context(7, Some(3));
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        c.on_finish(&HashSet::new(), &[]);
    }

    #[test]
    #[should_panic(expected = "audit: delivered=0 expired=0 dropped_dead=0 in_flight=1")]
    fn conservation_panic_carries_audit_counts() {
        let mut c = InvariantChecker::new(true);
        c.set_context(11, None);
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        c.on_finish(&HashSet::new(), &[]);
    }

    #[test]
    #[should_panic(expected = "silently lost")]
    fn vanished_heartbeat_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        c.on_finish(&HashSet::new(), &[]);
    }

    #[test]
    fn in_flight_heartbeat_in_a_buffer_survives_finish() {
        let mut c = InvariantChecker::new(true);
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        let surviving: HashSet<MessageId> = [m.id].into_iter().collect();
        c.on_finish(&surviving, &[]);
    }

    #[test]
    fn delivery_audit_counts_each_fate_once() {
        let mut c = InvariantChecker::new(true);
        let mut ids = hbr_apps::MessageIdGen::new();
        let delivered = hb(&mut ids, 0);
        let expired = hb(&mut ids, 0);
        let in_flight = hb(&mut ids, 0);
        let dead = hb(&mut ids, 0);
        c.on_emitted(&delivered);
        c.on_emitted(&expired);
        c.on_emitted(&in_flight);
        c.on_emitted(&dead);
        c.on_delivery(&delivered, SimTime::from_secs(10), true, &[]);
        c.on_delivery(&expired, SimTime::from_secs(2000), false, &[]);
        c.on_dropped_dead(&dead);
        let audit = c.delivery_audit();
        assert_eq!(
            audit,
            DeliveryAudit {
                delivered: 1,
                expired: 1,
                dropped_dead: 1,
                in_flight: 1,
            }
        );
        assert_eq!(
            audit.delivered + audit.expired + audit.dropped_dead + audit.in_flight,
            4,
            "exactly-once accounting"
        );
    }

    #[test]
    fn dead_drop_then_relay_delivery_is_legal() {
        let mut c = InvariantChecker::new(true);
        let mut ids = hbr_apps::MessageIdGen::new();
        let m = hb(&mut ids, 0);
        c.on_emitted(&m);
        c.on_dropped_dead(&m);
        // The relay's copy outlived the dead source and flushed.
        c.on_delivery(&m, SimTime::from_secs(10), true, &[]);
        c.on_finish(&HashSet::new(), &[]);
    }

    #[test]
    #[should_panic(expected = "past capacity")]
    fn buffer_overflow_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let p = DeviceProbe {
            buffered: 8,
            capacity: 7,
            ..probe()
        };
        c.check_device(SimTime::ZERO, 0, &p, &[]);
    }

    #[test]
    #[should_panic(expected = "energy decreased")]
    fn energy_regression_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let p1 = DeviceProbe {
            energy_uah: 100.0,
            ..probe()
        };
        let p2 = DeviceProbe {
            energy_uah: 50.0,
            ..probe()
        };
        c.check_device(SimTime::ZERO, 0, &p1, &[]);
        c.check_device(SimTime::from_secs(1), 0, &p2, &[]);
    }

    #[test]
    #[should_panic(expected = "battery recharged")]
    fn battery_recharge_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let p1 = DeviceProbe {
            battery_remaining_uah: Some(10.0),
            ..probe()
        };
        let p2 = DeviceProbe {
            battery_remaining_uah: Some(20.0),
            ..probe()
        };
        c.check_device(SimTime::ZERO, 0, &p1, &[]);
        c.check_device(SimTime::from_secs(1), 0, &p2, &[]);
    }

    #[test]
    #[should_panic(expected = "illegal RRC transition")]
    fn idle_to_fach_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let p1 = DeviceProbe {
            rrc: RrcState::Idle,
            ..probe()
        };
        let p2 = DeviceProbe {
            rrc: RrcState::CellFach,
            ..probe()
        };
        c.check_device(SimTime::ZERO, 0, &p1, &[]);
        c.check_device(SimTime::from_secs(1), 0, &p2, &[]);
    }

    #[test]
    #[should_panic(expected = "offline while its cellular fallback exists")]
    fn silent_lapse_is_flagged() {
        let mut c = InvariantChecker::new(true);
        let p = DeviceProbe {
            online: false,
            ..probe()
        };
        c.check_device(SimTime::ZERO, 0, &p, &[]);
    }

    #[test]
    fn exempt_window_allows_offline_and_dead_devices_too() {
        let mut c = InvariantChecker::new(true);
        let outage = DeviceProbe {
            online: false,
            offline_exempt: true,
            ..probe()
        };
        c.check_device(SimTime::ZERO, 0, &outage, &[]);
        let dead = DeviceProbe {
            alive: false,
            online: false,
            ..probe()
        };
        c.check_device(SimTime::from_secs(1), 1, &dead, &[]);
    }

    #[test]
    fn disabled_checker_ignores_everything() {
        let mut c = InvariantChecker::new(false);
        assert!(!c.enabled());
        let p = DeviceProbe {
            buffered: 999,
            capacity: 1,
            online: false,
            ..probe()
        };
        c.check_device(SimTime::ZERO, 0, &p, &[]);
        c.on_finish(&HashSet::new(), &[]);
    }
}
