//! World-level conformance scenarios: the full event-driven engine
//! (mobility, discovery, link establishment, radios, faults) behind the
//! DAG facade, with faults injected *mid-run* against in-flight
//! protocol activity.
//!
//! Timing cheat-sheet: every WeChat device emits its first heartbeat at
//! exactly t = 270 s (the profile period), with an 810 s freshness
//! budget. A relay's aggregation period is anchored at its own
//! heartbeats, so a member's forward at ~275 s stays buffered at the
//! relay until ~540 s — a wide window for departures to race the
//! feedback machinery. Re-matching to a WiFi-Direct relay costs 3.4 s
//! of discovery plus 1.5 s of connection setup, which is what the
//! requeued retry (~5 s backoff) races.

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::core::world::{CellTopology, DeviceSpec, Mode, Role, ScenarioConfig};
use d2d_heartbeat::mobility::{Mobility, Position};
use d2d_heartbeat::sim::fault::FaultKind;
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};
use hbr_conform::{
    delivery_accounted, run_reproducible, ScenarioDag, WorldHarness, WorldStim, WorldView,
};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn at(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn device(role: Role, x: f64) -> DeviceSpec {
    device_with_apps(role, x, vec![AppProfile::wechat()])
}

fn device_with_apps(role: Role, x: f64, apps: Vec<AppProfile>) -> DeviceSpec {
    DeviceSpec {
        role,
        apps,
        mobility: Mobility::stationary(Position::new(x, 0.0)),
        battery_mah: None,
    }
}

fn world_config(seed: u64, duration_secs: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(secs(duration_secs), seed);
    config.mode = Mode::D2dFramework;
    config.reliable_delivery = true;
    config.telemetry = true;
    // Lifecycle spans are pure observation (a property the span
    // determinism suite proves), so the scenarios can assert on the
    // per-heartbeat cause chains without perturbing what they script.
    config.spans = true;
    config
}

fn fault(at: SimTime, kind: FaultKind) -> WorldStim {
    WorldStim::Fault { at, kind }
}

fn require_accounted(d: &mut ScenarioDag<WorldHarness>) {
    d.require("delivery-accounted", delivery_accounted);
}

/// PR 5 link-establishment race, interleaving 1 (the original
/// regression): the attached relay departs with *two* of the member's
/// heartbeats in its buffer (one per app). Both are requeued with
/// independently jittered ~5 s retries; the first retry re-matches the
/// replacement relay and starts the ~4.9 s discovery + connection
/// setup, and the second fires *inside* that establishment window — it
/// must queue behind the establishing link, not tear it down or
/// double-send. The redelivery must indict the departed relay
/// (handover), not the link.
#[test]
fn departure_requeue_races_link_establishment() {
    run_reproducible(|| {
        let mut config = world_config(11, 700);
        config.add_device(device(Role::Relay, 0.0)); // relay A, id 0
        config.add_device(device(Role::Relay, 10.0)); // relay B, id 1
        config.add_device(device_with_apps(
            Role::Ue,
            1.0,
            vec![AppProfile::wechat(), AppProfile::whatsapp()],
        )); // UE, id 2
        let mut d = ScenarioDag::new("departure-requeue-races-establishment");
        // Relay A's collection window is anchored at its own heartbeat
        // (270 s); by 485 s it holds the member's WeChat (270 s) and
        // second WhatsApp (480 s) heartbeats, one flush still ~55 s out.
        let warm = d.advance("two-buffered-at-relay-a", at(485));
        let forwarded = d.expect("forwarded-to-relay-a", |v: &WorldView| {
            if v.forwards >= 2 && v.retries == 0 {
                Ok(format!("{} forward(s), no retries yet", v.forwards))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        let depart = d.perturb(
            "relay-a-departs",
            fault(
                at(490),
                FaultKind::RelayDeparture {
                    device: DeviceId::new(0),
                    rejoin_after: None,
                },
            ),
        );
        let race = d.advance("retries-vs-link-setup", at(560));
        let handed_over = d.expect("one-handover-covers-both", |v: &WorldView| {
            // Both requeued retries ride ONE establishment to relay B:
            // the first re-match records the single handover and the
            // second retry queues behind the setting-up link. Tearing
            // the link down and re-matching (the reverted behaviour)
            // shows up as a second handover.
            if v.retries == 2 && v.handovers == 1 {
                Ok(String::from("2 retries, exactly 1 handover"))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        d.chain(&[warm, forwarded, depart, race, handed_over]);
        require_accounted(&mut d);
        d.require("spans-show-requeue-then-one-handover", |r| {
            // The per-heartbeat spans tell the same story the counters
            // do, with the cause attached: both buffered heartbeats were
            // requeued because their relay departed, and exactly one of
            // them carried the handover to the replacement.
            let requeued = r
                .spans
                .iter()
                .filter(|s| {
                    s.events()
                        .any(|e| e.kind == "requeued" && e.cause == Some("relay-departed"))
                })
                .count();
            let handovers = r
                .spans
                .iter()
                .flat_map(|s| s.events())
                .filter(|e| e.kind == "handover")
                .count();
            if requeued == 2 && handovers == 1 {
                Ok(String::from(
                    "2 spans requeued by the departure, 1 handover annotation",
                ))
            } else {
                Err(format!(
                    "{requeued} requeued span(s), {handovers} handover annotation(s)"
                ))
            }
        });
        d.require("delivered-at-least-once", |r| {
            let delivered = r.delivery.as_ref().map(|x| x.delivered).unwrap_or(0);
            if delivered >= 1 {
                Ok(format!("{delivered} delivered"))
            } else {
                Err(format!("delivery {:?}", r.delivery))
            }
        });
        (d, WorldHarness::new(config))
    })
    .assert_ok();
}

/// PR 5 link-establishment race, interleaving 2: the relay departs just
/// *before* the member's heartbeat fires, so the fresh emission (not a
/// retry) races the establishment of the link to the replacement — the
/// first-forward path through the same pending-until-ready queue.
#[test]
fn emission_races_link_establishment_to_replacement() {
    run_reproducible(|| {
        let mut config = world_config(12, 700);
        config.add_device(device(Role::Relay, 0.0)); // relay A, id 0
        config.add_device(device(Role::Relay, 10.0)); // relay B, id 1
        config.add_device(device(Role::Ue, 1.0)); // UE, id 2
        let mut d = ScenarioDag::new("emission-races-establishment");
        let depart = d.perturb(
            "relay-a-departs-early",
            fault(
                at(269),
                FaultKind::RelayDeparture {
                    device: DeviceId::new(0),
                    rejoin_after: None,
                },
            ),
        );
        let race = d.advance("emission-vs-link-setup", at(360));
        let forwarded = d.expect("forwarded-despite-churn", |v: &WorldView| {
            if v.forwards >= 1 {
                Ok(format!("{} forward(s) through the replacement", v.forwards))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        d.chain(&[depart, race, forwarded]);
        require_accounted(&mut d);
        d.require("no-relay-indicted", |r| {
            // The first forward simply matched the surviving relay; no
            // prior attempt failed, so no handover may be recorded.
            let handovers = r
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.event,
                        d2d_heartbeat::sim::telemetry::TelemetryEvent::Handover { .. }
                    )
                })
                .count();
            if handovers == 0 {
                Ok(String::from("0 handovers"))
            } else {
                Err(format!("{handovers} handover(s) recorded"))
            }
        });
        (d, WorldHarness::new(config))
    })
    .assert_ok();
}

/// A transfer failure (interference on the sender's link) must indict
/// the *link*, not the relay: retries back off on the same attachment
/// and, once exhausted, degrade to cellular — no handover is recorded
/// when no relay failed.
#[test]
fn transfer_failure_indicts_link_not_relay() {
    run_reproducible(|| {
        let mut config = world_config(13, 700);
        config.add_device(device(Role::Relay, 0.0)); // relay, id 0
        config.add_device(device(Role::Ue, 1.0)); // UE, id 1
        let mut d = ScenarioDag::new("link-indicted-not-relay");
        let degrade = d.perturb(
            "jam-ue-link",
            fault(
                at(1),
                FaultKind::LinkDegrade {
                    device: DeviceId::new(1),
                    extra_loss: 1.0,
                    duration: secs(600),
                },
            ),
        );
        let drain = d.advance("retries-then-fallback", at(400));
        let degraded = d.expect("fell-back-to-cellular", |v: &WorldView| {
            if v.retries >= 1 && v.fallbacks >= 1 && v.handovers == 0 {
                Ok(format!(
                    "{} retry(ies) then {} fallback(s), 0 handovers",
                    v.retries, v.fallbacks
                ))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        d.chain(&[degrade, drain, degraded]);
        require_accounted(&mut d);
        d.require("span-blames-the-link-not-the-relay", |r| {
            // The jammed heartbeat's span must carry the full causal
            // chain — transfer-failed (link-failed) then a fallback —
            // and no handover annotation, since no relay was indicted.
            let Some(span) = r.spans.iter().find(|s| {
                s.events()
                    .any(|e| e.kind == "transfer-failed" && e.cause == Some("link-failed"))
            }) else {
                return Err(String::from("no span recorded a link-failed transfer"));
            };
            if span.events().any(|e| e.kind == "handover") {
                Err(format!("span {} indicted a relay (handover)", span.id))
            } else if span.events().any(|e| e.kind == "fallback") {
                Ok(format!(
                    "span {} shows link-failed → retries → fallback, no handover",
                    span.id
                ))
            } else {
                Err(format!(
                    "span {} never fell back: {:?}",
                    span.id,
                    span.events().collect::<Vec<_>>()
                ))
            }
        });
        (d, WorldHarness::new(config))
    })
    .assert_ok();
}

/// A cellular outage queues direct-path heartbeats at the device; the
/// drain at outage end races each copy's expiry. A copy whose budget
/// survives the outage must be delivered on drain; the books must
/// balance either way.
#[test]
fn outage_drain_races_expiry() {
    run_reproducible(|| {
        let mut config = world_config(14, 900);
        // A lone UE: no relay in the cell, so every heartbeat takes the
        // direct cellular path — straight into the outage.
        config.add_device(device(Role::Ue, 0.0));
        let mut d = ScenarioDag::new("outage-drain-races-expiry");
        let outage = d.perturb(
            "uplink-outage",
            fault(
                at(260),
                FaultKind::CellularOutage {
                    duration: secs(300),
                },
            ),
        );
        let mid = d.advance("mid-outage", at(400));
        let queued = d.expect("heartbeat-queued-behind-outage", |v: &WorldView| {
            if v.outage_queued >= 1 {
                Ok(format!("{} queued", v.outage_queued))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        let drained = d.advance("post-drain", at(600));
        let empty = d.expect("queue-drained", |v: &WorldView| {
            // Drained copies go out as ordinary cellular sends and land
            // in `delivered`, not the fallback counter.
            if v.outage_queued == 0 && v.delivered >= 1 {
                Ok(format!("queue empty, {} delivered on drain", v.delivered))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        d.chain(&[outage, mid, queued, drained, empty]);
        require_accounted(&mut d);
        (d, WorldHarness::new(config))
    })
    .assert_ok();
}

/// Two departures of the same relay inside one epoch (it rejoins and
/// immediately departs again): the second retraction sweeps feedback
/// entries that are already retracted and must be a no-op — the
/// world-level face of `FeedbackTracker::retract`'s idempotency.
#[test]
fn double_relay_departure_same_epoch_is_survivable() {
    run_reproducible(|| {
        let mut config = world_config(15, 900);
        config.add_device(device(Role::Relay, 0.0)); // relay, id 0
        config.add_device(device(Role::Ue, 1.0)); // UE, id 1
        let mut d = ScenarioDag::new("double-departure-one-epoch");
        let warm = d.advance("first-heartbeat", at(290));
        let first = d.perturb(
            "depart-and-rejoin",
            fault(
                at(300),
                FaultKind::RelayDeparture {
                    device: DeviceId::new(0),
                    rejoin_after: Some(secs(20)),
                },
            ),
        );
        let second = d.perturb(
            "depart-again",
            fault(
                at(330),
                FaultKind::RelayDeparture {
                    device: DeviceId::new(0),
                    rejoin_after: None,
                },
            ),
        );
        let drain = d.advance("drain", at(700));
        let survived = d.expect("ue-recovered", |v: &WorldView| {
            if v.fallbacks + v.forwards >= 1 {
                Ok(format!(
                    "{} forward(s) + {} fallback(s) despite the churn",
                    v.forwards, v.fallbacks
                ))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        d.chain(&[warm, first, second, drain, survived]);
        require_accounted(&mut d);
        d.require("never-read-as-dead", |r| {
            let ue = &r.devices[1];
            if ue.offline_secs == 0.0 {
                Ok(String::from("UE presence gap 0 s"))
            } else {
                Err(format!("{} s offline", ue.offline_secs))
            }
        });
        (d, WorldHarness::new(config))
    })
    .assert_ok();
}

/// PR 9 migration quiescence: a UE walks across a cell boundary while
/// its heartbeat is still buffered at the relay it left behind. The
/// first epoch barrier catches the device mid-protocol (pending
/// feedback + an in-flight ledger entry) and must *defer* the
/// migration; the barrier after the relay's flush — and after the next
/// heartbeat's out-of-range retries have degraded to cellular — must
/// emigrate it exactly once, with the LTE handover signaling counted
/// and every ledger entry accounted. No message id crosses the
/// boundary.
#[test]
fn migration_defers_until_feedback_resolves() {
    run_reproducible(|| {
        let mut config = world_config(17, 800);
        // The harness drives cell 0 of a 2×2 grid over a 200 m field;
        // everything left of x = 100 is home, everything right is away.
        config.topology = Some(CellTopology {
            area_side_m: 200.0,
            grid: 2,
            cell: 0,
        });
        config.add_device(device(Role::Relay, 5.0)); // relay, id 0
        config.add_device(DeviceSpec {
            role: Role::Ue,
            apps: vec![AppProfile::wechat()],
            // Attached 2 m from the relay until 280 s, then a straight
            // walk to x = 190: across the x = 100 boundary at ~328 s
            // and past WiFi-Direct range (180 m) by ~373 s, so the
            // 540 s heartbeat's transfers fail and degrade to cellular.
            mobility: Mobility::waypoint_path(
                Position::new(3.0, 0.0),
                vec![(Position::new(190.0, 0.0), 2.0, 0.0)],
            )
            .started_at(at(280)),
            battery_mah: None,
        }); // UE, id 1
        let mut d = ScenarioDag::new("migration-defers-until-quiescent");
        // By 380 s the UE stands in cell 1, but its 270 s heartbeat is
        // still buffered at the relay (flush at 540 s): pending
        // feedback and an in-flight ledger entry hold it back.
        let early = d.perturb("barrier-mid-flight", WorldStim::Barrier { at: at(380) });
        let deferred = d.expect("migration-deferred", |v: &WorldView| {
            if v.migrations == 0 && v.forwards >= 1 {
                Ok(format!(
                    "{} forward(s) in flight, migration deferred",
                    v.forwards
                ))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        // The 540 s flush delivers the buffered heartbeat and returns
        // its feedback; the 540 s emission, out of D2D range, retries
        // and falls back to cellular. By 700 s the UE is quiescent.
        let late = d.perturb("barrier-after-flush", WorldStim::Barrier { at: at(700) });
        let migrated = d.expect("migrated-exactly-once", |v: &WorldView| {
            if v.migrations == 1 {
                Ok(String::from("1 migration at the post-flush barrier"))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        d.chain(&[early, deferred, late, migrated]);
        require_accounted(&mut d);
        d.require("handover-signaling-counted", |r| {
            if r.migrations == 1 && r.lte_handovers == 1 {
                Ok(String::from("1 migration, 1 LTE handover billed"))
            } else {
                Err(format!(
                    "{} migration(s), {} handover(s)",
                    r.migrations, r.lte_handovers
                ))
            }
        });
        d.require("nothing-crossed-unresolved", |r| {
            // Quiescence means the husk left nothing behind: every
            // ledger entry the UE originated resolved in this cell (the
            // departure gate requires it), nothing expired or died, and
            // the only permissible in-flight residue is the *resident*
            // relay's own 540 s heartbeat buffered until its 810 s
            // flush — past the 800 s horizon by construction.
            let del = r.delivery.as_ref().expect("reliable run");
            if del.delivered >= 3 && del.in_flight <= 1 && del.expired == 0 && del.dropped_dead == 0
            {
                Ok(format!(
                    "{} delivered, {} resident relay entry in flight",
                    del.delivered, del.in_flight
                ))
            } else {
                Err(format!("delivery {del:?}"))
            }
        });
        (d, WorldHarness::new(config))
    })
    .assert_ok();
}

/// Smoke check kept alongside the suite: the un-faulted two-device
/// world is quiet — no retries, no handovers, all heartbeats forwarded
/// and accounted. Anchors the adversarial scenarios above: whatever
/// they observe is caused by their scripted faults.
#[test]
fn unfaulted_world_is_quiet() {
    run_reproducible(|| {
        let mut config = world_config(16, 700);
        config.add_device(device(Role::Relay, 0.0));
        config.add_device(device(Role::Ue, 1.0));
        let mut d = ScenarioDag::new("unfaulted-quiet");
        let drain = d.advance("run", at(600));
        let quiet = d.expect("no-recovery-machinery", |v: &WorldView| {
            if v.forwards >= 1 && v.retries == 0 && v.handovers == 0 {
                Ok(format!("{} forward(s), nothing recovered", v.forwards))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        d.chain(&[drain, quiet]);
        require_accounted(&mut d);
        (d, WorldHarness::new(config))
    })
    .assert_ok();
}
