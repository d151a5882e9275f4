//! Failure-injection suite: the framework must degrade to the cellular
//! path without ever losing a session, whatever dies.
//!
//! The second half drives the declarative [`FaultPlan`] — one scenario
//! per fault kind, each asserting the UEs stay online (`offline_secs ==
//! 0`) and actually exercised the cellular fallback (`rrc_connections >
//! 0`).

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::core::world::{DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use d2d_heartbeat::mobility::{Mobility, Position};
use d2d_heartbeat::sim::fault::FaultKind;
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};

fn base_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(SimDuration::from_secs(3 * 3600), seed);
    config.mode = Mode::D2dFramework;
    config
}

fn device(role: Role, x: f64, battery_mah: Option<f64>) -> DeviceSpec {
    DeviceSpec {
        role,
        apps: vec![AppProfile::wechat()],
        mobility: Mobility::stationary(Position::new(x, 0.0)),
        battery_mah,
    }
}

#[test]
fn relay_battery_death_is_survivable() {
    let mut config = base_config(42);
    config.add_device(device(Role::Relay, 0.0, Some(2.0)));
    config.add_device(device(Role::Ue, 1.0, None));
    config.add_device(device(Role::Ue, 2.0, None));
    let report = Scenario::new(config).run();

    assert!(report.devices[0].battery_depleted, "the relay must die");
    for ue in &report.devices[1..] {
        assert_eq!(ue.offline_secs, 0.0, "{} went offline", ue.device);
        assert!(
            ue.rrc_connections > 0,
            "{} never reached the fallback path",
            ue.device
        );
    }
    assert_eq!(report.duplicates, 0);
}

#[test]
fn all_relays_dead_becomes_the_original_system() {
    let mut config = base_config(7);
    // A relay with a microscopic battery: dead after the first listen.
    config.add_device(device(Role::Relay, 0.0, Some(0.2)));
    config.add_device(device(Role::Ue, 1.0, None));
    let report = Scenario::new(config).run();
    let ue = &report.devices[1];
    assert_eq!(ue.offline_secs, 0.0);
    // Essentially every heartbeat travelled over the UE's own radio.
    assert!(
        ue.rrc_connections as f64 >= 0.8 * (ue.forwards + ue.fallbacks).max(1) as f64,
        "rrc {} vs forwards {} fallbacks {}",
        ue.rrc_connections,
        ue.forwards,
        ue.fallbacks
    );
}

#[test]
fn ue_walking_out_of_range_mid_session_recovers() {
    let mut config = base_config(3);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(DeviceSpec {
        role: Role::Ue,
        apps: vec![AppProfile::wechat()],
        // Sprints away: out of Wi-Fi Direct range within two periods.
        mobility: Mobility::linear(Position::new(1.0, 0.0), (1.0, 0.0)),
        battery_mah: None,
    });
    let report = Scenario::new(config).run();
    let ue = &report.devices[1];
    assert_eq!(ue.offline_secs, 0.0);
    assert_eq!(report.rejected_expired, 0);
    assert!(ue.rrc_connections > 0, "cellular fallback engaged");
}

#[test]
fn overloaded_relay_rejections_are_rescued() {
    let mut config = base_config(11);
    config.framework.relay_capacity = 2; // tiny M with five UEs
    config.add_device(device(Role::Relay, 0.0, None));
    for x in 1..=5 {
        config.add_device(device(Role::Ue, x as f64, None));
    }
    let report = Scenario::new(config).run();
    let total_fallbacks: u64 = report.devices[1..].iter().map(|d| d.fallbacks).sum();
    assert!(total_fallbacks > 0, "capacity pressure must reject someone");
    assert_eq!(report.offline_secs, 0.0);
    assert_eq!(report.rejected_expired, 0);
    // The relay never buffers beyond M per period: collected ≤ 2 per
    // flush means its rewards track its (bounded) collections.
    assert!(report.devices[0].forwards > 0);
}

#[test]
fn lossy_link_at_range_edge_still_converges() {
    let mut config = base_config(5);
    // 160 m: inside Wi-Fi Direct range (180 m) but with elevated loss.
    // Raise the match threshold so the detector accepts the distance.
    config.framework.max_match_distance_m = 200.0;
    config.framework.energy_prejudgment = false;
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 160.0, None));
    let report = Scenario::new(config).run();
    let ue = &report.devices[1];
    assert_eq!(ue.offline_secs, 0.0, "losses must never break presence");
    assert_eq!(report.rejected_expired, 0);
    assert!(
        ue.fallbacks > 0 || ue.forwards > 0,
        "the UE must have tried something"
    );
}

/// UEs stayed present and the fault actually pushed traffic onto the
/// cellular path: zero offline seconds, zero expirations, and at least
/// one RRC connection on each UE's own radio.
fn assert_degraded_to_cellular(report: &d2d_heartbeat::core::world::ScenarioReport) {
    assert_eq!(
        report.rejected_expired, 0,
        "a heartbeat expired undelivered"
    );
    for ue in report.devices.iter().filter(|d| d.role == Role::Ue) {
        assert_eq!(ue.offline_secs, 0.0, "{} went offline", ue.device);
        assert!(
            ue.rrc_connections > 0,
            "{} never reached the cellular fallback",
            ue.device
        );
    }
}

#[test]
fn link_drop_mid_transfer_degrades_to_cellular() {
    let mut config = base_config(21);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.add_device(device(Role::Ue, 2.0, None));
    // The first UE's D2D radio dies for 20 minutes mid-scenario; its
    // heartbeats must take the direct path until the window closes.
    config.faults.schedule(
        SimTime::from_secs(1000),
        FaultKind::LinkDrop {
            device: DeviceId::new(1),
            d2d_down_for: SimDuration::from_secs(1200),
        },
    );
    let report = Scenario::new(config).run();
    assert_degraded_to_cellular(&report);
    assert_eq!(report.duplicates, 0);
    // After the window the UE re-matches and forwards again.
    assert!(report.devices[1].forwards > 0, "never returned to D2D");
}

#[test]
fn degraded_link_is_rescued_by_feedback() {
    let mut config = base_config(22);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    // Total interference on the UE's link for 20 minutes: every D2D
    // transfer in the window fails outright.
    config.faults.schedule(
        SimTime::from_secs(1000),
        FaultKind::LinkDegrade {
            device: DeviceId::new(1),
            extra_loss: 1.0,
            duration: SimDuration::from_secs(1200),
        },
    );
    let report = Scenario::new(config).run();
    assert_degraded_to_cellular(&report);
}

#[test]
fn payload_loss_in_transit_is_rescued_by_feedback() {
    let mut config = base_config(23);
    config.telemetry = true;
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    // The transfer itself succeeds but the payload is corrupt: the UE
    // believes it forwarded, so only the feedback timeout can rescue it.
    config.faults.schedule(
        SimTime::from_secs(1000),
        FaultKind::PayloadLoss {
            device: DeviceId::new(1),
            probability: 1.0,
            duration: SimDuration::from_secs(1200),
        },
    );
    let report = Scenario::new(config).run();
    assert_degraded_to_cellular(&report);
    assert!(
        report.devices[1].fallbacks > 0,
        "lost payloads must surface as feedback fallbacks"
    );
    // Legacy delivery re-sends a timed-out forward over cellular once,
    // and the feedback timeout is the only cause that rescues it: each
    // rescue is one fallback in the report and one in the metric.
    let ue_fallbacks: u64 = report.devices[1..].iter().map(|d| d.fallbacks).sum();
    let timeouts = report
        .metrics
        .counter("hbr_fallback_total{cause=\"feedback-timeout\"}");
    assert_eq!(ue_fallbacks, timeouts, "each rescue counts once");
}

#[test]
fn relay_departure_degrades_to_cellular() {
    let mut config = base_config(24);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.add_device(device(Role::Ue, 2.0, None));
    // The relay walks away half an hour in and never returns; both UEs
    // live on their own radios from then on.
    config.faults.schedule(
        SimTime::from_secs(1800),
        FaultKind::RelayDeparture {
            device: DeviceId::new(0),
            rejoin_after: None,
        },
    );
    let report = Scenario::new(config).run();
    assert_degraded_to_cellular(&report);
    // The departed relay keeps its own session alive over cellular too.
    assert_eq!(report.devices[0].offline_secs, 0.0);
}

#[test]
fn discovery_blackout_forces_the_direct_path() {
    let mut config = base_config(25);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    // Discovery is dark from the start: no UE can match a relay for the
    // first 15 minutes, so early heartbeats must go direct. Matching
    // resumes once the blackout lifts.
    config.faults.schedule(
        SimTime::ZERO,
        FaultKind::DiscoveryBlackout {
            duration: SimDuration::from_secs(900),
        },
    );
    let report = Scenario::new(config).run();
    assert_degraded_to_cellular(&report);
    assert!(
        report.devices[1].forwards > 0,
        "matching never resumed after the blackout"
    );
}

#[test]
fn cellular_outage_queues_and_drains_without_session_loss() {
    let mut config = base_config(26);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.add_device(device(Role::Ue, 2.0, None));
    // 450 s outage: longer than the 300 s feedback timeout (so UEs do
    // fall back mid-outage and the queue is exercised) but far shorter
    // than the 810 s expiration (so nothing goes stale). Queued copies
    // may race the relay's feedback, so duplicates are legal here.
    config.faults.schedule(
        SimTime::from_secs(1800),
        FaultKind::CellularOutage {
            duration: SimDuration::from_secs(450),
        },
    );
    let report = Scenario::new(config).run();
    assert_degraded_to_cellular(&report);
    assert!(report.delivered > 0);
}

/// A faulted config with the reliable-delivery ledger and telemetry
/// registry on, so each fault kind can be pinned to the *labelled*
/// counter it must move — not just the coarse `offline == 0 && rrc > 0`
/// signal the legacy tests check.
fn reliable_config(seed: u64) -> ScenarioConfig {
    let mut config = base_config(seed);
    config.reliable_delivery = true;
    config.telemetry = true;
    config
}

/// The exactly-once ledger identity every faulted run must satisfy.
fn assert_delivery_accounted(report: &d2d_heartbeat::core::world::ScenarioReport) {
    let d = report.delivery.as_ref().expect("reliable run");
    assert_eq!(
        d.delivered + d.expired + d.dropped_dead + d.in_flight,
        d.generated,
        "ledger accounting must balance: {d:?}"
    );
    assert_eq!(d.false_dead_secs, 0.0, "no live client may look dead");
}

#[test]
fn blackout_fallbacks_carry_the_blackout_cause_label() {
    let mut config = reliable_config(31);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.faults.schedule(
        SimTime::ZERO,
        FaultKind::DiscoveryBlackout {
            duration: SimDuration::from_secs(900),
        },
    );
    let report = Scenario::new(config).run();
    assert!(
        report
            .metrics
            .counter("hbr_fallback_total{cause=\"blackout\"}")
            > 0,
        "blackout fallbacks must be labelled with their cause"
    );
    assert_delivery_accounted(&report);
}

#[test]
fn link_drop_fallbacks_carry_the_d2d_down_cause_label() {
    let mut config = reliable_config(32);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.faults.schedule(
        SimTime::from_secs(1000),
        FaultKind::LinkDrop {
            device: DeviceId::new(1),
            d2d_down_for: SimDuration::from_secs(1200),
        },
    );
    let report = Scenario::new(config).run();
    assert!(
        report
            .metrics
            .counter("hbr_fallback_total{cause=\"d2d-down\"}")
            > 0,
        "a dropped D2D link must surface as d2d-down fallbacks"
    );
    assert_eq!(report.duplicates, 0);
    assert_delivery_accounted(&report);
}

#[test]
fn degraded_link_retries_are_counted_as_transfer_failures() {
    let mut config = reliable_config(33);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.faults.schedule(
        SimTime::from_secs(1000),
        FaultKind::LinkDegrade {
            device: DeviceId::new(1),
            extra_loss: 1.0,
            duration: SimDuration::from_secs(1200),
        },
    );
    let report = Scenario::new(config).run();
    assert!(
        report
            .metrics
            .counter("hbr_delivery_retry_total{reason=\"transfer-failed\"}")
            > 0,
        "failed transfers must schedule labelled D2D retries"
    );
    let d = report.delivery.as_ref().unwrap();
    assert!(d.retries > 0, "the ledger must count the retries");
    assert_eq!(report.duplicates, 0);
    assert_delivery_accounted(&report);
}

#[test]
fn payload_loss_retries_are_counted_as_feedback_timeouts() {
    let mut config = reliable_config(34);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.faults.schedule(
        SimTime::from_secs(1000),
        FaultKind::PayloadLoss {
            device: DeviceId::new(1),
            probability: 1.0,
            duration: SimDuration::from_secs(1200),
        },
    );
    let report = Scenario::new(config).run();
    assert!(
        report
            .metrics
            .counter("hbr_delivery_retry_total{reason=\"feedback-timeout\"}")
            > 0,
        "silently lost payloads must surface as feedback-timeout retries"
    );
    assert_eq!(report.duplicates, 0);
    assert_delivery_accounted(&report);
}

#[test]
fn relay_departure_requeues_are_counted_and_labelled() {
    let mut config = reliable_config(35);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, None));
    config.add_device(device(Role::Ue, 2.0, None));
    // Several departure/rejoin cycles at varying phases of the 270 s
    // heartbeat period so at least one catches a buffered batch.
    for at in [1700u64, 2905, 4110, 5315] {
        config.faults.schedule(
            SimTime::from_secs(at),
            FaultKind::RelayDeparture {
                device: DeviceId::new(0),
                rejoin_after: Some(SimDuration::from_secs(400)),
            },
        );
    }
    let report = Scenario::new(config).run();
    assert!(
        report
            .metrics
            .counter("hbr_delivery_retry_total{reason=\"relay-departed\"}")
            > 0,
        "a departing relay's batch must be re-queued as labelled retries"
    );
    let d = report.delivery.as_ref().unwrap();
    assert!(d.requeued > 0, "the ledger must count the re-queued batch");
    assert_eq!(report.duplicates, 0);
    assert_delivery_accounted(&report);
}

#[test]
fn dead_ue_simply_goes_silent() {
    let mut config = base_config(13);
    config.add_device(device(Role::Relay, 0.0, None));
    config.add_device(device(Role::Ue, 1.0, Some(0.5)));
    config.add_device(device(Role::Ue, 2.0, None));
    let report = Scenario::new(config).run();
    let dead_ue = &report.devices[1];
    assert!(dead_ue.battery_depleted);
    assert!(dead_ue.offline_secs > 0.0, "a dead phone is offline");
    // The healthy UE is unaffected.
    assert_eq!(report.devices[2].offline_secs, 0.0);
    assert_eq!(report.duplicates, 0);
}
