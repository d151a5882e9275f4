//! Cross-cell roaming tests: with `roam` on, devices really leave
//! their home cell — and the sharded crowd engine still produces
//! byte-identical artifacts at any shard count, because migration is
//! folded at the epoch barriers in deterministic cell order.

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::bench::{run_crowd, CrowdConfig};
use d2d_heartbeat::core::world::{DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use d2d_heartbeat::mobility::{Mobility, Position};
use d2d_heartbeat::sim::fault::FaultPlan;
use d2d_heartbeat::sim::SimDuration;
use proptest::prelude::*;

/// Everything that should determine a roaming run's output —
/// pointedly *excluding* the shard count.
#[derive(Debug, Clone)]
struct Fleet {
    seed: u64,
    phones: usize,
    relays: usize,
    area: f64,
}

fn arb_fleet() -> impl Strategy<Value = Fleet> {
    (
        any::<u64>(),
        16usize..40,
        2usize..6,
        // 150–320 m sides span a 2×2 to 4×4 cell grid: interior
        // boundaries exist, and the fleet's random-waypoint walkers
        // (10% of phones) cross them within the hour.
        150.0f64..320.0,
    )
        .prop_map(|(seed, phones, relays, area)| Fleet {
            seed,
            phones,
            relays,
            area,
        })
}

/// Runs one roaming fleet at a given shard count and returns every
/// observable artifact as bytes, plus the migration counters.
fn artifacts(fleet: &Fleet, shards: usize) -> (String, String, String, String, u64, u64) {
    let report = run_crowd(&CrowdConfig {
        phones: fleet.phones,
        relays: fleet.relays,
        hours: 1,
        area_side_m: fleet.area,
        seed: fleet.seed,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: FaultPlan::new(),
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans: true,
        shards: Some(shards),
        roam: true,
    });
    let events: String = report.events.iter().map(|r| r.to_jsonl() + "\n").collect();
    (
        report.render(),
        report.metrics.to_json(),
        events,
        report.spans.to_jsonl(),
        report.migrations,
        report.lte_handovers,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole contract under roaming: migration manifests are
    /// folded and applied at the barriers in cell order, so an 8-shard
    /// run is byte-identical to the unsharded run for every artifact —
    /// console render, metrics JSON, event stream and lifecycle spans —
    /// and the migration counters agree exactly.
    #[test]
    fn roaming_run_is_byte_identical_across_shards(fleet in arb_fleet()) {
        let baseline = artifacts(&fleet, 1);
        let sharded = artifacts(&fleet, 8);
        prop_assert_eq!(&baseline.0, &sharded.0, "render differs at 8 shards");
        prop_assert_eq!(&baseline.1, &sharded.1, "metrics differ at 8 shards");
        prop_assert_eq!(&baseline.2, &sharded.2, "events differ at 8 shards");
        prop_assert_eq!(&baseline.3, &sharded.3, "spans differ at 8 shards");
        prop_assert_eq!(baseline.4, sharded.4, "migration counts differ");
        prop_assert_eq!(baseline.5, sharded.5, "handover counts differ");
    }
}

/// A pinned roaming fleet actually roams — nonzero migrations, each
/// billed as LTE handover signaling at the source base station — and
/// the fleet-wide exactly-once ledger still balances: every generated
/// heartbeat is delivered, expired, dead or in flight, with no entry
/// lost or duplicated across a cell boundary, and the delivery SLO
/// holds under the churn.
#[test]
fn roaming_fleet_migrates_and_conserves_delivery() {
    let report = run_crowd(&CrowdConfig {
        phones: 120,
        relays: 24,
        hours: 2,
        area_side_m: 300.0,
        seed: 7,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: FaultPlan::new(),
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans: false,
        shards: Some(4),
        roam: true,
    });
    assert!(
        report.migrations > 0,
        "walkers cross 100 m cells in 2 h; expected migrations, got 0"
    );
    assert_eq!(
        report.migrations, report.lte_handovers,
        "every migration bills exactly one LTE handover burst"
    );
    let migrate_events = report
        .events
        .iter()
        .filter(|r| r.event.kind() == "migrate")
        .count() as u64;
    assert_eq!(
        migrate_events, report.migrations,
        "telemetry records one migrate event per migration"
    );
    let d = report.delivery.expect("reliable run reports delivery");
    assert_eq!(
        d.generated,
        d.delivered + d.expired + d.dropped_dead + d.in_flight,
        "ledger must balance under migration: {d:?}"
    );
    assert_eq!(d.false_dead_secs, 0.0, "no session may read as dead: {d:?}");
    // The SLO headline: delivered fraction of the heartbeats still
    // accountable at the horizon (relays' barely-buffered batches are
    // in flight, not lost).
    assert!(
        d.ratio() >= 0.995,
        "delivery SLO under roaming churn: {:.6} < 0.995 ({d:?})",
        d.ratio()
    );
    // The merged gauge is the fleet's ratio, not a sum of per-cell ones.
    assert_eq!(
        report.metrics.gauges.get("hbr_delivery_ratio"),
        Some(&d.ratio()),
        "merged delivery-ratio gauge"
    );
}

/// Pin of a *known, deliberate* limitation quantified in DESIGN.md
/// §4.11: D2D discovery is cell-local, so a UE standing 2 m from a
/// relay across a cell boundary cannot see it — the crowd partition
/// assigns them to different cell scenarios. The mirrored single-world
/// run (no partition) forwards over the same geometry, proving the
/// blindness is the partition's doing, not the radio model's. If halo
/// exchange ever lands, this pin flips and must be rewritten.
#[test]
fn boundary_straddling_discovery_is_blind() {
    let horizon = SimDuration::from_secs(3_600);
    let ue = || DeviceSpec {
        role: Role::Ue,
        apps: vec![AppProfile::wechat()],
        mobility: Mobility::stationary(Position::new(99.0, 50.0)),
        battery_mah: None,
    };
    let relay = || DeviceSpec {
        role: Role::Relay,
        apps: vec![AppProfile::wechat()],
        mobility: Mobility::stationary(Position::new(101.0, 50.0)),
        battery_mah: None,
    };

    // The partitioned view: the UE's home cell (x < 100) holds no
    // relay, exactly what the crowd engine's per-cell scenario sees.
    let mut partitioned = ScenarioConfig::new(horizon, 21);
    partitioned.mode = Mode::D2dFramework;
    partitioned.add_device(ue());
    let mut scenario = Scenario::new(partitioned);
    scenario.run_until(d2d_heartbeat::sim::SimTime::ZERO + horizon);
    let blind = scenario.complete();
    assert_eq!(
        blind.devices[0].forwards, 0,
        "cell-local discovery cannot see across the boundary"
    );
    assert!(
        blind.delivered >= 12,
        "every heartbeat rides direct cellular instead (got {})",
        blind.delivered
    );

    // The unpartitioned world: same geometry, one scenario — the 2 m
    // neighbour matches (15 m threshold) and heartbeats forward.
    let mut whole = ScenarioConfig::new(horizon, 21);
    whole.mode = Mode::D2dFramework;
    whole.add_device(relay());
    whole.add_device(ue());
    let mut scenario = Scenario::new(whole);
    scenario.run_until(d2d_heartbeat::sim::SimTime::ZERO + horizon);
    let sighted = scenario.complete();
    assert!(
        sighted.devices[1].forwards >= 1,
        "the same geometry forwards when no partition intervenes"
    );
}
