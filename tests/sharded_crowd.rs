//! Property tests for the sharded crowd engine: however many worker
//! threads carry the cells, the merged fleet report is byte-identical
//! to the single-shard run — rendered console, metrics JSON and event
//! stream alike.

use d2d_heartbeat::bench::{run_crowd, CrowdConfig};
use d2d_heartbeat::core::world::Mode;
use d2d_heartbeat::sim::fault::{FaultKind, FaultPlan};
use d2d_heartbeat::sim::telemetry::Span;
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};
use proptest::prelude::*;

/// Everything that should determine the output — pointedly *excluding*
/// the shard count.
#[derive(Debug, Clone)]
struct Fleet {
    seed: u64,
    phones: usize,
    relays: usize,
    area: f64,
    mode: Mode,
    faulted: bool,
}

fn arb_fleet() -> impl Strategy<Value = Fleet> {
    (
        any::<u64>(),
        12usize..40,
        1usize..6,
        // 150–320 m sides span a 2×2 to 4×4 cell grid, so the partition
        // is non-trivial and multiple shards have real work.
        150.0f64..320.0,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(seed, phones, relays, area, d2d, faulted)| Fleet {
            seed,
            phones,
            relays,
            area,
            mode: if d2d {
                Mode::D2dFramework
            } else {
                Mode::OriginalCellular
            },
            faulted,
        })
}

fn faults_for(fleet: &Fleet) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if fleet.faulted {
        // One global fault (broadcast to every cell) and one targeted at
        // a device that always exists (routed to its owning cell).
        plan.schedule(
            SimTime::from_secs(600),
            FaultKind::CellularOutage {
                duration: SimDuration::from_secs(120),
            },
        );
        plan.schedule(
            SimTime::from_secs(900),
            FaultKind::LinkDrop {
                device: DeviceId::new((fleet.seed % fleet.phones as u64) as u32),
                d2d_down_for: SimDuration::from_secs(300),
            },
        );
    }
    plan
}

/// Runs one fleet at a given shard count and returns every observable
/// artifact as bytes.
fn artifacts(fleet: &Fleet, shards: usize) -> (String, String, String, String) {
    let report = run_crowd(&CrowdConfig {
        phones: fleet.phones,
        relays: fleet.relays,
        hours: 1,
        area_side_m: fleet.area,
        seed: fleet.seed,
        push_mins: 0,
        mode: fleet.mode,
        faults: faults_for(fleet),
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans: true,
        shards: Some(shards),
        roam: false,
    });
    let events: String = report.events.iter().map(|r| r.to_jsonl() + "\n").collect();
    (
        report.render(),
        report.metrics.to_json(),
        events,
        report.spans.to_jsonl(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole contract: an S-shard run is byte-identical to the
    /// unsharded run for every artifact a user can observe.
    #[test]
    fn sharded_run_is_byte_identical_to_unsharded(fleet in arb_fleet()) {
        let baseline = artifacts(&fleet, 1);
        for shards in [2usize, 3] {
            let sharded = artifacts(&fleet, shards);
            prop_assert_eq!(&baseline.0, &sharded.0, "render differs at {} shards", shards);
            prop_assert_eq!(&baseline.1, &sharded.1, "metrics differ at {} shards", shards);
            prop_assert_eq!(&baseline.2, &sharded.2, "events differ at {} shards", shards);
            prop_assert_eq!(&baseline.3, &sharded.3, "spans differ at {} shards", shards);
        }
    }

    /// Oversubscription is harmless: more shards than populated cells
    /// clamps down rather than deadlocking or changing the output.
    #[test]
    fn shard_count_beyond_cells_clamps(fleet in arb_fleet()) {
        let baseline = artifacts(&fleet, 1);
        let oversubscribed = artifacts(&fleet, 64);
        prop_assert_eq!(baseline, oversubscribed);
    }
}

/// Regression: the stock CLI crowd (40 phones, 8 relays, area 40 m,
/// seed 7) panicked with "transfer on a link that is not ready" — a
/// delivery retry fired while the relay link was still establishing,
/// the redelivery path detached and re-matched, and the orphaned
/// `LinkReady` event then forwarded over the new, unfinished link.
/// Retries now queue behind an establishing link to a healthy relay,
/// and stale `LinkReady` events are skipped.
#[test]
fn retry_during_link_establishment_does_not_panic() {
    let report = run_crowd(&CrowdConfig {
        phones: 40,
        relays: 8,
        hours: 1,
        area_side_m: 40.0,
        seed: 7,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: FaultPlan::new(),
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans: false,
        shards: Some(1),
        roam: false,
    });
    let delivery = report.delivery.expect("reliable run reports delivery");
    assert_eq!(
        delivery.generated,
        delivery.delivered + delivery.expired + delivery.dropped_dead + delivery.in_flight
    );
    assert_eq!(delivery.expired, 0);
    assert_eq!(delivery.dropped_dead, 0);
}

/// The crowd trace is the event stream: with a trace capacity that
/// holds every cell's whole log, the merged trace must equal the merged
/// events minus the fleet-level pulse records — same records, same
/// order, and the same fleet-global device ids, migrated devices
/// included.
#[test]
fn roaming_crowd_trace_is_the_event_stream_without_pulses() {
    let report = run_crowd(&CrowdConfig {
        phones: 300,
        relays: 60,
        hours: 1,
        area_side_m: 300.0,
        seed: 7,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: FaultPlan::new(),
        trace_capacity: 1_000_000,
        telemetry: true,
        reliable: true,
        spans: false,
        shards: Some(2),
        roam: true,
    });
    assert!(report.migrations > 0, "the crowd must actually roam");
    assert_eq!(report.trace_dropped, 0, "the capacity holds every record");
    let without_pulses: Vec<_> = report
        .events
        .iter()
        .filter(|r| r.event.kind() != "pulse")
        .cloned()
        .collect();
    assert!(!without_pulses.is_empty());
    assert!(
        without_pulses.len() < report.events.len(),
        "pulses recorded"
    );
    assert!(report.trace == without_pulses, "trace and events diverge");
}

/// A merged crowd report is already in artifact order, whatever the
/// shard count: events by time, spans by `(start_us, device, id)`.
#[test]
fn merged_crowd_records_are_in_artifact_order() {
    for shards in [1, 3] {
        let report = run_crowd(&CrowdConfig {
            phones: 300,
            relays: 60,
            hours: 1,
            area_side_m: 300.0,
            seed: 7,
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
        assert!(report.events.len() > 100 && report.spans.len() > 100);
        let events: Vec<_> = report.events.iter().collect();
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        let key = |s: &Span| (s.start_us, s.device, s.id);
        let spans: Vec<_> = report.spans.iter().collect();
        assert!(spans.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
    }
}
