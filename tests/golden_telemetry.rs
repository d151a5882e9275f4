//! Golden-telemetry regression: the metrics snapshot and event stream
//! of a fixed-seed faulted scenario are byte-reproducible — identical
//! JSON and JSONL — across runs *and* across sweep thread counts,
//! pinned to a committed hash, mirroring `golden_trace.rs`.
//!
//! Two more pins cover walker-dense crowd hours through the sharded
//! engine: dozens of moving devices sharing each cell's RNG stream,
//! once roaming between cells and once pinned to their home cells.
//!
//! If an intentional engine or telemetry change shifts the output,
//! re-run with `HBR_PRINT_GOLDEN=1 cargo test --test golden_telemetry
//! -- --nocapture` and update the constants below.

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::bench::{run_crowd, run_sweep_with_threads, CrowdConfig};
use d2d_heartbeat::core::world::{
    DeviceSpec, Mode, Role, Scenario, ScenarioConfig, ScenarioReport,
};
use d2d_heartbeat::mobility::{Mobility, Position};
use d2d_heartbeat::sim::fault::{FaultKind, FaultPlan};
use d2d_heartbeat::sim::TelemetryEvent;
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};

/// FNV-1a over the serialized output — dependency-free and stable.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The committed fingerprint of the telemetry sweep below: every
/// point's metrics JSON plus its full JSONL event stream.
const GOLDEN_TELEMETRY_HASH: u64 = 0xbe99_77e6_695b_f60e;

/// The committed fingerprint of the walker-dense crowd hour below: its
/// rendered report, delivery SLO, event stream and span stream.
const GOLDEN_CROWD_HASH: u64 = 0x28b8_8d4f_1396_9731;

/// The committed fingerprint of the same crowd hour's merged metrics:
/// the JSON snapshot followed by the Prometheus exposition. The fleet
/// pulse gauges and every event-implied counter pass through the
/// sharded merge, so this pins what the 1-vs-N-shard `cmp` gates cannot
/// see — a change that lands identically at every shard count.
const GOLDEN_CROWD_METRICS_HASH: u64 = 0x1b3d_937c_d30e_eed6;

/// The committed fingerprints of the pinned-home crowd hour below: its
/// render, SLO, events and spans, then its merged metrics.
const GOLDEN_HOME_CROWD_HASH: u64 = 0xfd43_87d5_b08f_7284;
const GOLDEN_HOME_CROWD_METRICS_HASH: u64 = 0x6da0_f3d2_0845_b8b3;

/// The same faulted scenario as `golden_trace.rs`, with telemetry on.
fn faulted_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(SimDuration::from_secs(2 * 3600), seed);
    config.mode = Mode::D2dFramework;
    config.telemetry = true;
    // Exercise every fault kind in one run.
    config.faults.schedule(
        SimTime::from_secs(700),
        FaultKind::LinkDegrade {
            device: DeviceId::new(1),
            extra_loss: 0.9,
            duration: SimDuration::from_secs(400),
        },
    );
    config.faults.schedule(
        SimTime::from_secs(1000),
        FaultKind::LinkDrop {
            device: DeviceId::new(2),
            d2d_down_for: SimDuration::from_secs(600),
        },
    );
    config.faults.schedule(
        SimTime::from_secs(1800),
        FaultKind::CellularOutage {
            duration: SimDuration::from_secs(450),
        },
    );
    config.faults.schedule(
        SimTime::from_secs(3000),
        FaultKind::DiscoveryBlackout {
            duration: SimDuration::from_secs(300),
        },
    );
    config.faults.schedule(
        SimTime::from_secs(4000),
        FaultKind::RelayDeparture {
            device: DeviceId::new(0),
            rejoin_after: Some(SimDuration::from_secs(900)),
        },
    );
    config.faults.schedule(
        SimTime::from_secs(6000),
        FaultKind::PayloadLoss {
            device: DeviceId::new(3),
            probability: 0.7,
            duration: SimDuration::from_secs(500),
        },
    );
    config.add_device(spec(Role::Relay, 0.0));
    for x in 1..=4 {
        config.add_device(spec(Role::Ue, x as f64));
    }
    config
}

fn spec(role: Role, x: f64) -> DeviceSpec {
    DeviceSpec {
        role,
        apps: vec![AppProfile::wechat()],
        mobility: Mobility::stationary(Position::new(x, 0.0)),
        battery_mah: None,
    }
}

fn faulted_report(seed: u64) -> ScenarioReport {
    Scenario::new(faulted_config(seed)).run()
}

/// One point's telemetry, serialized exactly as the CLI would write it.
fn telemetry_text(report: &ScenarioReport) -> String {
    let mut out = report.metrics.to_json();
    out.push('\n');
    for record in &report.events {
        out.push_str(&record.to_jsonl());
        out.push('\n');
    }
    out
}

fn sweep(threads: usize) -> String {
    let points: Vec<u64> = vec![97, 98, 99, 100];
    run_sweep_with_threads(threads, 97, points, |&seed, _| {
        telemetry_text(&faulted_report(seed))
    })
    .join("===\n")
}

#[test]
fn telemetry_is_byte_reproducible_across_thread_counts() {
    let single = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        single, parallel,
        "telemetry output depends on scheduling — determinism broken"
    );
    if std::env::var("HBR_PRINT_GOLDEN").is_ok() {
        println!("golden telemetry hash: {:#018x}", fnv1a(&single));
    }
    assert_eq!(
        fnv1a(&single),
        GOLDEN_TELEMETRY_HASH,
        "the golden telemetry drifted; if the engine change is \
         intentional, re-run with HBR_PRINT_GOLDEN=1 and update \
         GOLDEN_TELEMETRY_HASH"
    );
}

/// About 75 phones per 100 m cell (1 200 phones on 350 m, a 4×4 grid),
/// a tenth of them random-waypoint walkers: every match and forward
/// advances several walkers on one cell stream, and roaming moves
/// walkers between cells at the barriers.
fn walker_dense_crowd() -> (String, String) {
    crowd_artifacts(&CrowdConfig {
        phones: 1_200,
        relays: 120,
        hours: 1,
        area_side_m: 350.0,
        seed: 7,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: FaultPlan::new(),
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans: true,
        shards: Some(2),
        roam: true,
    })
}

/// About 100 phones per 100 m cell (1 600 phones on 400 m, a 4×4 grid)
/// with roaming off: every device stays in its home cell, but the
/// walkers wander the whole field, so discovery must drop home relays
/// that have walked (or been walked away from) out of range, and a
/// handover must skip the relay that failed it.
fn pinned_home_crowd() -> (String, String) {
    crowd_artifacts(&CrowdConfig {
        phones: 1_600,
        relays: 160,
        hours: 1,
        area_side_m: 400.0,
        seed: 7,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: FaultPlan::new(),
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans: true,
        shards: Some(2),
        roam: false,
    })
}

/// Runs a crowd hour and returns its rendered report, SLO, events and
/// spans, then its merged metrics JSON and Prometheus exposition.
fn crowd_artifacts(config: &CrowdConfig) -> (String, String) {
    let report = run_crowd(config);
    let mut out = report.render();
    out.push_str(&format!(
        "{:?} migrations={} lte_handovers={}\n",
        report.delivery, report.migrations, report.lte_handovers
    ));
    for record in &report.events {
        out.push_str(&record.to_jsonl());
        out.push('\n');
    }
    out.push_str(&report.spans.to_jsonl());
    let mut metrics = report.metrics.to_json();
    metrics.push_str(&report.metrics.to_prometheus());
    (out, metrics)
}

#[test]
fn walker_dense_crowd_hour_is_pinned() {
    let (text, metrics) = walker_dense_crowd();
    if std::env::var("HBR_PRINT_GOLDEN").is_ok() {
        println!("golden crowd hash: {:#018x}", fnv1a(&text));
        println!("golden crowd metrics hash: {:#018x}", fnv1a(&metrics));
    }
    assert_eq!(
        fnv1a(&text),
        GOLDEN_CROWD_HASH,
        "the walker-dense crowd hour drifted; if the engine change is \
         intentional, re-run with HBR_PRINT_GOLDEN=1 and update \
         GOLDEN_CROWD_HASH"
    );
    assert_eq!(
        fnv1a(&metrics),
        GOLDEN_CROWD_METRICS_HASH,
        "the walker-dense crowd hour's merged metrics drifted; if the \
         change is intentional, re-run with HBR_PRINT_GOLDEN=1 and update \
         GOLDEN_CROWD_METRICS_HASH"
    );
}

#[test]
fn pinned_home_walker_crowd_hour_is_pinned() {
    let (text, metrics) = pinned_home_crowd();
    if std::env::var("HBR_PRINT_GOLDEN").is_ok() {
        println!("golden home crowd hash: {:#018x}", fnv1a(&text));
        println!("golden home crowd metrics hash: {:#018x}", fnv1a(&metrics));
    }
    assert_eq!(
        fnv1a(&text),
        GOLDEN_HOME_CROWD_HASH,
        "the pinned-home crowd hour drifted; if the engine change is \
         intentional, re-run with HBR_PRINT_GOLDEN=1 and update \
         GOLDEN_HOME_CROWD_HASH"
    );
    assert_eq!(
        fnv1a(&metrics),
        GOLDEN_HOME_CROWD_METRICS_HASH,
        "the pinned-home crowd hour's merged metrics drifted; if the \
         change is intentional, re-run with HBR_PRINT_GOLDEN=1 and update \
         GOLDEN_HOME_CROWD_METRICS_HASH"
    );
}

#[test]
fn repeated_runs_emit_identical_telemetry() {
    assert_eq!(
        telemetry_text(&faulted_report(97)),
        telemetry_text(&faulted_report(97))
    );
}

#[test]
fn fault_injected_events_align_with_the_plan() {
    let config = faulted_config(97);
    let plan = config.faults.clone();
    let report = Scenario::new(config).run();

    let injected: Vec<(SimTime, usize, &'static str, Option<u32>)> = report
        .events
        .iter()
        .filter_map(|r| match r.event {
            TelemetryEvent::FaultInjected {
                index,
                kind,
                device,
            } => Some((r.time, index, kind, device)),
            _ => None,
        })
        .collect();

    // Every scheduled entry fired exactly once, at its configured time,
    // with the plan's own kind label and target device.
    assert_eq!(injected.len(), plan.events().len());
    for (i, scheduled) in plan.events().iter().enumerate() {
        let &(at, index, kind, device) = &injected[i];
        assert_eq!(index, i, "fault events must keep plan order");
        assert_eq!(at, scheduled.at);
        assert_eq!(kind, scheduled.kind.label());
        assert_eq!(device, scheduled.kind.device().map(|d| d.index()));
    }

    // The matching counters agree with the stream.
    let total: u64 = report
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("hbr_faults_injected_total"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(total, plan.events().len() as u64);
}
