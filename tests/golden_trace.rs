//! Golden-trace regression: a fixed-seed faulted scenario is
//! byte-reproducible — identical rendered report and identical trace of
//! typed events — across runs *and* across sweep thread counts, pinned
//! to committed hashes. The scenario runs with telemetry off, so the
//! trace is the event log's bounded tail alone.
//!
//! If an intentional engine change shifts the trace, re-run with
//! `HBR_PRINT_GOLDEN=1 cargo test --test golden_trace -- --nocapture`
//! and update the constants below.

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::bench::run_sweep_with_threads;
use d2d_heartbeat::core::world::{DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use d2d_heartbeat::mobility::{Mobility, Position};
use d2d_heartbeat::sim::fault::FaultKind;
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};

/// FNV-1a over the rendered output — dependency-free and stable.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The committed fingerprint of the faulted sweep below. The golden
/// value covers every point's rendered report and full trace as JSONL.
const GOLDEN_HASH: u64 = 0x5bb4_36c2_eb8d_d4b8;

fn faulted_point(seed: u64) -> String {
    let mut config = ScenarioConfig::new(SimDuration::from_secs(2 * 3600), seed);
    config.mode = Mode::D2dFramework;
    config.trace_capacity = 50_000;
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
    let report = Scenario::new(config).run();
    let mut out = report.render();
    out.push('\n');
    for record in &report.trace {
        out.push_str(&record.to_jsonl());
        out.push('\n');
    }
    out
}

fn spec(role: Role, x: f64) -> DeviceSpec {
    DeviceSpec {
        role,
        apps: vec![AppProfile::wechat()],
        mobility: Mobility::stationary(Position::new(x, 0.0)),
        battery_mah: None,
    }
}

fn sweep(threads: usize) -> String {
    let points: Vec<u64> = vec![97, 98, 99, 100];
    run_sweep_with_threads(threads, 97, points, |&seed, _| faulted_point(seed)).join("\n===\n")
}

#[test]
fn faulted_sweep_is_byte_reproducible_across_thread_counts() {
    let single = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        single, parallel,
        "the faulted sweep depends on scheduling — determinism broken"
    );
    if std::env::var("HBR_PRINT_GOLDEN").is_ok() {
        println!("golden hash: {:#018x}", fnv1a(&single));
    }
    assert_eq!(
        fnv1a(&single),
        GOLDEN_HASH,
        "the faulted golden trace drifted; if the engine change is \
         intentional, re-run with HBR_PRINT_GOLDEN=1 and update GOLDEN_HASH"
    );
}

#[test]
fn repeated_runs_are_identical() {
    assert_eq!(faulted_point(97), faulted_point(97));
}
