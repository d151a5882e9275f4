//! Snapshot-format-version gate: the bytes of two pinned snapshots are
//! hashed and pinned together with [`FORMAT_VERSION`] — a crowd
//! checkpoint, and a single scenario built to reach every record
//! variant the crowd one never writes. Any change to the wire format —
//! a new field, a reordered section, a different width — changes a
//! hash and fails this test, forcing the author to bump
//! `FORMAT_VERSION` in `crates/sim/src/snapshot.rs` *and* re-pin here
//! in the same change. A format change that ships without a version
//! bump would make old checkpoints load as garbage instead of failing
//! with `SnapshotError::BadVersion`; this test is what makes that
//! impossible to do silently.

use std::fs;

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::bench::{
    checkpoint_file, run_crowd_controlled, CrowdConfig, RunControls, EPOCHS,
};
use d2d_heartbeat::core::world::{CellTopology, DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use d2d_heartbeat::mobility::{Bounds, Mobility, Position};
use d2d_heartbeat::sim::fault::{FaultKind, FaultPlan};
use d2d_heartbeat::sim::snapshot::{CROWD_MAGIC, FORMAT_VERSION, SCENARIO_MAGIC};
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A pinned scenario exercising every serialized subsystem: faults
/// (open windows), roaming (topology + migration counters), telemetry,
/// spans and the reliable-delivery ledger.
fn pinned_config() -> CrowdConfig {
    let mut faults = FaultPlan::new();
    faults.schedule(
        SimTime::from_secs(600),
        FaultKind::CellularOutage {
            duration: SimDuration::from_secs(120),
        },
    );
    faults.schedule(
        SimTime::from_secs(900),
        FaultKind::LinkDrop {
            device: DeviceId::new(3),
            d2d_down_for: SimDuration::from_secs(300),
        },
    );
    CrowdConfig {
        phones: 24,
        relays: 4,
        hours: 1,
        area_side_m: 220.0,
        seed: 2017,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults,
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans: true,
        shards: Some(2),
        roam: true,
    }
}

#[test]
fn checkpoint_format_is_pinned_to_the_declared_version() {
    // The invariant checker's serialized ledger is part of the bytes,
    // and its *default* enablement differs between debug and release
    // builds. Pin it on so the hash below is build-independent. This
    // is the only test here that reads the env var (the scenario pin
    // sets `check_invariants` in its config), so setting it is safe.
    std::env::set_var("HBR_CHECK_INVARIANTS", "1");
    let dir = std::env::temp_dir().join(format!("hbr-fmt-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");

    let outcome = run_crowd_controlled(
        &pinned_config(),
        &RunControls {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: EPOCHS,
            ..RunControls::default()
        },
    );
    assert_eq!(outcome.epochs_done, EPOCHS);
    let bytes = fs::read(checkpoint_file(&dir, EPOCHS)).expect("read final checkpoint");
    let _ = fs::remove_dir_all(&dir);

    // Header invariants: magic then little-endian format version.
    assert_eq!(&bytes[..8], &CROWD_MAGIC);
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(version, FORMAT_VERSION);

    // The (version, bytes-hash) pair is the gate. If this assertion
    // fires and you changed anything about what snapshots contain or
    // how it is laid out, bump FORMAT_VERSION in
    // crates/sim/src/snapshot.rs and update BOTH pins below — never
    // just the hash.
    assert_eq!(
        FORMAT_VERSION, 6,
        "FORMAT_VERSION bumped: update the pinned hash below to the new format's hash"
    );
    let hash = fnv1a(&bytes);
    println!(
        "checkpoint format hash: {hash:#018x} ({} bytes)",
        bytes.len()
    );
    assert_eq!(
        hash, 0xe055_e29e_8f65_a3c2,
        "checkpoint bytes changed while FORMAT_VERSION stayed {FORMAT_VERSION}: \
         bump FORMAT_VERSION in crates/sim/src/snapshot.rs and re-pin this hash"
    );
}

/// A single scenario that reaches the records the crowd pin never
/// writes: a battery, every mobility kind, a trace-only event log and
/// every fault kind, with some faults still due at the snapshot.
fn every_variant_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::new(SimDuration::from_secs(2 * 3600), 2017);
    config.telemetry = false;
    config.trace_capacity = 64;
    config.spans = true;
    config.reliable_delivery = true;
    config.push_interval = Some(SimDuration::from_secs(1200));
    config.check_invariants = Some(true);
    config.topology = Some(CellTopology {
        area_side_m: 200.0,
        grid: 2,
        cell: 0,
    });
    let apps = vec![AppProfile::wechat(), AppProfile::qq()];
    let mut add = |role, mobility, battery_mah| {
        config.add_device(DeviceSpec {
            role,
            apps: apps.clone(),
            mobility,
            battery_mah,
        })
    };
    let at = |x, y| Position::new(x, y);
    let near = Bounds::new(at(40.0, 40.0), at(60.0, 60.0));
    let relay = add(
        Role::Relay,
        Mobility::stationary(at(50.0, 50.0)),
        Some(2600.0),
    );
    let mains = add(Role::Relay, Mobility::stationary(at(56.0, 50.0)), None);
    let still = add(Role::Ue, Mobility::stationary(at(52.0, 50.0)), None);
    let wanderer = add(
        Role::Ue,
        Mobility::random_waypoint(at(48.0, 52.0), near, 0.5, 1.5, 30.0),
        None,
    );
    let drifter = add(
        Role::Ue,
        Mobility::linear(at(47.0, 49.0), (0.002, 0.001)),
        None,
    );
    let bouncer = add(
        Role::Ue,
        Mobility::linear_bounded(at(50.0, 55.0), (0.4, 0.2), near),
        None,
    );
    add(
        Role::Ue,
        Mobility::waypoint_path(
            at(48.0, 48.0),
            vec![(at(55.0, 48.0), 1.0, 60.0), (at(48.0, 55.0), 1.0, 60.0)],
        ),
        None,
    );
    let secs = SimDuration::from_secs;
    let faults = [
        (
            600,
            FaultKind::LinkDrop {
                device: still,
                d2d_down_for: secs(300),
            },
        ),
        (
            900,
            FaultKind::LinkDegrade {
                device: wanderer,
                extra_loss: 0.5,
                duration: secs(600),
            },
        ),
        (
            1500,
            FaultKind::RelayDeparture {
                device: relay,
                rejoin_after: Some(secs(600)),
            },
        ),
        (2000, FaultKind::DiscoveryBlackout { duration: secs(90) }),
        (
            2400,
            FaultKind::BoundaryChurn {
                device: bouncer,
                half_span_m: 30.0,
                speed_mps: 1.4,
            },
        ),
        (
            3300,
            FaultKind::PayloadLoss {
                device: drifter,
                probability: 0.25,
                duration: secs(900),
            },
        ),
        (
            4500,
            FaultKind::CellularOutage {
                duration: secs(120),
            },
        ),
        (
            5000,
            FaultKind::RelayDeparture {
                device: mains,
                rejoin_after: None,
            },
        ),
    ];
    for (at_s, kind) in faults {
        config.faults.schedule(SimTime::from_secs(at_s), kind);
    }
    config
}

#[test]
fn scenario_snapshot_format_is_pinned() {
    let mut scenario = Scenario::new(every_variant_config());
    scenario.run_until(SimTime::from_secs(3600));
    let bytes = scenario.snapshot();

    assert_eq!(&bytes[..8], &SCENARIO_MAGIC);
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(version, FORMAT_VERSION);

    // Same rule as the crowd pin: a hash change needs a FORMAT_VERSION
    // bump and both pins re-set.
    assert_eq!(
        FORMAT_VERSION, 6,
        "FORMAT_VERSION bumped: update the pinned hash below to the new format's hash"
    );
    let hash = fnv1a(&bytes);
    println!(
        "scenario snapshot hash: {hash:#018x} ({} bytes)",
        bytes.len()
    );
    assert_eq!(
        (hash, bytes.len()),
        (0x7e5d_ae7c_759d_21e9, 47_859),
        "scenario snapshot bytes changed while FORMAT_VERSION stayed {FORMAT_VERSION}: \
         bump FORMAT_VERSION in crates/sim/src/snapshot.rs and re-pin this hash"
    );
}
