//! Snapshot-format-version gate: the on-disk checkpoint bytes for a
//! pinned scenario are hashed and pinned together with
//! [`FORMAT_VERSION`]. Any change to the wire format — a new field, a
//! reordered section, a different width — changes the hash and fails
//! this test, forcing the author to bump `FORMAT_VERSION` in
//! `crates/sim/src/snapshot.rs` *and* re-pin here in the same change.
//! A format change that ships without a version bump would make old
//! checkpoints load as garbage instead of failing with
//! `SnapshotError::BadVersion`; this test is what makes that
//! impossible to do silently.

use std::fs;

use d2d_heartbeat::bench::{
    checkpoint_file, run_crowd_controlled, CrowdConfig, RunControls, EPOCHS,
};
use d2d_heartbeat::core::world::Mode;
use d2d_heartbeat::sim::fault::{FaultKind, FaultPlan};
use d2d_heartbeat::sim::snapshot::{CROWD_MAGIC, FORMAT_VERSION};
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
    // builds. Pin it on so the hash below is build-independent (this
    // binary has exactly one test, so the global env is uncontended).
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
        FORMAT_VERSION, 2,
        "FORMAT_VERSION bumped: update the pinned hash below to the new format's hash"
    );
    let hash = fnv1a(&bytes);
    println!(
        "checkpoint format hash: {hash:#018x} ({} bytes)",
        bytes.len()
    );
    assert_eq!(
        hash, 0xc05b_098b_99b0_a151,
        "checkpoint bytes changed while FORMAT_VERSION stayed {FORMAT_VERSION}: \
         bump FORMAT_VERSION in crates/sim/src/snapshot.rs and re-pin this hash"
    );
}
