//! Property tests for epoch-barrier checkpointing and resume: a crowd
//! run that writes checkpoints is byte-identical to one that does not
//! (checkpointing is pure observation), and a run resumed from any
//! mid-run checkpoint finishes with byte-identical artifacts to the
//! uninterrupted run. Corrupt or truncated checkpoints are rejected
//! with typed errors, never panics.

use std::fs;
use std::path::PathBuf;

use d2d_heartbeat::bench::{
    latest_checkpoint, load_checkpoint, resume_crowd, run_crowd, run_crowd_controlled, CrowdConfig,
    RunControls, EPOCHS,
};
use d2d_heartbeat::core::world::{Mode, ScenarioReport};
use d2d_heartbeat::sim::fault::{FaultKind, FaultPlan};
use d2d_heartbeat::sim::snapshot::SnapshotError;
use d2d_heartbeat::sim::{signal, DeviceId, SimDuration, SimTime};
use proptest::prelude::*;

/// Everything that should determine the output. Checkpointing, resume
/// points and shard counts are pointedly *not* in here.
#[derive(Debug, Clone)]
struct Fleet {
    seed: u64,
    phones: usize,
    relays: usize,
    area: f64,
    mode: Mode,
    faulted: bool,
    roam: bool,
}

fn arb_fleet() -> impl Strategy<Value = Fleet> {
    (
        any::<u64>(),
        12usize..40,
        1usize..6,
        // 150–320 m sides span a 2×2 to 4×4 cell grid, so checkpoints
        // carry several cells and resume rebuilds a real partition.
        150.0f64..320.0,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(seed, phones, relays, area, d2d, faulted, roam)| Fleet {
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
            roam,
        })
}

fn faults_for(fleet: &Fleet) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if fleet.faulted {
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

fn config_for(fleet: &Fleet, shards: usize) -> CrowdConfig {
    CrowdConfig {
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
        roam: fleet.roam,
    }
}

/// Every observable artifact as bytes.
fn artifacts(report: &ScenarioReport) -> (String, String, String, String) {
    let events: String = report.events.iter().map(|r| r.to_jsonl() + "\n").collect();
    (
        report.render(),
        report.metrics.to_json(),
        events,
        report.spans.to_jsonl(),
    )
}

/// A fresh per-test checkpoint directory under the OS temp dir (the
/// workspace vendors no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbr-ckpt-{}-{}", std::process::id(), tag));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpointing is pure observation: a run writing a checkpoint at
    /// every epoch barrier produces byte-identical artifacts to a run
    /// with checkpointing disabled — zero extra RNG draws, no state
    /// perturbation. And resuming from an early, a middle and the final
    /// checkpoint all reconverge on the same bytes.
    #[test]
    fn checkpointed_and_resumed_runs_are_byte_identical(fleet in arb_fleet()) {
        let plain = artifacts(&run_crowd(&config_for(&fleet, 2)));

        let dir = scratch_dir(&format!("rt-{}", fleet.seed));
        let outcome = run_crowd_controlled(
            &config_for(&fleet, 2),
            &RunControls {
                checkpoint_dir: Some(dir.clone()),
                ..RunControls::default()
            },
        );
        prop_assert!(!outcome.truncated);
        prop_assert_eq!(outcome.epochs_done, EPOCHS);
        let checkpointed = artifacts(&outcome.report);
        prop_assert_eq!(&plain, &checkpointed, "checkpointing perturbed the run");
        prop_assert!(dir.join("MANIFEST.json").is_file());

        // Resume from epoch 1 (nearly everything re-runs), epoch 5
        // (mid-run) and epoch 8 (nothing left to run — the report is
        // reassembled wholly from the checkpoint).
        for resume_at in [1u64, 5, EPOCHS] {
            let ckpt = load_checkpoint(&d2d_heartbeat::bench::checkpoint_file(&dir, resume_at))
                .expect("load checkpoint");
            prop_assert_eq!(ckpt.epochs_done, resume_at);
            let resumed = resume_crowd(ckpt, &RunControls::default()).expect("resume");
            prop_assert!(!resumed.truncated);
            prop_assert_eq!(resumed.epochs_done, EPOCHS);
            let got = artifacts(&resumed.report);
            prop_assert_eq!(&plain, &got, "resume from epoch {} diverged", resume_at);
        }

        // Resume is shard-agnostic too: the checkpoint embeds the
        // config, but the worker count only chooses who carries the
        // cells.
        let ckpt = load_checkpoint(&latest_checkpoint(&dir).expect("latest"))
            .expect("load latest");
        prop_assert_eq!(ckpt.epochs_done, EPOCHS);

        let _ = fs::remove_dir_all(&dir);
    }
}

/// Periodic checkpointing (`--checkpoint-every 3`) still always writes
/// the final barrier, and resuming from the sparse set reconverges.
#[test]
fn periodic_checkpoints_skip_barriers_but_keep_the_last() {
    let fleet = Fleet {
        seed: 11,
        phones: 24,
        relays: 3,
        area: 180.0,
        mode: Mode::D2dFramework,
        faulted: true,
        roam: true,
    };
    let plain = artifacts(&run_crowd(&config_for(&fleet, 2)));

    let dir = scratch_dir("periodic");
    let outcome = run_crowd_controlled(
        &config_for(&fleet, 2),
        &RunControls {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 3,
            ..RunControls::default()
        },
    );
    assert_eq!(outcome.epochs_done, EPOCHS);
    assert_eq!(artifacts(&outcome.report), plain);

    // Barriers 3 and 6 match the cadence; 8 is the forced final one.
    let mut have: Vec<u64> = (1..=EPOCHS)
        .filter(|n| d2d_heartbeat::bench::checkpoint_file(&dir, *n).is_file())
        .collect();
    have.sort_unstable();
    assert_eq!(have, vec![3, 6, 8]);

    let ckpt = load_checkpoint(&d2d_heartbeat::bench::checkpoint_file(&dir, 6)).unwrap();
    let resumed = resume_crowd(ckpt, &RunControls::default()).unwrap();
    assert_eq!(artifacts(&resumed.report), plain);

    // The same fleet checkpointed at every barrier writes those three
    // files byte for byte: a blob from the wrong epoch, or cells out of
    // order, would show here.
    let every = scratch_dir("periodic-every");
    let outcome = run_crowd_controlled(
        &config_for(&fleet, 2),
        &RunControls {
            checkpoint_dir: Some(every.clone()),
            checkpoint_every: 1,
            ..RunControls::default()
        },
    );
    assert_eq!(outcome.epochs_done, EPOCHS);
    for n in 1..=EPOCHS {
        assert!(d2d_heartbeat::bench::checkpoint_file(&every, n).is_file());
    }
    for n in [3, 6, 8] {
        let read = |d: &PathBuf| fs::read(d2d_heartbeat::bench::checkpoint_file(d, n)).unwrap();
        assert!(
            read(&dir) == read(&every),
            "epoch-{n}.ckpt differs between --checkpoint-every 3 and 1"
        );
    }

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&every);
}

/// A SIGINT mid-run finishes the current epoch, writes a final
/// checkpoint, and reports `truncated = true`; resuming that checkpoint
/// completes the run with bytes identical to never having been
/// interrupted.
#[test]
fn interrupt_checkpoints_and_resumes_cleanly() {
    let fleet = Fleet {
        seed: 23,
        phones: 20,
        relays: 2,
        area: 160.0,
        mode: Mode::D2dFramework,
        faulted: false,
        roam: false,
    };
    let plain = artifacts(&run_crowd(&config_for(&fleet, 2)));

    let dir = scratch_dir("interrupt");
    signal::reset();
    signal::simulate_interrupt();
    let outcome = run_crowd_controlled(
        &config_for(&fleet, 2),
        &RunControls {
            checkpoint_dir: Some(dir.clone()),
            heed_signals: true,
            ..RunControls::default()
        },
    );
    signal::reset();
    assert!(outcome.truncated, "interrupted run must report truncation");
    assert!(outcome.epochs_done < EPOCHS);
    assert!(
        outcome.epochs_done >= 1,
        "the in-flight epoch still finishes"
    );

    let ckpt = load_checkpoint(&latest_checkpoint(&dir).unwrap()).unwrap();
    assert_eq!(ckpt.epochs_done, outcome.epochs_done);
    let resumed = resume_crowd(ckpt, &RunControls::default()).unwrap();
    assert!(!resumed.truncated);
    assert_eq!(resumed.epochs_done, EPOCHS);
    assert_eq!(artifacts(&resumed.report), plain);

    let _ = fs::remove_dir_all(&dir);
}

/// Damaged checkpoints come back as typed [`SnapshotError`]s — every
/// truncation point and byte flip either loads a valid checkpoint
/// (flips inside a length-prefixed blob can cancel out only by leaving
/// valid state, which restore then verifies) or fails cleanly.
#[test]
fn corrupt_and_truncated_checkpoints_are_typed_errors_not_panics() {
    let fleet = Fleet {
        seed: 5,
        phones: 14,
        relays: 2,
        area: 150.0,
        mode: Mode::D2dFramework,
        faulted: true,
        roam: false,
    };
    let dir = scratch_dir("corrupt");
    run_crowd_controlled(
        &config_for(&fleet, 1),
        &RunControls {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: EPOCHS,
            ..RunControls::default()
        },
    );
    let path = latest_checkpoint(&dir).unwrap();
    let good = fs::read(&path).unwrap();
    let scratch = dir.join("damaged.ckpt");

    // Every prefix is a truncation; step to keep the test quick.
    for cut in (0..good.len()).step_by(61) {
        fs::write(&scratch, &good[..cut]).unwrap();
        assert!(
            load_checkpoint(&scratch).is_err(),
            "truncation at {cut} bytes must not load"
        );
    }

    // Single-byte flips throughout the file must never panic.
    for at in (0..good.len()).step_by(97) {
        let mut bad = good.clone();
        bad[at] ^= 0xff;
        fs::write(&scratch, &bad).unwrap();
        let _ = load_checkpoint(&scratch);
    }

    // A config envelope that no run could have written is refused
    // before anything is built from it: no phones, more relays than
    // phones, and an hour count or push interval (bytes 52–60) whose
    // microsecond total overflows the clock.
    for (at, value) in [
        (12, 0u64),
        (20, 1_000),
        (28, u64::MAX / 1_000),
        (52, u64::MAX / 1_000),
    ] {
        let mut bad = good.clone();
        bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
        fs::write(&scratch, &bad).unwrap();
        assert!(
            matches!(load_checkpoint(&scratch), Err(SnapshotError::Corrupt(_))),
            "config bytes {at}..{} set to {value} must be refused",
            at + 8
        );
    }

    // Magic and version damage yield their specific errors.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    fs::write(&scratch, &bad).unwrap();
    assert!(matches!(
        load_checkpoint(&scratch),
        Err(SnapshotError::BadMagic)
    ));
    let mut bad = good;
    bad[8] ^= 0xff;
    fs::write(&scratch, &bad).unwrap();
    assert!(matches!(
        load_checkpoint(&scratch),
        Err(SnapshotError::BadVersion { .. })
    ));

    // A directory with no checkpoints has no "latest".
    let empty = scratch_dir("empty");
    assert!(latest_checkpoint(&empty).is_err());

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&empty);
}
