//! End-to-end kill-resume harness for the `hbr` binary: a run that is
//! SIGKILLed mid-flight (the deterministic `crash@EPOCH` fault) and
//! then continued with `hbr resume` must produce all five artifacts —
//! render, metrics, events, spans, SLO — byte-identical to a run that
//! was never interrupted, at 1 and 8 shards, with roaming and a chaos
//! plan holding every fault kind active.

#![cfg(unix)]

use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::Command;

const HBR: &str = env!("CARGO_BIN_EXE_hbr");

/// Every fault kind: global outage and blackout, targeted
/// drop/departure/degrade/loss, and a device shuttling across the
/// nearest cell boundary.
const CHAOS: &str = "outage@600+120,blackout@1200+90,drop@900+300:3,\
                     depart@1500+600:0,degrade@1000+600:2=0.5,loss@1100+300:4=0.25,\
                     churn@300+50:7=1.4";

/// Scenario flags shared by every leg of a comparison (everything that
/// determines the output).
fn scenario(shards: usize) -> Vec<String> {
    [
        "--mode", "d2d", "--phones", "30", "--relays", "5", "--hours", "1", "--area", "300",
        "--seed", "2017", "--roam", "1", "--faults", CHAOS,
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(["--shards".to_string(), shards.to_string()])
    .collect()
}

/// Output flags writing the five artifacts into `dir`; returns the
/// paths in (render, metrics, events, spans, slo) order.
fn artifact_flags(dir: &Path) -> (Vec<String>, [PathBuf; 5]) {
    let paths = [
        dir.join("render.txt"),
        dir.join("metrics.json"),
        dir.join("events.jsonl"),
        dir.join("spans.jsonl"),
        dir.join("slo.json"),
    ];
    let flags = [
        "--render-out",
        "--metrics-out",
        "--events-out",
        "--spans-out",
        "--slo-out",
    ]
    .iter()
    .zip(&paths)
    .flat_map(|(flag, path)| [flag.to_string(), path.to_string_lossy().into_owned()])
    .collect();
    (flags, paths)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbr-kill-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn read_all(paths: &[PathBuf; 5]) -> Vec<Vec<u8>> {
    paths
        .iter()
        .map(|p| fs::read(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display())))
        .collect()
}

#[test]
fn crash_kill_and_resume_matches_uninterrupted_run() {
    for shards in [1usize, 8] {
        let root = scratch(&format!("crash-{shards}"));
        let ckpt = root.join("ckpt");

        // Leg 1: the uninterrupted truth.
        let straight = root.join("straight");
        fs::create_dir_all(&straight).unwrap();
        let (flags, straight_paths) = artifact_flags(&straight);
        let status = Command::new(HBR)
            .arg("crowd")
            .args(scenario(shards))
            .args(&flags)
            .output()
            .expect("spawn hbr crowd");
        assert!(status.status.success(), "uninterrupted run failed");

        // Leg 2: same run, but crash@5 — checkpoint at barrier 5 hits
        // disk, then the process dies exactly like `kill -9`.
        let mut crash_scenario = scenario(shards);
        let spec = crash_scenario.last_mut().unwrap();
        assert!(spec.ends_with(&shards.to_string()), "shards flag moved");
        let faults_at = crash_scenario.iter().position(|a| a == "--faults").unwrap();
        crash_scenario[faults_at + 1].push_str(",crash@5");
        // Same artifact flags (they put telemetry and spans into the
        // checkpointed config) but a separate directory — the crash
        // fires before any artifact is written.
        let crashed = root.join("crashed");
        fs::create_dir_all(&crashed).unwrap();
        let (crash_flags, _) = artifact_flags(&crashed);
        let status = Command::new(HBR)
            .arg("crowd")
            .args(&crash_scenario)
            .arg("--checkpoint-dir")
            .arg(&ckpt)
            .args(&crash_flags)
            .status()
            .expect("spawn hbr crowd (crash)");
        assert_eq!(
            status.signal(),
            Some(9),
            "crash@5 must die by SIGKILL, got {status:?}"
        );
        assert!(
            ckpt.join("epoch-5.ckpt").is_file(),
            "the crash happens only after its checkpoint is durable"
        );
        assert!(ckpt.join("MANIFEST.json").is_file());

        // Leg 3: resume from the wreckage and compare every artifact.
        let resumed = root.join("resumed");
        fs::create_dir_all(&resumed).unwrap();
        let (flags2, resumed_paths) = artifact_flags(&resumed);
        let out = Command::new(HBR)
            .arg("resume")
            .arg(&ckpt)
            .args(&flags2)
            .output()
            .expect("spawn hbr resume");
        assert!(
            out.status.success(),
            "resume failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        let want = read_all(&straight_paths);
        let got = read_all(&resumed_paths);
        for ((want, got), path) in want.iter().zip(&got).zip(&straight_paths) {
            assert!(
                want == got,
                "{} differs after kill-resume at {shards} shard(s)",
                path.display()
            );
        }
        let _ = fs::remove_dir_all(&root);
    }
}

/// `hbr serve` + SIGTERM is a *graceful* shutdown: exit zero, a final
/// checkpoint on disk, pulse emission files present — and `hbr resume`
/// finishes the run with artifacts byte-identical to an uninterrupted
/// batch run. The assertions hold whether or not the signal lands
/// before the horizon, so the test cannot race.
#[test]
fn serve_shuts_down_gracefully_and_resume_completes() {
    let root = scratch("serve");
    let ckpt = root.join("state");

    let straight = root.join("straight");
    fs::create_dir_all(&straight).unwrap();
    let (flags, straight_paths) = artifact_flags(&straight);
    // 800 phones keep a debug-build run alive for a few seconds so the
    // SIGTERM below usually lands mid-run; every assertion also holds
    // if the run wins the race and completes first.
    let scenario: Vec<String> = [
        "--mode", "d2d", "--phones", "800", "--relays", "80", "--hours", "1", "--area", "300",
        "--seed", "2017", "--roam", "1", "--shards", "4",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let status = Command::new(HBR)
        .arg("crowd")
        .args(&scenario)
        .args(&flags)
        .output()
        .expect("spawn hbr crowd");
    assert!(status.status.success());

    // Serve gets the same artifact flags (so telemetry and spans land
    // in the checkpointed config) but its own directory; a truncated
    // shutdown writes partial files there which this test ignores.
    let serveout = root.join("serveout");
    fs::create_dir_all(&serveout).unwrap();
    let (serve_flags, _) = artifact_flags(&serveout);
    let mut child = Command::new(HBR)
        .arg("serve")
        .args(&scenario)
        .args(&serve_flags)
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn hbr serve");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let status = child.wait().expect("wait for serve");
    assert!(
        status.success(),
        "SIGTERM is a graceful serve shutdown, got {status:?}"
    );
    assert!(ckpt.join("MANIFEST.json").is_file(), "final checkpoint");
    assert!(
        ckpt.join("metrics.prom").is_file() && ckpt.join("pulse.jsonl").is_file(),
        "per-epoch emission files"
    );
    let prom = fs::read_to_string(ckpt.join("metrics.prom")).unwrap();
    assert!(prom.contains("hbr_serve_epoch "), "pulse gauges: {prom}");

    let resumed = root.join("resumed");
    fs::create_dir_all(&resumed).unwrap();
    let (flags2, resumed_paths) = artifact_flags(&resumed);
    let out = Command::new(HBR)
        .arg("resume")
        .arg(&ckpt)
        .args(&flags2)
        .output()
        .expect("spawn hbr resume");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want = read_all(&straight_paths);
    let got = read_all(&resumed_paths);
    for ((want, got), path) in want.iter().zip(&got).zip(&straight_paths) {
        assert!(
            want == got,
            "{} differs after serve/SIGTERM/resume",
            path.display()
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// `--profile-out` rides the same controlled path as every other run:
/// a profiled run still writes its checkpoints, and a scheduled crash
/// still kills it right after its checkpoint is durable.
#[test]
fn profiled_run_keeps_checkpoints_and_crash() {
    let root = scratch("profile");

    let ckpt = root.join("ckpt");
    let trace = root.join("trace.json");
    let out = Command::new(HBR)
        .arg("crowd")
        .args(scenario(2))
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .arg("--profile-out")
        .arg(&trace)
        .output()
        .expect("spawn hbr crowd (profiled)");
    assert!(
        out.status.success(),
        "profiled run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        ckpt.join("epoch-8.ckpt").is_file() && ckpt.join("MANIFEST.json").is_file(),
        "a profiled run checkpoints like any other"
    );
    assert!(trace.is_file(), "Chrome trace");
    assert!(root.join("BENCH_profile.json").is_file(), "profile summary");

    let crash_ckpt = root.join("crash-ckpt");
    let mut crash_scenario = scenario(2);
    let faults_at = crash_scenario.iter().position(|a| a == "--faults").unwrap();
    crash_scenario[faults_at + 1].push_str(",crash@3");
    let status = Command::new(HBR)
        .arg("crowd")
        .args(&crash_scenario)
        .arg("--checkpoint-dir")
        .arg(&crash_ckpt)
        .arg("--profile-out")
        .arg(root.join("crash-trace.json"))
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn hbr crowd (profiled crash)");
    assert_eq!(
        status.signal(),
        Some(9),
        "crash@3 must die by SIGKILL with the profiler on, got {status:?}"
    );
    assert_eq!(
        hbr_bench::latest_checkpoint(&crash_ckpt).expect("a checkpoint before the crash"),
        crash_ckpt.join("epoch-3.ckpt")
    );
    let _ = fs::remove_dir_all(&root);
}
