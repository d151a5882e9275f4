//! Pins what the two analyzers print over a real run's files: a small
//! seeded crowd with a cellular outage writes its events and spans, and
//! each `hbr timeline` and `hbr spans` view of them is hashed. The unit
//! tests next to the analyzers feed them hand-written lines; this suite
//! is the one that reads what the writers actually produce.
//!
//! If a change to the analyzers' text is intentional, re-run with
//! `HBR_PRINT_GOLDEN=1 cargo test -p hbr-cli --test analyzers --
//! --nocapture` and update the constants below.

use std::path::{Path, PathBuf};
use std::process::Command;

const HBR: &str = env!("CARGO_BIN_EXE_hbr");

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `hbr` in `dir` (so file names print relative) and returns its
/// stdout, failing on a nonzero exit.
fn hbr(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(HBR)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run hbr");
    assert!(
        out.status.success(),
        "hbr {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbr-analyzers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Each view: its arguments and the hash of what it prints.
const VIEWS: &[(&[&str], u64)] = &[
    (&["timeline", "e.jsonl"], 0x8f63_7e3a_b074_b24b),
    (
        &["timeline", "e.jsonl", "--around", "1800", "--device", "44"],
        0xf63e_d6c3_8316_80d2,
    ),
    (
        &["timeline", "e.jsonl", "--spans", "s.jsonl"],
        0xa33d_eebe_6bb1_97db,
    ),
    (
        &[
            "timeline", "e.jsonl", "--around", "240", "--device", "13", "--spans", "s.jsonl",
        ],
        0x41c9_bd79_2641_89c0,
    ),
    (
        &["spans", "s.jsonl", "--slowest", "3"],
        0x2880_4f3f_9784_4d6a,
    ),
    (
        &["spans", "s.jsonl", "--outcome", "in-flight"],
        0xafeb_8148_e1d3_079e,
    ),
    (&["spans", "s.jsonl", "--id", "945"], 0x7b7d_92ab_cb06_287b),
    (
        &["spans", "s.jsonl", "--device", "44", "--slowest", "1"],
        0x1314_7b40_4eae_c73f,
    ),
];

#[test]
fn timeline_and_spans_views_of_a_crowd_run_are_pinned() {
    let dir = scratch();
    hbr(
        &dir,
        &[
            "crowd",
            "--devices",
            "60",
            "--relays",
            "12",
            "--seed",
            "2017",
            "--faults",
            "outage@1800+120",
            "--events-out",
            "e.jsonl",
            "--spans-out",
            "s.jsonl",
        ],
    );
    let print = std::env::var("HBR_PRINT_GOLDEN").is_ok();
    let mut drifted = Vec::new();
    for (args, pinned) in VIEWS {
        let hash = fnv1a(&hbr(&dir, args));
        if print {
            println!("{args:?} => {hash:#018x}");
        }
        if hash != *pinned {
            drifted.push(format!("{args:?}: {hash:#018x}, pinned {pinned:#018x}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        drifted.is_empty(),
        "analyzer output drifted; if intentional, re-run with \
         HBR_PRINT_GOLDEN=1 and update VIEWS:\n{}",
        drifted.join("\n")
    );
}
