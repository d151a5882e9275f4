//! Shared experiment-harness utilities: aligned table printing, CSV
//! output and paper-vs-measured shape checks.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (run with `cargo run -p hbr-bench --bin <exp> --release`):
//!
//! | Binary            | Regenerates                                        |
//! |-------------------|----------------------------------------------------|
//! | `exp_table1`      | Table I — heartbeat share of app messages          |
//! | `exp_table3`      | Table III — per-phase energy, UE vs relay          |
//! | `exp_table4`      | Table IV — relay receive energy vs messages        |
//! | `exp_fig6_fig7`   | Figs. 6–7 — current traces, D2D vs cellular        |
//! | `exp_fig8_fig9`   | Figs. 8–9 — energy & savings vs transmissions      |
//! | `exp_fig10_fig11` | Figs. 10–11 — multi-UE relay energy, wasted/saved  |
//! | `exp_fig12`       | Fig. 12 — energy vs communication distance         |
//! | `exp_fig13`       | Fig. 13 — energy vs message size                   |
//! | `exp_fig15`       | Fig. 15 — layer-3 messages vs transmissions        |
//! | `exp_strategies`  | extension — related-work strategy comparison       |
//! | `ablation_*`      | design-choice ablations (scheduler, matching, tech)|

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use hbr_sim::MetricsSnapshot;

pub mod crowd;
pub mod profile;
pub mod sweep;

pub use crowd::{
    auto_shards, cell_grid, checkpoint_file, latest_checkpoint, load_checkpoint, resume_crowd,
    run_crowd, run_crowd_controlled, run_crowd_profiled, CrowdCheckpoint, CrowdConfig,
    CrowdOutcome, RunControls, EPOCHS,
};
pub use profile::{CrowdProfile, Profiler};
pub use sweep::{derive_seed, run_sweep, run_sweep_with_threads, sweep_threads};

/// Merges per-run [`MetricsSnapshot`]s into one, strictly in input
/// order. Since [`run_sweep`] returns results in input order, folding
/// its reports through here yields the same bytes at any thread count —
/// the merged snapshot is as reproducible as the runs themselves.
///
/// # Examples
///
/// ```
/// use hbr_sim::MetricsSnapshot;
///
/// let mut a = MetricsSnapshot::default();
/// a.counters.insert("runs".into(), 1);
/// let merged = hbr_bench::merge_snapshots([&a, &a]);
/// assert_eq!(merged.counters["runs"], 2);
/// ```
pub fn merge_snapshots<'a, I>(snapshots: I) -> MetricsSnapshot
where
    I: IntoIterator<Item = &'a MetricsSnapshot>,
{
    let mut merged = MetricsSnapshot::default();
    for snapshot in snapshots {
        merged.merge(snapshot);
    }
    merged
}

/// Prints a titled, column-aligned text table to stdout.
///
/// # Examples
///
/// ```
/// hbr_bench::print_table(
///     "Demo",
///     &["x", "y"],
///     &[vec!["1".into(), "2".into()]],
/// );
/// ```
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Writes the same rows as CSV under `results/<name>.csv` (created on
/// demand), so plots can be regenerated outside Rust.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let mut file = fs::File::create(dir.join(format!("{name}.csv")))?;
    writeln!(file, "{}", headers.join(","))?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(())
}

/// One paper-vs-measured shape check: prints its ✓/✗ verdict line. A
/// check that failed then ends the process with exit status 1, so an
/// experiment binary fails when the paper's shape no longer holds.
pub fn check(label: &str, held: bool, detail: impl Display) {
    println!("{}", verdict(label, held, detail));
    if !held {
        std::process::exit(1);
    }
}

/// The line [`check`] prints.
fn verdict(label: &str, held: bool, detail: impl Display) -> String {
    let mark = if held { "✓" } else { "✗" };
    format!("  [{mark}] {label}: {detail}")
}

/// Formats a float with fixed precision for table cells.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a percentage for table cells.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.361), "36.1%");
    }

    #[test]
    fn check_reports_verdict() {
        check("always true", true, "ok");
        assert_eq!(verdict("always true", true, "ok"), "  [✓] always true: ok");
        assert_eq!(verdict("always false", false, 3), "  [✗] always false: 3");
    }

    #[test]
    fn merge_snapshots_sums_in_order() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("hbr_flush_total".into(), 3);
        a.gauges.insert("hbr_energy_uah".into(), 1.5);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("hbr_flush_total".into(), 4);
        b.counters.insert("hbr_rrc_establish_total".into(), 2);
        let merged = merge_snapshots([&a, &b]);
        assert_eq!(merged.counters["hbr_flush_total"], 7);
        assert_eq!(merged.counters["hbr_rrc_establish_total"], 2);
        assert_eq!(merged.gauges["hbr_energy_uah"], 1.5);
        assert!(merge_snapshots([]).is_empty());
    }

    #[test]
    fn csv_round_trip() {
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        write_csv("unit_test_tmp", &["a", "b"], &rows).unwrap();
        let text = std::fs::read_to_string("results/unit_test_tmp.csv").unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_file("results/unit_test_tmp.csv");
    }
}
