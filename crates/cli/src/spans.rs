//! The `spans` command: summarise a `--spans-out` JSONL artifact.
//!
//! The summary answers "where did delivery latency go" from the span
//! plane alone: span counts and p50/p95/p99 latency by outcome
//! (estimated through the same `hbr_delivery_latency_us` buckets the
//! telemetry histograms use), the retry-depth distribution, and the
//! leading lifecycle causes. `--slowest N` and `--id` drill into
//! individual heartbeats as event trees, which compose with
//! `hbr timeline --around <second>` for the surrounding fleet context.

use std::collections::BTreeMap;

use hbr_sim::spans::SpanRecord;
use hbr_sim::telemetry::{Histogram, LATENCY_BUCKETS};

/// Runs `hbr spans` against `path`.
///
/// # Errors
///
/// Returns a message when the file cannot be read, holds no span
/// lines, or the filters match nothing.
pub fn run(
    path: &str,
    outcome: Option<&str>,
    device: Option<u32>,
    slowest: usize,
    id: Option<u64>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut skipped = 0usize;
    let mut records: Vec<SpanRecord> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match SpanRecord::from_jsonl(line) {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    if records.is_empty() {
        return Err(format!(
            "{path} holds no span records; was it written by crowd --spans-out?"
        ));
    }
    if skipped > 0 {
        println!("note: skipped {skipped} non-span line(s)");
    }
    let total = records.len();
    records
        .retain(|r| outcome.is_none_or(|o| r.outcome == o) && device.is_none_or(|d| r.device == d));
    if records.is_empty() {
        return Err(format!(
            "no spans match the filters (file holds {total} span(s))"
        ));
    }

    if let Some(id) = id {
        return drill_into(&records, id);
    }

    let mut runs: Vec<&str> = records.iter().map(|r| r.run.as_str()).collect();
    runs.sort_unstable();
    runs.dedup();
    let runs = runs.join(", ");
    println!(
        "spans: {} heartbeat span(s) from {path}{}",
        records.len(),
        if runs.is_empty() {
            String::new()
        } else {
            format!(" (run(s): {runs})")
        }
    );
    println!();
    print_outcome_table(&records);
    print_retry_depths(&records);
    print_causes(&records);

    if slowest > 0 {
        let mut closed: Vec<&SpanRecord> =
            records.iter().filter(|r| r.latency_us.is_some()).collect();
        closed.sort_by_key(|r| (std::cmp::Reverse(r.latency_us), r.device, r.id));
        println!();
        println!("── {slowest} slowest span(s) ──");
        for record in closed.into_iter().take(slowest) {
            println!();
            print_tree(record);
        }
    }
    Ok(())
}

/// Prints every span carrying `id` as an event tree (raw message ids
/// are only unique per source device, so one id can legitimately name
/// several heartbeats fleet-wide — all of them are shown).
fn drill_into(records: &[SpanRecord], id: u64) -> Result<(), String> {
    let matching: Vec<&SpanRecord> = records.iter().filter(|r| r.id == id).collect();
    if matching.is_empty() {
        return Err(format!("no span with id {id} matches the filters"));
    }
    for (i, record) in matching.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print_tree(record);
    }
    Ok(())
}

/// The per-outcome table: counts, latency quantiles estimated through
/// the `hbr_delivery_latency_us` buckets, the exact maximum, and how
/// many spans needed at least one retry.
fn print_outcome_table(records: &[SpanRecord]) {
    let mut by_outcome: BTreeMap<&str, (Histogram, u64, u64, u64)> = BTreeMap::new();
    for record in records {
        let entry = by_outcome
            .entry(record.outcome.as_str())
            .or_insert_with(|| (Histogram::new(LATENCY_BUCKETS), 0, 0, 0));
        entry.1 += 1;
        if record.retries > 0 {
            entry.3 += 1;
        }
        if let Some(latency) = record.latency_us {
            entry.0.observe(latency as f64);
            entry.2 = entry.2.max(latency);
        }
    }
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "outcome", "count", "p50", "p95", "p99", "max", "retried"
    );
    for (outcome, (hist, count, max, retried)) in &by_outcome {
        // Bucket interpolation can overshoot the observed maximum in the
        // tail; clamp so the table never shows a quantile above `max`.
        let q = |q: f64| match hist.quantile(q) {
            Some(v) => fmt_us((v as u64).min(*max)),
            None => "-".into(),
        };
        println!(
            "{:<12} {:>7} {:>9} {:>9} {:>9} {:>9} {:>10}",
            outcome,
            count,
            q(0.50),
            q(0.95),
            q(0.99),
            if hist.count() > 0 {
                fmt_us(*max)
            } else {
                "-".into()
            },
            retried
        );
    }
}

fn print_retry_depths(records: &[SpanRecord]) {
    let mut depths: BTreeMap<u32, usize> = BTreeMap::new();
    for record in records {
        *depths.entry(record.retries).or_default() += 1;
    }
    let line: Vec<String> = depths
        .iter()
        .map(|(depth, count)| format!("{depth} ×{count}"))
        .collect();
    println!();
    println!("retry depth : {}", line.join("  "));
}

/// The leading lifecycle causes across every annotation, most frequent
/// first (ties break alphabetically, so the listing is deterministic).
fn print_causes(records: &[SpanRecord]) {
    let mut causes: BTreeMap<String, usize> = BTreeMap::new();
    for record in records {
        for ev in &record.events {
            if let Some(cause) = &ev.cause {
                *causes.entry(format!("{}/{cause}", ev.kind)).or_default() += 1;
            }
        }
    }
    if causes.is_empty() {
        return;
    }
    let mut ranked: Vec<(&String, &usize)> = causes.iter().collect();
    ranked.sort_by_key(|(name, count)| (std::cmp::Reverse(**count), name.as_str()));
    let line: Vec<String> = ranked
        .iter()
        .take(6)
        .map(|(name, count)| format!("{name} ×{count}"))
        .collect();
    println!("top causes  : {}", line.join("  "));
}

/// One heartbeat's span as an indented event tree, times relative to
/// generation.
fn print_tree(record: &SpanRecord) {
    let run = if record.run.is_empty() {
        String::new()
    } else {
        format!(" run {}", record.run)
    };
    let verdict = match record.latency_us {
        Some(latency) => format!("{} in {}", record.outcome, fmt_us(latency)),
        None => record.outcome.clone(),
    };
    println!(
        "span {} device {}{run}: {verdict}, {} retr{}",
        record.id,
        record.device,
        record.retries,
        if record.retries == 1 { "y" } else { "ies" }
    );
    println!("  +{:>9}  generated", fmt_us(0));
    for ev in &record.events {
        let mut detail = String::new();
        if let Some(cause) = &ev.cause {
            detail.push_str(&format!(" ({cause})"));
        }
        if let Some(attempt) = ev.attempt {
            detail.push_str(&format!(" attempt {attempt}"));
        }
        if let Some(relay) = ev.relay {
            detail.push_str(&format!(" relay {relay}"));
        }
        println!(
            "  +{:>9}  {}{detail}",
            fmt_us(ev.t_us.saturating_sub(record.start_us)),
            ev.kind
        );
    }
    if let Some(end) = record.end_us {
        println!(
            "  +{:>9}  {}",
            fmt_us(end.saturating_sub(record.start_us)),
            record.outcome
        );
    }
}

/// Formats microseconds for humans: `850ms` below a second, `12.3s`
/// below ten minutes, `21.4min` beyond.
fn fmt_us(us: u64) -> String {
    let secs = us as f64 / 1e6;
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1e3)
    } else if secs < 600.0 {
        format!("{secs:.1}s")
    } else {
        format!("{:.1}min", secs / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut rec = hbr_sim::spans::SpanRecorder::enabled();
        rec.start(1, 0, 0);
        rec.annotate(1, 500_000, "batched", Some("period"), None, None);
        rec.annotate(1, 900_000, "retry", Some("link-failed"), Some(1), None);
        rec.close(1, 2_000_000, "accepted");
        rec.start(2, 1, 100);
        rec.close(2, 60_000_100, "expired");
        rec.start(3, 2, 200);
        rec.finish().to_jsonl()
    }

    fn write_sample() -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "hbr_spans_test_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, sample()).unwrap();
        path
    }

    #[test]
    fn summary_handles_every_outcome_and_filters() {
        let path = write_sample();
        let p = path.to_string_lossy();
        run(&p, None, None, 2, None).expect("summary renders");
        run(&p, Some("accepted"), None, 0, None).expect("outcome filter");
        run(&p, None, Some(1), 0, None).expect("device filter");
        run(&p, None, None, 0, Some(1)).expect("id drill-down");
        assert!(
            run(&p, Some("nope"), None, 0, None).is_err(),
            "empty filter"
        );
        assert!(run(&p, None, None, 0, Some(99)).is_err(), "unknown id");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_and_empty_files_error_cleanly() {
        assert!(run("/definitely/not/here.jsonl", None, None, 0, None).is_err());
        let path =
            std::env::temp_dir().join(format!("hbr_spans_empty_{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"t_us\":1,\"event\":\"flush\"}\n").unwrap();
        let err = run(&path.to_string_lossy(), None, None, 0, None).unwrap_err();
        assert!(err.contains("no span records"), "unexpected error {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn microsecond_formatting_is_humane() {
        assert_eq!(fmt_us(0), "0ms");
        assert_eq!(fmt_us(850_000), "850ms");
        assert_eq!(fmt_us(12_300_000), "12.3s");
        assert_eq!(fmt_us(1_284_000_000), "21.4min");
    }
}
