//! Deterministic per-heartbeat lifecycle spans.
//!
//! A *span* follows one heartbeat from generation to its terminal
//! outcome (server-accepted, deduplicated, expired, dropped-dead, or
//! still in flight at the horizon). Along the way the protocol layers
//! annotate the span with lifecycle events — batched, d2d-transfer,
//! feedback-armed, retry, handover, fallback — so the artifact answers
//! *where the latency went* per heartbeat, not just in aggregate.
//!
//! Spans live in sim-time only and obey the same determinism contract
//! as [`crate::telemetry`]: recording draws no randomness, device ids
//! survive [`SpanRecorder::remap_devices`], each crowd cell sorts its
//! own spans into artifact order, `(start_us, device, id)`, and
//! [`SpanRecorder::merge`] folds the sorted cells with ties in cell
//! order, so the serialized artifact is byte-identical at any thread or
//! shard count. The wall-clock shard profiler (`hbr_bench::profile`) is
//! the deliberately *non*-deterministic second plane and never feeds
//! this artifact.

use std::collections::HashMap;

use crate::json::{self, Json};
use crate::snap_struct;
use crate::snapshot::SnapshotError;
use crate::telemetry::merge_sorted_runs;

/// One lifecycle annotation inside a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulation time of the annotation, microseconds.
    pub t_us: u64,
    /// Lifecycle step, e.g. `"batched"`, `"d2d-transfer"`, `"retry"`.
    pub kind: &'static str,
    /// Why it happened, when the step carries a cause label.
    pub cause: Option<&'static str>,
    /// Delivery attempt number, for retry-related steps.
    pub attempt: Option<u32>,
    /// Relay involved in the step, when one is.
    pub relay: Option<u32>,
}

/// One heartbeat's span: root interval plus its ordered lifecycle
/// events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Message id (raw `MessageId` bits; unique per source device).
    pub id: u64,
    /// Generating device (global id after `remap_devices`).
    pub device: u32,
    /// Generation time, microseconds.
    pub start_us: u64,
    /// Terminal time, microseconds; `None` while still in flight.
    pub end_us: Option<u64>,
    /// Terminal outcome label; `None` until closed or finalized.
    pub outcome: Option<&'static str>,
    /// Retry attempts recorded on this span (filled at close).
    pub retries: u32,
    /// Lifecycle annotations, in the order they were recorded.
    pub events: Vec<SpanEvent>,
}

impl Span {
    /// End-to-end latency in microseconds, once the span is closed.
    pub fn latency_us(&self) -> Option<u64> {
        self.end_us.map(|end| end.saturating_sub(self.start_us))
    }

    /// Serializes the span as one JSON line with a fixed field order
    /// (`None` fields are omitted), mirroring
    /// [`crate::telemetry::EventRecord::to_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(None, &mut out);
        out
    }

    /// Appends [`Span::to_jsonl`]'s line to `out` (no trailing newline)
    /// without a temporary `String`; `Some(run)` opens it with a `"run"`
    /// key, like [`crate::telemetry::EventRecord::write_jsonl`].
    pub fn write_jsonl(&self, run: Option<&str>, out: &mut String) {
        json::object(out, |o| {
            o.field("run", run)
                .field("id", self.id)
                .field("device", self.device)
                .field("start_us", self.start_us)
                .field("end_us", self.end_us)
                .field("latency_us", self.latency_us())
                .field("outcome", self.outcome)
                .field("retries", self.retries)
                .objects("events", &self.events, |o, ev| {
                    o.field("t_us", ev.t_us)
                        .field("kind", ev.kind)
                        .field("cause", ev.cause)
                        .field("attempt", ev.attempt)
                        .field("relay", ev.relay);
                });
        });
    }

    /// The artifact order's key: a total order over spans, since device
    /// ids are fleet-unique once remapped.
    fn artifact_key(&self) -> (u64, u32, u64) {
        (self.start_us, self.device, self.id)
    }
}

/// A parsed span line, as read back by the CLI (`hbr spans`,
/// `hbr timeline --spans`). String-typed twin of [`Span`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanRecord {
    pub id: u64,
    pub device: u32,
    pub start_us: u64,
    pub end_us: Option<u64>,
    pub latency_us: Option<u64>,
    pub outcome: String,
    pub retries: u32,
    pub events: Vec<SpanEventRecord>,
    /// Run label, when the line was prefixed with `"run":"..."` by the
    /// CLI writer.
    pub run: String,
}

/// A parsed lifecycle annotation. String-typed twin of [`SpanEvent`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanEventRecord {
    pub t_us: u64,
    pub kind: String,
    pub cause: Option<String>,
    pub attempt: Option<u32>,
    pub relay: Option<u32>,
}

impl SpanRecord {
    /// Reads one line produced by [`Span::write_jsonl`], with or without
    /// its run label, through [`Json::parse`]. Returns `None` for lines
    /// that are not span records (no `id`).
    pub fn from_jsonl(line: &str) -> Option<Self> {
        let tree = Json::parse(line)?;
        let text = |value: &Json| value.as_str().unwrap_or("").to_string();
        let events = tree["events"].as_array().unwrap_or(&[]);
        Some(SpanRecord {
            id: tree["id"].num()?,
            device: tree["device"].num().unwrap_or_default(),
            start_us: tree["start_us"].num().unwrap_or_default(),
            end_us: tree["end_us"].num(),
            latency_us: tree["latency_us"].num(),
            outcome: text(&tree["outcome"]),
            retries: tree["retries"].num().unwrap_or_default(),
            events: events
                .iter()
                .map(|ev| SpanEventRecord {
                    t_us: ev["t_us"].num().unwrap_or_default(),
                    kind: text(&ev["kind"]),
                    cause: ev["cause"].as_str().map(str::to_string),
                    attempt: ev["attempt"].num(),
                    relay: ev["relay"].num(),
                })
                .collect(),
            run: text(&tree["run"]),
        })
    }
}

/// Records heartbeat lifecycle spans for one scenario (one cell, in
/// the sharded engine) and merges cell-order into the fleet artifact.
///
/// A disabled recorder ignores every call, so the span plane costs
/// nothing — and changes no observable byte — unless switched on.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    enabled: bool,
    spans: Vec<Span>,
    open: HashMap<u64, usize>,
}

impl SpanRecorder {
    /// A recorder that tracks spans.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A recorder that ignores every call (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this recorder is tracking spans.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span for heartbeat `id` generated by `device` at `t_us`.
    pub fn start(&mut self, id: u64, device: u32, t_us: u64) {
        if !self.enabled || self.open.contains_key(&id) {
            return;
        }
        self.open.insert(id, self.spans.len());
        self.spans.push(Span {
            id,
            device,
            start_us: t_us,
            end_us: None,
            outcome: None,
            retries: 0,
            events: Vec::new(),
        });
    }

    /// Appends a lifecycle event to the open span for `id`; a no-op
    /// when the recorder is disabled or the span is missing or closed.
    pub fn annotate(
        &mut self,
        id: u64,
        t_us: u64,
        kind: &'static str,
        cause: Option<&'static str>,
        attempt: Option<u32>,
        relay: Option<u32>,
    ) {
        if !self.enabled {
            return;
        }
        if let Some(&slot) = self.open.get(&id) {
            self.spans[slot].events.push(SpanEvent {
                t_us,
                kind,
                cause,
                attempt,
                relay,
            });
        }
    }

    /// Closes the span for `id` with a terminal `outcome` at `t_us`.
    /// First close wins: later outcomes for the same id (e.g. a
    /// duplicate arriving after the original was accepted) are ignored.
    /// Returns `(latency_us, retries)` when a span was actually closed.
    pub fn close(&mut self, id: u64, t_us: u64, outcome: &'static str) -> Option<(u64, u32)> {
        if !self.enabled {
            return None;
        }
        let slot = self.open.remove(&id)?;
        let span = &mut self.spans[slot];
        span.end_us = Some(t_us);
        span.outcome = Some(outcome);
        span.retries = span.events.iter().filter(|e| e.kind == "retry").count() as u32;
        Some((t_us.saturating_sub(span.start_us), span.retries))
    }

    /// Marks every still-open span as `in-flight` (no end time) — the
    /// scenario horizon was reached first. Call once from the report
    /// assembly.
    pub fn finalize(&mut self) {
        for span in &mut self.spans {
            if span.outcome.is_none() {
                span.outcome = Some("in-flight");
                span.retries = span.events.iter().filter(|e| e.kind == "retry").count() as u32;
            }
        }
        self.open.clear();
    }

    /// Rewrites device ids (span owner and per-event relay) through
    /// `f`, exactly like `TelemetryEvent::remap_devices` — the sharded
    /// engine maps cell-local ids back to fleet-global ones.
    pub fn remap_devices(&mut self, f: impl Fn(u32) -> u32) {
        for span in &mut self.spans {
            span.device = f(span.device);
            for ev in &mut span.events {
                if let Some(relay) = ev.relay {
                    ev.relay = Some(f(relay));
                }
            }
        }
    }

    /// Puts the spans in artifact order, `(start_us, device, id)`, so a
    /// crowd cell hands [`SpanRecorder::merge`] a sorted run. Call after
    /// [`SpanRecorder::finalize`] and
    /// [`SpanRecorder::remap_devices`]: the order is over fleet-global
    /// ids, and no span may still be open.
    pub fn sort(&mut self) {
        assert!(self.open.is_empty(), "sorting a recorder with open spans");
        self.spans.sort_by_key(Span::artifact_key);
    }

    /// Merges finished recorders, each already in artifact order (see
    /// [`SpanRecorder::sort`]), into one in artifact order. Equal keys
    /// keep recorder order, so folding cells in cell order gives the same
    /// recorder at any shard count.
    pub fn merge(recorders: Vec<SpanRecorder>) -> SpanRecorder {
        SpanRecorder {
            enabled: recorders.iter().any(|r| r.enabled),
            spans: merge_sorted_runs(
                recorders.into_iter().map(|r| r.spans).collect(),
                Span::artifact_key,
            ),
            open: HashMap::new(),
        }
    }

    /// The spans in artifact order, `(start_us, device, id)` — the order
    /// every span artifact is written in, byte-identical at any thread
    /// or shard count. Cheap on a recorder that is already sorted.
    pub fn in_artifact_order(&self) -> Vec<&Span> {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by_key(|s| s.artifact_key());
        order
    }

    /// Serializes every span as JSONL, in artifact order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.in_artifact_order() {
            span.write_jsonl(None, &mut out);
            out.push('\n');
        }
        out
    }
}

snap_struct!(SpanEvent {
    t_us,
    kind,
    cause,
    attempt,
    relay
});

snap_struct!(Span {
    id,
    device,
    start_us,
    end_us,
    outcome,
    retries,
    events
});

snap_struct!(SpanRecorder { enabled, spans, open } check check_open_slots);

fn check_open_slots(rec: &SpanRecorder) -> Result<(), SnapshotError> {
    match rec.open.values().max() {
        Some(&slot) if slot >= rec.spans.len() => Err(SnapshotError::Corrupt(format!(
            "open span slot {slot} out of bounds ({} spans)",
            rec.spans.len()
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::rewritten;
    use crate::snapshot::{Snap, SnapshotReader, SnapshotWriter};

    #[test]
    fn restore_refuses_bad_open_span_slots() {
        let mut rec = SpanRecorder::enabled();
        rec.start(7, 3, 1_000);
        // An open slot past the spans, and one id opened twice.
        for open in [vec![(7u64, 1usize)], vec![(7, 0), (7, 0)]] {
            let mut w = SnapshotWriter::new();
            true.snap(&mut w);
            rec.spans.snap(&mut w);
            open.snap(&mut w);
            let bytes = w.into_bytes();
            let err = SpanRecorder::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn disabled_recorder_ignores_everything() {
        let mut rec = SpanRecorder::disabled();
        rec.start(1, 0, 100);
        rec.annotate(1, 200, "batched", None, None, None);
        assert_eq!(rec.close(1, 300, "accepted"), None);
        assert!(rec.is_empty());
        assert_eq!(rec.to_jsonl(), "");
    }

    #[test]
    fn close_is_first_wins_and_counts_retries() {
        let mut rec = SpanRecorder::enabled();
        rec.start(7, 3, 1_000);
        rec.annotate(7, 2_000, "retry", Some("relay-failed"), Some(1), None);
        rec.annotate(7, 3_000, "retry", Some("relay-failed"), Some(2), None);
        assert_eq!(rec.close(7, 5_000, "accepted"), Some((4_000, 2)));
        // A later duplicate must not reopen or overwrite the outcome.
        assert_eq!(rec.close(7, 9_000, "duplicate-id"), None);
        rec.annotate(7, 9_500, "late", None, None, None);
        assert_eq!(rec.spans()[0].outcome, Some("accepted"));
        assert_eq!(rec.spans()[0].events.len(), 2);
    }

    #[test]
    fn finalize_marks_open_spans_in_flight() {
        let mut rec = SpanRecorder::enabled();
        rec.start(1, 0, 100);
        rec.start(2, 1, 200);
        rec.close(1, 900, "accepted");
        rec.finalize();
        assert_eq!(rec.spans()[1].outcome, Some("in-flight"));
        assert_eq!(rec.spans()[1].end_us, None);
    }

    #[test]
    fn jsonl_is_sorted_and_round_trips() {
        let mut rec = SpanRecorder::enabled();
        rec.start(2, 5, 400);
        rec.start(1, 3, 100);
        rec.annotate(1, 150, "d2d-transfer", None, None, Some(9));
        rec.annotate(1, 180, "fallback", Some("d2d-down"), None, None);
        rec.close(1, 200, "accepted");
        rec.finalize();
        let text = rec.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\":1"), "sorted by start: {text}");
        let parsed = SpanRecord::from_jsonl(lines[0]).expect("parses");
        assert_eq!(parsed.id, 1);
        assert_eq!(parsed.device, 3);
        assert_eq!(parsed.latency_us, Some(100));
        assert_eq!(parsed.outcome, "accepted");
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.events[0].kind, "d2d-transfer");
        assert_eq!(parsed.events[0].relay, Some(9));
        assert_eq!(parsed.events[1].cause.as_deref(), Some("d2d-down"));
        let open = SpanRecord::from_jsonl(lines[1]).expect("parses");
        assert_eq!(open.outcome, "in-flight");
        assert_eq!(open.end_us, None);
    }

    /// The exact line of a closed span, an in-flight span and a span
    /// with no events; the events carry each optional field.
    #[test]
    fn every_span_line_is_pinned() {
        let event = |t_us, kind, cause, attempt, relay| SpanEvent {
            t_us,
            kind,
            cause,
            attempt,
            relay,
        };
        let closed = Span {
            id: 1 << 40 | 7,
            device: 3,
            start_us: 100,
            end_us: Some(2_100),
            outcome: Some("accepted"),
            retries: 1,
            events: vec![
                event(150, "d2d-transfer", None, None, Some(9)),
                event(160, "retry", Some("transfer-failed"), Some(1), None),
                event(180, "fallback", Some("d2d-down"), None, None),
            ],
        };
        let in_flight = Span {
            id: 2,
            device: 5,
            start_us: 400,
            end_us: None,
            outcome: Some("in-flight"),
            retries: 1,
            events: vec![event(
                450,
                "retry",
                Some("relay-departed"),
                Some(1),
                Some(4),
            )],
        };
        let bare = Span {
            id: 3,
            device: 0,
            start_us: 0,
            end_us: Some(0),
            outcome: Some("expired"),
            retries: 0,
            events: Vec::new(),
        };
        assert_eq!(
            closed.to_jsonl(),
            concat!(
                r#"{"id":1099511627783,"device":3,"start_us":100,"end_us":2100,"#,
                r#""latency_us":2000,"outcome":"accepted","retries":1,"events":["#,
                r#"{"t_us":150,"kind":"d2d-transfer","relay":9},"#,
                r#"{"t_us":160,"kind":"retry","cause":"transfer-failed","attempt":1},"#,
                r#"{"t_us":180,"kind":"fallback","cause":"d2d-down"}]}"#
            )
        );
        assert_eq!(
            in_flight.to_jsonl(),
            concat!(
                r#"{"id":2,"device":5,"start_us":400,"outcome":"in-flight","retries":1,"#,
                r#""events":[{"t_us":450,"kind":"retry","cause":"relay-departed","#,
                r#""attempt":1,"relay":4}]}"#
            )
        );
        assert_eq!(
            bare.to_jsonl(),
            r#"{"id":3,"device":0,"start_us":0,"end_us":0,"latency_us":0,"outcome":"expired","retries":0,"events":[]}"#
        );
    }

    /// A span with every optional field, one with none, and a run label
    /// that needs escaping read back through [`Json::parse`] into the
    /// same values, and write back out byte for byte.
    #[test]
    fn span_lines_round_trip_through_the_reader() {
        let full = Span {
            id: 1 << 40 | 7,
            device: 3,
            start_us: 100,
            end_us: Some(2_100),
            outcome: Some("accepted"),
            retries: 1,
            events: vec![SpanEvent {
                t_us: 160,
                kind: "retry",
                cause: Some("transfer-failed"),
                attempt: Some(1),
                relay: Some(9),
            }],
        };
        let bare = Span {
            end_us: None,
            outcome: None,
            events: vec![SpanEvent {
                cause: None,
                attempt: None,
                relay: None,
                ..full.events[0].clone()
            }],
            ..full.clone()
        };
        for span in [full, bare] {
            for run in [None, Some("d2d \"µ\"\\\t")] {
                let mut line = String::new();
                span.write_jsonl(run, &mut line);
                assert_eq!(rewritten(&line), line);
                let record = SpanRecord::from_jsonl(&line).expect("parses");
                assert_eq!(record.run, run.unwrap_or(""));
                assert_eq!((record.id, record.device), (span.id, span.device));
                assert_eq!(record.end_us, span.end_us);
                assert_eq!(record.latency_us, span.latency_us());
                assert_eq!(record.outcome, span.outcome.unwrap_or(""));
                let (got, want) = (&record.events[0], &span.events[0]);
                assert_eq!((got.t_us, got.kind.as_str()), (want.t_us, want.kind));
                assert_eq!(got.cause.as_deref(), want.cause);
                assert_eq!((got.attempt, got.relay), (want.attempt, want.relay));
            }
        }
    }

    #[test]
    fn run_labelled_lines_parse_like_the_cli_writes_them() {
        let mut rec = SpanRecorder::enabled();
        rec.start(4, 2, 100);
        rec.close(4, 300, "accepted");
        let line = rec.to_jsonl();
        let labelled = format!("{{\"run\":\"d2d\",{}", &line.trim_end()[1..]);
        let parsed = SpanRecord::from_jsonl(&labelled).expect("parses");
        assert_eq!(parsed.run, "d2d");
        assert_eq!(parsed.id, 4);
    }

    #[test]
    fn merge_remaps_and_stays_byte_identical() {
        let cells = || {
            let mut a = SpanRecorder::enabled();
            a.start(1, 0, 100);
            a.annotate(1, 150, "d2d-transfer", None, None, Some(1));
            a.close(1, 300, "accepted");
            a.start(2, 1, 60);
            a.finalize();
            let mut b = SpanRecorder::enabled();
            b.start(1, 0, 50);
            b.close(1, 80, "expired");
            b.finalize();
            // Cell-local ids 0/1 map to globals 2/3 in cell A, 7 in B.
            a.remap_devices(|d| d + 2);
            b.remap_devices(|d| d + 7);
            a.sort();
            b.sort();
            (a, b)
        };
        let (a, b) = cells();
        let forward = SpanRecorder::merge(vec![a, b]);
        let (a, b) = cells();
        let backward = SpanRecorder::merge(vec![b, a]);
        // Same spans, opposite merge order: the merged recorder is in
        // artifact order, and its artifact is byte-identical.
        let starts: Vec<u64> = forward.spans().iter().map(|s| s.start_us).collect();
        assert_eq!(starts, [50, 60, 100]);
        assert_eq!(forward.spans(), backward.spans());
        assert_eq!(forward.to_jsonl(), backward.to_jsonl());
        assert!(forward
            .to_jsonl()
            .starts_with("{\"id\":1,\"device\":7,\"start_us\":50"));
        assert_eq!(
            forward.spans()[2].events[0].relay,
            Some(3),
            "relay remapped"
        );
    }

    #[test]
    fn non_span_lines_are_rejected() {
        assert_eq!(SpanRecord::from_jsonl(""), None);
        assert_eq!(SpanRecord::from_jsonl("not json"), None);
        assert_eq!(
            SpanRecord::from_jsonl("{\"t_us\":1,\"event\":\"flush\"}"),
            None
        );
    }
}
