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
//! [`SpanRecorder::merge`] orders the sorted cells with ties in cell
//! order, so the serialized artifact is byte-identical at any thread or
//! shard count. The wall-clock shard profiler (`hbr_bench::profile`) is
//! the deliberately *non*-deterministic second plane and never feeds
//! this artifact.
//!
//! A recorder keeps every span's annotations in one buffer: a span's
//! header names its first and last annotation, and each annotation the
//! next of the same span, so a span allocates nothing of its own.
//! Sorting a finished recorder regroups the buffer, so a walk in
//! artifact order reads it front to back.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;

use crate::json::{self, Json};
use crate::snap_struct;
use crate::snapshot::{take_len, Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::telemetry::{Run, SortedRuns};

/// One lifecycle annotation inside a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One heartbeat's span: its root interval. Its lifecycle annotations
/// sit in the recorder's buffer; [`SpanRef::events`] walks them.
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
    /// The span's first and last annotation in the buffer ([`NONE`]
    /// without any).
    first: u32,
    last: u32,
}

impl Span {
    /// End-to-end latency in microseconds, once the span is closed.
    pub fn latency_us(&self) -> Option<u64> {
        self.end_us.map(|end| end.saturating_sub(self.start_us))
    }

    /// The artifact order's key: a total order over spans, since device
    /// ids are fleet-unique once remapped.
    fn artifact_key(&self) -> (u64, u32, u64) {
        (self.start_us, self.device, self.id)
    }
}

/// No annotation: the end of a chain, or a span without any.
const NONE: u32 = u32::MAX;

/// A [`SpanEvent`] as the buffer holds it: its labels as indices into
/// the recorder's label table, its absent numbers flagged, and the next
/// annotation of the same span.
#[derive(Debug, Clone, Copy)]
struct Note {
    t_us: u64,
    attempt: u32,
    relay: u32,
    /// The span's next annotation, or [`NONE`].
    next: u32,
    kind: u8,
    /// [`NO_LABEL`] when the step carries no cause.
    cause: u8,
    /// [`HAS_ATTEMPT`] and [`HAS_RELAY`].
    has: u8,
}

const NO_LABEL: u8 = u8::MAX;
const HAS_ATTEMPT: u8 = 1;
const HAS_RELAY: u8 = 2;

// The buffer holds every annotation of a cell's run; keep them small.
const _: () = assert!(std::mem::size_of::<Note>() <= 24);

/// A span of a recorder, with its annotations.
#[derive(Clone, Copy)]
pub struct SpanRef<'a> {
    span: &'a Span,
    recorder: &'a SpanRecorder,
}

impl Deref for SpanRef<'_> {
    type Target = Span;

    fn deref(&self) -> &Span {
        self.span
    }
}

impl<'a> SpanRef<'a> {
    /// The span's lifecycle annotations, in the order they were recorded.
    pub fn events(&self) -> Annotations<'a> {
        Annotations {
            recorder: self.recorder,
            next: self.span.first,
        }
    }

    /// Serializes the span as one JSON line with a fixed field order
    /// (`None` fields are omitted), mirroring
    /// [`crate::telemetry::EventRecord::to_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(None, &mut out);
        out
    }

    /// Appends [`SpanRef::to_jsonl`]'s line to `out` (no trailing
    /// newline) without a temporary `String`; `Some(run)` opens it with a
    /// `"run"` key, like [`crate::telemetry::EventRecord::write_jsonl`].
    pub fn write_jsonl(&self, run: Option<&str>, out: &mut String) {
        let span = self.span;
        json::object(out, |o| {
            o.field("run", run)
                .field("id", span.id)
                .field("device", span.device)
                .field("start_us", span.start_us)
                .field("end_us", span.end_us)
                .field("latency_us", span.latency_us())
                .field("outcome", span.outcome)
                .field("retries", span.retries)
                .objects("events", self.events(), |o, ev| {
                    o.field("t_us", ev.t_us)
                        .field("kind", ev.kind)
                        .field("cause", ev.cause)
                        .field("attempt", ev.attempt)
                        .field("relay", ev.relay);
                });
        });
    }
}

/// Shows the span with its annotations, as if it held them itself.
impl fmt::Debug for SpanRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let span = self.span;
        f.debug_struct("Span")
            .field("id", &span.id)
            .field("device", &span.device)
            .field("start_us", &span.start_us)
            .field("end_us", &span.end_us)
            .field("outcome", &span.outcome)
            .field("retries", &span.retries)
            .field("events", &self.events().collect::<Vec<_>>())
            .finish()
    }
}

/// A span's annotations, followed through the recorder's buffer.
#[derive(Debug, Clone)]
pub struct Annotations<'a> {
    recorder: &'a SpanRecorder,
    next: u32,
}

impl Iterator for Annotations<'_> {
    type Item = SpanEvent;

    fn next(&mut self) -> Option<SpanEvent> {
        let note = *self.recorder.notes.get(self.next as usize)?;
        self.next = note.next;
        Some(self.recorder.event(note))
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
    /// Reads one line produced by [`SpanRef::write_jsonl`], with or without
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
/// the sharded engine); [`SpanRecorder::merge`] orders finished cells
/// into the fleet artifact.
///
/// A disabled recorder ignores every call, so the span plane costs
/// nothing — and changes no observable byte — unless switched on.
#[derive(Clone, Default)]
pub struct SpanRecorder {
    enabled: bool,
    spans: Vec<Span>,
    /// Every span's annotations; each span chains its own.
    notes: Vec<Note>,
    /// The labels the notes name by index, in first-use order.
    labels: Vec<&'static str>,
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

    /// The recorded spans, in recording order (artifact order once
    /// sorted).
    pub fn spans(&self) -> impl ExactSizeIterator<Item = SpanRef<'_>> {
        (0..self.spans.len()).map(|i| self.record(i))
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
            first: NONE,
            last: NONE,
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
            self.push_note(
                slot,
                SpanEvent {
                    t_us,
                    kind,
                    cause,
                    attempt,
                    relay,
                },
            );
        }
    }

    /// Appends `event` to the chain of the span at `slot`.
    fn push_note(&mut self, slot: usize, event: SpanEvent) {
        let at = u32::try_from(self.notes.len())
            .ok()
            .filter(|&at| at != NONE)
            .expect("a span recorder holds fewer than 2^32 - 1 annotations");
        let note = Note {
            t_us: event.t_us,
            attempt: event.attempt.unwrap_or(0),
            relay: event.relay.unwrap_or(0),
            next: NONE,
            kind: self.label(event.kind),
            cause: event.cause.map_or(NO_LABEL, |cause| self.label(cause)),
            has: u8::from(event.attempt.is_some()) * HAS_ATTEMPT
                + u8::from(event.relay.is_some()) * HAS_RELAY,
        };
        self.notes.push(note);
        let span = &mut self.spans[slot];
        match span.last {
            NONE => span.first = at,
            last => self.notes[last as usize].next = at,
        }
        span.last = at;
    }

    /// The label table's index of `label`, added on first use.
    fn label(&mut self, label: &'static str) -> u8 {
        if let Some(index) = self.labels.iter().position(|&have| have == label) {
            return index as u8;
        }
        assert!(
            self.labels.len() < usize::from(NO_LABEL),
            "a span recorder holds at most {NO_LABEL} distinct labels"
        );
        self.labels.push(label);
        (self.labels.len() - 1) as u8
    }

    /// A note read back as the annotation it stores.
    fn event(&self, note: Note) -> SpanEvent {
        SpanEvent {
            t_us: note.t_us,
            kind: self.labels[usize::from(note.kind)],
            cause: (note.cause != NO_LABEL).then(|| self.labels[usize::from(note.cause)]),
            attempt: (note.has & HAS_ATTEMPT != 0).then_some(note.attempt),
            relay: (note.has & HAS_RELAY != 0).then_some(note.relay),
        }
    }

    /// Retry annotations on the span at `slot`.
    fn retries(&self, slot: usize) -> u32 {
        self.record(slot)
            .events()
            .filter(|e| e.kind == "retry")
            .count() as u32
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
        let retries = self.retries(slot);
        let span = &mut self.spans[slot];
        span.end_us = Some(t_us);
        span.outcome = Some(outcome);
        span.retries = retries;
        Some((t_us.saturating_sub(span.start_us), retries))
    }

    /// Marks every still-open span as `in-flight` (no end time) — the
    /// scenario horizon was reached first. Call once from the report
    /// assembly.
    pub fn finalize(&mut self) {
        for slot in 0..self.spans.len() {
            if self.spans[slot].outcome.is_none() {
                let retries = self.retries(slot);
                let span = &mut self.spans[slot];
                span.outcome = Some("in-flight");
                span.retries = retries;
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
        }
        for note in &mut self.notes {
            if note.has & HAS_RELAY != 0 {
                note.relay = f(note.relay);
            }
        }
    }

    /// Puts the spans in artifact order, `(start_us, device, id)`, and
    /// regroups the buffer to match, so the recorder is a sorted run for
    /// [`SpanRecorder::merge`]. Call after [`SpanRecorder::finalize`]:
    /// no span may still be open.
    pub fn sort(&mut self) {
        assert!(self.open.is_empty(), "sorting a recorder with open spans");
        self.spans.sort_by_key(Span::artifact_key);
        let mut notes = Vec::with_capacity(self.notes.len());
        for span in &mut self.spans {
            let mut at = span.first;
            if at == NONE {
                continue;
            }
            span.first = notes.len() as u32;
            while at != NONE {
                let note = self.notes[at as usize];
                at = note.next;
                notes.push(Note {
                    next: notes.len() as u32 + 1,
                    ..note
                });
            }
            span.last = notes.len() as u32 - 1;
            notes[span.last as usize].next = NONE;
        }
        self.notes = notes;
    }

    /// Finalizes the recorder and puts it in artifact order: the one run
    /// of a scenario's span artifact.
    pub fn finish(mut self) -> SortedRuns<SpanRecorder> {
        self.finalize();
        self.sort();
        SortedRuns::from(self)
    }

    /// Orders finished recorders, each already in artifact order (see
    /// [`SpanRecorder::sort`]), into one span artifact in artifact order.
    /// Equal keys keep recorder order, so folding cells in cell order
    /// gives the same artifact at any shard count. No span moves: each
    /// stays in its recorder.
    pub fn merge(recorders: Vec<SpanRecorder>) -> SortedRuns<SpanRecorder> {
        SortedRuns::new(recorders)
    }
}

/// Shows each span with its annotations, not the buffer they share, so
/// two recorders of the same spans read alike however they were filled.
impl fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &self.enabled)
            .field("spans", &self.spans().collect::<Vec<_>>())
            .field("open", &self.open)
            .finish()
    }
}

impl Run for SpanRecorder {
    type Record<'a> = SpanRef<'a>;
    type Key = (u64, u32, u64);

    fn len(&self) -> usize {
        self.spans.len()
    }

    fn key(&self, index: usize) -> (u64, u32, u64) {
        self.spans[index].artifact_key()
    }

    fn record(&self, index: usize) -> SpanRef<'_> {
        SpanRef {
            span: &self.spans[index],
            recorder: self,
        }
    }
}

impl SortedRuns<SpanRecorder> {
    /// Rewrites device ids through `f` in every run, as
    /// [`SpanRecorder::remap_devices`] does, and puts each run back in
    /// artifact order.
    pub fn remap_devices(&mut self, f: impl Fn(u32) -> u32) {
        let mut runs = std::mem::take(self).into_runs();
        for run in &mut runs {
            run.remap_devices(&f);
            run.sort();
        }
        *self = SpanRecorder::merge(runs);
    }

    /// Serializes every span as JSONL, in artifact order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self {
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

/// Each span travels with its annotations in order, as if it held them
/// in a `Vec` of its own, and then the open map.
impl Snap for SpanRecorder {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.enabled.snap(w);
        w.put_usize(self.spans.len());
        for span in self.spans() {
            span.id.snap(w);
            span.device.snap(w);
            span.start_us.snap(w);
            span.end_us.snap(w);
            span.outcome.snap(w);
            span.retries.snap(w);
            w.put_usize(span.events().count());
            for event in span.events() {
                event.snap(w);
            }
        }
        self.open.snap(w);
    }

    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut rec = SpanRecorder {
            enabled: bool::unsnap(r)?,
            ..SpanRecorder::default()
        };
        for slot in 0..take_len(r, "vec")? {
            rec.spans.push(Span {
                id: u64::unsnap(r)?,
                device: u32::unsnap(r)?,
                start_us: u64::unsnap(r)?,
                end_us: Option::unsnap(r)?,
                outcome: Option::unsnap(r)?,
                retries: u32::unsnap(r)?,
                first: NONE,
                last: NONE,
            });
            for _ in 0..take_len(r, "vec")? {
                let event = SpanEvent::unsnap(r)?;
                rec.push_note(slot, event);
            }
        }
        rec.open = HashMap::unsnap(r)?;
        check_open_slots(&rec)?;
        Ok(rec)
    }
}

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

    /// The one span a recorder holds after `record` runs on it.
    fn single(record: impl FnOnce(&mut SpanRecorder)) -> SortedRuns<SpanRecorder> {
        let mut rec = SpanRecorder::enabled();
        record(&mut rec);
        rec.finish()
    }

    fn first_line(spans: &SortedRuns<SpanRecorder>) -> String {
        spans.iter().next().expect("one span").to_jsonl()
    }

    #[test]
    fn restore_refuses_bad_open_span_slots() {
        let mut model = Model {
            enabled: true,
            ..Model::default()
        };
        model.start(7, 3, 1_000);
        // An open slot past the spans, and one id opened twice.
        for open in [vec![(7u64, 1usize)], vec![(7, 0), (7, 0)]] {
            let mut w = SnapshotWriter::new();
            true.snap(&mut w);
            model.spans.snap(&mut w);
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
        assert_eq!(rec.finish().to_jsonl(), "");
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
        assert_eq!(rec.record(0).outcome, Some("accepted"));
        assert_eq!(rec.record(0).events().count(), 2);
    }

    #[test]
    fn finalize_marks_open_spans_in_flight() {
        let mut rec = SpanRecorder::enabled();
        rec.start(1, 0, 100);
        rec.start(2, 1, 200);
        rec.close(1, 900, "accepted");
        rec.finalize();
        assert_eq!(rec.record(1).outcome, Some("in-flight"));
        assert_eq!(rec.record(1).end_us, None);
    }

    #[test]
    fn jsonl_is_sorted_and_round_trips() {
        let mut rec = SpanRecorder::enabled();
        rec.start(2, 5, 400);
        rec.start(1, 3, 100);
        rec.annotate(1, 150, "d2d-transfer", None, None, Some(9));
        rec.annotate(1, 180, "fallback", Some("d2d-down"), None, None);
        rec.close(1, 200, "accepted");
        let text = rec.finish().to_jsonl();
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
        let closed = single(|rec| {
            rec.start(1 << 40 | 7, 3, 100);
            rec.annotate(1 << 40 | 7, 150, "d2d-transfer", None, None, Some(9));
            rec.annotate(
                1 << 40 | 7,
                160,
                "retry",
                Some("transfer-failed"),
                Some(1),
                None,
            );
            rec.annotate(1 << 40 | 7, 180, "fallback", Some("d2d-down"), None, None);
            rec.close(1 << 40 | 7, 2_100, "accepted");
        });
        let in_flight = single(|rec| {
            rec.start(2, 5, 400);
            rec.annotate(2, 450, "retry", Some("relay-departed"), Some(1), Some(4));
        });
        let bare = single(|rec| {
            rec.start(3, 0, 0);
            rec.close(3, 0, "expired");
        });
        assert_eq!(
            first_line(&closed),
            concat!(
                r#"{"id":1099511627783,"device":3,"start_us":100,"end_us":2100,"#,
                r#""latency_us":2000,"outcome":"accepted","retries":1,"events":["#,
                r#"{"t_us":150,"kind":"d2d-transfer","relay":9},"#,
                r#"{"t_us":160,"kind":"retry","cause":"transfer-failed","attempt":1},"#,
                r#"{"t_us":180,"kind":"fallback","cause":"d2d-down"}]}"#
            )
        );
        assert_eq!(
            first_line(&in_flight),
            concat!(
                r#"{"id":2,"device":5,"start_us":400,"outcome":"in-flight","retries":1,"#,
                r#""events":[{"t_us":450,"kind":"retry","cause":"relay-departed","#,
                r#""attempt":1,"relay":4}]}"#
            )
        );
        assert_eq!(
            first_line(&bare),
            r#"{"id":3,"device":0,"start_us":0,"end_us":0,"latency_us":0,"outcome":"expired","retries":0,"events":[]}"#
        );
    }

    /// A span with every optional field, one with none, and a run label
    /// that needs escaping read back through [`Json::parse`] into the
    /// same values, and write back out byte for byte.
    #[test]
    fn span_lines_round_trip_through_the_reader() {
        let id = 1 << 40 | 7;
        let mut rec = SpanRecorder::enabled();
        // Full: closed, and its event carries every optional field.
        rec.start(id, 3, 100);
        rec.annotate(id, 160, "retry", Some("transfer-failed"), Some(1), Some(9));
        rec.close(id, 2_100, "accepted");
        // Bare: never closed, and its event carries none.
        rec.start(id + 1, 3, 100);
        rec.annotate(id + 1, 160, "retry", None, None, None);
        for span in rec.spans() {
            let want = span.events().next().expect("one event");
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
                let got = &record.events[0];
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
        let line = rec.finish().to_jsonl();
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
            let mut b = SpanRecorder::enabled();
            b.start(1, 0, 50);
            b.close(1, 80, "expired");
            let (mut a, mut b) = (a.finish(), b.finish());
            // Cell-local ids 0/1 map to globals 2/3 in cell A, 7 in B.
            a.remap_devices(|d| d + 2);
            b.remap_devices(|d| d + 7);
            (a.into_runs(), b.into_runs())
        };
        let (a, b) = cells();
        let forward = SpanRecorder::merge([a, b].concat());
        let (a, b) = cells();
        let backward = SpanRecorder::merge([b, a].concat());
        // Same spans, opposite merge order: the merged store is in
        // artifact order, and its artifact is byte-identical.
        let starts: Vec<u64> = forward.iter().map(|s| s.start_us).collect();
        assert_eq!(starts, [50, 60, 100]);
        assert_eq!(forward.to_jsonl(), backward.to_jsonl());
        assert!(forward
            .to_jsonl()
            .starts_with("{\"id\":1,\"device\":7,\"start_us\":50"));
        let third = forward.iter().nth(2).expect("three spans");
        assert_eq!(
            third.events().next().expect("one event").relay,
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

    /// The span store's reference: every span owns a `Vec` of its
    /// annotations, and the artifact is sorted as it is written.
    #[derive(Debug, Clone, PartialEq)]
    struct ModelSpan {
        id: u64,
        device: u32,
        start_us: u64,
        end_us: Option<u64>,
        outcome: Option<&'static str>,
        retries: u32,
        events: Vec<SpanEvent>,
    }

    snap_struct!(ModelSpan {
        id,
        device,
        start_us,
        end_us,
        outcome,
        retries,
        events
    });

    #[derive(Debug, Default)]
    struct Model {
        enabled: bool,
        spans: Vec<ModelSpan>,
        open: HashMap<u64, usize>,
    }

    snap_struct!(Model {
        enabled,
        spans,
        open
    });

    impl Model {
        fn start(&mut self, id: u64, device: u32, t_us: u64) {
            if !self.enabled || self.open.contains_key(&id) {
                return;
            }
            self.open.insert(id, self.spans.len());
            self.spans.push(ModelSpan {
                id,
                device,
                start_us: t_us,
                end_us: None,
                outcome: None,
                retries: 0,
                events: Vec::new(),
            });
        }

        fn annotate(&mut self, id: u64, event: SpanEvent) {
            if let Some(&slot) = self.open.get(&id) {
                self.spans[slot].events.push(event);
            }
        }

        fn retries(span: &ModelSpan) -> u32 {
            span.events.iter().filter(|e| e.kind == "retry").count() as u32
        }

        fn close(&mut self, id: u64, t_us: u64, outcome: &'static str) -> Option<(u64, u32)> {
            let slot = self.open.remove(&id)?;
            let span = &mut self.spans[slot];
            span.end_us = Some(t_us);
            span.outcome = Some(outcome);
            span.retries = Self::retries(span);
            Some((t_us.saturating_sub(span.start_us), span.retries))
        }

        fn finalize(&mut self) {
            for span in &mut self.spans {
                if span.outcome.is_none() {
                    span.outcome = Some("in-flight");
                    span.retries = Self::retries(span);
                }
            }
            self.open.clear();
        }

        fn remap_devices(&mut self, f: impl Fn(u32) -> u32) {
            for span in &mut self.spans {
                span.device = f(span.device);
                for event in &mut span.events {
                    event.relay = event.relay.map(&f);
                }
            }
        }

        fn to_jsonl(&self) -> String {
            let mut order: Vec<&ModelSpan> = self.spans.iter().collect();
            order.sort_by_key(|s| (s.start_us, s.device, s.id));
            let mut out = String::new();
            for span in order {
                json::object(&mut out, |o| {
                    o.field("id", span.id)
                        .field("device", span.device)
                        .field("start_us", span.start_us)
                        .field("end_us", span.end_us)
                        .field(
                            "latency_us",
                            span.end_us.map(|e| e.saturating_sub(span.start_us)),
                        )
                        .field("outcome", span.outcome)
                        .field("retries", span.retries)
                        .objects("events", &span.events, |o, ev| {
                            o.field("t_us", ev.t_us)
                                .field("kind", ev.kind)
                                .field("cause", ev.cause)
                                .field("attempt", ev.attempt)
                                .field("relay", ev.relay);
                        });
                });
                out.push('\n');
            }
            out
        }
    }

    fn snapshot(value: &impl Snap) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        value.snap(&mut w);
        w.into_bytes()
    }

    mod store_properties {
        use super::*;
        use proptest::prelude::*;

        const KINDS: [&str; 5] = ["batched", "retry", "d2d-transfer", "fallback", "handover"];
        const CAUSES: [Option<&str>; 4] = [
            None,
            Some("capacity"),
            Some("relay-departed"),
            Some("link-failed"),
        ];
        const OUTCOMES: [&str; 3] = ["accepted", "expired", "duplicate-id"];

        /// One recorder call: `(op, id, t_us, kind, cause, attempt, relay)`.
        type Op = (u8, u64, u64, usize, usize, u32, u32);

        /// Sends one call to both stores; `close` must answer alike.
        fn apply(rec: &mut SpanRecorder, model: &mut Model, op: Op) {
            let (op, id, t_us, kind, cause, attempt, relay) = op;
            match op {
                0..=2 => {
                    rec.start(id, (id % 7) as u32, t_us);
                    model.start(id, (id % 7) as u32, t_us);
                }
                3..=8 => {
                    let event = SpanEvent {
                        t_us,
                        kind: KINDS[kind],
                        cause: CAUSES[cause],
                        attempt: (attempt > 0).then_some(attempt),
                        relay: (relay > 0).then(|| relay - 1),
                    };
                    rec.annotate(
                        id,
                        t_us,
                        event.kind,
                        event.cause,
                        event.attempt,
                        event.relay,
                    );
                    model.annotate(id, event);
                }
                _ => {
                    let outcome = OUTCOMES[kind % OUTCOMES.len()];
                    assert_eq!(rec.close(id, t_us, outcome), model.close(id, t_us, outcome));
                }
            }
        }

        /// Spans with 0, 1, 5 and 9 annotations, closed, and one with
        /// three left open.
        fn shapes() -> Vec<Op> {
            let mut ops = Vec::new();
            for (id, notes) in [(100u64, 0u64), (101, 1), (102, 5), (103, 9), (104, 3)] {
                ops.push((0, id, id, 0, 0, 0, 0));
                for n in 0..notes {
                    ops.push((
                        3,
                        id,
                        id + n,
                        (n % 5) as usize,
                        (n % 4) as usize,
                        n as u32,
                        0,
                    ));
                }
                if id != 104 {
                    ops.push((9, id, id + 50, 0, 0, 0, 0));
                }
            }
            ops
        }

        proptest! {
            /// The same calls to the recorder and to the reference give
            /// the same snapshot bytes mid-run and after finalizing, the
            /// same restored recorder, and the same artifact, also after
            /// a remap that reorders the spans.
            #[test]
            fn the_store_matches_one_vec_per_span(
                ops in proptest::collection::vec(
                    (0u8..11, 0u64..12, 0u64..400, 0usize..5, 0usize..4, 0u32..4, 0u32..6),
                    0..160,
                ),
            ) {
                let mut rec = SpanRecorder::enabled();
                let mut model = Model { enabled: true, ..Model::default() };
                for op in shapes().into_iter().chain(ops) {
                    apply(&mut rec, &mut model, op);
                }
                let bytes = snapshot(&model);
                prop_assert_eq!(snapshot(&rec), bytes.clone());
                let restored = SpanRecorder::unsnap(&mut SnapshotReader::new(&bytes))
                    .expect("the reference's bytes read back");
                prop_assert_eq!(snapshot(&restored), bytes);
                rec.finalize();
                model.finalize();
                prop_assert_eq!(snapshot(&rec), snapshot(&model));
                let mut spans = rec.finish();
                prop_assert_eq!(spans.to_jsonl(), model.to_jsonl());
                // Reversing the device ids reverses ties on `start_us`.
                spans.remap_devices(|d| 50 - d);
                model.remap_devices(|d| 50 - d);
                prop_assert_eq!(spans.to_jsonl(), model.to_jsonl());
            }
        }
    }
}
