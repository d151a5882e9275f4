//! Deterministic observability: a metrics registry and a typed event
//! stream.
//!
//! The evaluation (§V) lives on *why* things happened — which of
//! Algorithm 1's three conditions flushed a batch, how long radios
//! dwelt in each RRC state, where the energy went. This module gives
//! every subsystem a shared, zero-cost-when-disabled place to record
//! those quantities:
//!
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   [`Histogram`]s. Bucket boundaries are static and counts are
//!   integers, so a snapshot is byte-identical at any sweep thread
//!   count (like the golden-trace artifacts).
//! * [`TelemetryEvent`] / [`EventLog`] — a typed event stream
//!   (flushes, RRC transitions, relay matches, fallbacks, faults,
//!   energy phases) serialized as JSONL for machine consumption and the
//!   `hbr timeline` explainer. The newest records double as the
//!   scenario's trace.
//! * [`Telemetry::record`] — one call per fact: it appends the event and
//!   writes the metrics the event implies, from a single `match`, so
//!   the event stream, the counters and the trace cannot disagree.
//! * [`MetricsSnapshot`] — an immutable, mergeable copy of a registry
//!   that renders as JSON and as a Prometheus-style text exposition.
//!
//! # Determinism rules
//!
//! Exported artifacts may contain **no wall-clock values**: every time
//! is a [`SimTime`], every count an integer, every float derived from
//! simulated quantities. Map iteration uses `BTreeMap`, merges happen
//! in caller-defined (input) order, and floats follow the float rule of
//! [`crate::json`] (Rust's shortest-roundtrip `{}`) — so two runs of the
//! same scenario produce byte-identical files, regardless of machine or
//! thread count. Every JSON artifact here is written through
//! [`crate::json`]'s field writer.
//!
//! # Examples
//!
//! ```
//! use hbr_sim::telemetry::{MetricsRegistry, DWELL_BUCKETS};
//!
//! let mut m = MetricsRegistry::enabled();
//! m.incr("hbr_flush_total{reason=\"capacity\"}");
//! m.observe("hbr_rrc_dwell_seconds{state=\"dch\"}", DWELL_BUCKETS, 4.2);
//! let snap = m.snapshot();
//! assert!(snap.to_json().contains("hbr_flush_total"));
//! assert!(snap.to_prometheus().contains("bucket"));
//! ```

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;

use crate::json::{self, Fields};
use crate::snapshot::{intern_bounds, Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::SimTime;
use crate::{snap_enum, snap_struct};

pub use crate::spans::{Span, SpanEvent, SpanEventRecord, SpanRecord, SpanRecorder, SpanRef};

/// RRC state-dwell and D2D latency buckets, seconds.
pub const DWELL_BUCKETS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0];

/// Relay buffer occupancy / aggregation size buckets (heartbeats).
pub const SIZE_BUCKETS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Queueing-delay buckets, seconds (up against the 270 s relay period).
pub const DELAY_BUCKETS: &[f64] = &[1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 270.0];

/// End-to-end delivery-latency buckets, **microseconds** (spans close in
/// `t_us`). From sub-second cellular rescues up through a full 30 min
/// aggregation-plus-retry tail; anything slower lands in `+Inf`.
pub const LATENCY_BUCKETS: &[f64] = &[
    100_000.0,
    1_000_000.0,
    5_000_000.0,
    15_000_000.0,
    60_000_000.0,
    180_000_000.0,
    600_000_000.0,
    1_800_000_000.0,
];

/// Retry-chain-depth buckets (attempts per heartbeat; the backoff
/// policy caps at 3, deeper chains would be a bug worth seeing).
pub const RETRY_DEPTH_BUCKETS: &[f64] = &[0.0, 1.0, 2.0, 3.0, 5.0];

/// A fixed-bucket histogram: static upper boundaries, integer counts.
///
/// The boundary slice is part of the histogram's identity — observing
/// into the same name with different boundaries panics, which keeps the
/// exported artifact schema stable.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds (`le`), ascending. A final `+Inf` bucket
    /// is implicit.
    bounds: &'static [f64],
    /// One count per bound, plus the overflow bucket at the end.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over the given static boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN — it would land in no bucket and poison the sum.
    pub fn observe(&mut self, value: f64) {
        assert!(!value.is_nan(), "Histogram::observe called with NaN");
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// The static bucket boundaries.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts (the last entry is the `+Inf` overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// within the owning bucket, the standard fixed-bucket estimator:
    /// find the first bucket whose cumulative count reaches `q · count`,
    /// then interpolate between its lower and upper bound by the rank's
    /// position inside the bucket. The first bucket's lower edge is
    /// taken as 0 (all exported metrics are non-negative).
    ///
    /// **`+Inf` convention:** a rank landing in the overflow bucket has
    /// no finite upper bound to interpolate toward, so the estimate
    /// clamps to the last finite boundary — a documented *lower* bound
    /// on the true quantile, matching Prometheus's `histogram_quantile`.
    ///
    /// Returns `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let last_finite = *self.bounds.last().expect("bounds are non-empty");
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let before = cumulative as f64;
            cumulative += c;
            if c > 0 && cumulative as f64 >= rank {
                if i == self.bounds.len() {
                    return Some(last_finite);
                }
                let upper = self.bounds[i];
                let lower = if i == 0 {
                    upper.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let fraction = ((rank - before) / c as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * fraction);
            }
        }
        Some(last_finite)
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the boundary slices differ — two histograms under one
    /// name must share a schema.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket boundaries"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

impl Snap for Histogram {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.bounds.to_vec().snap(w);
        self.counts.snap(w);
        w.put_u64(self.count);
        w.put_f64(self.sum);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let bounds_vec = Vec::<f64>::unsnap(r)?;
        if bounds_vec.is_empty() || bounds_vec.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnapshotError::Corrupt(
                "histogram bounds not strictly ascending".to_string(),
            ));
        }
        let counts = Vec::<u64>::unsnap(r)?;
        if counts.len() != bounds_vec.len() + 1 {
            return Err(SnapshotError::Corrupt(format!(
                "histogram has {} counts for {} bounds",
                counts.len(),
                bounds_vec.len()
            )));
        }
        Ok(Histogram {
            bounds: intern_bounds(&bounds_vec),
            counts,
            count: r.take_u64()?,
            sum: r.take_f64()?,
        })
    }
}

snap_struct!(MetricsRegistry {
    enabled,
    counters,
    gauges,
    histograms
});

/// A registry of named metrics. Disabled registries make every record
/// call a cheap early return and snapshot to an empty artifact.
///
/// Metric names follow the Prometheus convention, with any labels
/// inlined: `hbr_flush_total{reason="capacity"}`. `BTreeMap` keys give
/// every export a stable order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// A disabled registry: all record calls are no-ops.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// An enabled registry.
    pub fn enabled() -> Self {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    /// `true` if recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments the named counter by `n`. The key is allocated only
    /// on the counter's first increment.
    pub fn add(&mut self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.get_mut(name) {
            Some(count) => *count += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Sets the named gauge (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert(name.to_string(), value);
    }

    /// Adds to the named gauge (for additive quantities like joules).
    pub fn add_gauge(&mut self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        match self.gauges.get_mut(name) {
            Some(gauge) => *gauge += value,
            // A new gauge starts at 0.0, so a first `-0.0` reads `0.0`.
            None => {
                self.gauges.insert(name.to_string(), 0.0 + value);
            }
        }
    }

    /// Observes one sample into the named histogram, creating it over
    /// `bounds` on first use.
    pub fn observe(&mut self, name: &str, bounds: &'static [f64], value: f64) {
        if !self.enabled {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(histogram) => histogram.observe(value),
            None => {
                let mut histogram = Histogram::new(bounds);
                histogram.observe(value);
                self.histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// An immutable, mergeable copy of a [`MetricsRegistry`]'s contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counts, by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time values, by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Distributions, by metric name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// `true` if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges another snapshot into this one: counters and histogram
    /// buckets add, gauges add (they carry additive quantities here).
    /// Deterministic as long as callers merge in a fixed order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0.0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[..],"counts":[..],"count":n,"sum":x}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.object("counters", |o| {
                for (name, n) in &self.counters {
                    o.field(name, *n);
                }
            })
            .object("gauges", |o| {
                for (name, v) in &self.gauges {
                    o.field(name, *v);
                }
            })
            .object("histograms", |o| {
                for (name, h) in &self.histograms {
                    o.object(name, |o| {
                        o.field("bounds", h.bounds)
                            .field("counts", h.counts())
                            .field("count", h.count)
                            .field("sum", h.sum);
                    });
                }
            });
        });
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Each metric family is announced once with `# HELP` / `# TYPE`
    /// metadata (labelled series share their family's header), and
    /// histograms expand into cumulative `_bucket{le=...}` series plus
    /// `_count` and `_sum`, exactly as a scrape endpoint would show
    /// them. `BTreeMap` iteration keeps the whole exposition
    /// byte-deterministic.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut family = None::<String>;
        for (name, n) in &self.counters {
            let (base, _) = split_labels(name);
            family_header(&mut out, &mut family, base, "counter");
            let _ = writeln!(out, "{name} {n}");
        }
        family = None;
        for (name, v) in &self.gauges {
            let (base, _) = split_labels(name);
            family_header(&mut out, &mut family, base, "gauge");
            let _ = write!(out, "{name} ");
            json::push_f64(&mut out, *v);
            out.push('\n');
        }
        family = None;
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            family_header(&mut out, &mut family, base, "histogram");
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                let _ = write!(out, "{base}_bucket{{{}le=\"", prefix_labels(labels));
                json::push_f64(&mut out, *bound);
                let _ = writeln!(out, "\"}} {cumulative}");
            }
            cumulative += h.counts.last().copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{base}_bucket{{{}le=\"+Inf\"}} {cumulative}",
                prefix_labels(labels)
            );
            let suffix = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            let _ = writeln!(out, "{base}_count{suffix} {}", h.count);
            let _ = write!(out, "{base}_sum{suffix} ");
            json::push_f64(&mut out, h.sum);
            out.push('\n');
        }
        out
    }
}

/// Writes a `# HELP` / `# TYPE` pair the first time a metric family
/// appears (labelled series of one family are adjacent in `BTreeMap`
/// order, so tracking the previous base name suffices).
fn family_header(out: &mut String, last: &mut Option<String>, base: &str, kind: &str) {
    if last.as_deref() == Some(base) {
        return;
    }
    let help = match kind {
        "counter" => "Monotonic event count (deterministic sim-time telemetry).",
        "gauge" => "Point-in-time value (deterministic sim-time telemetry).",
        _ => "Fixed-bucket distribution (deterministic sim-time telemetry).",
    };
    let _ = writeln!(out, "# HELP {base} {help}");
    let _ = writeln!(out, "# TYPE {base} {kind}");
    *last = Some(base.to_string());
}

/// Splits `name{labels}` into `(name, labels)`; labels may be empty.
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Existing labels followed by a comma, or nothing — so a `le` label can
/// always be appended inside one brace pair.
fn prefix_labels(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    }
}

/// One typed telemetry event. Every variant carries enough context to
/// explain itself in a timeline without joining against other streams.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A relay flushed its aggregation buffer (Algorithm 1 fired).
    Flush {
        /// The flushing relay's index.
        device: u32,
        /// Which of the three conditions fired (`"capacity"`,
        /// `"expiration"`, `"period"`) — or `"outage-queued"` when the
        /// batch had to wait out a cellular outage.
        reason: &'static str,
        /// Collected (forwarded) heartbeats in the batch.
        buffered: usize,
        /// The relay's own heartbeats sent along.
        own: usize,
        /// Total payload bytes.
        bytes: usize,
    },
    /// A radio's RRC state machine moved.
    RrcTransition {
        /// The device whose radio moved.
        device: u32,
        /// State label before (`"idle"`, `"dch"`, `"fach"`).
        from: &'static str,
        /// State label after.
        to: &'static str,
        /// How long the radio dwelt in `from`, seconds.
        dwell_secs: f64,
    },
    /// A UE matched a relay and starts establishing a D2D link.
    RelayMatch {
        /// The matching UE.
        device: u32,
        /// The chosen relay.
        relay: u32,
    },
    /// A UE's attachment tore down (link close, rematch, fault, death).
    RelayDepart {
        /// The detaching UE.
        device: u32,
        /// The relay it was attached to.
        relay: u32,
    },
    /// A heartbeat took the cellular fallback path: one event per
    /// fallback decision, made at emission (no relay in range, a
    /// discovery blackout, a D2D radio that is down) or after a failed
    /// D2D delivery. `hbr_fallback_total{cause}` counts these events.
    Fallback {
        /// The rescuing device.
        device: u32,
        /// Why: at emission `"no-relay"`, `"blackout"` or `"d2d-down"`;
        /// after a failed D2D delivery `"feedback-timeout"`,
        /// `"retry-exhausted"` or `"d2d-down"` (a retry that found the
        /// D2D radio down).
        cause: &'static str,
        /// Root span id of the rescued heartbeat, when lifecycle spans
        /// are enabled — lets `hbr timeline` hand off to
        /// `hbr spans --id` for the full cause chain. `None` (and
        /// omitted from JSONL) when spans are off, so existing golden
        /// artifacts are byte-unchanged.
        span: Option<u64>,
    },
    /// The reliable-delivery layer scheduled a D2D retransmission for a
    /// heartbeat whose first attempt failed (transfer loss, feedback
    /// miss, or relay departure).
    Retry {
        /// The source device whose heartbeat is being retried.
        device: u32,
        /// Why (`"transfer-failed"`, `"feedback-timeout"`,
        /// `"relay-departed"`).
        cause: &'static str,
        /// 1-based retransmission attempt number.
        attempt: u32,
    },
    /// A UE re-matched to a different relay after its previous one
    /// failed it (departure or feedback timeout) — one hop, then the
    /// cellular fallback.
    Handover {
        /// The UE performing the handover.
        device: u32,
        /// The relay that failed it.
        from_relay: u32,
        /// The newly matched relay.
        to_relay: u32,
    },
    /// A fault-plan entry fired.
    FaultInjected {
        /// The entry's index in the [`FaultPlan`](crate::fault::FaultPlan).
        index: usize,
        /// Fault kind label (`"link-drop"`, `"cellular-outage"`, ...).
        kind: &'static str,
        /// The targeted device, if the kind has one.
        device: Option<u32>,
    },
    /// Per-phase-group energy a device accumulated (emitted at scenario
    /// end, one event per non-zero group).
    EnergyPhase {
        /// The device.
        device: u32,
        /// Phase-group label (`"Discovery"`, `"Cellular"`, ...).
        group: &'static str,
        /// Charge drawn in that group, µAh.
        uah: f64,
    },
    /// A device crossed a cell boundary: the sharded engine extracted it
    /// from its source cell at an epoch barrier and re-admitted it in the
    /// destination cell.
    Migrate {
        /// The migrating device (fleet-global index once merged).
        device: u32,
        /// The cell it departed.
        from_cell: usize,
        /// The cell it entered.
        to_cell: usize,
    },
    /// The fleet-level digest the sharded crowd engine folds from every
    /// cell's epoch pulse at a barrier (one event per epoch; fleet
    /// scope, so no device).
    FleetPulse {
        /// Epoch index, 0-based.
        epoch: u32,
        /// Cells that contributed to the fold.
        cells: u32,
        /// The fleet's counters at the barrier, out of line: a run
        /// records eight pulses, and inline they would widen every event.
        counters: Box<PulseCounters>,
    },
}

/// The counters a [`TelemetryEvent::FleetPulse`] carries, written flat
/// into the pulse's line and snapshot after its `cells`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PulseCounters {
    /// Cumulative D2D forwards across the fleet.
    pub forwards: u64,
    /// Cumulative heartbeats rescued over cellular after a failed D2D
    /// delivery, across the fleet (the sum of the cells' pulses).
    pub fallbacks: u64,
    /// Heartbeats queued behind cellular outages at the barrier.
    pub outage_queued: u64,
    /// Cumulative layer-3 messages across every cell.
    pub l3: u64,
    /// Cumulative server-accepted heartbeats (reliable-delivery ledger;
    /// 0 when the layer is off).
    pub delivered: u64,
    /// Cumulative D2D retransmissions scheduled by the reliable-delivery
    /// layer.
    pub retries: u64,
    /// Cumulative cross-cell migrations, when roaming is on. `None` (and
    /// omitted from JSONL) keeps pre-roaming artifacts byte-identical.
    pub migrations: Option<u64>,
    /// Cumulative LTE handover signaling bursts, when roaming is on.
    pub lte_handovers: Option<u64>,
}

/// `TelemetryEvent`'s wire format, listed once: each variant's snapshot
/// tag, its JSONL `event` label and its fields in wire order. The
/// snapshot ([`snap_enum!`](crate::snap_enum)), [`TelemetryEvent::kind`]
/// and the JSONL line are all generated from the one list, so a field
/// sits in the same place in both formats; an absent optional field is
/// left out of the line. A boxed field names its struct and that
/// struct's fields, which both formats write flat in its place.
macro_rules! event_wire {
    ($($tag:literal => $variant:ident $label:literal {
        $($field:ident $(: $boxed:ident { $($inner:ident),+ $(,)? })?),+ $(,)?
    }),+ $(,)?) => {
        snap_enum!(TelemetryEvent "telemetry event" { $($tag => $variant { $($field),+ }),+ });
        $($($(snap_struct!($boxed { $($inner),+ });)?)+)+

        impl TelemetryEvent {
            /// Every variant's `event` label, in tag order.
            pub const KINDS: &'static [&'static str] = &[$($label),+];

            /// The event's kind tag, as serialized in the `event` field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TelemetryEvent::$variant { .. } => $label,)+
                }
            }

            /// Writes the variant's fields, in wire order.
            fn write_fields(&self, o: &mut Fields<'_>) {
                match self {
                    $(TelemetryEvent::$variant { $($field),+ } => {
                        $(wire_field!(o, $field $(: { $($inner),+ })?);)+
                    })+
                }
            }
        }
    };
}

/// One field of [`event_wire!`]'s line: `"name":value`, or a boxed
/// struct's fields in its place.
macro_rules! wire_field {
    ($o:ident, $field:ident) => {
        $o.field(stringify!($field), *$field);
    };
    ($o:ident, $field:ident: { $($inner:ident),+ }) => {
        $($o.field(stringify!($inner), $field.$inner);)+
    };
}

event_wire! {
    0 => Flush "flush" { device, reason, buffered, own, bytes },
    1 => RrcTransition "rrc" { device, from, to, dwell_secs },
    2 => RelayMatch "match" { device, relay },
    3 => RelayDepart "depart" { device, relay },
    4 => Fallback "fallback" { device, cause, span },
    5 => Retry "retry" { device, cause, attempt },
    6 => Handover "handover" { device, from_relay, to_relay },
    7 => FaultInjected "fault" { index, kind, device },
    8 => EnergyPhase "energy" { device, group, uah },
    9 => Migrate "migrate" { device, from_cell, to_cell },
    10 => FleetPulse "pulse" {
        epoch,
        cells,
        counters: PulseCounters {
            forwards,
            fallbacks,
            outage_queued,
            l3,
            delivered,
            retries,
            migrations,
            lte_handovers,
        },
    },
}

impl TelemetryEvent {
    /// Rewrites every device index the event carries through `map` —
    /// how the sharded crowd engine translates a cell's local indices
    /// back to fleet-global ones before merging per-cell event streams.
    pub fn remap_devices(&mut self, map: impl Fn(u32) -> u32) {
        match self {
            TelemetryEvent::Flush { device, .. }
            | TelemetryEvent::RrcTransition { device, .. }
            | TelemetryEvent::Fallback { device, .. }
            | TelemetryEvent::Retry { device, .. }
            | TelemetryEvent::EnergyPhase { device, .. }
            | TelemetryEvent::Migrate { device, .. } => *device = map(*device),
            TelemetryEvent::RelayMatch { device, relay }
            | TelemetryEvent::RelayDepart { device, relay } => {
                *device = map(*device);
                *relay = map(*relay);
            }
            TelemetryEvent::Handover {
                device,
                from_relay,
                to_relay,
            } => {
                *device = map(*device);
                *from_relay = map(*from_relay);
                *to_relay = map(*to_relay);
            }
            TelemetryEvent::FaultInjected { device, .. } => {
                if let Some(d) = device.as_mut() {
                    *d = map(*d);
                }
            }
            TelemetryEvent::FleetPulse { .. } => {}
        }
    }
}

/// One timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub event: TelemetryEvent,
}

// An observed run holds every event it records, so their size is the
// log's size: 56 B, the time plus the widest inline variant.
const _: () = assert!(std::mem::size_of::<EventRecord>() <= 56);

impl EventRecord {
    /// Serializes the record as one JSONL line (no trailing newline).
    /// Times are integer microseconds (`t_us`) — exact, and immune to
    /// float-parsing drift on the way back in.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(None, &mut out);
        out
    }

    /// Appends [`EventRecord::to_jsonl`]'s line to `out` (no trailing
    /// newline) without a temporary `String`. With `Some(run)` the line
    /// opens with a `"run"` key, which keeps the `both`-mode streams of
    /// one file apart.
    pub fn write_jsonl(&self, run: Option<&str>, out: &mut String) {
        json::object(out, |o| {
            o.field("run", run)
                .field(
                    "t_us",
                    self.time.saturating_since(SimTime::ZERO).as_micros(),
                )
                .field("event", self.event.kind());
            self.event.write_fields(o);
        });
    }
}

/// A run of records that [`SortedRuns`] interleaves without moving
/// them, sorted by a key: a `Vec` of events by time, or a span
/// recorder's spans in artifact order.
pub trait Run {
    /// A borrowed record.
    type Record<'a>: Copy
    where
        Self: 'a;

    /// What the run is sorted by.
    type Key: Ord;

    /// Records in the run.
    fn len(&self) -> usize;

    /// `true` if the run holds no record.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `index`-th record.
    fn record(&self, index: usize) -> Self::Record<'_>;

    /// The `index`-th record's key.
    fn key(&self, index: usize) -> Self::Key;
}

impl Run for Vec<EventRecord> {
    type Record<'a> = &'a EventRecord;
    type Key = SimTime;

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn record(&self, index: usize) -> &EventRecord {
        &self[index]
    }

    fn key(&self, index: usize) -> SimTime {
        self[index].time
    }
}

/// Runs that are each sorted by their key, held where they are and
/// walked in merged order: equal keys keep run order, then their order
/// within the run — exactly what concatenating the runs and
/// stable-sorting by the key gives. How the sharded crowd engine folds
/// its cells' sorted records: each record stays in its cell's run, and
/// [`SortedRuns::iter`] merges the runs as it walks them, so the fold
/// builds no index.
///
/// # Examples
///
/// ```
/// use hbr_sim::telemetry::{EventRecord, SortedRuns, TelemetryEvent};
/// use hbr_sim::SimTime;
///
/// // UE 0 matching relay `relay` at each of `secs`: one run per relay.
/// let run = |relay: u32, secs: &[u64]| -> Vec<EventRecord> {
///     secs.iter()
///         .map(|&s| EventRecord {
///             time: SimTime::from_secs(s),
///             event: TelemetryEvent::RelayMatch { device: 0, relay },
///         })
///         .collect()
/// };
/// let runs = SortedRuns::new(vec![run(0, &[1, 3]), run(1, &[1, 2])]);
/// let walked: Vec<(u64, u32)> = runs
///     .iter()
///     .map(|r| match r.event {
///         TelemetryEvent::RelayMatch { relay, .. } => (r.time.as_secs(), relay),
///         _ => unreachable!(),
///     })
///     .collect();
/// assert_eq!(walked, [(1, 0), (1, 1), (2, 1), (3, 0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SortedRuns<R> {
    runs: Vec<R>,
    len: usize,
}

impl<R: Run> SortedRuns<R> {
    /// Holds `runs`, each sorted by its key, for a merged walk.
    ///
    /// # Panics
    ///
    /// Panics if a run is not sorted by its key.
    pub fn new(runs: Vec<R>) -> Self {
        for (run, records) in runs.iter().enumerate() {
            assert!(
                (1..records.len()).all(|i| records.key(i - 1) <= records.key(i)),
                "SortedRuns: run {run} is not sorted"
            );
        }
        SortedRuns {
            len: runs.iter().map(Run::len).sum(),
            runs,
        }
    }

    /// Records across every run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no run holds a record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records in order.
    pub fn iter(&self) -> Walk<'_, R> {
        let heads = self
            .runs
            .iter()
            .enumerate()
            .filter(|(_, records)| !records.is_empty())
            .map(|(run, records)| Reverse((records.key(0), run)))
            .collect();
        Walk {
            runs: &self.runs,
            heads,
            cursors: vec![0; self.runs.len()],
            left: self.len,
        }
    }

    /// Returns the runs.
    pub fn into_runs(self) -> Vec<R> {
        self.runs
    }
}

impl<R: Run> From<R> for SortedRuns<R> {
    /// One run, walked as it stands.
    fn from(run: R) -> Self {
        SortedRuns {
            len: run.len(),
            runs: vec![run],
        }
    }
}

impl<'a, R: Run> IntoIterator for &'a SortedRuns<R> {
    type Item = R::Record<'a>;
    type IntoIter = Walk<'a, R>;

    fn into_iter(self) -> Walk<'a, R> {
        self.iter()
    }
}

impl SortedRuns<Vec<EventRecord>> {
    /// Rewrites every device index through `map`, as
    /// [`TelemetryEvent::remap_devices`] does; times, and so the order,
    /// stay as they are.
    pub fn remap_devices(&mut self, map: impl Fn(u32) -> u32) {
        for record in self.runs.iter_mut().flatten() {
            record.event.remap_devices(&map);
        }
    }
}

/// [`SortedRuns`]' records in order: a k-way merge of the runs. Each
/// unfinished run has one head in a min-heap, `(key, run)` of its next
/// record, so the top is the smallest key, the first run on a tie.
pub struct Walk<'a, R: Run> {
    runs: &'a [R],
    heads: BinaryHeap<Reverse<(R::Key, usize)>>,
    /// Each run's next record.
    cursors: Vec<usize>,
    left: usize,
}

impl<'a, R: Run> Iterator for Walk<'a, R> {
    type Item = R::Record<'a>;

    fn next(&mut self) -> Option<R::Record<'a>> {
        let mut head = self.heads.peek_mut()?;
        let run = head.0 .1;
        let (records, at) = (&self.runs[run], self.cursors[run]);
        self.cursors[run] = at + 1;
        if at + 1 < records.len() {
            // Dropping the head sifts it down to its new key's place.
            head.0 .0 = records.key(at + 1);
        } else {
            PeekMut::pop(head);
        }
        self.left -= 1;
        Some(records.record(at))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<R: Run> ExactSizeIterator for Walk<'_, R> {}

/// The typed event store. It keeps every record (the telemetry event
/// stream) or, as a trace-only log, just the newest `trace` records;
/// with neither it is disabled and drops records for free. Either way
/// the newest `trace` records are the scenario's trace — the invariant
/// checker's panic context and the report's `trace`.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Keep every record; otherwise only the newest `trace`.
    keep_all: bool,
    /// How many of the newest records form the trace (0 = no trace).
    trace: usize,
    records: Vec<EventRecord>,
    /// Records a trace-only log evicted.
    evicted: u64,
}

impl EventLog {
    /// `true` if recording is on.
    fn is_enabled(&self) -> bool {
        self.keep_all || self.trace > 0
    }

    /// Records one event (a no-op when disabled). Private: events enter
    /// through [`Telemetry::record`], which writes their metrics too.
    fn record(&mut self, time: SimTime, event: TelemetryEvent) {
        if !self.keep_all {
            if self.trace == 0 {
                return;
            }
            if self.records.len() == self.trace.saturating_mul(2) {
                // Evict a whole trace at once: amortised O(1) per
                // record, and the newest records stay one slice.
                self.records.drain(..self.trace);
                self.evicted += self.trace as u64;
            }
        }
        self.records.push(EventRecord { time, event });
    }

    /// The retained records, in recording order.
    pub fn records(&self) -> &[EventRecord] {
        if self.keep_all {
            &self.records
        } else {
            self.trace()
        }
    }

    /// The trace: the newest `trace` records, in recording order.
    pub fn trace(&self) -> &[EventRecord] {
        &self.records[self.records.len().saturating_sub(self.trace)..]
    }

    /// Records older than the trace's first (0 = the trace is complete,
    /// or there is no trace).
    pub fn trace_dropped(&self) -> u64 {
        if self.trace == 0 {
            return 0;
        }
        self.evicted + (self.records.len() - self.trace().len()) as u64
    }

    /// Consumes the log, returning the retained records.
    pub fn into_records(mut self) -> Vec<EventRecord> {
        let stale = self.records.len() - self.records().len();
        self.records.drain(..stale);
        self.records
    }
}

/// The two telemetry channels a scenario carries, constructed together.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// The metrics registry.
    pub metrics: MetricsRegistry,
    /// The typed event stream.
    pub events: EventLog,
}

impl Telemetry {
    /// Metrics and the full event stream when `enabled`; either way the
    /// log keeps the newest `trace` events as the trace. Both off (the
    /// default) costs nothing.
    pub fn new(enabled: bool, trace: usize) -> Self {
        Telemetry {
            metrics: MetricsRegistry {
                enabled,
                ..MetricsRegistry::default()
            },
            events: EventLog {
                keep_all: enabled,
                trace,
                ..EventLog::default()
            },
        }
    }

    /// `true` if either channel records.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.events.is_enabled()
    }

    /// Records one fact: appends `event` to the log and writes the
    /// metrics it implies. The only way an event enters the log. Inlined
    /// so that, with both channels off, the call site builds nothing.
    #[inline]
    pub fn record(&mut self, time: SimTime, event: TelemetryEvent) {
        if !self.is_enabled() {
            return;
        }
        if self.metrics.is_enabled() {
            write_implied_metrics(&mut self.metrics, &event);
        }
        self.events.record(time, event);
    }
}

/// Calls `f` with the labelled series name `base{label="value"}`,
/// composed in a buffer this thread reuses, so recording into a
/// labelled series allocates only when the series is new. `f` must not
/// call `labelled` itself: the buffer is borrowed while it runs.
///
/// # Examples
///
/// ```
/// use hbr_sim::telemetry::{labelled, MetricsRegistry};
///
/// let mut m = MetricsRegistry::enabled();
/// labelled("hbr_flush_total", "reason", "capacity", |name| m.incr(name));
/// assert_eq!(m.snapshot().counter("hbr_flush_total{reason=\"capacity\"}"), 1);
/// ```
pub fn labelled<R>(base: &str, label: &str, value: &str, f: impl FnOnce(&str) -> R) -> R {
    thread_local! {
        static NAME: RefCell<String> = const { RefCell::new(String::new()) };
    }
    NAME.with_borrow_mut(|name| {
        name.clear();
        for part in [base, "{", label, "=\"", value, "\"}"] {
            name.push_str(part);
        }
        f(name)
    })
}

/// The metrics an event implies — the one place they are written.
fn write_implied_metrics(m: &mut MetricsRegistry, event: &TelemetryEvent) {
    match *event {
        TelemetryEvent::Flush {
            reason, buffered, ..
        } => {
            labelled("hbr_flush_total", "reason", reason, |name| m.incr(name));
            // An outage-queued batch has not left the relay yet.
            if reason != "outage-queued" {
                m.observe("hbr_relay_batch_size", SIZE_BUCKETS, buffered as f64);
            }
        }
        TelemetryEvent::RrcTransition {
            from,
            to,
            dwell_secs,
            ..
        } => {
            labelled("hbr_rrc_dwell_seconds", "state", from, |name| {
                m.observe(name, DWELL_BUCKETS, dwell_secs)
            });
            if to == "idle" {
                m.incr("hbr_rrc_release_total");
            }
        }
        TelemetryEvent::RelayMatch { .. } => m.incr("hbr_d2d_link_setup_total"),
        TelemetryEvent::RelayDepart { .. } => m.incr("hbr_d2d_link_teardown_total"),
        TelemetryEvent::Fallback { cause, .. } => {
            labelled("hbr_fallback_total", "cause", cause, |name| m.incr(name));
        }
        TelemetryEvent::Retry { cause, .. } => {
            labelled("hbr_delivery_retry_total", "reason", cause, |name| {
                m.incr(name)
            });
        }
        TelemetryEvent::Handover { .. } => m.incr("hbr_delivery_handover_total"),
        TelemetryEvent::FaultInjected { kind, .. } => {
            labelled("hbr_faults_injected_total", "kind", kind, |name| {
                m.incr(name)
            });
        }
        TelemetryEvent::EnergyPhase { group, uah, .. } => {
            labelled("hbr_energy_uah", "group", group, |name| {
                m.add_gauge(name, uah)
            });
        }
        TelemetryEvent::Migrate { .. } => m.incr("hbr_migration_total"),
        TelemetryEvent::FleetPulse { ref counters, .. } => {
            for (name, value) in [
                ("hbr_fleet_forwards", Some(counters.forwards)),
                ("hbr_fleet_fallbacks", Some(counters.fallbacks)),
                ("hbr_fleet_outage_queued", Some(counters.outage_queued)),
                ("hbr_fleet_l3", Some(counters.l3)),
                ("hbr_fleet_delivered", Some(counters.delivered)),
                ("hbr_fleet_retries", Some(counters.retries)),
                ("hbr_fleet_migrations", counters.migrations),
                ("hbr_fleet_lte_handovers", counters.lte_handovers),
            ] {
                if let Some(value) = value {
                    m.set_gauge(name, value as f64);
                }
            }
            m.incr("hbr_fleet_epochs_total");
        }
    }
}

snap_struct!(EventRecord { time, event });

impl Snap for EventLog {
    /// Writes the retained records only, so the bytes do not depend on
    /// when a trace-only log last evicted.
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_bool(self.keep_all);
        w.put_usize(self.trace);
        let records = self.records();
        w.put_u64(self.evicted + (self.records.len() - records.len()) as u64);
        w.put_usize(records.len());
        for record in records {
            record.snap(w);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let keep_all = r.take_bool()?;
        let trace = r.take_usize()?;
        let evicted = r.take_u64()?;
        let records = Vec::<EventRecord>::unsnap(r)?;
        if !keep_all && records.len() > trace {
            return Err(SnapshotError::Corrupt(format!(
                "trace-only event log holds {} records for a trace of {trace}",
                records.len()
            )));
        }
        Ok(EventLog {
            keep_all,
            trace,
            records,
            evicted,
        })
    }
}

snap_struct!(Telemetry { metrics, events });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::rewritten;
    use crate::json::Json;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 100.0] {
            h.observe(v);
        }
        // le=1: {0.5, 1.0}; le=2: {1.5, 2.0}; le=4: {3.9, 4.0}; +Inf: {100}.
        assert_eq!(h.counts(), &[2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - 112.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        Histogram::new(&[1.0]).observe(f64::NAN);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::disabled();
        m.incr("x");
        m.set_gauge("y", 1.0);
        m.observe("z", DWELL_BUCKETS, 1.0);
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn snapshot_merge_adds_everything() {
        let mut a = MetricsRegistry::enabled();
        a.incr("c");
        a.add_gauge("g", 1.5);
        a.observe("h", SIZE_BUCKETS, 3.0);
        let mut b = MetricsRegistry::enabled();
        b.add("c", 2);
        b.add_gauge("g", 0.5);
        b.observe("h", SIZE_BUCKETS, 100.0);
        b.incr("only_b");

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c"), 3);
        assert_eq!(merged.counter("only_b"), 1);
        assert_eq!(merged.gauges["g"], 2.0);
        let h = &merged.histograms["h"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.counts().last(), Some(&1), "100 lands in +Inf");
    }

    #[test]
    fn json_rendering_is_stable_and_parseable_shape() {
        let mut m = MetricsRegistry::enabled();
        m.incr("hbr_flush_total{reason=\"capacity\"}");
        m.set_gauge("hbr_energy_uah", 581.25);
        m.observe("hbr_dwell", DWELL_BUCKETS, 3.0);
        let json = m.snapshot().to_json();
        assert_eq!(json, m.snapshot().to_json(), "rendering is deterministic");
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"hbr_flush_total{reason=\\\"capacity\\\"}\":1"));
        assert!(json.contains("\"hbr_energy_uah\":581.25"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn prometheus_exposition_expands_histograms() {
        let mut m = MetricsRegistry::enabled();
        m.observe("hbr_dwell_seconds{state=\"dch\"}", &[1.0, 5.0], 3.0);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# HELP hbr_dwell_seconds "));
        assert!(text.contains("# TYPE hbr_dwell_seconds histogram"));
        assert!(text.contains("hbr_dwell_seconds_bucket{state=\"dch\",le=\"1.0\"} 0"));
        assert!(text.contains("hbr_dwell_seconds_bucket{state=\"dch\",le=\"5.0\"} 1"));
        assert!(text.contains("hbr_dwell_seconds_bucket{state=\"dch\",le=\"+Inf\"} 1"));
        assert!(text.contains("hbr_dwell_seconds_count{state=\"dch\"} 1"));
        assert!(text.contains("hbr_dwell_seconds_sum{state=\"dch\"} 3.0"));
    }

    #[test]
    fn prometheus_metadata_is_emitted_once_per_family() {
        let mut m = MetricsRegistry::enabled();
        m.incr("hbr_flush_total{reason=\"capacity\"}");
        m.incr("hbr_flush_total{reason=\"period\"}");
        m.set_gauge("hbr_energy_uah", 2.5);
        let text = m.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE hbr_flush_total counter").count(), 1);
        assert_eq!(text.matches("# HELP hbr_flush_total ").count(), 1);
        assert!(text.contains("# TYPE hbr_energy_uah gauge"));
        // Metadata precedes the family's first sample.
        let type_at = text.find("# TYPE hbr_flush_total").unwrap();
        let sample_at = text.find("hbr_flush_total{reason=\"capacity\"} 1").unwrap();
        assert!(type_at < sample_at);
        assert_eq!(text, m.snapshot().to_prometheus(), "deterministic");
    }

    #[test]
    fn quantile_interpolates_within_the_bucket() {
        let mut h = Histogram::new(&[10.0, 20.0]);
        for v in [11.0, 14.0, 16.0, 19.0] {
            h.observe(v);
        }
        // Rank 2 of 4 lands halfway through the (10, 20] bucket.
        assert_eq!(h.quantile(0.5), Some(15.0));
        assert_eq!(h.quantile(1.0), Some(20.0));
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None, "empty");
        assert_eq!(h.quantile(1.5), None, "q out of range");
    }

    #[test]
    fn quantile_clamps_overflow_to_the_last_finite_bound() {
        let mut h = Histogram::new(&[1.0, 5.0]);
        h.observe(100.0);
        h.observe(200.0);
        // Both samples sit in +Inf: the documented convention reports
        // the last finite boundary as a lower bound.
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(0.99), Some(5.0));
    }

    #[test]
    fn event_jsonl_round_trips() {
        let record = EventRecord {
            time: SimTime::from_millis(812_500),
            event: TelemetryEvent::Flush {
                device: 7,
                reason: "capacity",
                buffered: 8,
                own: 1,
                bytes: 666,
            },
        };
        let line = record.to_jsonl();
        let tree = Json::parse(&line).expect("line parses");
        assert_eq!(tree["t_us"].num(), Some(812_500_000u64));
        assert_eq!(tree["event"].as_str(), Some("flush"));
        assert_eq!(tree["device"].num(), Some(7u32));
        assert_eq!(tree["reason"].as_str(), Some("capacity"));
        assert_eq!(tree["buffered"].num(), Some(8usize));
    }

    /// Every variant's line, bare and behind a run label that needs
    /// escaping, reads back through [`Json::parse`] with its `event`
    /// label and writes back out byte for byte.
    #[test]
    fn every_event_kind_round_trips_through_the_reader() {
        let events = [
            TelemetryEvent::Flush {
                device: 0,
                reason: "period",
                buffered: 2,
                own: 1,
                bytes: 222,
            },
            TelemetryEvent::RrcTransition {
                device: 1,
                from: "dch",
                to: "fach",
                dwell_secs: 3.25,
            },
            TelemetryEvent::RelayMatch {
                device: 2,
                relay: 0,
            },
            TelemetryEvent::RelayDepart {
                device: 2,
                relay: 0,
            },
            TelemetryEvent::Fallback {
                device: 3,
                cause: "feedback-timeout",
                span: Some(41),
            },
            TelemetryEvent::Retry {
                device: 3,
                cause: "transfer-failed",
                attempt: 2,
            },
            TelemetryEvent::Handover {
                device: 3,
                from_relay: 0,
                to_relay: 5,
            },
            TelemetryEvent::FaultInjected {
                index: 0,
                kind: "cellular-outage",
                device: None,
            },
            TelemetryEvent::EnergyPhase {
                device: 4,
                group: "Cellular",
                uah: 1234.5,
            },
            TelemetryEvent::Migrate {
                device: 5,
                from_cell: 0,
                to_cell: 1,
            },
            TelemetryEvent::FleetPulse {
                epoch: 1,
                cells: 4,
                counters: Box::new(PulseCounters {
                    forwards: 10,
                    fallbacks: 2,
                    outage_queued: 0,
                    l3: 12,
                    delivered: 11,
                    retries: 1,
                    migrations: Some(3),
                    lte_handovers: Some(3),
                }),
            },
        ];
        for event in events {
            let kind = event.kind();
            let record = EventRecord {
                time: SimTime::from_secs(1),
                event,
            };
            for run in [None, Some("d2d \"µ\"\\\n")] {
                let mut line = String::new();
                record.write_jsonl(run, &mut line);
                let tree = Json::parse(&line).unwrap_or_else(|| panic!("parse {line}"));
                assert_eq!(tree["event"].as_str(), Some(kind));
                assert_eq!(tree["run"].as_str(), run);
                assert_eq!(rewritten(&line), line);
            }
        }
    }

    /// The exact line of every variant, each optional field both present
    /// and absent, and a float in each form of the float rule.
    #[test]
    fn every_event_line_is_pinned() {
        let pulse = |migrations, lte_handovers| TelemetryEvent::FleetPulse {
            epoch: 1,
            cells: 4,
            counters: Box::new(PulseCounters {
                forwards: 10,
                fallbacks: 2,
                outage_queued: 0,
                l3: 12,
                delivered: 11,
                retries: 1,
                migrations,
                lte_handovers,
            }),
        };
        let rrc = |dwell_secs| TelemetryEvent::RrcTransition {
            device: 1,
            from: "dch",
            to: "fach",
            dwell_secs,
        };
        let cases = [
            (
                TelemetryEvent::Flush {
                    device: 0,
                    reason: "period",
                    buffered: 2,
                    own: 1,
                    bytes: 222,
                },
                r#""event":"flush","device":0,"reason":"period","buffered":2,"own":1,"bytes":222}"#,
            ),
            (
                rrc(3.25),
                r#""event":"rrc","device":1,"from":"dch","to":"fach","dwell_secs":3.25}"#,
            ),
            (
                rrc(3.0),
                r#""event":"rrc","device":1,"from":"dch","to":"fach","dwell_secs":3.0}"#,
            ),
            (
                TelemetryEvent::RelayMatch {
                    device: 2,
                    relay: 0,
                },
                r#""event":"match","device":2,"relay":0}"#,
            ),
            (
                TelemetryEvent::RelayDepart {
                    device: 2,
                    relay: 9,
                },
                r#""event":"depart","device":2,"relay":9}"#,
            ),
            (
                TelemetryEvent::Fallback {
                    device: 3,
                    cause: "feedback-timeout",
                    span: Some(41),
                },
                r#""event":"fallback","device":3,"cause":"feedback-timeout","span":41}"#,
            ),
            (
                TelemetryEvent::Fallback {
                    device: 3,
                    cause: "no-relay",
                    span: None,
                },
                r#""event":"fallback","device":3,"cause":"no-relay"}"#,
            ),
            (
                TelemetryEvent::Retry {
                    device: 3,
                    cause: "transfer-failed",
                    attempt: 2,
                },
                r#""event":"retry","device":3,"cause":"transfer-failed","attempt":2}"#,
            ),
            (
                TelemetryEvent::Handover {
                    device: 3,
                    from_relay: 0,
                    to_relay: 5,
                },
                r#""event":"handover","device":3,"from_relay":0,"to_relay":5}"#,
            ),
            (
                TelemetryEvent::FaultInjected {
                    index: 0,
                    kind: "cellular-outage",
                    device: None,
                },
                r#""event":"fault","index":0,"kind":"cellular-outage"}"#,
            ),
            (
                TelemetryEvent::FaultInjected {
                    index: 2,
                    kind: "link-drop",
                    device: Some(7),
                },
                r#""event":"fault","index":2,"kind":"link-drop","device":7}"#,
            ),
            (
                TelemetryEvent::EnergyPhase {
                    device: 4,
                    group: "Cellular",
                    uah: 1.5e15,
                },
                r#""event":"energy","device":4,"group":"Cellular","uah":1500000000000000}"#,
            ),
            (
                TelemetryEvent::Migrate {
                    device: 5,
                    from_cell: 0,
                    to_cell: 11,
                },
                r#""event":"migrate","device":5,"from_cell":0,"to_cell":11}"#,
            ),
            (
                pulse(Some(3), None),
                concat!(
                    r#""event":"pulse","epoch":1,"cells":4,"forwards":10,"fallbacks":2,"#,
                    r#""outage_queued":0,"l3":12,"delivered":11,"retries":1,"migrations":3}"#
                ),
            ),
            (
                pulse(None, Some(2)),
                concat!(
                    r#""event":"pulse","epoch":1,"cells":4,"forwards":10,"fallbacks":2,"#,
                    r#""outage_queued":0,"l3":12,"delivered":11,"retries":1,"lte_handovers":2}"#
                ),
            ),
        ];
        for (event, tail) in cases {
            let record = EventRecord {
                time: SimTime::from_millis(812_500),
                event,
            };
            assert_eq!(record.to_jsonl(), format!("{{\"t_us\":812500000,{tail}"));
        }
    }

    fn fallback(device: u32) -> TelemetryEvent {
        TelemetryEvent::Fallback {
            device,
            cause: "feedback-timeout",
            span: None,
        }
    }

    #[test]
    fn disabled_event_log_is_free() {
        let mut telemetry = Telemetry::new(false, 0);
        assert!(!telemetry.is_enabled());
        telemetry.record(SimTime::ZERO, fallback(0));
        assert!(telemetry.events.records().is_empty());
        assert!(telemetry.metrics.snapshot().is_empty());
    }

    #[test]
    fn trace_only_log_keeps_the_newest_records() {
        let mut telemetry = Telemetry::new(false, 3);
        for device in 0..10 {
            telemetry.record(SimTime::from_secs(u64::from(device)), fallback(device));
        }
        assert!(telemetry.metrics.snapshot().is_empty(), "metrics stay off");
        let log = &telemetry.events;
        let times: Vec<_> = log.trace().iter().map(|r| r.time).collect();
        assert_eq!(times, [7, 8, 9].map(SimTime::from_secs));
        assert_eq!(log.records(), log.trace());
        assert_eq!(log.trace_dropped(), 7);
        assert_eq!(log.clone().into_records(), log.trace());
    }

    #[test]
    fn full_log_keeps_everything_and_traces_the_tail() {
        let mut telemetry = Telemetry::new(true, 2);
        for device in 0..5 {
            telemetry.record(SimTime::from_secs(u64::from(device)), fallback(device));
        }
        let log = &telemetry.events;
        assert_eq!(log.records().len(), 5);
        assert_eq!(log.trace(), &log.records()[3..]);
        assert_eq!(log.trace_dropped(), 3);
        assert_eq!(
            Telemetry::new(true, 0).events.trace_dropped(),
            0,
            "no trace"
        );
        assert_eq!(
            telemetry
                .metrics
                .snapshot()
                .counter("hbr_fallback_total{cause=\"feedback-timeout\"}"),
            5
        );
    }

    #[test]
    fn record_writes_the_metrics_each_event_implies() {
        let mut telemetry = Telemetry::new(true, 0);
        let t = SimTime::ZERO;
        let flush = |reason| TelemetryEvent::Flush {
            device: 0,
            reason,
            buffered: 3,
            own: 1,
            bytes: 296,
        };
        telemetry.record(t, flush("capacity"));
        telemetry.record(t, flush("outage-queued"));
        let rrc = |to| TelemetryEvent::RrcTransition {
            device: 0,
            from: "dch",
            to,
            dwell_secs: 4.5,
        };
        telemetry.record(t, rrc("fach"));
        telemetry.record(t, rrc("idle"));
        telemetry.record(
            t,
            TelemetryEvent::EnergyPhase {
                device: 0,
                group: "Cellular",
                uah: 2.5,
            },
        );
        telemetry.record(
            t,
            TelemetryEvent::FleetPulse {
                epoch: 0,
                cells: 1,
                counters: Box::new(PulseCounters {
                    forwards: 4,
                    l3: 9,
                    delivered: 4,
                    ..PulseCounters::default()
                }),
            },
        );
        let m = telemetry.metrics.snapshot();
        assert_eq!(m.counter("hbr_flush_total{reason=\"capacity\"}"), 1);
        assert_eq!(m.counter("hbr_flush_total{reason=\"outage-queued\"}"), 1);
        assert_eq!(
            m.histograms["hbr_relay_batch_size"].count(),
            1,
            "queued is no batch"
        );
        assert_eq!(
            m.histograms["hbr_rrc_dwell_seconds{state=\"dch\"}"].count(),
            2
        );
        assert_eq!(m.counter("hbr_rrc_release_total"), 1);
        assert_eq!(m.gauges["hbr_energy_uah{group=\"Cellular\"}"], 2.5);
        assert_eq!(m.gauges["hbr_fleet_l3"], 9.0);
        assert!(
            !m.gauges.contains_key("hbr_fleet_migrations"),
            "only when roaming"
        );
        assert_eq!(m.counter("hbr_fleet_epochs_total"), 1);
        assert_eq!(telemetry.events.records().len(), 6);
    }

    /// A test run of `(key, run, position)` tags, keyed by the first.
    #[derive(Debug, Clone)]
    struct Tags(Vec<(u8, usize, usize)>);

    impl Run for Tags {
        type Record<'a> = (u8, usize, usize);
        type Key = u8;

        fn len(&self) -> usize {
            self.0.len()
        }

        fn record(&self, index: usize) -> (u8, usize, usize) {
            self.0[index]
        }

        fn key(&self, index: usize) -> u8 {
            self.0[index].0
        }
    }

    #[test]
    #[should_panic(expected = "run 1 is not sorted")]
    fn merging_an_unsorted_run_panics() {
        let run = |keys: [u8; 2]| Tags(keys.iter().map(|&k| (k, 0, 0)).collect());
        SortedRuns::new(vec![run([1, 2]), run([3, 1])]);
    }

    mod merge_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]
            /// Walking sorted runs equals concatenating them in run
            /// order and stable-sorting. Keys repeat within and across
            /// runs, some runs are empty, and every record carries its
            /// (run, position) tag, so the order of ties is checked.
            #[test]
            fn merge_equals_concatenation_then_stable_sort(
                keys in proptest::collection::vec(proptest::collection::vec(0u8..6, 0..12), 0..7),
            ) {
                let runs: Vec<Vec<(u8, usize, usize)>> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(run, mut keys)| {
                        keys.sort_unstable();
                        keys.into_iter().enumerate().map(|(pos, k)| (k, run, pos)).collect()
                    })
                    .collect();
                let mut expected = runs.concat();
                expected.sort_by_key(|&(k, _, _)| k);
                let sorted = SortedRuns::new(runs.into_iter().map(Tags).collect());
                prop_assert_eq!(sorted.len(), expected.len());
                let walk = sorted.iter();
                prop_assert_eq!(walk.len(), expected.len());
                prop_assert_eq!(walk.collect::<Vec<_>>(), expected);
            }
        }
    }

    mod quantile_properties {
        use super::*;
        use proptest::prelude::*;

        /// Index of the bucket a value lands in (last = +Inf overflow).
        fn bucket_of(v: f64) -> usize {
            DELAY_BUCKETS.partition_point(|&b| b < v)
        }

        proptest! {
            /// The interpolated estimate always lands in the same
            /// bucket as the exact sorted-sample quantile (touching the
            /// bucket's lower edge is allowed — that is where
            /// interpolation starts), and overflow ranks clamp to the
            /// last finite bound.
            #[test]
            fn quantile_agrees_with_a_sorted_sample_oracle(
                samples in proptest::collection::vec(0.0f64..400.0, 1..120),
                q in 0.0f64..=1.0,
            ) {
                let mut h = Histogram::new(DELAY_BUCKETS);
                for &s in &samples {
                    h.observe(s);
                }
                let estimate = h.quantile(q).expect("non-empty histogram");
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                let rank = ((q * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                let oracle = sorted[rank - 1];
                let ob = bucket_of(oracle);
                if ob == DELAY_BUCKETS.len() {
                    prop_assert_eq!(estimate, *DELAY_BUCKETS.last().unwrap());
                } else {
                    let upper = DELAY_BUCKETS[ob];
                    let lower = if ob == 0 { 0.0 } else { DELAY_BUCKETS[ob - 1] };
                    prop_assert!(
                        (lower..=upper).contains(&estimate),
                        "q={q}: estimate {estimate} outside oracle bucket \
                         ({lower}, {upper}] of {oracle}"
                    );
                }
            }
        }
    }
}
