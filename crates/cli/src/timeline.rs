//! `hbr timeline` — a causal, per-device explanation of an events file.
//!
//! Reads the JSONL stream `hbr crowd --events-out` wrote, keeps a time
//! window (and optionally one device), and renders each event as a
//! sentence an operator can follow: what flushed and why, how the radio
//! moved, which faults fired, and — for cellular fallbacks — the most
//! plausible injected fault that caused them. When the matching
//! `--spans-out` file is supplied (`--spans`), fallbacks carrying a
//! span id cite the *exact* cause chain recorded on the heartbeat's
//! lifecycle span instead of the nearest-fault guess. The rendering is
//! pure string work over the parsed lines, so the same files always
//! produce the same text. Both files are read a line at a time, and
//! only what the report can print is kept.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufRead, BufReader};

use hbr_sim::json::Json;
use hbr_sim::spans::SpanRecord;
use hbr_sim::TelemetryEvent;

/// What slice of the file to explain.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimelineQuery {
    /// Centre of the window, seconds; [`None`] shows the whole file.
    pub around_secs: Option<u64>,
    /// Half-width of the window, seconds (ignored without `around_secs`).
    pub window_secs: u64,
    /// Keep only this device's events (global faults always stay).
    pub device: Option<u32>,
}

impl TimelineQuery {
    /// Whether the report shows `entry`: inside the window, and naming
    /// the device.
    fn shows(&self, entry: &Entry) -> bool {
        let us = |secs: u64| secs.saturating_mul(1_000_000);
        let in_window = self.around_secs.is_none_or(|centre| {
            let lo = us(centre.saturating_sub(self.window_secs));
            (lo..=us(centre.saturating_add(self.window_secs))).contains(&entry.t_us)
        });
        // Device-less events (global faults) always stay; an event
        // naming any device keeps only the timelines it names.
        let for_device = self.device.is_none_or(|want| {
            let mut named = entry.participants().peekable();
            named.peek().is_none() || named.any(|have| have == u64::from(want))
        });
        in_window && for_device
    }
}

/// One parsed event line, ready to render.
struct Entry {
    t_us: u64,
    run: String,
    kind: String,
    fields: Json,
}

impl Entry {
    /// Parses one line; [`None`] when it is not JSON or has no numeric
    /// `t_us` or string `event`, i.e. when it is no event.
    fn parse(line: &str) -> Option<Self> {
        let fields = Json::parse(line)?;
        let t_us = fields["t_us"].num()?;
        let kind = fields["event"].as_str()?.to_string();
        Some(Entry {
            t_us,
            run: fields["run"].as_str().unwrap_or("").to_string(),
            kind,
            fields,
        })
    }

    /// Every device id this event names, not just its `device` field:
    /// `relay` (match/depart), and `from_relay`/`to_relay` (handover)
    /// are device ids too — and the sharded merge remaps *all* of them
    /// to global ids, so `--device` filtering must consult each one or
    /// a relay's own timeline silently omits the retries/handovers it
    /// participated in.
    fn participants(&self) -> impl Iterator<Item = u64> + '_ {
        ["device", "relay", "from_relay", "to_relay"]
            .into_iter()
            .filter_map(|key| self.fields[key].num())
    }

    fn str(&self, key: &str) -> &str {
        self.fields[key].as_str().unwrap_or("?")
    }

    fn num(&self, key: &str) -> u64 {
        self.fields[key].num().unwrap_or(0)
    }

    fn float(&self, key: &str) -> f64 {
        self.fields[key].num().unwrap_or(0.0)
    }
}

/// The fault kinds that plausibly explain a fallback cause — used to
/// annotate each fallback with the nearest preceding matching fault.
fn plausible_faults(cause: &str) -> &'static [&'static str] {
    match cause {
        "blackout" => &["discovery-blackout"],
        "no-relay" => &["discovery-blackout", "relay-departure"],
        "d2d-down" => &["link-drop", "relay-departure"],
        "feedback-timeout" | "retry-exhausted" => &[
            "payload-loss",
            "link-degrade",
            "link-drop",
            "relay-departure",
            "cellular-outage",
        ],
        _ => &[],
    }
}

fn secs(t_us: u64) -> f64 {
    t_us as f64 / 1_000_000.0
}

/// What one query keeps of an events file: every run in first-appearance
/// order (the writer emits one contiguous block per run), each with the
/// entries the query shows plus all of the run's faults, which fallbacks
/// are matched against so that one at the window's edge still finds its
/// cause; and the count of lines that were no event.
struct Timeline {
    query: TimelineQuery,
    runs: Vec<(String, Vec<Entry>)>,
    skipped: usize,
}

impl Timeline {
    /// Reads an events file line by line, dropping what the query does
    /// not keep. Fails when no line is an event at all (almost certainly
    /// not an `--events-out` file).
    fn read(input: impl BufRead, query: TimelineQuery) -> Result<Self, String> {
        let (mut runs, mut skipped, mut events) = (Vec::<(String, Vec<Entry>)>::new(), 0, 0);
        for line in input.lines() {
            let line = line.map_err(|e| format!("cannot read events: {e}"))?;
            if line.trim().is_empty() {
                continue;
            }
            let Some(entry) = Entry::parse(&line) else {
                skipped += 1;
                continue;
            };
            events += 1;
            if !runs.iter().any(|(name, _)| *name == entry.run) {
                runs.push((entry.run.clone(), Vec::new()));
            }
            if entry.kind == "fault" || query.shows(&entry) {
                let run = runs.iter_mut().find(|(name, _)| *name == entry.run);
                run.expect("run registered").1.push(entry);
            }
        }
        if events == 0 {
            return Err(format!(
                "no events found ({skipped} unparseable line(s)) — is this an --events-out file?"
            ));
        }
        Ok(Timeline {
            query,
            runs,
            skipped,
        })
    }

    /// Renders the report, consulting `spans` (the `--spans-out` records)
    /// for exact fallback cause chains.
    fn render(&self, spans: &[SpanRecord]) -> String {
        let query = self.query;
        let mut out = String::new();
        if let Some(centre) = query.around_secs {
            out.push_str(&format!(
                "window: {}..{} s (around {centre}, ±{} s)",
                centre.saturating_sub(query.window_secs),
                centre.saturating_add(query.window_secs),
                query.window_secs
            ));
        } else {
            out.push_str("window: whole file");
        }
        if let Some(d) = query.device {
            out.push_str(&format!(", device {d} (+ global faults)"));
        }
        out.push('\n');
        if self.skipped > 0 {
            out.push_str(&format!(
                "note: skipped {} unparseable line(s)\n",
                self.skipped
            ));
        }

        for (name, entries) in &self.runs {
            out.push('\n');
            if !name.is_empty() {
                out.push_str(&format!("── run: {name} ──\n"));
            }
            render_run(&mut out, entries, query, spans);
        }
        out
    }
}

/// The exact cause chain a fallback's lifecycle span recorded up to the
/// fallback itself: every cause-carrying annotation, oldest first,
/// trimmed to the last four links. Returns `None` when the span is
/// missing from the artifact or carries no causes yet.
fn span_cause_chain(spans: &[SpanRecord], entry: &Entry, span_id: u64) -> Option<String> {
    let device = entry.num("device");
    let span = spans.iter().find(|s| {
        s.id == span_id
            && u64::from(s.device) == device
            && (s.run.is_empty() || entry.run.is_empty() || s.run == entry.run)
    })?;
    let links: Vec<String> = span
        .events
        .iter()
        .filter(|ev| ev.t_us <= entry.t_us && ev.cause.is_some())
        .map(|ev| format!("{} ({})", ev.kind, ev.cause.as_deref().unwrap_or("?")))
        .collect();
    if links.is_empty() {
        return None;
    }
    let tail = &links[links.len().saturating_sub(4)..];
    let ellipsis = if tail.len() < links.len() {
        "… → "
    } else {
        ""
    };
    Some(format!(" — span {span_id}: {ellipsis}{}", tail.join(" → ")))
}

fn render_run(out: &mut String, entries: &[Entry], query: TimelineQuery, spans: &[SpanRecord]) {
    let faults: Vec<&Entry> = entries.iter().filter(|e| e.kind == "fault").collect();

    let mut shown = 0usize;
    let mut kind_counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut flush_reasons: BTreeMap<String, usize> = BTreeMap::new();
    let mut fallback_causes: BTreeMap<String, usize> = BTreeMap::new();

    for entry in entries.iter().filter(|e| query.shows(e)) {
        shown += 1;
        let kind = entry.kind.as_str();
        let known = TelemetryEvent::KINDS.contains(&kind);
        *kind_counts
            .entry(if known { kind } else { "other" })
            .or_insert(0) += 1;

        let t = secs(entry.t_us);
        let line = match kind {
            "flush" => {
                let reason = entry.str("reason");
                *flush_reasons.entry(reason.to_string()).or_insert(0) += 1;
                let why = match reason {
                    "capacity" => "buffer reached capacity",
                    "expiration" => "a heartbeat neared expiry",
                    "period" => "aggregation period elapsed",
                    "outage-queued" => "queued through a cellular outage, sent as it ended",
                    other => other,
                };
                format!(
                    "relay {} flushed {} forwarded + {} own heartbeat(s), {} B — {why}",
                    entry.num("device"),
                    entry.num("buffered"),
                    entry.num("own"),
                    entry.num("bytes"),
                )
            }
            "rrc" => format!(
                "device {} radio {} → {} after {} s in {}",
                entry.num("device"),
                entry.str("from"),
                entry.str("to"),
                entry.float("dwell_secs"),
                entry.str("from"),
            ),
            "match" => format!(
                "device {} matched relay {} and set up a D2D link",
                entry.num("device"),
                entry.num("relay"),
            ),
            "depart" => format!(
                "device {} detached from relay {}",
                entry.num("device"),
                entry.num("relay"),
            ),
            "fallback" => {
                let cause = entry.str("cause").to_string();
                *fallback_causes.entry(cause.clone()).or_insert(0) += 1;
                let mut line = format!(
                    "device {} fell back to direct cellular ({cause})",
                    entry.num("device"),
                );
                // The heartbeat's own span is ground truth when it was
                // recorded; the nearest plausible fault is only the
                // guess for span-less streams.
                let exact = entry.fields["span"]
                    .num()
                    .and_then(|span_id| span_cause_chain(spans, entry, span_id));
                if let Some(chain) = exact {
                    line.push_str(&chain);
                } else if let Some(f) = faults.iter().rfind(|f| {
                    f.t_us <= entry.t_us && plausible_faults(&cause).contains(&f.str("kind"))
                }) {
                    line.push_str(&format!(
                        " — likely the {} fault injected at {:.1} s",
                        f.str("kind"),
                        secs(f.t_us),
                    ));
                }
                line
            }
            "fault" => {
                let mut line = format!(
                    "fault injected: {} (plan entry {})",
                    entry.str("kind"),
                    entry.num("index"),
                );
                if let Some(d) = entry.fields["device"].num::<u64>() {
                    line.push_str(&format!(" on device {d}"));
                }
                line
            }
            "energy" => format!(
                "device {} drew {} µAh in {}",
                entry.num("device"),
                entry.float("uah"),
                entry.str("group"),
            ),
            "pulse" => {
                let mut line = format!(
                    "fleet pulse (epoch {}, {} cell(s)): {} forwards, {} fallbacks, {} outage-queued, {} L3 msgs, {} delivered, {} retries",
                    entry.num("epoch"),
                    entry.num("cells"),
                    entry.num("forwards"),
                    entry.num("fallbacks"),
                    entry.num("outage_queued"),
                    entry.num("l3"),
                    entry.num("delivered"),
                    entry.num("retries"),
                );
                // Roaming pulses carry two extra keys; pinned-home
                // pulses omit them entirely.
                if let Some(m) = entry.fields["migrations"].num::<u64>() {
                    line.push_str(&format!(", {m} migration(s)"));
                }
                line
            }
            "retry" => format!(
                "device {} scheduled a D2D retransmission, attempt {} ({})",
                entry.num("device"),
                entry.num("attempt"),
                entry.str("cause"),
            ),
            "handover" => format!(
                "device {} handed its pending heartbeat over from relay {} to relay {}",
                entry.num("device"),
                entry.num("from_relay"),
                entry.num("to_relay"),
            ),
            "migrate" => format!(
                "device {} roamed from cell {} into cell {} (LTE handover at the epoch barrier)",
                entry.num("device"),
                entry.num("from_cell"),
                entry.num("to_cell"),
            ),
            other => format!("unrecognized event kind {other:?}"),
        };
        out.push_str(&format!("{t:>10.1}s  {line}\n"));
    }

    if shown == 0 {
        out.push_str("  (no events in this window)\n");
        return;
    }
    out.push_str(&format!("\n  {shown} event(s): "));
    let parts: Vec<String> = kind_counts
        .iter()
        .map(|(k, n)| format!("{k} ×{n}"))
        .collect();
    out.push_str(&parts.join(", "));
    out.push('\n');
    if !flush_reasons.is_empty() {
        let parts: Vec<String> = flush_reasons
            .iter()
            .map(|(r, n)| format!("{r} ×{n}"))
            .collect();
        out.push_str(&format!("  flush reasons: {}\n", parts.join(", ")));
    }
    if !fallback_causes.is_empty() {
        let parts: Vec<String> = fallback_causes
            .iter()
            .map(|(c, n)| format!("{c} ×{n}"))
            .collect();
        out.push_str(&format!("  fallback causes: {}\n", parts.join(", ")));
    }
}

/// A span line's `"id"`, read without parsing the line: the integer
/// after its first `"id":`. Only a key is followed by a colon, and a
/// span's only `id` key is its own, so this is the id the full parse
/// reads; `None` when no integer follows, and the caller then parses.
fn span_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + "\"id\":".len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if !rest[end..].starts_with([',', '}']) {
        return None;
    }
    rest[..end].parse().ok()
}

/// The `hbr timeline` entry point: reads `file` (and the optional
/// `--spans` artifact) and prints the report.
pub fn run(
    file: &str,
    around: Option<u64>,
    window: u64,
    device: Option<u32>,
    spans_file: Option<&str>,
) -> Result<(), String> {
    let open = |path: &str| {
        File::open(path)
            .map(BufReader::new)
            .map_err(|e| format!("cannot read {path}: {e}"))
    };
    let query = TimelineQuery {
        around_secs: around,
        window_secs: window,
        device,
    };
    let timeline = Timeline::read(open(file)?, query)?;
    let mut spans = Vec::new();
    if let Some(path) = spans_file {
        let reader = open(path)?;
        // Keep only the spans a shown fallback cites.
        let cited: BTreeSet<u64> = timeline
            .runs
            .iter()
            .flat_map(|(_, entries)| entries.iter().filter(|e| e.kind == "fallback"))
            .filter_map(|entry| entry.fields["span"].num())
            .collect();
        if !cited.is_empty() {
            for line in reader.lines() {
                let line = line.map_err(|e| format!("cannot read {path}: {e}"))?;
                if span_id(&line).is_some_and(|id| !cited.contains(&id)) {
                    continue; // uncited: not worth a parse
                }
                spans.extend(SpanRecord::from_jsonl(&line).filter(|span| cited.contains(&span.id)));
            }
        }
    }
    print!("{}", timeline.render(&spans));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `text` as an events file and renders it with `spans`.
    fn render_with_spans(
        text: &str,
        query: TimelineQuery,
        spans: &[SpanRecord],
    ) -> Result<String, String> {
        Ok(Timeline::read(text.as_bytes(), query)?.render(spans))
    }

    #[test]
    fn a_span_id_is_read_without_parsing_the_line() {
        assert_eq!(span_id(r#"{"id":42,"device":1}"#), Some(42));
        assert_eq!(span_id(r#"{"run":"d2d","id":7}"#), Some(7));
        // A run label that spells the key is escaped, so it never matches.
        assert_eq!(span_id(r#"{"run":"say \"id\":9","id":3}"#), Some(3));
        for unreadable in [
            r#"{"device":1}"#,
            r#"{"id":"42"}"#,
            r#"{"id":-1}"#,
            r#"{"id":4.5}"#,
        ] {
            assert_eq!(span_id(unreadable), None, "{unreadable}");
        }
    }

    /// Span-less rendering, as `hbr timeline` without `--spans` runs it.
    fn render(text: &str, query: TimelineQuery) -> Result<String, String> {
        render_with_spans(text, query, &[])
    }

    const SAMPLE: &str = "\
{\"run\":\"d2d-framework\",\"t_us\":5000000,\"event\":\"match\",\"device\":7,\"relay\":0}
{\"run\":\"d2d-framework\",\"t_us\":1800000000,\"event\":\"fault\",\"index\":0,\"kind\":\"cellular-outage\"}
{\"run\":\"d2d-framework\",\"t_us\":1805000000,\"event\":\"flush\",\"device\":0,\"reason\":\"outage-queued\",\"buffered\":4,\"own\":1,\"bytes\":512}
{\"run\":\"d2d-framework\",\"t_us\":1810000000,\"event\":\"fallback\",\"device\":7,\"cause\":\"feedback-timeout\"}
{\"run\":\"d2d-framework\",\"t_us\":1812000000,\"event\":\"rrc\",\"device\":7,\"from\":\"dch\",\"to\":\"fach\",\"dwell_secs\":6.5}
{\"run\":\"d2d-framework\",\"t_us\":7200000000,\"event\":\"energy\",\"device\":7,\"group\":\"Cellular\",\"uah\":321.5}
";

    fn q(around: Option<u64>, device: Option<u32>) -> TimelineQuery {
        TimelineQuery {
            around_secs: around,
            window_secs: 120,
            device,
        }
    }

    #[test]
    fn whole_file_renders_every_event() {
        let out = render(SAMPLE, q(None, None)).unwrap();
        assert!(out.contains("run: d2d-framework"));
        assert!(out.contains("matched relay 0"));
        assert!(out.contains("fault injected: cellular-outage (plan entry 0)"));
        assert!(out.contains("queued through a cellular outage"));
        assert!(out.contains("drew 321.5 µAh in Cellular"));
        assert!(out.contains("6 event(s)"));
    }

    #[test]
    fn window_filters_by_time() {
        let out = render(SAMPLE, q(Some(1800), None)).unwrap();
        assert!(out.contains("window: 1680..1920 s"));
        assert!(!out.contains("matched relay"), "t=5 s is out of window");
        assert!(!out.contains("µAh"), "t=7200 s is out of window");
        assert!(out.contains("flush reasons: outage-queued ×1"));
    }

    #[test]
    fn device_filter_keeps_global_faults() {
        let out = render(SAMPLE, q(Some(1800), Some(7))).unwrap();
        assert!(out.contains("fault injected"), "global fault survives");
        assert!(!out.contains("relay 0 flushed"), "device 0 is filtered");
        assert!(out.contains("device 7 fell back"));
        assert!(out.contains("device 7 radio dch → fach after 6.5 s in dch"));
    }

    #[test]
    fn device_filter_matches_relay_participants_after_remap() {
        // Event stream as merged from a sharded run: the ids here are
        // *global* (remapped) ids. Filtering on relay 12's timeline must
        // keep the match/handover/retry events that name it in their
        // `relay`/`from_relay`/`to_relay` fields, not only events whose
        // `device` field happens to equal 12.
        let merged = "\
{\"run\":\"d2d-framework\",\"t_us\":5000000,\"event\":\"match\",\"device\":40,\"relay\":12}
{\"run\":\"d2d-framework\",\"t_us\":6000000,\"event\":\"retry\",\"device\":40,\"attempt\":1,\"cause\":\"transfer-failed\"}
{\"run\":\"d2d-framework\",\"t_us\":7000000,\"event\":\"handover\",\"device\":40,\"from_relay\":12,\"to_relay\":13}
{\"run\":\"d2d-framework\",\"t_us\":8000000,\"event\":\"flush\",\"device\":13,\"reason\":\"period\",\"buffered\":1,\"own\":1,\"bytes\":148}
";
        let out = render(merged, q(None, Some(12))).unwrap();
        assert!(
            out.contains("device 40 matched relay 12"),
            "match names relay 12, must survive its filter:\n{out}"
        );
        assert!(
            out.contains("handed its pending heartbeat over from relay 12 to relay 13"),
            "handover names relay 12 as from_relay:\n{out}"
        );
        assert!(
            !out.contains("scheduled a D2D retransmission"),
            "retry names only device 40, not relay 12:\n{out}"
        );
        assert!(
            !out.contains("relay 13 flushed"),
            "flush belongs to relay 13's timeline:\n{out}"
        );
        // The destination relay's timeline sees the same handover.
        let out = render(merged, q(None, Some(13))).unwrap();
        assert!(out.contains("handed its pending heartbeat over"));
        assert!(out.contains("relay 13 flushed"));
        // The UE's own timeline still shows everything it took part in.
        let out = render(merged, q(None, Some(40))).unwrap();
        assert!(out.contains("matched relay 12"));
        assert!(out.contains("scheduled a D2D retransmission, attempt 1"));
        assert!(out.contains("handed its pending heartbeat over"));
    }

    #[test]
    fn fallbacks_cite_the_nearest_plausible_fault() {
        let out = render(SAMPLE, q(Some(1800), Some(7))).unwrap();
        assert!(
            out.contains("likely the cellular-outage fault injected at 1800.0 s"),
            "missing causal annotation in:\n{out}"
        );
    }

    #[test]
    fn fallbacks_prefer_the_span_cause_chain_when_available() {
        // A fallback carrying a span id, with the matching span record
        // loaded: the exact chain wins over the nearest-fault guess.
        let events = "\
{\"run\":\"d2d-framework\",\"t_us\":1800000000,\"event\":\"fault\",\"index\":0,\"kind\":\"link-drop\",\"device\":7}
{\"run\":\"d2d-framework\",\"t_us\":1890000000,\"event\":\"fallback\",\"device\":7,\"cause\":\"retry-exhausted\",\"span\":41}
";
        let spans = [SpanRecord::from_jsonl(
            "{\"run\":\"d2d-framework\",\"id\":41,\"device\":7,\"start_us\":1799000000,\
             \"retries\":2,\"events\":[\
             {\"t_us\":1803000000,\"kind\":\"transfer-failed\",\"cause\":\"link-failed\"},\
             {\"t_us\":1804000000,\"kind\":\"retry\",\"cause\":\"feedback-timeout\",\"attempt\":1},\
             {\"t_us\":1891000000,\"kind\":\"late\",\"cause\":\"after-the-fallback\"}]}",
        )
        .expect("span parses")];
        let out = render_with_spans(events, q(None, None), &spans).unwrap();
        assert!(
            out.contains("span 41: transfer-failed (link-failed) → retry (feedback-timeout)"),
            "missing exact chain in:\n{out}"
        );
        assert!(
            !out.contains("after-the-fallback"),
            "events after the fallback must not be cited:\n{out}"
        );
        assert!(
            !out.contains("likely the link-drop fault"),
            "the guess must yield to the exact chain:\n{out}"
        );
        // Without the span artifact the guess comes back.
        let out = render_with_spans(events, q(None, None), &[]).unwrap();
        assert!(out.contains("likely the link-drop fault injected at 1800.0 s"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render(SAMPLE, q(None, None)).unwrap();
        let b = render(SAMPLE, q(None, None)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn extreme_window_bounds_saturate_instead_of_overflowing() {
        // `centre + window` used to overflow u64 in debug builds when
        // --around sat near the top of the range; both bounds (and the
        // microsecond conversion) must saturate. cargo test runs these
        // in debug, so an unfixed overflow panics right here.
        let query = TimelineQuery {
            around_secs: Some(u64::MAX),
            window_secs: u64::MAX,
            device: None,
        };
        let out = render(SAMPLE, query).unwrap();
        assert!(out.contains("window: 0.."), "lower bound saturates to 0");
        // A saturated window covers everything, so all six events show.
        assert!(out.contains("6 event(s)"));

        // A huge centre with a small window is simply empty, not a panic.
        let far = TimelineQuery {
            around_secs: Some(u64::MAX / 1_000_000),
            window_secs: 120,
            device: None,
        };
        let out = render(SAMPLE, far).unwrap();
        assert!(out.contains("(no events in this window)"));
    }

    #[test]
    fn pulse_events_render_fleet_counters() {
        let sample = "{\"t_us\":3600000000,\"event\":\"pulse\",\"epoch\":4,\"cells\":9,\
                      \"forwards\":120,\"fallbacks\":3,\"outage_queued\":0,\"l3\":88,\
                      \"delivered\":117,\"retries\":2}\n";
        let out = render(sample, q(None, None)).unwrap();
        assert!(
            out.contains("fleet pulse (epoch 4, 9 cell(s)): 120 forwards, 3 fallbacks, 0 outage-queued, 88 L3 msgs, 117 delivered, 2 retries"),
            "missing pulse line in:\n{out}"
        );
        assert!(out.contains("pulse ×1"));
    }

    #[test]
    fn retry_and_handover_events_render_with_causes() {
        let sample = "\
{\"t_us\":1800000000,\"event\":\"fault\",\"index\":0,\"kind\":\"link-drop\",\"device\":7}
{\"t_us\":1803000000,\"event\":\"retry\",\"device\":7,\"cause\":\"transfer-failed\",\"attempt\":1}
{\"t_us\":1810000000,\"event\":\"handover\",\"device\":7,\"from_relay\":0,\"to_relay\":2}
{\"t_us\":1890000000,\"event\":\"fallback\",\"device\":7,\"cause\":\"retry-exhausted\"}
";
        let out = render(sample, q(None, None)).unwrap();
        assert!(
            out.contains("device 7 scheduled a D2D retransmission, attempt 1 (transfer-failed)"),
            "missing retry line in:\n{out}"
        );
        assert!(
            out.contains("device 7 handed its pending heartbeat over from relay 0 to relay 2"),
            "missing handover line in:\n{out}"
        );
        // retry-exhausted fallbacks still get a causal fault annotation.
        assert!(
            out.contains("likely the link-drop fault injected at 1800.0 s"),
            "missing causal annotation in:\n{out}"
        );
        assert!(out.contains("retry ×1") && out.contains("handover ×1"));
    }

    /// Nested values parse now, so whether a line is an event is decided
    /// here: JSON without a numeric `t_us` or a string `event` is skipped
    /// and counted, and an event carrying a nested value still renders.
    #[test]
    fn lines_without_t_us_or_event_are_skipped_and_counted() {
        let text = format!(
            "{{\"deep\":{{\"no\":1}}}}\n{{\"t_us\":1}}\n{{\"event\":\"flush\"}}\n[1]\n\
             {{\"t_us\":\"5\",\"event\":\"flush\"}}\n{SAMPLE}"
        );
        let out = render(&text, q(None, None)).unwrap();
        assert!(out.contains("skipped 5 unparseable line(s)"), "{out}");
        assert!(out.contains("6 event(s)"), "{out}");
        let nested =
            "{\"t_us\":5000000,\"event\":\"match\",\"device\":7,\"relay\":0,\"x\":{\"y\":[1]}}";
        let out = render(nested, q(None, None)).unwrap();
        assert!(out.contains("device 7 matched relay 0"), "{out}");
        assert!(render("{\"deep\":{\"no\":1}}", q(None, None)).is_err());
    }

    #[test]
    fn garbage_input_is_an_error_not_a_panic() {
        assert!(render("not json\nstill not json\n", q(None, None)).is_err());
        // A mix renders the good lines and counts the bad one.
        let mixed = format!("garbage\n{SAMPLE}");
        let out = render(&mixed, q(None, None)).unwrap();
        assert!(out.contains("skipped 1 unparseable line(s)"));
    }
}
