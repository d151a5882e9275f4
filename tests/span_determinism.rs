//! Property tests for the span plane: under arbitrary fault plans the
//! lifecycle-span artifact is byte-identical at any shard count, spans
//! mirror the reliable-delivery ledger exactly, and switching spans on
//! changes no other observable byte of the run.

use d2d_heartbeat::bench::{run_crowd, CrowdConfig};
use d2d_heartbeat::core::world::{Mode, ScenarioReport};
use d2d_heartbeat::sim::fault::{FaultKind, FaultPlan};
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};
use proptest::prelude::*;

/// One entry of an arbitrary fault plan, pre-normalisation (same shape
/// as `world_properties.rs`): the kind selector and raw knobs are
/// generated, the device index is folded into range at build time.
#[derive(Debug, Clone)]
struct FaultSpec {
    kind: u8,
    at: u64,
    dur: u64,
    dev: u32,
    prob: f64,
}

fn arb_fault_specs() -> impl Strategy<Value = Vec<FaultSpec>> {
    proptest::collection::vec(
        (0u8..6, 0u64..3000, 30u64..900, any::<u32>(), 0.0f64..=1.0).prop_map(
            |(kind, at, dur, dev, prob)| FaultSpec {
                kind,
                at,
                dur,
                dev,
                prob,
            },
        ),
        0..4,
    )
}

fn plan_from(specs: &[FaultSpec], phones: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for s in specs {
        let device = DeviceId::new(s.dev % phones as u32);
        let duration = SimDuration::from_secs(s.dur);
        let kind = match s.kind {
            0 => FaultKind::CellularOutage { duration },
            1 => FaultKind::DiscoveryBlackout { duration },
            2 => FaultKind::LinkDrop {
                device,
                d2d_down_for: duration,
            },
            3 => FaultKind::RelayDeparture {
                device,
                rejoin_after: (s.dur % 2 == 0).then_some(duration),
            },
            4 => FaultKind::LinkDegrade {
                device,
                extra_loss: s.prob,
                duration,
            },
            _ => FaultKind::PayloadLoss {
                device,
                probability: s.prob,
                duration,
            },
        };
        plan.schedule(SimTime::from_secs(s.at), kind);
    }
    plan
}

fn crowd(
    seed: u64,
    phones: usize,
    relays: usize,
    specs: &[FaultSpec],
    spans: bool,
    shards: usize,
) -> ScenarioReport {
    run_crowd(&CrowdConfig {
        phones,
        relays,
        hours: 1,
        area_side_m: 220.0,
        seed,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: plan_from(specs, phones),
        trace_capacity: 0,
        telemetry: true,
        reliable: true,
        spans,
        shards: Some(shards),
        roam: false,
    })
}

proptest! {
    // Each case runs two full crowd engines; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The serialized span artifact is byte-identical at 1 and 4 shards
    /// under an arbitrary fault plan — the same contract the event
    /// stream and metrics already honour.
    #[test]
    fn span_artifact_is_shard_count_invariant(
        seed in any::<u64>(),
        phones in 12usize..32,
        relays in 1usize..5,
        specs in arb_fault_specs(),
    ) {
        let one = crowd(seed, phones, relays, &specs, true, 1);
        let four = crowd(seed, phones, relays, &specs, true, 4);
        prop_assert!(!one.spans.is_empty(), "spans were requested");
        prop_assert_eq!(one.spans.to_jsonl(), four.spans.to_jsonl());
    }

    /// Spans and the reliable-delivery ledger are two views of the same
    /// facts: one span per generated heartbeat, per-outcome counts equal
    /// the ledger's counters, retry annotations equal the ledger's retry
    /// total, and feedback confirmations are conserved (at most one per
    /// span, only on spans that reached a terminal outcome).
    #[test]
    fn spans_mirror_the_delivery_ledger(
        seed in any::<u64>(),
        phones in 12usize..32,
        relays in 1usize..5,
        specs in arb_fault_specs(),
    ) {
        let report = crowd(seed, phones, relays, &specs, true, 2);
        let d = report.delivery.as_ref().expect("reliable crowd run");
        let spans: Vec<_> = report.spans.iter().collect();
        let by = |outcome: &str| {
            spans.iter().filter(|s| s.outcome == Some(outcome)).count() as u64
        };
        prop_assert_eq!(spans.len() as u64, d.generated, "one span per heartbeat");
        prop_assert_eq!(by("accepted"), d.delivered);
        prop_assert_eq!(by("expired"), d.expired);
        prop_assert_eq!(by("dropped-dead"), d.dropped_dead);
        prop_assert_eq!(by("in-flight"), d.in_flight);
        let retries: u64 = spans
            .iter()
            .flat_map(|s| s.events())
            .filter(|e| e.kind == "retry")
            .count() as u64;
        prop_assert_eq!(retries, d.retries);
        for span in spans {
            let confirmed = span
                .events()
                .filter(|e| e.kind == "feedback-confirmed")
                .count();
            prop_assert!(confirmed <= 1, "span {} confirmed twice", span.id);
            if confirmed == 1 {
                prop_assert!(
                    span.outcome != Some("in-flight"),
                    "span {} confirmed but never closed", span.id
                );
            }
        }
    }

    /// The span plane is pure observation: with spans on, the rendered
    /// console is byte-identical to a spans-off run, and the event
    /// stream differs only by the span cross-reference fallback events
    /// intentionally gain. (The metrics snapshot is excluded on purpose
    /// — the whole point of spans is to feed the delivery-latency
    /// histograms.)
    #[test]
    fn spans_change_no_other_artifact(
        seed in any::<u64>(),
        phones in 12usize..32,
        relays in 1usize..5,
        specs in arb_fault_specs(),
    ) {
        let on = crowd(seed, phones, relays, &specs, true, 2);
        let off = crowd(seed, phones, relays, &specs, false, 2);
        prop_assert_eq!(on.render(), off.render());
        let lines = |r: &ScenarioReport| {
            r.events.iter().map(|e| e.to_jsonl()).collect::<Vec<_>>().join("\n")
        };
        // Drop the `"span":N` field fallback events carry when spans
        // are on — the one intended difference between the streams.
        let strip_span_refs = |text: String| {
            text.lines()
                .map(|line| match line.find(",\"span\":") {
                    Some(i) => {
                        let value = &line[i + ",\"span\":".len()..];
                        let end = value.find([',', '}']).unwrap_or(value.len());
                        format!("{}{}", &line[..i], &value[end..])
                    }
                    None => line.to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        prop_assert_eq!(strip_span_refs(lines(&on)), lines(&off));
        prop_assert!(off.spans.is_empty(), "spans stay off by default");
    }
}
