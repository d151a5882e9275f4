//! Property-based tests for the event engine and clock types.

use hbr_sim::{
    SimDuration, SimTime, Simulation, Snap, SnapshotError, SnapshotReader, SnapshotWriter, Summary,
};
use proptest::prelude::*;

/// Bounded, NaN-free samples for `Summary` properties.
fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6..1.0e6f64, 0..60)
}

fn summarise(xs: &[f64]) -> Summary {
    xs.iter().copied().collect()
}

/// Exact equality on the discrete stats, tolerance on the floating-point
/// moments — `merge` documents "up to floating-point rounding".
fn assert_close(a: &Summary, b: &Summary) {
    prop_assert_eq!(a.count(), b.count());
    prop_assert_eq!(a.min(), b.min(), "min is exact (no arithmetic)");
    prop_assert_eq!(a.max(), b.max(), "max is exact (no arithmetic)");
    let close = |x: Option<f64>, y: Option<f64>| match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => false,
    };
    prop_assert!(close(a.mean(), b.mean()), "means differ: {a} vs {b}");
    prop_assert!(
        close(a.variance(), b.variance()),
        "variances differ: {:?} vs {:?}",
        a.variance(),
        b.variance()
    );
}

/// Pops every remaining event, in firing order.
fn drain(sim: &mut Simulation<u64>) -> Vec<(SimTime, u64)> {
    std::iter::from_fn(|| sim.pop())
        .map(|f| (f.time, f.event))
        .collect()
}

/// Reads one whole engine snapshot.
fn restore(bytes: &[u8]) -> Result<Simulation<u64>, SnapshotError> {
    let mut r = SnapshotReader::new(bytes);
    let sim = Simulation::unsnap(&mut r)?;
    r.finish()?;
    Ok(sim)
}

/// Writes `sim`'s snapshot and reads it back.
fn round_trip(sim: &Simulation<u64>) -> Result<Simulation<u64>, SnapshotError> {
    let mut w = SnapshotWriter::new();
    sim.snap(&mut w);
    restore(&w.into_bytes())
}

/// A hand-built engine snapshot in the wire layout: the clock, the
/// sequence counter, then `(time, seq, event)` per queued entry.
fn engine_bytes(now: u64, next_seq: u64, entries: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    SimTime::from_micros(now).snap(&mut w);
    w.put_u64(next_seq);
    w.put_usize(entries.len());
    for &(time, seq, event) in entries {
        SimTime::from_micros(time).snap(&mut w);
        w.put_u64(seq);
        w.put_u64(event);
    }
    w.into_bytes()
}

/// A snapshot is outside input: a queue that could never have been
/// written restores as a typed `Corrupt` error, not a broken engine.
#[test]
fn corrupt_engine_queues_are_typed_errors() {
    let valid = engine_bytes(10, 3, &[(10, 1, 7), (12, 2, 8)]);
    let sim = restore(&valid).expect("a well-formed queue restores");
    assert_eq!((sim.now(), sim.pending()), (SimTime::from_micros(10), 2));
    for (why, bytes) in [
        ("event before the clock", engine_bytes(10, 3, &[(9, 1, 7)])),
        (
            "seq not below the counter",
            engine_bytes(10, 3, &[(10, 3, 7)]),
        ),
        (
            "duplicate seq",
            engine_bytes(10, 3, &[(10, 1, 7), (12, 1, 8)]),
        ),
    ] {
        match restore(&bytes) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("{why}: expected Corrupt, got {other:?}"),
        }
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// insertion order.
    #[test]
    fn pop_order_is_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some(ev) = sim.pop() {
            prop_assert!(ev.time >= last);
            last = ev.time;
        }
    }

    /// Events at equal instants pop in scheduling (FIFO) order.
    #[test]
    fn ties_break_fifo(groups in proptest::collection::vec((0u64..100, 1usize..6), 1..50)) {
        let mut sim = Simulation::new();
        let mut idx = 0usize;
        for &(t, n) in &groups {
            for _ in 0..n {
                sim.schedule_at(SimTime::from_micros(t), idx);
                idx += 1;
            }
        }
        let mut by_time: std::collections::BTreeMap<SimTime, Vec<usize>> = Default::default();
        while let Some(ev) = sim.pop() {
            by_time.entry(ev.time).or_default().push(ev.event);
        }
        for (_, order) in by_time {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(order, sorted);
        }
    }

    /// pending() always equals scheduled − fired.
    #[test]
    fn pending_is_consistent(ops in proptest::collection::vec(0u8..2, 1..300)) {
        let mut sim = Simulation::new();
        let mut live = 0i64;
        for (i, op) in ops.iter().enumerate() {
            if *op == 0 {
                sim.schedule_after(SimDuration::from_micros(i as u64 + 1), i);
                live += 1;
            } else if sim.pop().is_some() {
                live -= 1;
            }
            prop_assert_eq!(sim.pending() as i64, live);
        }
    }

    /// A `snap` → `unsnap` round trip mid-run is invisible: after any
    /// schedule/pop interleaving, the restored engine has the same clock
    /// and counters as the uninterrupted one and fires the same remaining
    /// `(time, event)` sequence — including FIFO order among ties with
    /// events scheduled after the restore.
    #[test]
    fn snapshot_round_trip_resumes_the_same_schedule(
        ops in proptest::collection::vec((0u8..3, 0u64..40), 0..200),
        later in proptest::collection::vec(0u64..40, 0..30),
    ) {
        let mut sim = Simulation::new();
        for (i, &(op, delay)) in ops.iter().enumerate() {
            if op < 2 {
                sim.schedule_after(SimDuration::from_micros(delay), i as u64);
            } else {
                sim.pop();
            }
        }
        let mut restored = round_trip(&sim).expect("an engine's own snapshot restores");
        prop_assert_eq!(restored.now(), sim.now());
        prop_assert_eq!(restored.pending(), sim.pending());
        prop_assert_eq!(restored.scheduled_total(), sim.scheduled_total());
        for (j, &delay) in later.iter().enumerate() {
            let event = 1_000 + j as u64;
            sim.schedule_after(SimDuration::from_micros(delay), event);
            restored.schedule_after(SimDuration::from_micros(delay), event);
        }
        prop_assert_eq!(restored.scheduled_total(), sim.scheduled_total());
        prop_assert_eq!(drain(&mut restored), drain(&mut sim));
    }

    /// Duration arithmetic round-trips through seconds within one microsecond.
    #[test]
    fn duration_f64_round_trip(micros in 0u64..=10_000_000_000) {
        let d = SimDuration::from_micros(micros);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let diff = back.as_micros().abs_diff(d.as_micros());
        prop_assert!(diff <= 1, "round trip drifted by {diff}µs");
    }

    /// time + (b − a) == time − a + b for any a ≤ b (associativity on the grid).
    #[test]
    fn time_arithmetic_consistent(base in 0u64..1_000_000, a in 0u64..1000, extra in 0u64..1000) {
        let t = SimTime::from_micros(base + a);
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(a + extra);
        prop_assert_eq!(t - da + db, t + (db - da));
    }

    /// merge(a, b) ≍ merge(b, a): shard telemetry may be folded in any
    /// order without moving the merged statistics.
    #[test]
    fn summary_merge_commutes(xs in samples(), ys in samples()) {
        let mut ab = summarise(&xs);
        ab.merge(&summarise(&ys));
        let mut ba = summarise(&ys);
        ba.merge(&summarise(&xs));
        assert_close(&ab, &ba);
    }

    /// (a ∪ b) ∪ c ≍ a ∪ (b ∪ c): folding shards pairwise in any shape
    /// gives the same statistics, so tree merges equal sequential ones.
    #[test]
    fn summary_merge_is_associative(xs in samples(), ys in samples(), zs in samples()) {
        let mut left = summarise(&xs);
        left.merge(&summarise(&ys));
        left.merge(&summarise(&zs));
        let mut bc = summarise(&ys);
        bc.merge(&summarise(&zs));
        let mut right = summarise(&xs);
        right.merge(&bc);
        assert_close(&left, &right);
    }

    /// Merging per-shard summaries matches recording the concatenated
    /// stream into a single summary — the contract the sharded crowd
    /// engine's report merge relies on.
    #[test]
    fn summary_merge_matches_sequential_recording(xs in samples(), ys in samples()) {
        let mut merged = summarise(&xs);
        merged.merge(&summarise(&ys));
        let whole: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        assert_close(&merged, &summarise(&whole));
    }

}
