//! Property tests: Algorithm 1 and the feedback loop never violate their
//! contracts, whatever the arrival pattern.

use hbr_apps::{AppId, Heartbeat, MessageIdGen};
use hbr_core::{FeedbackTracker, FlushReason, MessageScheduler, ScheduleDecision};
use hbr_sim::{DeviceId, SimDuration, SimTime};
use proptest::prelude::*;

fn hb(ids: &mut MessageIdGen, created_s: u64, ttl_s: u64) -> Heartbeat {
    Heartbeat {
        id: ids.next_id(),
        app: AppId::new(0),
        source: DeviceId::new(1),
        seq: 0,
        size: 54,
        created_at: SimTime::from_secs(created_s),
        expires_at: SimTime::from_secs(created_s + ttl_s),
    }
}

proptest! {
    /// The buffer never holds more than the capacity M, and the scheduler
    /// demands a flush exactly when the M-th message arrives.
    #[test]
    fn capacity_is_never_exceeded(
        capacity in 1usize..10,
        arrivals in proptest::collection::vec((0u64..260, 100u64..2000), 1..40),
    ) {
        let mut s = MessageScheduler::new(
            capacity,
            SimDuration::from_secs(270),
            SimDuration::from_secs(5),
            SimTime::ZERO,
        );
        let mut ids = MessageIdGen::new();
        let mut sorted = arrivals.clone();
        sorted.sort();
        for (at, ttl) in sorted {
            if !s.is_collecting() {
                break;
            }
            let decision = s.on_arrival(SimTime::from_secs(at), hb(&mut ids, at, ttl));
            prop_assert!(s.collected() <= capacity);
            if s.collected() == capacity {
                prop_assert_eq!(decision, ScheduleDecision::Flush(FlushReason::CapacityReached));
                let batch = s.take_batch();
                prop_assert_eq!(batch.len(), capacity);
            }
        }
    }

    /// The scheduler's flush deadline never lets a buffered heartbeat
    /// expire: deadline + margin ≤ every buffered expiry, and deadline ≤
    /// period end.
    #[test]
    fn deadline_never_breaches_expiry(
        arrivals in proptest::collection::vec((0u64..260, 30u64..2000), 1..20),
    ) {
        let margin = SimDuration::from_secs(5);
        let mut s = MessageScheduler::new(100, SimDuration::from_secs(270), margin, SimTime::ZERO);
        let mut ids = MessageIdGen::new();
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut expiries = Vec::new();
        for (at, ttl) in sorted {
            let h = hb(&mut ids, at, ttl);
            expiries.push(h.expires_at);
            let decision = s.on_arrival(SimTime::from_secs(at), h);
            if decision != ScheduleDecision::Pend {
                break;
            }
            let deadline = s.next_deadline();
            prop_assert!(deadline <= s.period_deadline());
            for e in &expiries {
                prop_assert!(
                    deadline + margin <= *e || *e < SimTime::from_secs(at) + margin,
                    "deadline {deadline} breaches expiry {e}"
                );
            }
        }
    }

    /// take_batch always returns exactly the accepted arrivals, in order,
    /// and nothing is ever silently dropped.
    #[test]
    fn batch_conserves_messages(
        arrivals in proptest::collection::vec(0u64..260, 1..30),
    ) {
        let mut s = MessageScheduler::new(
            usize::MAX >> 1,
            SimDuration::from_secs(270),
            SimDuration::from_secs(5),
            SimTime::ZERO,
        );
        let mut ids = MessageIdGen::new();
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut accepted = Vec::new();
        for at in sorted {
            let h = hb(&mut ids, at, 3000);
            if s.on_arrival(SimTime::from_secs(at), h) != ScheduleDecision::Rejected {
                accepted.push(h.id);
            }
        }
        let batch_ids: Vec<_> = s.take_batch().map(|h| h.id).collect();
        prop_assert_eq!(batch_ids, accepted);
        prop_assert!(!s.is_collecting());
        prop_assert_eq!(s.collected(), 0);
    }

    /// Every forwarded heartbeat is either confirmed or falls back —
    /// never both, never neither (once its deadline passes).
    #[test]
    fn feedback_partition(
        n in 1usize..50,
        confirm_mask in proptest::collection::vec(any::<bool>(), 1..50),
    ) {
        let mut tracker = FeedbackTracker::new();
        let mut ids = MessageIdGen::new();
        let mut all = Vec::new();
        for i in 0..n {
            let h = hb(&mut ids, i as u64, 900);
            tracker.on_forward(h, SimTime::from_secs(i as u64), SimDuration::from_secs(300));
            all.push(h.id);
        }
        let confirmed: Vec<_> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| *confirm_mask.get(i % confirm_mask.len()).unwrap_or(&false))
            .map(|(_, id)| *id)
            .collect();
        let hits = tracker.on_delivered(confirmed.iter().copied());
        prop_assert_eq!(hits, confirmed.len());

        let mut rescued = Vec::new();
        tracker.take_expired(SimTime::from_secs(100_000), &mut rescued);
        prop_assert_eq!(rescued.len() + confirmed.len(), n);
        for r in &rescued {
            prop_assert!(!confirmed.contains(&r.heartbeat.id));
        }
        prop_assert_eq!(tracker.pending_count(), 0);
    }

    /// The literal Algorithm 1 predicate agrees with the event-driven
    /// deadline: pending holds strictly before the deadline and fails at
    /// or after it (modulo the delivery margin).
    #[test]
    fn algorithm1_agrees_with_deadline(
        arrivals in proptest::collection::vec((0u64..200, 300u64..1000), 1..10),
        probe in 0u64..600,
    ) {
        let mut s = MessageScheduler::new(
            1000,
            SimDuration::from_secs(270),
            SimDuration::ZERO, // no margin → literal equivalence
            SimTime::ZERO,
        );
        let mut ids = MessageIdGen::new();
        let mut sorted = arrivals.clone();
        sorted.sort();
        for (at, ttl) in sorted {
            s.on_arrival(SimTime::from_secs(at), hb(&mut ids, at, ttl));
        }
        let t = SimTime::from_secs(probe.max(201));
        let deadline = s.next_deadline();
        prop_assert_eq!(
            s.algorithm1_pending(t),
            t < deadline,
            "probe {} vs deadline {}", t, deadline
        );
    }
}
