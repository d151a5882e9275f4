//! Delivery feedback and the cellular fallback path.
//!
//! §III-A: forwarding must not raise the end-to-end failure rate, so
//! *"once the matched relay \[transmits\] the collected heartbeat messages
//! successfully, the proposed framework will notify the connected UE
//! through feedback information. In case that the UE does not receive
//! the feedback information after a certain interval, it will send the
//! heartbeat messages via cellular network."* [`FeedbackTracker`] is that
//! UE-side bookkeeping: every forwarded heartbeat is pending until either
//! the relay's `Delivered` notification arrives or its timeout expires
//! and the heartbeat is handed back for direct transmission.

use hbr_apps::{Heartbeat, MessageId};
use hbr_sim::snapshot::SnapshotError;
use hbr_sim::{snap_struct, SimDuration, SimTime, VecMap};

/// One forwarded heartbeat awaiting delivery confirmation.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingForward {
    /// The heartbeat that was handed to the relay.
    pub heartbeat: Heartbeat,
    /// When it was forwarded.
    pub forwarded_at: SimTime,
    /// When the UE gives up waiting and falls back to cellular.
    pub deadline: SimTime,
}

/// UE-side feedback bookkeeping.
///
/// # Examples
///
/// ```
/// use hbr_core::FeedbackTracker;
/// use hbr_sim::SimDuration;
///
/// let tracker = FeedbackTracker::new(SimDuration::from_secs(30));
/// assert_eq!(tracker.pending_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FeedbackTracker {
    timeout: SimDuration,
    pending: VecMap<MessageId, PendingForward>,
    fallbacks: u64,
}

impl FeedbackTracker {
    /// How long before a heartbeat's expiration the fallback must fire so
    /// the cellular retransmission (promotion + transfer ≈ 2.2 s plus
    /// queueing slack) still lands fresh.
    pub const RESCUE_MARGIN: SimDuration = SimDuration::from_secs(8);

    /// Creates a tracker with the given feedback timeout.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn new(timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero(), "feedback timeout must be positive");
        FeedbackTracker {
            timeout,
            pending: VecMap::new(),
            fallbacks: 0,
        }
    }

    /// The configured timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Records a forward; returns the fallback deadline the caller should
    /// arm a timer for.
    ///
    /// The deadline is slack-aware: for a heartbeat whose expiration is
    /// nearer than the configured timeout, the timer fires early enough
    /// (`RESCUE_MARGIN` before the deadline) that the cellular fallback
    /// can still deliver it fresh.
    pub fn on_forward(&mut self, heartbeat: Heartbeat, now: SimTime) -> SimTime {
        let latest_useful = heartbeat
            .expires_at
            .saturating_since(SimTime::ZERO)
            .saturating_sub(Self::RESCUE_MARGIN);
        let deadline = (now + self.timeout)
            .min(SimTime::ZERO + latest_useful)
            .max(now);
        self.pending.insert(
            heartbeat.id,
            PendingForward {
                heartbeat,
                forwarded_at: now,
                deadline,
            },
        );
        deadline
    }

    /// Handles the relay's `Delivered(ids)` feedback. Returns how many of
    /// the ids were still pending (already-fallen-back ids are ignored).
    pub fn on_delivered<I: IntoIterator<Item = MessageId>>(&mut self, ids: I) -> usize {
        ids.into_iter()
            .filter(|id| self.pending.remove(id).is_some())
            .count()
    }

    /// Moves every pending forward whose deadline has passed at `now`
    /// onto `due`, in id order; the caller must re-send each of those
    /// heartbeats over cellular.
    pub fn expire_due(&mut self, now: SimTime, due: &mut Vec<PendingForward>) {
        let before = due.len();
        self.take_expired(now, due);
        self.fallbacks += (due.len() - before) as u64;
    }

    /// Moves every pending forward whose deadline has passed at `now`
    /// onto `due`, in id order, *without* counting them as fallbacks —
    /// the reliable-delivery layer uses this so a timed-out forward that
    /// is successfully retried over D2D is not double-counted as a
    /// cellular fallback.
    pub fn take_expired(&mut self, now: SimTime, due: &mut Vec<PendingForward>) {
        self.pending.retain(|_, p| {
            let expired = p.deadline <= now;
            if expired {
                due.push(p.clone());
            }
            !expired
        });
    }

    /// Removes pending forwards without confirming them or counting them
    /// as fallen back. Used when a relay departs and its buffered batch is
    /// re-queued to the delivery ledger: the stale feedback deadline
    /// must not survive the detach (it would later fire a duplicate
    /// cellular rescue of a heartbeat the ledger is already retrying —
    /// the same class of bug as the PR-4 stale `FlushDeadline`).
    /// Returns how many ids were actually pending.
    pub fn retract<I: IntoIterator<Item = MessageId>>(&mut self, ids: I) -> usize {
        ids.into_iter()
            .filter(|id| self.pending.remove(id).is_some())
            .count()
    }

    /// Forwards currently awaiting feedback.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Ids of the forwards currently awaiting feedback — for
    /// conservation audits (the invariant checker walks these at
    /// scenario end).
    pub fn pending_ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.pending.keys().copied()
    }

    /// Forwards that timed out into the cellular fallback so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// The earliest pending deadline, if any — for event scheduling.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.deadline).min()
    }
}

snap_struct!(PendingForward {
    heartbeat,
    forwarded_at,
    deadline
});

snap_struct!(FeedbackTracker { timeout, pending, fallbacks } check check_timeout);

fn check_timeout(t: &FeedbackTracker) -> Result<(), SnapshotError> {
    if t.timeout.is_zero() {
        return Err(SnapshotError::Corrupt("zero feedback timeout".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_apps::{AppId, MessageIdGen};
    use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};
    use hbr_sim::DeviceId;

    #[test]
    fn restore_refuses_a_zero_timeout() {
        let bad = FeedbackTracker {
            timeout: SimDuration::ZERO,
            ..FeedbackTracker::new(SimDuration::from_secs(60))
        };
        let mut w = SnapshotWriter::new();
        bad.snap(&mut w);
        let bytes = w.into_bytes();
        let err = FeedbackTracker::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    fn hb(ids: &mut MessageIdGen) -> Heartbeat {
        Heartbeat {
            id: ids.next_id(),
            app: AppId::new(0),
            source: DeviceId::new(0),
            seq: 0,
            size: 74,
            created_at: SimTime::ZERO,
            expires_at: SimTime::from_secs(810),
        }
    }

    fn tracker() -> FeedbackTracker {
        FeedbackTracker::new(SimDuration::from_secs(30))
    }

    fn expire_due(t: &mut FeedbackTracker, now: SimTime) -> Vec<PendingForward> {
        let mut due = Vec::new();
        t.expire_due(now, &mut due);
        due
    }

    fn take_expired(t: &mut FeedbackTracker, now: SimTime) -> Vec<PendingForward> {
        let mut due = Vec::new();
        t.take_expired(now, &mut due);
        due
    }

    #[test]
    fn confirmation_clears_pending() {
        let mut t = tracker();
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids);
        let deadline = t.on_forward(h, SimTime::from_secs(10));
        assert_eq!(deadline, SimTime::from_secs(40));
        assert_eq!(t.pending_count(), 1);
        assert_eq!(t.on_delivered([h.id]), 1);
        assert_eq!(t.pending_count(), 0);
        assert!(expire_due(&mut t, SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn timeout_triggers_fallback() {
        let mut t = tracker();
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids);
        t.on_forward(h, SimTime::from_secs(10));
        assert!(
            expire_due(&mut t, SimTime::from_secs(39)).is_empty(),
            "not due yet"
        );
        let due = expire_due(&mut t, SimTime::from_secs(40));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].heartbeat.id, h.id);
        assert_eq!(t.fallbacks(), 1);
        // Late feedback after fallback is ignored.
        assert_eq!(t.on_delivered([h.id]), 0);
    }

    #[test]
    fn multiple_forwards_tracked_independently() {
        let mut t = tracker();
        let mut ids = MessageIdGen::new();
        let a = hb(&mut ids);
        let b = hb(&mut ids);
        t.on_forward(a, SimTime::from_secs(0));
        t.on_forward(b, SimTime::from_secs(20));
        assert_eq!(t.next_deadline(), Some(SimTime::from_secs(30)));
        let due = expire_due(&mut t, SimTime::from_secs(30));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].heartbeat.id, a.id);
        assert_eq!(t.pending_count(), 1);
        assert_eq!(t.next_deadline(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn deadline_is_slack_aware() {
        let mut t = FeedbackTracker::new(SimDuration::from_secs(300));
        let mut ids = MessageIdGen::new();
        // Expires at t=120: the fallback must fire at 120 − 8 = 112, not
        // at the configured 300 s timeout.
        let tight = Heartbeat {
            expires_at: SimTime::from_secs(120),
            ..hb(&mut ids)
        };
        let deadline = t.on_forward(tight, SimTime::from_secs(10));
        assert_eq!(deadline, SimTime::from_secs(112));
        // An already-hopeless message falls back immediately, not in the
        // past.
        let hopeless = Heartbeat {
            expires_at: SimTime::from_secs(12),
            ..hb(&mut ids)
        };
        let deadline = t.on_forward(hopeless, SimTime::from_secs(10));
        assert_eq!(deadline, SimTime::from_secs(10));
    }

    #[test]
    fn take_expired_does_not_count_fallbacks() {
        let mut t = tracker();
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids);
        t.on_forward(h, SimTime::from_secs(10));
        let due = take_expired(&mut t, SimTime::from_secs(40));
        assert_eq!(due.len(), 1);
        assert_eq!(t.fallbacks(), 0, "retry path is not a fallback");
        assert_eq!(t.pending_count(), 0);
    }

    #[test]
    fn retract_removes_without_confirming_or_counting() {
        let mut t = tracker();
        let mut ids = MessageIdGen::new();
        let a = hb(&mut ids);
        let b = hb(&mut ids);
        t.on_forward(a, SimTime::from_secs(0));
        t.on_forward(b, SimTime::from_secs(0));
        assert_eq!(t.retract([a.id]), 1);
        assert_eq!(t.retract([a.id]), 0, "already gone");
        assert_eq!(t.pending_count(), 1);
        assert_eq!(
            t.on_delivered([a.id]),
            0,
            "a retracted forward is never confirmed"
        );
        assert_eq!(t.fallbacks(), 0);
        // The retracted deadline no longer fires.
        assert!(expire_due(&mut t, SimTime::from_secs(30))
            .iter()
            .all(|p| p.heartbeat.id == b.id));
    }

    #[test]
    fn double_retract_is_a_noop_not_a_regression() {
        // Two RelayDeparture faults landing in the same epoch retract
        // the same batch twice; the second sweep must not disturb any
        // counter, the remaining pending set, or the armed deadlines.
        let mut t = tracker();
        let mut ids = MessageIdGen::new();
        let a = hb(&mut ids);
        let b = hb(&mut ids);
        t.on_forward(a, SimTime::from_secs(0));
        t.on_forward(b, SimTime::from_secs(5));
        assert_eq!(t.retract([a.id]), 1);
        let pending_before: Vec<_> = t.pending_ids().collect();
        let deadline_before = t.next_deadline();
        assert_eq!(t.retract([a.id]), 0, "second retract must be a no-op");
        assert_eq!(t.retract([a.id, a.id]), 0, "even repeated in one sweep");
        let pending_after: Vec<_> = t.pending_ids().collect();
        assert_eq!(pending_before, pending_after);
        assert_eq!(t.next_deadline(), deadline_before);
        assert_eq!(t.fallbacks(), 0);
        // The survivor still behaves normally after the double retract.
        assert_eq!(t.on_delivered([b.id]), 1);
        assert_eq!(t.pending_count(), 0);
    }

    #[test]
    fn delivered_with_unknown_ids_is_safe() {
        let mut t = tracker();
        let mut ids = MessageIdGen::new();
        let never_forwarded = hb(&mut ids);
        assert_eq!(t.on_delivered([never_forwarded.id]), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_rejected() {
        FeedbackTracker::new(SimDuration::ZERO);
    }
}
