//! Reliable end-to-end delivery: per-device ledger, bounded backoff.
//!
//! The paper's feedback loop (§III-A, [`crate::FeedbackTracker`]) is
//! one-shot: a missed feedback deadline retransmits once over cellular,
//! and a departing relay silently discards its buffered batch. The
//! [`DeliveryLedger`] upgrades that to an explicit state machine per
//! in-flight heartbeat — sent → d2d-acked → feedback-confirmed →
//! server-acked — with deadline-aware retransmission: a failed D2D
//! transfer or feedback miss retries over D2D under a deterministic
//! bounded exponential backoff ([`BackoffPolicy`]) while the heartbeat's
//! expiration `Tk` still permits it, then degrades to the cellular
//! fallback. Terminal outcomes (server-acked, expired, dropped-dead)
//! remove the entry and bump plain counters, so the ledger only ever
//! holds in-flight messages and memory stays bounded by the number of
//! outstanding heartbeats.
//!
//! The layer is opt-in (`ScenarioConfig::reliable_delivery`); when off,
//! the legacy one-shot behaviour is byte-identical and no retry RNG
//! draws happen, keeping the golden traces pinned by PR 2/3 untouched.

use std::collections::BTreeMap;

use hbr_apps::{Heartbeat, MessageId};
use hbr_sim::snapshot::SnapshotError;
use hbr_sim::{snap_enum, snap_struct, DeviceId, SimDuration, SimRng, SimTime};

/// Where an in-flight heartbeat sits in the delivery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryState {
    /// Emitted by the source; not yet across a D2D hop (or queued for
    /// the cellular path).
    Sent,
    /// The D2D transfer to a relay succeeded; the relay buffers it.
    D2dAcked,
    /// The relay's `Delivered` feedback confirmed the batch flush; the
    /// server verdict is what retires the entry.
    FeedbackConfirmed,
}

/// Why a retransmission was scheduled — labels for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryReason {
    /// The D2D transfer itself failed (loss, degrade, dead relay).
    TransferFailed,
    /// The relay's feedback deadline passed without confirmation.
    FeedbackTimeout,
    /// The relay departed with the heartbeat still buffered.
    RelayDeparted,
}

impl RetryReason {
    /// Short kebab-case label for metrics and event streams.
    pub fn label(self) -> &'static str {
        match self {
            RetryReason::TransferFailed => "transfer-failed",
            RetryReason::FeedbackTimeout => "feedback-timeout",
            RetryReason::RelayDeparted => "relay-departed",
        }
    }
}

/// One in-flight heartbeat tracked by the ledger.
#[derive(Debug, Clone)]
pub struct DeliveryEntry {
    /// The tracked heartbeat (owned copy — retries re-send this).
    pub heartbeat: Heartbeat,
    /// Current pipeline state.
    pub state: DeliveryState,
    /// D2D (re)transmission attempts consumed so far.
    pub attempts: u32,
    /// Relay handovers consumed so far (bounded to one hop).
    pub handovers: u32,
    /// The relay a retry must avoid (last one that failed us), if any.
    pub failed_relay: Option<DeviceId>,
    /// When the pending retry fires, if one is scheduled.
    pub next_retry: Option<SimTime>,
}

/// Deterministic bounded exponential backoff for D2D retransmissions.
///
/// Attempt `k` (1-based) waits `base · 2^(k−1)` capped at `cap`, plus a
/// jitter fraction drawn from the dedicated retry stream — drawn *only*
/// when a retry is actually scheduled, so clean runs consume zero draws.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First-retry delay.
    pub base: SimDuration,
    /// Upper bound on any single delay.
    pub cap: SimDuration,
    /// Maximum D2D retransmission attempts before degrading to cellular.
    pub max_attempts: u32,
    /// Jitter fraction applied to each delay (0 disables jitter).
    pub jitter_frac: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: SimDuration::from_secs(5),
            cap: SimDuration::from_secs(60),
            max_attempts: 3,
            jitter_frac: 0.2,
        }
    }
}

impl BackoffPolicy {
    /// The jittered delay before attempt `attempt` (1-based). Draws one
    /// jitter sample from `rng` — the caller must pass the dedicated
    /// retry stream so clean runs stay draw-free.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(16);
        let raw = (self.base * (1u64 << shift)).min(self.cap);
        if self.jitter_frac > 0.0 {
            rng.jitter(raw, self.jitter_frac).min(self.cap)
        } else {
            raw
        }
    }
}

/// Terminal tallies the ledger keeps after entries retire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Heartbeats the server accepted (exactly-once goal).
    pub delivered: u64,
    /// Heartbeats that expired before any path could land them fresh.
    pub expired: u64,
    /// Heartbeats abandoned because their source died mid-flight.
    pub dropped_dead: u64,
    /// D2D retransmissions scheduled.
    pub retries: u64,
    /// Relay handovers performed.
    pub handovers: u64,
}

/// Per-device ledger of in-flight heartbeats.
///
/// # Examples
///
/// ```
/// use hbr_core::delivery::{DeliveryLedger, DeliveryState};
/// use hbr_apps::{AppId, MessageIdGen};
/// use hbr_sim::{DeviceId, SimTime};
///
/// let mut ids = MessageIdGen::new();
/// let hb = hbr_apps::Heartbeat {
///     id: ids.next_id(),
///     app: AppId::new(0),
///     source: DeviceId::new(0),
///     seq: 1,
///     size: 74,
///     created_at: SimTime::ZERO,
///     expires_at: SimTime::from_secs(810),
/// };
/// let mut ledger = DeliveryLedger::new();
/// ledger.track(hb);
/// assert_eq!(ledger.in_flight(), 1);
/// ledger.server_acked(hb.id);
/// assert_eq!(ledger.in_flight(), 0);
/// assert_eq!(ledger.stats().delivered, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeliveryLedger {
    entries: BTreeMap<MessageId, DeliveryEntry>,
    stats: DeliveryStats,
}

impl DeliveryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        DeliveryLedger::default()
    }

    /// Starts tracking a freshly emitted heartbeat in [`DeliveryState::Sent`].
    pub fn track(&mut self, heartbeat: Heartbeat) {
        self.entries.insert(
            heartbeat.id,
            DeliveryEntry {
                heartbeat,
                state: DeliveryState::Sent,
                attempts: 0,
                handovers: 0,
                failed_relay: None,
                next_retry: None,
            },
        );
    }

    /// Marks a successful D2D hop (relay buffered the heartbeat).
    pub fn d2d_acked(&mut self, id: MessageId) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.state = DeliveryState::D2dAcked;
            e.next_retry = None;
        }
    }

    /// Marks relay-feedback confirmation for each id.
    pub fn feedback_confirmed<I: IntoIterator<Item = MessageId>>(&mut self, ids: I) {
        for id in ids {
            if let Some(e) = self.entries.get_mut(&id) {
                e.state = DeliveryState::FeedbackConfirmed;
                e.next_retry = None;
            }
        }
    }

    /// Retires an entry the server accepted. Safe on unknown ids (the
    /// legacy path delivers heartbeats the ledger never tracked).
    pub fn server_acked(&mut self, id: MessageId) {
        if self.entries.remove(&id).is_some() {
            self.stats.delivered += 1;
        }
    }

    /// Retires an entry the server rejected as expired.
    pub fn expired(&mut self, id: MessageId) {
        if self.entries.remove(&id).is_some() {
            self.stats.expired += 1;
        }
    }

    /// Retires an entry whose source died mid-flight.
    pub fn dropped_dead(&mut self, id: MessageId) {
        if self.entries.remove(&id).is_some() {
            self.stats.dropped_dead += 1;
        }
    }

    /// Downgrades an entry back to [`DeliveryState::Sent`] after a relay
    /// failed it (departure or timeout), remembering the relay to avoid.
    pub fn relay_failed(&mut self, id: MessageId, relay: DeviceId) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.state = DeliveryState::Sent;
            e.failed_relay = Some(relay);
        }
    }

    /// Decides whether another D2D attempt is worth scheduling at `now`:
    /// the attempt budget must allow it and the backed-off retry time
    /// must still leave `margin` before the heartbeat expires. On yes,
    /// bumps the attempt count, records the retry time and draws the
    /// jitter from `rng` (the dedicated retry stream). On no, the caller
    /// must degrade to the cellular fallback.
    pub fn plan_retry(
        &mut self,
        id: MessageId,
        now: SimTime,
        policy: &BackoffPolicy,
        margin: SimDuration,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        let e = self.entries.get_mut(&id)?;
        if e.attempts >= policy.max_attempts {
            return None;
        }
        let next_attempt = e.attempts + 1;
        let at = now + policy.delay(next_attempt, rng);
        // Budget against the *liveness* deadline, not message expiry: a
        // retry landing later can stretch the server's refresh gap past
        // its expiration window even though the message stays fresh.
        let latest_useful = e
            .heartbeat
            .liveness_deadline()
            .saturating_since(SimTime::ZERO)
            .saturating_sub(margin);
        if at > SimTime::ZERO + latest_useful {
            return None;
        }
        e.attempts = next_attempt;
        e.next_retry = Some(at);
        self.stats.retries += 1;
        Some(at)
    }

    /// Consumes a handover credit (one hop max). Returns `true` if the
    /// entry may re-match a different relay.
    pub fn take_handover(&mut self, id: MessageId, max_handovers: u32) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) if e.handovers < max_handovers => {
                e.handovers += 1;
                self.stats.handovers += 1;
                true
            }
            _ => false,
        }
    }

    /// Appends to `due`, in id order, the heartbeat of every entry whose
    /// scheduled retry is due at `now`, clearing the timer (stale retry
    /// events are therefore harmless no-ops).
    pub fn take_due(&mut self, now: SimTime, due: &mut Vec<Heartbeat>) {
        for e in self.entries.values_mut() {
            if e.next_retry.is_some_and(|t| t <= now) {
                e.next_retry = None;
                due.push(e.heartbeat);
            }
        }
    }

    /// The earliest scheduled retry, if any — for event scheduling.
    pub fn next_retry(&self) -> Option<SimTime> {
        self.entries.values().filter_map(|e| e.next_retry).min()
    }

    /// The entry for `id`, if still in flight.
    pub fn entry(&self, id: MessageId) -> Option<&DeliveryEntry> {
        self.entries.get(&id)
    }

    /// How many heartbeats are currently in flight.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Ids of the in-flight heartbeats — for conservation audits.
    pub fn in_flight_ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.entries.keys().copied()
    }

    /// Terminal tallies.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }
}

snap_struct!(BackoffPolicy { base, cap, max_attempts, jitter_frac } check check_backoff_jitter);

fn check_backoff_jitter(p: &BackoffPolicy) -> Result<(), SnapshotError> {
    if !(p.jitter_frac.is_finite() && p.jitter_frac >= 0.0) {
        return Err(SnapshotError::Corrupt(format!(
            "backoff jitter fraction {}",
            p.jitter_frac
        )));
    }
    Ok(())
}

snap_enum!(DeliveryState "delivery state" { 0 => Sent, 1 => D2dAcked, 2 => FeedbackConfirmed });

snap_struct!(DeliveryEntry {
    heartbeat,
    state,
    attempts,
    handovers,
    failed_relay,
    next_retry
});

snap_struct!(DeliveryStats {
    delivered,
    expired,
    dropped_dead,
    retries,
    handovers
});

snap_struct!(DeliveryLedger { entries, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_apps::{AppId, MessageIdGen};
    use hbr_sim::fault::retry_stream_seed;
    use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};

    #[test]
    fn restore_refuses_a_bad_backoff_jitter() {
        for jitter_frac in [-0.5, f64::NAN] {
            let bad = BackoffPolicy {
                jitter_frac,
                ..BackoffPolicy::default()
            };
            let mut w = SnapshotWriter::new();
            bad.snap(&mut w);
            let bytes = w.into_bytes();
            let err = BackoffPolicy::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        }
    }

    fn hb(ids: &mut MessageIdGen, expires: u64) -> Heartbeat {
        Heartbeat {
            id: ids.next_id(),
            app: AppId::new(0),
            source: DeviceId::new(0),
            seq: 1,
            size: 74,
            created_at: SimTime::ZERO,
            expires_at: SimTime::from_secs(expires),
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from(retry_stream_seed(7))
    }

    #[test]
    fn states_advance_and_server_ack_retires() {
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids, 810);
        let mut l = DeliveryLedger::new();
        l.track(h);
        assert_eq!(l.entry(h.id).unwrap().state, DeliveryState::Sent);
        l.d2d_acked(h.id);
        assert_eq!(l.entry(h.id).unwrap().state, DeliveryState::D2dAcked);
        l.feedback_confirmed([h.id]);
        assert_eq!(
            l.entry(h.id).unwrap().state,
            DeliveryState::FeedbackConfirmed
        );
        l.server_acked(h.id);
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.stats().delivered, 1);
        // Retiring again is a no-op, not a double count.
        l.server_acked(h.id);
        assert_eq!(l.stats().delivered, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = BackoffPolicy {
            jitter_frac: 0.0,
            ..BackoffPolicy::default()
        };
        let mut r = rng();
        assert_eq!(p.delay(1, &mut r), SimDuration::from_secs(5));
        assert_eq!(p.delay(2, &mut r), SimDuration::from_secs(10));
        assert_eq!(p.delay(3, &mut r), SimDuration::from_secs(20));
        assert_eq!(p.delay(10, &mut r), SimDuration::from_secs(60), "capped");
    }

    #[test]
    fn plan_retry_respects_attempt_budget_and_expiry() {
        let mut ids = MessageIdGen::new();
        let mut l = DeliveryLedger::new();
        let mut r = rng();
        let p = BackoffPolicy {
            jitter_frac: 0.0,
            ..BackoffPolicy::default()
        };
        let margin = SimDuration::from_secs(8);

        let h = hb(&mut ids, 810);
        l.track(h);
        let now = SimTime::from_secs(100);
        let t1 = l.plan_retry(h.id, now, &p, margin, &mut r).unwrap();
        assert_eq!(t1, SimTime::from_secs(105));
        let t2 = l.plan_retry(h.id, t1, &p, margin, &mut r).unwrap();
        assert_eq!(t2, SimTime::from_secs(115));
        let t3 = l.plan_retry(h.id, t2, &p, margin, &mut r).unwrap();
        assert_eq!(t3, SimTime::from_secs(135));
        assert!(
            l.plan_retry(h.id, t3, &p, margin, &mut r).is_none(),
            "attempt budget exhausted"
        );
        assert_eq!(l.stats().retries, 3);

        // A heartbeat about to expire cannot be retried over D2D.
        let tight = hb(&mut ids, 110);
        l.track(tight);
        assert!(l
            .plan_retry(tight.id, SimTime::from_secs(100), &p, margin, &mut r)
            .is_none());
    }

    #[test]
    fn take_due_pops_only_due_retries_and_clears_timers() {
        let mut ids = MessageIdGen::new();
        let mut l = DeliveryLedger::new();
        let mut r = rng();
        let p = BackoffPolicy {
            jitter_frac: 0.0,
            ..BackoffPolicy::default()
        };
        let a = hb(&mut ids, 810);
        let b = hb(&mut ids, 810);
        l.track(a);
        l.track(b);
        let m = SimDuration::from_secs(8);
        l.plan_retry(a.id, SimTime::from_secs(0), &p, m, &mut r);
        l.plan_retry(b.id, SimTime::from_secs(100), &p, m, &mut r);
        assert_eq!(l.next_retry(), Some(SimTime::from_secs(5)));
        let mut due = Vec::new();
        l.take_due(SimTime::from_secs(5), &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].id, a.id);
        // The popped timer is cleared: a stale event finds nothing due.
        due.clear();
        l.take_due(SimTime::from_secs(5), &mut due);
        assert!(due.is_empty());
        assert_eq!(l.next_retry(), Some(SimTime::from_secs(105)));
    }

    #[test]
    fn handover_credit_is_single_use() {
        let mut ids = MessageIdGen::new();
        let mut l = DeliveryLedger::new();
        let h = hb(&mut ids, 810);
        l.track(h);
        l.relay_failed(h.id, DeviceId::new(3));
        assert_eq!(l.entry(h.id).unwrap().failed_relay, Some(DeviceId::new(3)));
        assert_eq!(l.entry(h.id).unwrap().state, DeliveryState::Sent);
        assert!(l.take_handover(h.id, 1));
        assert!(!l.take_handover(h.id, 1), "one hop only");
        assert_eq!(l.stats().handovers, 1);
    }

    #[test]
    fn terminal_outcomes_are_mutually_exclusive() {
        let mut ids = MessageIdGen::new();
        let mut l = DeliveryLedger::new();
        let h = hb(&mut ids, 810);
        l.track(h);
        l.expired(h.id);
        l.dropped_dead(h.id);
        l.server_acked(h.id);
        let s = l.stats();
        assert_eq!((s.expired, s.dropped_dead, s.delivered), (1, 0, 0));
        assert_eq!(l.in_flight(), 0);
    }
}
