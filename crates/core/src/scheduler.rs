//! Algorithm 1 — the message scheduling algorithm.
//!
//! The relay delays its own heartbeat and sends it together with the
//! heartbeats collected from UEs in **one** cellular connection. The
//! paper adapts Nagle's algorithm (§III-C): keep buffering while
//!
//! ```text
//! k < M   &&   t − t_k < T_k   &&   t < T
//! ```
//!
//! (fewer than `M` collected, no collected heartbeat over its expiration
//! budget, relay period `T` not yet elapsed) — otherwise *send now*.
//! Turned into an event-driven rule, the buffer flushes at
//!
//! ```text
//! t_flush = min( period_start + T , min_k expires_k − margin )
//! ```
//!
//! or immediately when the `M`-th heartbeat arrives. The `margin` leaves
//! time for the cellular promotion + transfer so the heartbeat reaches
//! the server *before* its deadline rather than exactly on it.
//!
//! After a flush the relay "won't collect forwarded heartbeat messages
//! from UE(s) until the next heartbeat period" (§III-C) — modelled by
//! the [`MessageScheduler::is_collecting`] gate.

use hbr_apps::Heartbeat;
use hbr_d2d::GoIntent;
use hbr_sim::snapshot::SnapshotError;
use hbr_sim::{snap_struct, SimDuration, SimTime, Summary};

/// Why a batch was (or must be) flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// The buffer reached the relay capacity `M`.
    CapacityReached,
    /// A collected heartbeat is about to exceed its expiration `T_k`.
    ExpirationImminent,
    /// The relay's own heartbeat period `T` elapsed.
    PeriodElapsed,
}

impl FlushReason {
    /// Short label for metrics and event streams (`"capacity"`,
    /// `"expiration"`, `"period"`).
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::CapacityReached => "capacity",
            FlushReason::ExpirationImminent => "expiration",
            FlushReason::PeriodElapsed => "period",
        }
    }
}

/// The scheduler's verdict when a forwarded heartbeat arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleDecision {
    /// Keep buffering; a deadline event will trigger the flush.
    Pend,
    /// Flush immediately for the given reason.
    Flush(FlushReason),
    /// The relay already flushed this period and is not collecting
    /// (§III-C); the UE must use its fallback path.
    Rejected,
}

/// Algorithm 1 as a stateful, event-driven scheduler.
///
/// # Examples
///
/// ```
/// use hbr_apps::{AppProfile, Heartbeat, MessageId, MessageIdGen};
/// use hbr_core::{MessageScheduler, ScheduleDecision};
/// use hbr_sim::{DeviceId, SimDuration, SimTime};
///
/// let mut scheduler = MessageScheduler::new(
///     3,                              // capacity M
///     SimDuration::from_secs(270),    // relay period T
///     SimDuration::from_secs(5),      // delivery margin
///     SimTime::ZERO,
/// );
///
/// // Without arrivals, the flush deadline is the period end.
/// assert_eq!(scheduler.next_deadline(), SimTime::from_secs(270));
/// ```
#[derive(Debug, Clone)]
pub struct MessageScheduler {
    capacity: usize,
    period: SimDuration,
    margin: SimDuration,
    period_start: SimTime,
    collecting: bool,
    /// When `false`, the scheduler ignores per-message expirations and
    /// only flushes on capacity or the period deadline — the ablation of
    /// Algorithm 1's `t − t_k < T_k` clause.
    honor_expirations: bool,
    buffer: Vec<(SimTime, Heartbeat)>,
    /// Cached `min(expires_at)` over the buffer, so arrival handling and
    /// deadline queries are O(1) instead of rescanning the buffer.
    earliest_expiry: Option<SimTime>,
    stats: SchedulerStats,
}

/// Aggregate statistics over every flush a scheduler performed — the
/// observability a relay owner's UI (§III-D) or an operator dashboard
/// would chart.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Number of flushes so far.
    pub flushes: u64,
    /// Batch sizes (forwarded heartbeats per flush, excluding the
    /// relay's own).
    pub batch_sizes: Summary,
    /// Queueing delay from each heartbeat's arrival to its flush,
    /// seconds.
    pub queueing_delay_secs: Summary,
    /// Arrivals rejected because the relay was between flush and the
    /// next period.
    pub rejected: u64,
}

impl MessageScheduler {
    /// Creates a scheduler for a relay with capacity `M`, own heartbeat
    /// period `T`, and a delivery `margin` subtracted from every
    /// expiration deadline.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `period` is zero.
    pub fn new(capacity: usize, period: SimDuration, margin: SimDuration, start: SimTime) -> Self {
        assert!(capacity > 0, "capacity M must be positive");
        assert!(!period.is_zero(), "period T must be positive");
        MessageScheduler {
            capacity,
            period,
            margin,
            period_start: start,
            collecting: true,
            honor_expirations: true,
            buffer: Vec::new(),
            earliest_expiry: None,
            stats: SchedulerStats::default(),
        }
    }

    /// Aggregate flush statistics since construction.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Disables the expiration clause of Algorithm 1 (ablation only):
    /// the scheduler then flushes solely on capacity `M` or the period
    /// deadline `T`, and delay-sensitive messages may expire in the
    /// buffer.
    pub fn without_expiry_guard(mut self) -> Self {
        self.honor_expirations = false;
        self
    }

    /// The capacity `M`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The relay period `T`.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Number of heartbeats currently buffered (`k` of Table II).
    pub fn collected(&self) -> usize {
        self.buffer.len()
    }

    /// The buffered heartbeats, in arrival order — for conservation
    /// audits (the invariant checker walks these at scenario end).
    pub fn buffered(&self) -> impl Iterator<Item = &Heartbeat> {
        self.buffer.iter().map(|(_, hb)| hb)
    }

    /// `true` while the relay accepts forwarded heartbeats this period.
    pub fn is_collecting(&self) -> bool {
        self.collecting
    }

    /// The instant the current period ends (`period_start + T`).
    pub fn period_deadline(&self) -> SimTime {
        self.period_start + self.period
    }

    /// The group-owner intent the relay should advertise right now:
    /// `15 × (1 − k/M)` (§IV-C), zero when not collecting.
    pub fn go_intent(&self) -> GoIntent {
        if !self.collecting {
            return GoIntent::MIN;
        }
        GoIntent::for_relay_fill(self.collected(), self.capacity)
    }

    /// The event-driven flush instant: the earliest of the period end and
    /// every buffered expiration (margin-adjusted). This is the paper's
    /// pend condition inverted.
    pub fn next_deadline(&self) -> SimTime {
        if !self.honor_expirations {
            return self.period_deadline();
        }
        match self.earliest_expiry {
            Some(e) => {
                let fire = SimTime::ZERO
                    + e.saturating_since(SimTime::ZERO)
                        .saturating_sub(self.margin);
                fire.min(self.period_deadline())
            }
            None => self.period_deadline(),
        }
    }

    /// Handles a forwarded heartbeat arriving at `now` (Algorithm 1's
    /// per-arrival branch).
    ///
    /// Returns [`ScheduleDecision::Rejected`] when the relay already
    /// flushed this period, [`ScheduleDecision::Flush`] when this arrival
    /// fills the buffer to `M` or arrives already past its (margin-
    /// adjusted) deadline, and [`ScheduleDecision::Pend`] otherwise.
    pub fn on_arrival(&mut self, now: SimTime, hb: Heartbeat) -> ScheduleDecision {
        if !self.collecting {
            self.stats.rejected += 1;
            return ScheduleDecision::Rejected;
        }
        self.earliest_expiry = Some(match self.earliest_expiry {
            Some(e) => e.min(hb.expires_at),
            None => hb.expires_at,
        });
        self.buffer.push((now, hb));
        if self.buffer.len() >= self.capacity {
            return ScheduleDecision::Flush(FlushReason::CapacityReached);
        }
        if self.flush_due(now).is_some() {
            return ScheduleDecision::Flush(FlushReason::ExpirationImminent);
        }
        ScheduleDecision::Pend
    }

    /// Whether a deadline-driven flush is due at `now`, and why.
    pub fn flush_due(&self, now: SimTime) -> Option<FlushReason> {
        if !self.collecting {
            return None;
        }
        if now >= self.period_deadline() {
            return Some(FlushReason::PeriodElapsed);
        }
        if !self.honor_expirations {
            return None;
        }
        match self.earliest_expiry {
            Some(e) if now + self.margin >= e => Some(FlushReason::ExpirationImminent),
            _ => None,
        }
    }

    /// Takes the buffered batch for transmission and stops collecting
    /// until [`MessageScheduler::begin_period`]. The batch drains out of
    /// the scheduler's own buffer in arrival order (dropping the
    /// iterator early still empties it), so the buffer keeps its
    /// capacity. `take_batch_at` records flush statistics against the
    /// given instant; the plain [`MessageScheduler::take_batch`] records
    /// none (used for initialisation and departures).
    pub fn take_batch_at(&mut self, now: SimTime) -> impl ExactSizeIterator<Item = Heartbeat> + '_ {
        self.stats.flushes += 1;
        self.stats.batch_sizes.record(self.buffer.len() as f64);
        for (arrived, _) in &self.buffer {
            self.stats
                .queueing_delay_secs
                .record(now.saturating_since(*arrived).as_secs_f64());
        }
        self.take_batch()
    }

    /// Takes the buffered batch without recording flush statistics.
    pub fn take_batch(&mut self) -> impl ExactSizeIterator<Item = Heartbeat> + '_ {
        self.collecting = false;
        self.earliest_expiry = None;
        self.buffer.drain(..).map(|(_, hb)| hb)
    }

    /// Starts the next period at `start` and resumes collecting.
    ///
    /// # Panics
    ///
    /// Panics if heartbeats are still buffered (the previous batch was
    /// never taken).
    pub fn begin_period(&mut self, start: SimTime) {
        assert!(
            self.buffer.is_empty(),
            "begin_period with {} unflushed heartbeats",
            self.buffer.len()
        );
        self.period_start = start;
        self.collecting = true;
    }

    /// The paper's literal Algorithm 1 condition, exposed for tests and
    /// documentation: `true` means "pending", `false` means "send data
    /// now".
    pub fn algorithm1_pending(&self, now: SimTime) -> bool {
        let k = self.buffer.len();
        let capacity_ok = k < self.capacity;
        let expiry_ok = self
            .buffer
            .iter()
            .all(|(tk, hb)| now.saturating_since(*tk) < hb.expires_at.saturating_since(*tk));
        let period_ok = now < self.period_deadline();
        capacity_ok && expiry_ok && period_ok
    }
}

snap_struct!(SchedulerStats {
    flushes,
    batch_sizes,
    queueing_delay_secs,
    rejected
});

snap_struct!(MessageScheduler {
    capacity,
    period,
    margin,
    period_start,
    collecting,
    honor_expirations,
    buffer,
    earliest_expiry,
    stats,
} check check_capacity_and_period);

fn check_capacity_and_period(s: &MessageScheduler) -> Result<(), SnapshotError> {
    if s.capacity == 0 || s.period.is_zero() {
        return Err(SnapshotError::Corrupt(
            "scheduler capacity/period must be positive".into(),
        ));
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
    fn restore_refuses_a_zero_capacity_or_period() {
        let good = || {
            MessageScheduler::new(
                4,
                SimDuration::from_secs(270),
                SimDuration::ZERO,
                SimTime::ZERO,
            )
        };
        for bad in [
            MessageScheduler {
                capacity: 0,
                ..good()
            },
            MessageScheduler {
                period: SimDuration::ZERO,
                ..good()
            },
        ] {
            let mut w = SnapshotWriter::new();
            bad.snap(&mut w);
            let bytes = w.into_bytes();
            let err = MessageScheduler::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        }
    }

    fn hb(ids: &mut MessageIdGen, created_s: u64, expires_s: u64) -> Heartbeat {
        Heartbeat {
            id: ids.next_id(),
            app: AppId::new(0),
            source: DeviceId::new(1),
            seq: 0,
            size: 74,
            created_at: SimTime::from_secs(created_s),
            expires_at: SimTime::from_secs(expires_s),
        }
    }

    fn scheduler(capacity: usize) -> MessageScheduler {
        MessageScheduler::new(
            capacity,
            SimDuration::from_secs(270),
            SimDuration::from_secs(5),
            SimTime::ZERO,
        )
    }

    #[test]
    fn pends_until_capacity() {
        let mut s = scheduler(3);
        let mut ids = MessageIdGen::new();
        assert_eq!(
            s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 900)),
            ScheduleDecision::Pend
        );
        assert_eq!(
            s.on_arrival(SimTime::from_secs(20), hb(&mut ids, 20, 900)),
            ScheduleDecision::Pend
        );
        assert_eq!(
            s.on_arrival(SimTime::from_secs(30), hb(&mut ids, 30, 900)),
            ScheduleDecision::Flush(FlushReason::CapacityReached)
        );
        assert_eq!(s.collected(), 3);
    }

    #[test]
    fn deadline_tracks_earliest_expiry_and_period() {
        let mut s = scheduler(10);
        let mut ids = MessageIdGen::new();
        assert_eq!(s.next_deadline(), SimTime::from_secs(270));
        s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 200));
        // Expiry 200 − margin 5 = 195 beats the period end.
        assert_eq!(s.next_deadline(), SimTime::from_secs(195));
        s.on_arrival(SimTime::from_secs(20), hb(&mut ids, 20, 150));
        assert_eq!(s.next_deadline(), SimTime::from_secs(145));
        // A late-expiring message does not move the deadline.
        s.on_arrival(SimTime::from_secs(30), hb(&mut ids, 30, 9_000));
        assert_eq!(s.next_deadline(), SimTime::from_secs(145));
    }

    #[test]
    fn flush_due_reports_reasons() {
        let mut s = scheduler(10);
        let mut ids = MessageIdGen::new();
        assert_eq!(s.flush_due(SimTime::from_secs(100)), None);
        assert_eq!(
            s.flush_due(SimTime::from_secs(270)),
            Some(FlushReason::PeriodElapsed)
        );
        s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 100));
        assert_eq!(
            s.flush_due(SimTime::from_secs(95)),
            Some(FlushReason::ExpirationImminent)
        );
    }

    #[test]
    fn rejects_after_flush_until_next_period() {
        let mut s = scheduler(2);
        let mut ids = MessageIdGen::new();
        s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 900));
        s.on_arrival(SimTime::from_secs(20), hb(&mut ids, 20, 900));
        assert_eq!(s.take_batch().len(), 2);
        assert!(!s.is_collecting());
        assert_eq!(
            s.on_arrival(SimTime::from_secs(30), hb(&mut ids, 30, 900)),
            ScheduleDecision::Rejected
        );
        s.begin_period(SimTime::from_secs(270));
        assert!(s.is_collecting());
        assert_eq!(
            s.on_arrival(SimTime::from_secs(280), hb(&mut ids, 280, 1200)),
            ScheduleDecision::Pend
        );
        assert_eq!(s.period_deadline(), SimTime::from_secs(540));
    }

    #[test]
    fn late_arrival_flushes_immediately() {
        let mut s = scheduler(10);
        let mut ids = MessageIdGen::new();
        // Arrives with less slack than the margin.
        let decision = s.on_arrival(SimTime::from_secs(98), hb(&mut ids, 98, 100));
        assert_eq!(
            decision,
            ScheduleDecision::Flush(FlushReason::ExpirationImminent)
        );
    }

    #[test]
    fn go_intent_decays_with_fill() {
        let mut s = scheduler(5);
        let mut ids = MessageIdGen::new();
        assert_eq!(s.go_intent(), GoIntent::MAX);
        s.on_arrival(SimTime::from_secs(1), hb(&mut ids, 1, 900));
        assert!(s.go_intent() < GoIntent::MAX);
        for k in 2..=4 {
            s.on_arrival(SimTime::from_secs(k), hb(&mut ids, k, 900));
        }
        s.on_arrival(SimTime::from_secs(5), hb(&mut ids, 5, 900));
        let _ = s.take_batch();
        assert_eq!(s.go_intent(), GoIntent::MIN, "not collecting → intent 0");
    }

    #[test]
    fn algorithm1_literal_form_agrees() {
        let mut s = scheduler(3);
        let mut ids = MessageIdGen::new();
        assert!(s.algorithm1_pending(SimTime::from_secs(1)));
        s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 900));
        assert!(s.algorithm1_pending(SimTime::from_secs(100)));
        // Period elapsed → send now.
        assert!(!s.algorithm1_pending(SimTime::from_secs(270)));
        // Capacity reached → send now.
        s.on_arrival(SimTime::from_secs(20), hb(&mut ids, 20, 900));
        s.on_arrival(SimTime::from_secs(30), hb(&mut ids, 30, 900));
        assert!(!s.algorithm1_pending(SimTime::from_secs(31)));
    }

    #[test]
    fn without_expiry_guard_holds_to_period_end() {
        let mut s = scheduler(10).without_expiry_guard();
        let mut ids = MessageIdGen::new();
        // A message that expires at t=100 would normally force a flush at
        // 95; the ablated scheduler ignores it.
        s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 100));
        assert_eq!(s.next_deadline(), SimTime::from_secs(270));
        assert_eq!(s.flush_due(SimTime::from_secs(95)), None);
        assert_eq!(
            s.flush_due(SimTime::from_secs(270)),
            Some(FlushReason::PeriodElapsed)
        );
        // Capacity still applies.
        for k in 0..9u64 {
            s.on_arrival(SimTime::from_secs(20 + k), hb(&mut ids, 20 + k, 900));
        }
        assert_eq!(s.collected(), 10);
    }

    #[test]
    fn stats_track_flushes_and_rejections() {
        let mut s = scheduler(10);
        let mut ids = MessageIdGen::new();
        s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 900));
        s.on_arrival(SimTime::from_secs(30), hb(&mut ids, 30, 900));
        assert_eq!(s.take_batch_at(SimTime::from_secs(50)).len(), 2);
        s.on_arrival(SimTime::from_secs(60), hb(&mut ids, 60, 900));
        let stats = s.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.batch_sizes.mean(), Some(2.0));
        // Delays: 40 s and 20 s → mean 30 s.
        assert_eq!(stats.queueing_delay_secs.mean(), Some(30.0));
        // The plain take_batch records nothing.
        let mut quiet = scheduler(10);
        let _ = quiet.take_batch();
        assert_eq!(quiet.stats().flushes, 0);
    }

    #[test]
    #[should_panic(expected = "unflushed")]
    fn begin_period_with_pending_batch_panics() {
        let mut s = scheduler(3);
        let mut ids = MessageIdGen::new();
        s.on_arrival(SimTime::from_secs(10), hb(&mut ids, 10, 900));
        s.begin_period(SimTime::from_secs(270));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        MessageScheduler::new(
            0,
            SimDuration::from_secs(270),
            SimDuration::ZERO,
            SimTime::ZERO,
        );
    }
}
