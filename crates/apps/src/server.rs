//! The IM server's view: expiration timers and online status.
//!
//! §II-A: *"IM servers set expiration timers to determine a client is
//! online or not. In order to maintain online status, IM apps send
//! heartbeat messages frequently to reset the expiration timers."* The
//! [`ImServer`] tracks, per `(device, app)`, when the last heartbeat
//! arrived, so experiments can check that a scheduling policy never lets
//! presence lapse — the user-visible correctness criterion of the whole
//! framework.

use std::collections::BTreeMap;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{DeviceId, SimDuration, SimTime};

use crate::message::Heartbeat;
use crate::profile::AppId;

/// Why one delivery attempt was accepted or swallowed — the dedup
/// observation point for conformance tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Fresh, first sighting: the session timer was reset.
    Accepted,
    /// The exact message id was seen before (same copy re-sent, e.g.
    /// a relay flush racing a cellular fallback of the same message).
    DuplicateId,
    /// A different message id but an already-accepted
    /// `(source, app, seq)` triple — a retransmit under a fresh id.
    DuplicateSeq,
    /// First sighting, but past the heartbeat's expiration.
    Expired,
}

impl DeliveryOutcome {
    /// The outcome's stable label — the terminal state a heartbeat's
    /// lifecycle span closes with (`hbr spans` groups latency by it).
    pub const fn label(self) -> &'static str {
        match self {
            DeliveryOutcome::Accepted => "accepted",
            DeliveryOutcome::DuplicateId => "duplicate-id",
            DeliveryOutcome::DuplicateSeq => "duplicate-seq",
            DeliveryOutcome::Expired => "expired",
        }
    }
}

impl std::fmt::Display for DeliveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-(device, app) presence tracking with expiration timers.
///
/// # Examples
///
/// ```
/// use hbr_apps::{AppProfile, ImServer};
/// use hbr_sim::{DeviceId, SimDuration, SimTime};
///
/// let mut server = ImServer::new(SimDuration::from_secs(810)); // 3 × WeChat period
/// let device = DeviceId::new(0);
/// let app = AppProfile::wechat().id;
///
/// server.register(device, app, SimTime::ZERO);
/// assert!(server.is_online(device, app, SimTime::from_secs(800)));
/// assert!(!server.is_online(device, app, SimTime::from_secs(811)));
/// ```
#[derive(Debug, Clone)]
pub struct ImServer {
    expiration: SimDuration,
    /// Delivery history per session, in arrival order.
    history: BTreeMap<(DeviceId, AppId), Vec<SimTime>>,
    delivered: u64,
    rejected_expired: u64,
    duplicates: u64,
    seen: std::collections::HashSet<crate::message::MessageId>,
    /// (source, app, seq) triples already accepted — catches retransmit
    /// duplicates that arrive under a *fresh* message id (a retried
    /// heartbeat re-sent over another path keeps its sequence number).
    seen_seq: std::collections::HashSet<(DeviceId, AppId, u32)>,
}

impl ImServer {
    /// Creates a server whose sessions expire `expiration` after the last
    /// heartbeat.
    ///
    /// # Panics
    ///
    /// Panics if `expiration` is zero.
    pub fn new(expiration: SimDuration) -> Self {
        assert!(!expiration.is_zero(), "expiration must be positive");
        ImServer {
            expiration,
            history: BTreeMap::new(),
            delivered: 0,
            rejected_expired: 0,
            duplicates: 0,
            seen: Default::default(),
            seen_seq: Default::default(),
        }
    }

    /// The configured expiration timeout.
    pub fn expiration(&self) -> SimDuration {
        self.expiration
    }

    /// Registers a session as online starting at `at` (login).
    pub fn register(&mut self, device: DeviceId, app: AppId, at: SimTime) {
        self.history.entry((device, app)).or_default().push(at);
    }

    /// Delivers a heartbeat at `at`. Returns `true` if the heartbeat was
    /// accepted (fresh and not a duplicate); expired heartbeats are
    /// rejected and counted, duplicates are ignored.
    pub fn deliver(&mut self, hb: &Heartbeat, at: SimTime) -> bool {
        self.deliver_observed(hb, at) == DeliveryOutcome::Accepted
    }

    /// [`ImServer::deliver`] with the dedup decision exposed: which of
    /// the two dedup layers (message id, then `(source, app, seq)`)
    /// swallowed a rejected delivery, or whether it arrived stale.
    /// Conformance harnesses assert on the exact layer so a duplicate
    /// storm cannot silently shift from seq-dedup to id-dedup.
    pub fn deliver_observed(&mut self, hb: &Heartbeat, at: SimTime) -> DeliveryOutcome {
        if !self.seen.insert(hb.id) {
            self.duplicates += 1;
            return DeliveryOutcome::DuplicateId;
        }
        if !self.seen_seq.insert((hb.source, hb.app, hb.seq)) {
            self.duplicates += 1;
            return DeliveryOutcome::DuplicateSeq;
        }
        if !hb.is_fresh(at) {
            self.rejected_expired += 1;
            return DeliveryOutcome::Expired;
        }
        self.history
            .entry((hb.source, hb.app))
            .or_default()
            .push(at);
        self.delivered += 1;
        DeliveryOutcome::Accepted
    }

    /// Whether the session is online at `at`: the last refresh at or
    /// before `at` is less than the expiration timeout ago.
    pub fn is_online(&self, device: DeviceId, app: AppId, at: SimTime) -> bool {
        let Some(refreshes) = self.history.get(&(device, app)) else {
            return false;
        };
        refreshes
            .iter()
            .rev()
            .find(|&&r| r <= at)
            .is_some_and(|&last| at - last < self.expiration)
    }

    /// Removes and returns one session's refresh history — the presence
    /// state a device migrating to another cell carries to that cell's
    /// server. The dedup sets stay behind: migration is gated on the
    /// device being quiescent, so no copy of an old message can chase it
    /// across the boundary, and sequence numbers travel inside the
    /// heartbeat schedules.
    pub fn take_session(&mut self, device: DeviceId, app: AppId) -> Option<Vec<SimTime>> {
        self.history.remove(&(device, app))
    }

    /// Installs a refresh history exported by [`ImServer::take_session`]
    /// under a (possibly different) local device id, so `is_online` and
    /// `offline_time` keep seeing one continuous session across a
    /// migration. Appended before any locally recorded refreshes of the
    /// same id; histories stay in arrival order because a migrant's
    /// refreshes all precede its arrival here.
    pub fn adopt_session(&mut self, device: DeviceId, app: AppId, history: Vec<SimTime>) {
        let slot = self.history.entry((device, app)).or_default();
        let local = std::mem::replace(slot, history);
        slot.extend(local);
    }

    /// Total accepted heartbeats.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Heartbeats rejected because they arrived after their deadline.
    pub fn rejected_expired(&self) -> u64 {
        self.rejected_expired
    }

    /// Duplicate deliveries ignored (e.g. a relay forwarded *and* the
    /// fallback fired).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Total seconds the session spent offline inside `[from, to]`, i.e.
    /// intervals where no refresh was newer than the expiration window.
    /// This is the user-visible damage a bad scheduler causes.
    pub fn offline_time(
        &self,
        device: DeviceId,
        app: AppId,
        from: SimTime,
        to: SimTime,
    ) -> SimDuration {
        assert!(from <= to, "offline_time requires from <= to");
        let Some(refreshes) = self.history.get(&(device, app)) else {
            return to - from;
        };
        // Sweep: `cursor` marks how far coverage extends; any refresh that
        // starts past the cursor exposes an offline hole in between.
        let mut offline = SimDuration::ZERO;
        let mut cursor = from;
        for &r in refreshes {
            if r > to {
                break;
            }
            if r > cursor {
                offline += r - cursor;
                cursor = r;
            }
            let covered_until = (r + self.expiration).min(to);
            if covered_until > cursor {
                cursor = covered_until;
            }
        }
        if to > cursor {
            offline += to - cursor;
        }
        offline
    }
}

impl Snap for ImServer {
    /// The `seen`/`seen_seq` hash sets are serialised in sorted order so
    /// the byte stream is independent of hash iteration order.
    fn snap(&self, w: &mut SnapshotWriter) {
        self.expiration.snap(w);
        self.history.snap(w);
        w.put_u64(self.delivered);
        w.put_u64(self.rejected_expired);
        w.put_u64(self.duplicates);
        let mut seen: Vec<crate::message::MessageId> = self.seen.iter().copied().collect();
        seen.sort();
        seen.snap(w);
        let mut seen_seq: Vec<(DeviceId, AppId, u32)> = self.seen_seq.iter().copied().collect();
        seen_seq.sort();
        seen_seq.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let expiration = SimDuration::unsnap(r)?;
        if expiration.is_zero() {
            return Err(SnapshotError::Corrupt("zero server expiration".into()));
        }
        Ok(ImServer {
            expiration,
            history: BTreeMap::unsnap(r)?,
            delivered: r.take_u64()?,
            rejected_expired: r.take_u64()?,
            duplicates: r.take_u64()?,
            seen: Vec::unsnap(r)?.into_iter().collect(),
            seen_seq: Vec::unsnap(r)?.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageIdGen;

    fn hb(ids: &mut MessageIdGen, created: u64, expires: u64) -> Heartbeat {
        Heartbeat {
            id: ids.next_id(),
            app: AppId::new(0),
            source: DeviceId::new(0),
            // Real generators give every heartbeat of a session a fresh
            // sequence number; mirror that so seq-dedup stays quiet.
            seq: created as u32,
            size: 74,
            created_at: SimTime::from_secs(created),
            expires_at: SimTime::from_secs(expires),
        }
    }

    #[test]
    fn fresh_heartbeats_keep_session_online() {
        let mut server = ImServer::new(SimDuration::from_secs(810));
        let mut ids = MessageIdGen::new();
        server.register(DeviceId::new(0), AppId::new(0), SimTime::ZERO);
        for k in 1..=10u64 {
            let h = hb(&mut ids, 270 * k, 270 * k + 810);
            assert!(server.deliver(&h, SimTime::from_secs(270 * k + 5)));
        }
        assert_eq!(server.delivered(), 10);
        assert!(server.is_online(DeviceId::new(0), AppId::new(0), SimTime::from_secs(2700)));
    }

    #[test]
    fn deliver_observed_names_the_dedup_layer() {
        let mut server = ImServer::new(SimDuration::from_secs(810));
        let mut ids = MessageIdGen::new();
        let first = hb(&mut ids, 0, 810);
        assert_eq!(
            server.deliver_observed(&first, SimTime::from_secs(5)),
            DeliveryOutcome::Accepted
        );
        // Same copy re-sent: caught by the id layer.
        assert_eq!(
            server.deliver_observed(&first, SimTime::from_secs(6)),
            DeliveryOutcome::DuplicateId
        );
        // A retransmit under a fresh id but the same (source, app, seq):
        // caught by the seq layer, never by the id layer.
        let retransmit = Heartbeat {
            id: ids.next_id(),
            ..first
        };
        assert_eq!(
            server.deliver_observed(&retransmit, SimTime::from_secs(7)),
            DeliveryOutcome::DuplicateSeq
        );
        // First sighting past expiry.
        let stale = hb(&mut ids, 10, 100);
        assert_eq!(
            server.deliver_observed(&stale, SimTime::from_secs(100)),
            DeliveryOutcome::Expired
        );
        assert_eq!(server.delivered(), 1);
        assert_eq!(server.duplicates(), 2);
        assert_eq!(server.rejected_expired(), 1);
    }

    #[test]
    fn expired_heartbeat_is_rejected() {
        let mut server = ImServer::new(SimDuration::from_secs(810));
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids, 0, 100);
        assert!(!server.deliver(&h, SimTime::from_secs(100)));
        assert_eq!(server.rejected_expired(), 1);
        assert_eq!(server.delivered(), 0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut server = ImServer::new(SimDuration::from_secs(810));
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids, 0, 1000);
        assert!(server.deliver(&h, SimTime::from_secs(1)));
        assert!(!server.deliver(&h, SimTime::from_secs(2)));
        assert_eq!(server.duplicates(), 1);
        assert_eq!(server.delivered(), 1);
    }

    #[test]
    fn retransmit_under_fresh_id_is_deduped_by_seq() {
        let mut server = ImServer::new(SimDuration::from_secs(810));
        let mut ids = MessageIdGen::new();
        let original = hb(&mut ids, 10, 1000);
        assert!(server.deliver(&original, SimTime::from_secs(11)));
        // A retried copy keeps (source, app, seq) but gets a new id —
        // e.g. the D2D path landed late *and* the retry landed.
        let retry = Heartbeat {
            id: ids.next_id(),
            ..original
        };
        assert!(!server.deliver(&retry, SimTime::from_secs(12)));
        assert_eq!(server.duplicates(), 1);
        assert_eq!(server.delivered(), 1);
    }

    #[test]
    fn unknown_session_is_offline() {
        let server = ImServer::new(SimDuration::from_secs(810));
        assert!(!server.is_online(DeviceId::new(9), AppId::new(9), SimTime::from_secs(1)));
        assert_eq!(
            server.offline_time(
                DeviceId::new(9),
                AppId::new(9),
                SimTime::ZERO,
                SimTime::from_secs(100)
            ),
            SimDuration::from_secs(100)
        );
    }

    #[test]
    fn offline_time_measures_gaps() {
        let mut server = ImServer::new(SimDuration::from_secs(100));
        let device = DeviceId::new(0);
        let app = AppId::new(0);
        server.register(device, app, SimTime::ZERO); // covered [0,100)
        let mut ids = MessageIdGen::new();
        // Next refresh only at t=250: offline in [100, 250).
        let h = hb(&mut ids, 250, 1000);
        server.deliver(&h, SimTime::from_secs(250)); // covered [250,350)
        let offline = server.offline_time(device, app, SimTime::ZERO, SimTime::from_secs(400));
        // Holes: [100,250) = 150 and [350,400) = 50.
        assert_eq!(offline, SimDuration::from_secs(200));
    }

    #[test]
    fn continuous_refreshes_mean_zero_offline() {
        let mut server = ImServer::new(SimDuration::from_secs(300));
        let device = DeviceId::new(0);
        let app = AppId::new(0);
        server.register(device, app, SimTime::ZERO);
        let mut ids = MessageIdGen::new();
        for k in 1..=20u64 {
            let h = hb(&mut ids, 270 * k, 270 * k + 810);
            server.deliver(&h, SimTime::from_secs(270 * k));
        }
        assert_eq!(
            server.offline_time(device, app, SimTime::ZERO, SimTime::from_secs(5400)),
            SimDuration::ZERO
        );
    }
}
