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

use hbr_sim::snapshot::SnapshotError;
use hbr_sim::{snap_struct, DeviceId, SimDuration, SimTime, VecMap};

use crate::message::{Heartbeat, MessageId};
use crate::profile::{AppId, AppProfile};

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

/// One session's expiration timer, folded: what the server's two
/// readers, [`ImServer::is_online`] and [`ImServer::offline_until`],
/// still need of its refresh history, which does not grow with the
/// length of the run.
///
/// The readers walk the history in push order, so the fold does too: a
/// refresh recorded after a later one (a relay's flush and the source's
/// own cellular send landing within one promotion delay) is folded
/// after it, as the sweep over the whole history would read it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Session {
    /// Offline time the sweep has counted over the folded refreshes.
    offline: SimDuration,
    /// How far the folded refreshes keep the session covered: zero
    /// until a refresh is folded, at least one expiration past it after.
    cursor: SimTime,
    /// The last folded refresh in push order (zero until one is).
    last: SimTime,
    /// Refreshes recorded since they were last folded, in push order.
    /// A delivery records its refresh at the radio's `delivered_at`,
    /// later than the clock, so a settle can leave some of them here.
    pending: Vec<SimTime>,
}

impl Session {
    /// The sweep over the folded state and then the pending refreshes,
    /// in push order, up to the first one past `through`: the offline
    /// time and the cursor it reaches, and how many refreshes it read.
    fn sweep(&self, through: SimTime, expiration: SimDuration) -> (SimDuration, SimTime, usize) {
        let mut offline = self.offline;
        let mut cursor = self.cursor;
        let mut read = 0;
        for &r in &self.pending {
            if r > through {
                break;
            }
            // A refresh past the cursor exposes an offline hole before it.
            offline += r.saturating_since(cursor);
            cursor = cursor.max(r + expiration);
            read += 1;
        }
        (offline, cursor, read)
    }

    /// Folds the pending refreshes up to the first one past `through`.
    fn fold(&mut self, through: SimTime, expiration: SimDuration) {
        let (offline, cursor, read) = self.sweep(through, expiration);
        if read > 0 {
            self.offline = offline;
            self.cursor = cursor;
            self.last = self.pending[read - 1];
            self.pending.drain(..read);
        }
    }

    /// The last folded refresh, if one was folded.
    fn last_folded(&self) -> Option<SimTime> {
        (self.cursor > SimTime::ZERO).then_some(self.last)
    }

    /// `true` when the fold is one a sweep can reach: nothing folded
    /// and nothing counted, or a cursor at least one expiration past
    /// the last folded refresh with no more offline time than it
    /// covers.
    fn is_consistent(&self, expiration: SimDuration) -> bool {
        match self.last_folded() {
            None => self.offline.is_zero() && self.last == SimTime::ZERO,
            Some(last) => {
                self.cursor >= last.saturating_add(expiration)
                    && self.offline <= self.cursor.saturating_since(SimTime::ZERO)
            }
        }
    }
}

snap_struct!(Session {
    offline,
    cursor,
    last,
    pending,
});

/// The message ids seen at or above a floor, one bit each: the ids
/// below the floor can no longer arrive, so they are forgotten.
#[derive(Debug, Clone, Default)]
struct IdWindow {
    /// The smallest id that can still arrive.
    floor: MessageId,
    /// Bit `b` of word `w` stands for id `64 * (floor / 64 + w) + b`.
    words: Vec<u64>,
}

impl IdWindow {
    /// Word index and bit of `id`, which is at or above the floor.
    fn slot(&self, id: MessageId) -> (usize, u64) {
        let word = (id.raw() / 64 - self.floor.raw() / 64) as usize;
        (word, 1 << (id.raw() % 64))
    }

    /// Marks `id` seen; `false` if it already was.
    fn insert(&mut self, id: MessageId) -> bool {
        let (word, bit) = self.slot(id);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Raises the floor to `floor` (never lowers it) and forgets the
    /// ids below it.
    fn raise(&mut self, floor: MessageId) {
        if floor <= self.floor {
            return;
        }
        let dropped = (floor.raw() / 64 - self.floor.raw() / 64) as usize;
        self.words.drain(..dropped.min(self.words.len()));
        self.floor = floor;
        let below = self.below_floor();
        if let Some(first) = self.words.first_mut() {
            *first &= !below;
        }
    }

    /// The bits of the first word that stand for ids below the floor.
    fn below_floor(&self) -> u64 {
        (1 << (self.floor.raw() % 64)) - 1
    }
}

snap_struct!(IdWindow { floor, words });

/// Per-(device, app) presence tracking with expiration timers, for the
/// sessions of one app.
///
/// The server holds its app's [`AppProfile`]: a cell keeps one server
/// per app, so the profile is held once per cell, and the heartbeat
/// schedules that drive the sessions read it from here.
///
/// Its state does not grow with simulated time. Each session is a
/// folded timer ([`Session`]), and [`ImServer::settle`] folds the
/// refreshes recorded since the last settle and forgets the dedup
/// entries below the caller's *floor*: the smallest message id any copy
/// still in flight carries. A copy that arrives below the floor panics,
/// since its dedup verdict could differ from one the full sets give.
///
/// # Examples
///
/// ```
/// use hbr_apps::{AppProfile, ImServer};
/// use hbr_sim::{DeviceId, SimTime};
///
/// let mut server = ImServer::new(AppProfile::wechat()); // expires after 810 s
/// let device = DeviceId::new(0);
/// let app = server.profile().id;
///
/// server.register(device, app, SimTime::ZERO);
/// assert!(server.is_online(device, app, SimTime::from_secs(800)));
/// assert!(!server.is_online(device, app, SimTime::from_secs(811)));
/// ```
#[derive(Debug, Clone)]
pub struct ImServer {
    profile: AppProfile,
    sessions: BTreeMap<(DeviceId, AppId), Session>,
    delivered: u64,
    rejected_expired: u64,
    duplicates: u64,
    /// The instant of the last settle: the readers are asked no earlier.
    settled_at: SimTime,
    /// Message ids already seen, from the floor up.
    seen: IdWindow,
    /// `(source, app, seq)` triples already seen, with the id each was
    /// first seen under — catches retransmit duplicates that arrive
    /// under a *fresh* message id (a retried heartbeat re-sent over
    /// another path keeps its sequence number). A triple is forgotten
    /// once that id falls below the floor.
    seen_seq: VecMap<(DeviceId, AppId, u32), MessageId>,
}

impl ImServer {
    /// Creates a server for `profile`'s app, whose sessions expire the
    /// profile's `expiration` after the last heartbeat.
    pub fn new(profile: AppProfile) -> Self {
        ImServer {
            profile,
            sessions: BTreeMap::new(),
            delivered: 0,
            rejected_expired: 0,
            duplicates: 0,
            settled_at: SimTime::ZERO,
            seen: IdWindow::default(),
            seen_seq: VecMap::new(),
        }
    }

    /// The profile of the app this server serves.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// The app's expiration timeout.
    pub fn expiration(&self) -> SimDuration {
        self.profile.expiration
    }

    /// Registers a session as online starting at `at` (login).
    pub fn register(&mut self, device: DeviceId, app: AppId, at: SimTime) {
        self.sessions
            .entry((device, app))
            .or_default()
            .pending
            .push(at);
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
    ///
    /// # Panics
    ///
    /// Panics if `hb` arrives below the dedup floor: a copy the caller
    /// declared gone when it last called [`ImServer::settle`].
    pub fn deliver_observed(&mut self, hb: &Heartbeat, at: SimTime) -> DeliveryOutcome {
        assert!(
            hb.id >= self.seen.floor,
            "{} arrived below the dedup floor {}",
            hb.id,
            self.seen.floor
        );
        if !self.seen.insert(hb.id) {
            self.duplicates += 1;
            return DeliveryOutcome::DuplicateId;
        }
        let triple = (hb.source, hb.app, hb.seq);
        if self.seen_seq.get(&triple).is_some() {
            self.duplicates += 1;
            return DeliveryOutcome::DuplicateSeq;
        }
        self.seen_seq.insert(triple, hb.id);
        if !hb.is_fresh(at) {
            self.rejected_expired += 1;
            return DeliveryOutcome::Expired;
        }
        self.sessions
            .entry((hb.source, hb.app))
            .or_default()
            .pending
            .push(at);
        self.delivered += 1;
        DeliveryOutcome::Accepted
    }

    /// Folds every session's refreshes recorded at or before `at`, and
    /// forgets the dedup entries below `floor`: the caller promises
    /// that no copy of a message with a smaller id will be delivered
    /// again, and that neither reader will be asked about an instant
    /// before `at`. A floor below the current one leaves it where it is.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last settle.
    pub fn settle(&mut self, at: SimTime, floor: MessageId) {
        assert!(
            at >= self.settled_at,
            "settle at {at} before the last settle at {}",
            self.settled_at
        );
        self.settled_at = at;
        let expiration = self.profile.expiration;
        for session in self.sessions.values_mut() {
            session.fold(at, expiration);
        }
        self.seen.raise(floor);
        let floor = self.seen.floor;
        self.seen_seq.retain(|_, first| *first >= floor);
    }

    /// Whether the session is online at `at`: the last refresh at or
    /// before `at`, in push order, is less than the expiration timeout
    /// ago.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last settle.
    pub fn is_online(&self, device: DeviceId, app: AppId, at: SimTime) -> bool {
        self.assert_settled_by(at);
        let Some(session) = self.sessions.get(&(device, app)) else {
            return false;
        };
        // Every folded refresh is at or before the last settle, so at
        // or before `at`: the last one stands for all of them.
        session
            .pending
            .iter()
            .rev()
            .find(|&&r| r <= at)
            .copied()
            .or(session.last_folded())
            .is_some_and(|last| at - last < self.profile.expiration)
    }

    /// Removes and returns one session's folded timer — the presence
    /// state a device migrating to another cell carries to that cell's
    /// server. The dedup sets stay behind: migration is gated on the
    /// device being quiescent, so no copy of an old message can chase it
    /// across the boundary, and sequence numbers travel inside the
    /// heartbeat schedules.
    pub fn take_session(&mut self, device: DeviceId, app: AppId) -> Option<Session> {
        self.sessions.remove(&(device, app))
    }

    /// Installs a session exported by [`ImServer::take_session`] under a
    /// (possibly different) local device id, so `is_online` and
    /// `offline_until` keep seeing one continuous session across a
    /// migration.
    ///
    /// # Panics
    ///
    /// Panics if this server already holds a session for `device` and
    /// `app`: an admitted device always gets a fresh local id.
    pub fn adopt_session(&mut self, device: DeviceId, app: AppId, session: Session) {
        let local = self.sessions.insert((device, app), session);
        assert!(local.is_none(), "{device} already holds a {app} session");
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

    /// Total seconds the session spent offline inside `[0, end]`, i.e.
    /// intervals where no refresh was newer than the expiration window.
    /// This is the user-visible damage a bad scheduler causes. The
    /// sweep reads the refreshes in push order and stops at the first
    /// one past `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end` is before the last settle.
    pub fn offline_until(&self, device: DeviceId, app: AppId, end: SimTime) -> SimDuration {
        self.assert_settled_by(end);
        let Some(session) = self.sessions.get(&(device, app)) else {
            return end.saturating_since(SimTime::ZERO);
        };
        let (offline, cursor, _) = session.sweep(end, self.profile.expiration);
        offline + end.saturating_since(cursor)
    }

    fn assert_settled_by(&self, at: SimTime) {
        assert!(
            at >= self.settled_at,
            "asked about {at}, before the last settle at {}",
            self.settled_at
        );
    }
}

snap_struct!(ImServer {
    profile,
    sessions,
    delivered,
    rejected_expired,
    duplicates,
    settled_at,
    seen,
    seen_seq,
} check check_server);

/// Refuses a server whose state no run reaches: a session fold a
/// sweep cannot produce, or a dedup entry below the floor.
fn check_server(server: &ImServer) -> Result<(), SnapshotError> {
    let expiration = server.profile.expiration;
    if let Some(((device, app), _)) = server
        .sessions
        .iter()
        .find(|(_, session)| !session.is_consistent(expiration))
    {
        return Err(SnapshotError::Corrupt(format!(
            "{device}'s {app} session has an inconsistent fold"
        )));
    }
    let floor = server.seen.floor;
    let below = server
        .seen
        .words
        .first()
        .is_some_and(|&word| word & server.seen.below_floor() != 0)
        || server.seen_seq.values().any(|&first| first < floor);
    if below {
        return Err(SnapshotError::Corrupt(format!(
            "a dedup entry lies below the floor {floor}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageIdGen;
    use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

    /// A WeChat server whose sessions expire `secs` after a refresh.
    fn wechat_server(secs: u64) -> ImServer {
        ImServer::new(AppProfile::wechat().with_expiration(SimDuration::from_secs(secs)))
    }

    #[test]
    fn restore_refuses_a_zero_expiration() {
        let mut bad = wechat_server(810);
        bad.profile.expiration = SimDuration::ZERO;
        let mut w = SnapshotWriter::new();
        bad.snap(&mut w);
        let bytes = w.into_bytes();
        let err = ImServer::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

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
        let mut server = wechat_server(810);
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
        let mut server = wechat_server(810);
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
        let mut server = wechat_server(810);
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids, 0, 100);
        assert!(!server.deliver(&h, SimTime::from_secs(100)));
        assert_eq!(server.rejected_expired(), 1);
        assert_eq!(server.delivered(), 0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut server = wechat_server(810);
        let mut ids = MessageIdGen::new();
        let h = hb(&mut ids, 0, 1000);
        assert!(server.deliver(&h, SimTime::from_secs(1)));
        assert!(!server.deliver(&h, SimTime::from_secs(2)));
        assert_eq!(server.duplicates(), 1);
        assert_eq!(server.delivered(), 1);
    }

    #[test]
    fn retransmit_under_fresh_id_is_deduped_by_seq() {
        let mut server = wechat_server(810);
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
        let server = wechat_server(810);
        assert!(!server.is_online(DeviceId::new(9), AppId::new(9), SimTime::from_secs(1)));
        assert_eq!(
            server.offline_until(DeviceId::new(9), AppId::new(9), SimTime::from_secs(100)),
            SimDuration::from_secs(100)
        );
    }

    #[test]
    fn offline_until_measures_gaps() {
        let mut server = wechat_server(100);
        let device = DeviceId::new(0);
        let app = AppId::new(0);
        server.register(device, app, SimTime::ZERO); // covered [0,100)
        let mut ids = MessageIdGen::new();
        // Next refresh only at t=250: offline in [100, 250).
        let h = hb(&mut ids, 250, 1000);
        server.deliver(&h, SimTime::from_secs(250)); // covered [250,350)
        let offline = server.offline_until(device, app, SimTime::from_secs(400));
        // Holes: [100,250) = 150 and [350,400) = 50.
        assert_eq!(offline, SimDuration::from_secs(200));
    }

    #[test]
    fn continuous_refreshes_mean_zero_offline() {
        let mut server = wechat_server(300);
        let device = DeviceId::new(0);
        let app = AppId::new(0);
        server.register(device, app, SimTime::ZERO);
        let mut ids = MessageIdGen::new();
        for k in 1..=20u64 {
            let h = hb(&mut ids, 270 * k, 270 * k + 810);
            server.deliver(&h, SimTime::from_secs(270 * k));
        }
        assert_eq!(
            server.offline_until(device, app, SimTime::from_secs(5400)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "msg#0 arrived below the dedup floor msg#1")]
    fn a_copy_below_the_floor_panics() {
        let mut server = wechat_server(810);
        let mut ids = MessageIdGen::new();
        let gone = hb(&mut ids, 0, 810);
        server.settle(SimTime::from_secs(1), ids.peek());
        server.deliver(&gone, SimTime::from_secs(2));
    }

    /// The server as it was before sessions were folded and the dedup
    /// sets trimmed: every refresh time, every id and every triple for
    /// the whole run. The folded server must give its answers.
    #[derive(Default)]
    struct Reference {
        expiration: SimDuration,
        history: BTreeMap<(DeviceId, AppId), Vec<SimTime>>,
        delivered: u64,
        rejected_expired: u64,
        duplicates: u64,
        seen: std::collections::HashSet<MessageId>,
        seen_seq: std::collections::HashSet<(DeviceId, AppId, u32)>,
    }

    impl Reference {
        fn deliver_observed(&mut self, hb: &Heartbeat, at: SimTime) -> DeliveryOutcome {
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

        fn is_online(&self, device: DeviceId, app: AppId, at: SimTime) -> bool {
            let Some(refreshes) = self.history.get(&(device, app)) else {
                return false;
            };
            refreshes
                .iter()
                .rev()
                .find(|&&r| r <= at)
                .is_some_and(|&last| at - last < self.expiration)
        }

        fn adopt_session(&mut self, device: DeviceId, app: AppId, history: Vec<SimTime>) {
            let slot = self.history.entry((device, app)).or_default();
            let local = std::mem::replace(slot, history);
            slot.extend(local);
        }

        fn offline_time(
            &self,
            device: DeviceId,
            app: AppId,
            from: SimTime,
            to: SimTime,
        ) -> SimDuration {
            let Some(refreshes) = self.history.get(&(device, app)) else {
                return to - from;
            };
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

    /// One step of the model test, with every random choice made.
    enum Step {
        Advance(SimDuration),
        Register(usize),
        Deliver(Heartbeat, SimDuration),
        Settle(MessageId),
        Migrate(usize),
        RoundTrip,
    }

    /// Turns raw draws into steps over three sessions: fresh
    /// heartbeats, repeats of a minted id, retransmits of a minted
    /// triple under a fresh id, deliveries up to 40 s after the clock
    /// (so refreshes land out of push order), expiring copies,
    /// migrations and snapshot round trips. Each settle's floor is the
    /// smallest id any later delivery of the same triple carries, so
    /// no later delivery undercuts it.
    fn plan(draws: &[(u8, u64, u64)]) -> Vec<Step> {
        let mut ids = MessageIdGen::new();
        let mut seqs = [0u32; 3];
        let mut sources = [0, 1, 2].map(DeviceId::new);
        let mut migrated = 3;
        let mut minted: Vec<Heartbeat> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut steps = Vec::new();
        for &(kind, a, b) in draws {
            let slot = (a % 3) as usize;
            let step = match kind % 8 {
                0 => Step::Advance(SimDuration::from_secs(a % 90)),
                1 => Step::Register(slot),
                2 | 3 => {
                    seqs[slot] += 1;
                    let created = now;
                    let hb = Heartbeat {
                        id: ids.next_id(),
                        app: AppId::new(0),
                        source: sources[slot],
                        seq: seqs[slot],
                        size: 74,
                        created_at: created,
                        expires_at: created + SimDuration::from_secs(20 + b % 150),
                    };
                    minted.push(hb);
                    Step::Deliver(hb, SimDuration::from_secs(b % 40))
                }
                4 if !minted.is_empty() => {
                    let copy = minted[(a as usize) % minted.len()];
                    let hb = if b % 2 == 0 {
                        copy
                    } else {
                        let retransmit = Heartbeat {
                            id: ids.next_id(),
                            ..copy
                        };
                        minted.push(retransmit);
                        retransmit
                    };
                    Step::Deliver(hb, SimDuration::from_secs(b % 40))
                }
                5 => Step::Settle(MessageId::default()),
                6 => {
                    sources[slot] = DeviceId::new(migrated);
                    migrated += 1;
                    Step::Migrate(slot)
                }
                _ => Step::RoundTrip,
            };
            if let Step::Advance(by) = step {
                now += by;
            }
            steps.push(step);
        }
        // The smallest id each triple is ever delivered under.
        let mut first: BTreeMap<(DeviceId, AppId, u32), MessageId> = BTreeMap::new();
        for step in &steps {
            if let Step::Deliver(hb, _) = step {
                let id = first.entry((hb.source, hb.app, hb.seq)).or_insert(hb.id);
                *id = (*id).min(hb.id);
            }
        }
        let mut floor = ids.peek();
        for step in steps.iter_mut().rev() {
            match step {
                Step::Deliver(hb, _) => floor = floor.min(first[&(hb.source, hb.app, hb.seq)]),
                Step::Settle(at) => *at = floor,
                _ => {}
            }
        }
        steps
    }

    proptest::proptest! {
        /// Any run of registers, deliveries, settles, migrations and
        /// snapshot round trips gives the same dedup verdicts, counters,
        /// online answers and offline totals as the full history and
        /// unbounded sets did.
        #[test]
        fn folded_server_answers_as_the_full_history_did(
            draws in proptest::collection::vec((0u8..8, 0u64..1_000, 0u64..1_000), 0..150),
        ) {
            let expiration = SimDuration::from_secs(100);
            let mut server = wechat_server(100);
            let app = server.profile().id;
            let mut reference = Reference { expiration, ..Reference::default() };
            let mut sources = [0, 1, 2].map(DeviceId::new);
            let mut known: Vec<DeviceId> = sources.to_vec();
            let mut migrated = 3;
            let mut now = SimTime::ZERO;
            for device in sources {
                server.register(device, app, now);
                reference.history.entry((device, app)).or_default().push(now);
            }
            for step in plan(&draws) {
                match step {
                    Step::Advance(by) => now += by,
                    Step::Register(slot) => {
                        server.register(sources[slot], app, now);
                        reference.history.entry((sources[slot], app)).or_default().push(now);
                    }
                    Step::Deliver(hb, delay) => {
                        let at = now + delay;
                        proptest::prop_assert_eq!(
                            server.deliver_observed(&hb, at),
                            reference.deliver_observed(&hb, at)
                        );
                    }
                    Step::Settle(floor) => server.settle(now, floor),
                    Step::Migrate(slot) => {
                        let to = DeviceId::new(migrated);
                        migrated += 1;
                        let session = server.take_session(sources[slot], app);
                        let history = reference.history.remove(&(sources[slot], app));
                        proptest::prop_assert_eq!(session.is_some(), history.is_some());
                        server.adopt_session(to, app, session.unwrap_or_default());
                        reference.adopt_session(to, app, history.unwrap_or_default());
                        sources[slot] = to;
                        known.push(to);
                    }
                    Step::RoundTrip => {
                        let mut w = SnapshotWriter::new();
                        server.snap(&mut w);
                        let bytes = w.into_bytes();
                        server = ImServer::unsnap(&mut SnapshotReader::new(&bytes)).expect("restore");
                        let mut again = SnapshotWriter::new();
                        server.snap(&mut again);
                        proptest::prop_assert_eq!(again.into_bytes(), bytes);
                    }
                }
                proptest::prop_assert_eq!(server.delivered(), reference.delivered);
                proptest::prop_assert_eq!(server.duplicates(), reference.duplicates);
                proptest::prop_assert_eq!(server.rejected_expired(), reference.rejected_expired);
                for &device in &known {
                    proptest::prop_assert_eq!(
                        server.is_online(device, app, now),
                        reference.is_online(device, app, now)
                    );
                    for end in [now, now + SimDuration::from_secs(30)] {
                        proptest::prop_assert_eq!(
                            server.offline_until(device, app, end),
                            reference.offline_time(device, app, SimTime::ZERO, end)
                        );
                    }
                }
            }
        }
    }
}
