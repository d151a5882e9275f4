//! Heartbeat messages — the payload the whole framework exists to carry.

use std::fmt;

use hbr_sim::{snap_struct, DeviceId, SimTime};

use crate::profile::AppId;

/// Globally unique message identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MessageId(u64);

impl MessageId {
    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

snap_struct!(MessageId(0));

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// Hands out unique [`MessageId`]s.
///
/// # Examples
///
/// ```
/// use hbr_apps::MessageIdGen;
///
/// let mut ids = MessageIdGen::new();
/// assert_ne!(ids.next_id(), ids.next_id());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MessageIdGen {
    next: u64,
}

impl MessageIdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        MessageIdGen::default()
    }

    /// The id [`MessageIdGen::next_id`] returns next: every id handed
    /// out so far is smaller.
    pub fn peek(&self) -> MessageId {
        MessageId(self.next)
    }

    /// Returns a fresh unique id.
    pub fn next_id(&mut self) -> MessageId {
        let id = MessageId(self.next);
        self.next += 1;
        id
    }
}

snap_struct!(MessageIdGen { next });

/// One heartbeat message in flight.
///
/// Everything the scheduling algorithm of §III-C needs travels with the
/// message: its creation instant (the `t_k` of Table II once it reaches a
/// relay) and its expiration deadline (`T_k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Unique id, used for delivery feedback.
    pub id: MessageId,
    /// The application that produced it.
    pub app: AppId,
    /// The smartphone that produced it.
    pub source: DeviceId,
    /// Per-(device, app) sequence number.
    pub seq: u32,
    /// Payload size in bytes.
    pub size: usize,
    /// When the app emitted it.
    pub created_at: SimTime,
    /// Hard deadline: delivering after this instant is useless because
    /// the server's expiration timer has already fired.
    pub expires_at: SimTime,
}

impl Heartbeat {
    /// `true` if the message is still useful at `now`.
    pub fn is_fresh(&self, now: SimTime) -> bool {
        now < self.expires_at
    }

    /// The remaining delay budget at `now` (zero once expired).
    pub fn slack(&self, now: SimTime) -> hbr_sim::SimDuration {
        self.expires_at.saturating_since(now)
    }

    /// The latest delivery instant that cannot open a *session* liveness
    /// gap. The server's expiration window spans the full budget
    /// (`expires_at - created_at`, three periods), but it is anchored to
    /// the previous accepted refresh: when that one arrived with zero
    /// delay, a message delivered later than two thirds of its budget
    /// after creation stretches the refresh gap past the window even
    /// though the message itself is still individually fresh. Recovery
    /// paths that add delay (retries, re-delegation) must respect this
    /// deadline rather than `expires_at`.
    pub fn liveness_deadline(&self) -> SimTime {
        let budget = self.expires_at.saturating_since(self.created_at);
        self.created_at + budget / 3 * 2
    }
}

snap_struct!(Heartbeat {
    id,
    app,
    source,
    seq,
    size,
    created_at,
    expires_at
});

impl fmt::Display for Heartbeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} from {} ({} seq {}, {}B, expires {})",
            self.id, self.source, self.app, self.seq, self.size, self.expires_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_sim::SimDuration;

    fn hb(created: u64, expires: u64) -> Heartbeat {
        Heartbeat {
            id: MessageId(1),
            app: AppId::new(0),
            source: DeviceId::new(0),
            seq: 0,
            size: 74,
            created_at: SimTime::from_secs(created),
            expires_at: SimTime::from_secs(expires),
        }
    }

    #[test]
    fn freshness_and_slack() {
        let h = hb(0, 100);
        assert!(h.is_fresh(SimTime::from_secs(99)));
        assert!(
            !h.is_fresh(SimTime::from_secs(100)),
            "deadline is exclusive"
        );
        assert_eq!(h.slack(SimTime::from_secs(40)), SimDuration::from_secs(60));
        assert_eq!(h.slack(SimTime::from_secs(200)), SimDuration::ZERO);
    }

    #[test]
    fn liveness_deadline_is_two_thirds_of_the_budget() {
        // A 720 s budget (the 3× period of a 240 s app): delivery past
        // created + 480 s can stretch the server's refresh gap beyond
        // its expiration window even though the message stays fresh.
        let h = hb(100, 820);
        assert_eq!(h.liveness_deadline(), SimTime::from_secs(580));
    }

    #[test]
    fn id_generator_is_unique_and_dense() {
        let mut g = MessageIdGen::new();
        let ids: Vec<_> = (0..100).map(|_| g.next_id()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.raw(), i as u64);
        }
    }

    #[test]
    fn display_is_informative() {
        let text = format!("{}", hb(0, 100));
        assert!(text.contains("msg#1"));
        assert!(text.contains("74B"));
    }
}
