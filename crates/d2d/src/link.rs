//! A stateful pairwise D2D link.
//!
//! [`D2dLink`] ties the per-phase activities of [`TechProfile`] into a
//! lifecycle — establish (discovery + connection), transfer repeatedly,
//! close — and injects the failures the paper's fallback mechanism exists
//! for: distance-dependent transfer loss and hard out-of-range cuts.

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{SimRng, SimTime};

use crate::tech::{D2dActivity, D2dRole, TechProfile};

/// Lifecycle state of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Discovery + connection still in progress; ready at the instant.
    Establishing {
        /// When establishment completes.
        ready_at: SimTime,
    },
    /// Group formed; transfers allowed.
    Connected,
    /// Torn down (explicitly or by failure).
    Closed,
}

impl Snap for LinkState {
    fn snap(&self, w: &mut SnapshotWriter) {
        match self {
            LinkState::Establishing { ready_at } => {
                w.put_u8(0);
                ready_at.snap(w);
            }
            LinkState::Connected => w.put_u8(1),
            LinkState::Closed => w.put_u8(2),
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(LinkState::Establishing {
                ready_at: SimTime::unsnap(r)?,
            }),
            1 => Ok(LinkState::Connected),
            2 => Ok(LinkState::Closed),
            t => Err(SnapshotError::Corrupt(format!("link state tag {t}"))),
        }
    }
}

/// Result of one [`D2dLink::transfer`].
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// Whether the payload arrived.
    pub success: bool,
    /// Energy spent by the sending side (always paid, success or not).
    pub sender: D2dActivity,
    /// Energy spent by the receiving side (empty if the frame was lost
    /// before the receiver woke).
    pub receiver: D2dActivity,
    /// When the attempt finished.
    pub completed_at: SimTime,
}

impl TransferOutcome {
    /// Short result label for metrics (`"ok"` / `"lost"`).
    pub fn result_label(&self) -> &'static str {
        if self.success {
            "ok"
        } else {
            "lost"
        }
    }
}

/// One established (or establishing) D2D pairing between an initiator
/// (UE) and a responder (relay).
///
/// # Examples
///
/// ```
/// use hbr_d2d::{D2dLink, TechProfile};
/// use hbr_sim::{SimRng, SimTime};
///
/// let (mut link, ue_cost, relay_cost) =
///     D2dLink::establish(TechProfile::wifi_direct(), SimTime::ZERO);
/// assert!(ue_cost.charge() > relay_cost.charge()); // initiator pays more
///
/// let ready = link.ready_at().unwrap();
/// let mut rng = SimRng::seed_from(1);
/// let out = link.transfer(ready, 74, 1.0, &mut rng);
/// assert!(out.success);
/// ```
#[derive(Debug, Clone)]
pub struct D2dLink {
    tech: TechProfile,
    state: LinkState,
    /// Interference penalty: extra loss probability added to the
    /// distance model while a fault window degrades this link.
    extra_loss: f64,
    transfers_ok: u64,
    transfers_failed: u64,
}

impl D2dLink {
    /// Starts establishing a link at `now`: a discovery scan followed by
    /// connection setup. Returns the link plus the energy activities of
    /// the initiator (UE) and responder (relay).
    pub fn establish(tech: TechProfile, now: SimTime) -> (D2dLink, D2dActivity, D2dActivity) {
        let mut ue = tech.discovery(now, D2dRole::Initiator);
        let mut relay = tech.discovery(now, D2dRole::Responder);
        let connect_start = ue.done_at;
        let ue_conn = tech.connection(connect_start, D2dRole::Initiator);
        let relay_conn = tech.connection(connect_start, D2dRole::Responder);
        let ready_at = ue_conn.done_at;
        ue.segments.extend(ue_conn.segments);
        ue.done_at = ready_at;
        relay.segments.extend(relay_conn.segments);
        relay.done_at = ready_at;
        (
            D2dLink {
                tech,
                state: LinkState::Establishing { ready_at },
                extra_loss: 0.0,
                transfers_ok: 0,
                transfers_failed: 0,
            },
            ue,
            relay,
        )
    }

    /// Creates a link that is already connected (e.g. reusing a group that
    /// survived from a previous heartbeat period).
    pub fn already_connected(tech: TechProfile) -> D2dLink {
        D2dLink {
            tech,
            state: LinkState::Connected,
            extra_loss: 0.0,
            transfers_ok: 0,
            transfers_failed: 0,
        }
    }

    /// Creates a link whose establishment is in flight and completes at
    /// `ready_at` — for callers that billed the discovery/connection
    /// energy themselves (e.g. when several relays answered one scan).
    pub fn establish_pending(tech: TechProfile, ready_at: SimTime) -> D2dLink {
        D2dLink {
            tech,
            state: LinkState::Establishing { ready_at },
            extra_loss: 0.0,
            transfers_ok: 0,
            transfers_failed: 0,
        }
    }

    /// The technology profile of this link.
    pub fn tech(&self) -> &TechProfile {
        &self.tech
    }

    /// The current lifecycle state (promotes `Establishing` to
    /// `Connected` lazily when queried past its ready instant).
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// When establishment completes, if the link is still establishing.
    pub fn ready_at(&self) -> Option<SimTime> {
        match self.state {
            LinkState::Establishing { ready_at } => Some(ready_at),
            _ => None,
        }
    }

    /// `true` if transfers are possible at `now`.
    pub fn is_ready(&self, now: SimTime) -> bool {
        match self.state {
            LinkState::Establishing { ready_at } => now >= ready_at,
            LinkState::Connected => true,
            LinkState::Closed => false,
        }
    }

    /// Degrades the link: transfers suffer `extra` additional loss
    /// probability (clamped to `[0, 1]`) on top of the distance model
    /// until [`clear_degrade`](Self::clear_degrade). Models an
    /// interference window; fault plans drive this.
    pub fn degrade(&mut self, extra: f64) {
        self.extra_loss = extra.clamp(0.0, 1.0);
    }

    /// Removes any interference penalty.
    pub fn clear_degrade(&mut self) {
        self.extra_loss = 0.0;
    }

    /// The current interference penalty (0 on a healthy link).
    pub fn extra_loss(&self) -> f64 {
        self.extra_loss
    }

    /// Successful transfers so far.
    pub fn transfers_ok(&self) -> u64 {
        self.transfers_ok
    }

    /// Failed transfer attempts so far.
    pub fn transfers_failed(&self) -> u64 {
        self.transfers_failed
    }

    /// Attempts to move `bytes` from initiator to responder while the
    /// devices are `distance_m` apart.
    ///
    /// The sender always pays the transfer energy. On a loss (probability
    /// from [`TechProfile::loss_probability`]) the receiver never wakes
    /// and pays nothing. Moving out of range closes the link.
    ///
    /// # Panics
    ///
    /// Panics if the link is not ready at `now` (closed, or still
    /// establishing).
    pub fn transfer(
        &mut self,
        now: SimTime,
        bytes: usize,
        distance_m: f64,
        rng: &mut SimRng,
    ) -> TransferOutcome {
        assert!(
            self.is_ready(now),
            "transfer on a link that is not ready (state {:?} at {now})",
            self.state
        );
        self.state = LinkState::Connected;

        let sender = self.tech.send(now, bytes, distance_m);
        let out_of_range = distance_m > self.tech.range_m;
        // The degrade penalty only raises the probability of the one
        // draw the healthy path makes, so faulted and clean runs consume
        // the RNG stream identically.
        let loss = (self.tech.loss_probability(distance_m) + self.extra_loss).min(1.0);
        let lost = out_of_range || rng.chance(loss);
        if lost {
            self.transfers_failed += 1;
            if out_of_range {
                self.state = LinkState::Closed;
            }
            let completed_at = sender.done_at;
            return TransferOutcome {
                success: false,
                sender,
                receiver: D2dActivity {
                    segments: Vec::new(),
                    done_at: completed_at,
                },
                completed_at,
            };
        }

        let receiver = self.tech.receive(now, bytes, distance_m);
        let completed_at = sender.done_at.max(receiver.done_at);
        self.transfers_ok += 1;
        TransferOutcome {
            success: true,
            sender,
            receiver,
            completed_at,
        }
    }

    /// Keep-alive charge both sides pay while the group idles over
    /// `[from, to)`: `(initiator, responder)` activities.
    pub fn idle(&self, from: SimTime, to: SimTime) -> (D2dActivity, D2dActivity) {
        (self.tech.idle(from, to), self.tech.idle(from, to))
    }

    /// Tears the link down; further transfers panic.
    pub fn close(&mut self) {
        self.state = LinkState::Closed;
    }

    /// Serialises the link's dynamic state (everything except `tech`,
    /// which is config-derived and supplied again on restore).
    pub fn snap_dyn(&self, w: &mut SnapshotWriter) {
        self.state.snap(w);
        w.put_f64(self.extra_loss);
        w.put_u64(self.transfers_ok);
        w.put_u64(self.transfers_failed);
    }

    /// Rebuilds a link from `tech` plus the dynamic state written by
    /// [`D2dLink::snap_dyn`].
    pub fn unsnap_dyn(
        tech: TechProfile,
        r: &mut SnapshotReader<'_>,
    ) -> Result<Self, SnapshotError> {
        let state = LinkState::unsnap(r)?;
        let extra_loss = r.take_f64()?;
        if !(0.0..=1.0).contains(&extra_loss) {
            return Err(SnapshotError::Corrupt(format!("extra loss {extra_loss}")));
        }
        Ok(D2dLink {
            tech,
            state,
            extra_loss,
            transfers_ok: r.take_u64()?,
            transfers_failed: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_sim::SimDuration;

    fn rng() -> SimRng {
        SimRng::seed_from(7)
    }

    #[test]
    fn establishment_costs_match_table3_sums() {
        let (link, ue, relay) = D2dLink::establish(TechProfile::wifi_direct(), SimTime::ZERO);
        // UE: 132.24 + 63.74 = 195.98; relay: 122.50 + 60.29 = 182.79.
        assert!((ue.charge().as_micro_amp_hours() - 195.98).abs() < 1.0);
        assert!((relay.charge().as_micro_amp_hours() - 182.79).abs() < 1.0);
        let ready = link.ready_at().unwrap();
        assert_eq!(
            ready,
            SimTime::ZERO + SimDuration::from_millis(3_400) + SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn cannot_transfer_before_ready() {
        let (mut link, _, _) = D2dLink::establish(TechProfile::wifi_direct(), SimTime::ZERO);
        let early = SimTime::from_millis(10);
        assert!(!link.is_ready(early));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            link.transfer(early, 74, 1.0, &mut rng())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn successful_transfer_bills_both_sides() {
        let mut link = D2dLink::already_connected(TechProfile::wifi_direct());
        let out = link.transfer(SimTime::ZERO, 54, 1.0, &mut rng());
        assert!(out.success);
        assert!((out.sender.charge().as_micro_amp_hours() - 73.09).abs() < 0.5);
        assert!((out.receiver.charge().as_micro_amp_hours() - 130.2).abs() < 1.0);
        assert_eq!(link.transfers_ok(), 1);
        assert_eq!(link.transfers_failed(), 0);
    }

    #[test]
    fn out_of_range_transfer_fails_and_closes() {
        let mut link = D2dLink::already_connected(TechProfile::wifi_direct());
        let out = link.transfer(SimTime::ZERO, 54, 500.0, &mut rng());
        assert!(!out.success);
        assert!(
            out.sender.charge().as_micro_amp_hours() > 0.0,
            "sender still pays"
        );
        assert!(out.receiver.segments.is_empty(), "receiver never wakes");
        assert_eq!(link.state(), LinkState::Closed);
        assert!(!link.is_ready(SimTime::from_secs(1)));
    }

    #[test]
    fn loss_rate_tracks_distance_model() {
        let tech = TechProfile::wifi_direct();
        let mut r = rng();
        let trials = 2000;
        let mut failures = 0;
        for _ in 0..trials {
            let mut link = D2dLink::already_connected(tech.clone());
            if !link.transfer(SimTime::ZERO, 54, 170.0, &mut r).success {
                failures += 1;
            }
        }
        let observed = failures as f64 / trials as f64;
        let expected = tech.loss_probability(170.0);
        assert!(
            (observed - expected).abs() < 0.05,
            "observed loss {observed}, model {expected}"
        );
    }

    #[test]
    fn degraded_link_loses_payloads_until_cleared() {
        let mut link = D2dLink::already_connected(TechProfile::wifi_direct());
        link.degrade(1.0);
        assert_eq!(link.extra_loss(), 1.0);
        let out = link.transfer(SimTime::ZERO, 54, 1.0, &mut rng());
        assert!(!out.success, "total interference must lose every payload");
        assert_eq!(
            link.state(),
            LinkState::Connected,
            "interference loses payloads without closing the link"
        );
        link.clear_degrade();
        assert_eq!(link.extra_loss(), 0.0);
        let out = link.transfer(SimTime::from_secs(1), 54, 1.0, &mut rng());
        assert!(out.success, "healthy link at 1 m delivers");
    }

    #[test]
    fn degrade_clamps_to_unit_interval() {
        let mut link = D2dLink::already_connected(TechProfile::wifi_direct());
        link.degrade(7.5);
        assert_eq!(link.extra_loss(), 1.0);
        link.degrade(-3.0);
        assert_eq!(link.extra_loss(), 0.0);
    }

    #[test]
    fn close_prevents_reuse() {
        let mut link = D2dLink::already_connected(TechProfile::wifi_direct());
        link.close();
        assert_eq!(link.state(), LinkState::Closed);
        assert!(!link.is_ready(SimTime::ZERO));
    }

    #[test]
    fn idle_bills_both_sides_equally() {
        let link = D2dLink::already_connected(TechProfile::wifi_direct());
        let (a, b) = link.idle(SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(
            a.charge().as_micro_amp_hours(),
            b.charge().as_micro_amp_hours()
        );
        assert!(a.charge().as_micro_amp_hours() > 0.0);
    }
}
