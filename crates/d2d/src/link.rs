//! A stateful pairwise D2D link.
//!
//! [`D2dLink`] ties the per-phase activities of [`TechProfile`] into a
//! lifecycle — establish (discovery + connection), transfer repeatedly,
//! close — and injects the failures the paper's fallback mechanism exists
//! for: distance-dependent transfer loss and hard out-of-range cuts.

use hbr_sim::snapshot::SnapshotError;
use hbr_sim::{snap_enum, snap_struct, SimRng, SimTime};

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

snap_enum!(LinkState "link state" { 0 => Establishing { ready_at }, 1 => Connected, 2 => Closed });

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
/// The link holds only its dynamic state; the [`TechProfile`] it runs
/// over is the scenario's, passed to [`D2dLink::establish`] and
/// [`D2dLink::transfer`].
///
/// # Examples
///
/// ```
/// use hbr_d2d::{D2dLink, TechProfile};
/// use hbr_sim::{SimRng, SimTime};
///
/// let wifi = TechProfile::wifi_direct();
/// let (mut link, ue_cost, relay_cost) = D2dLink::establish(&wifi, SimTime::ZERO);
/// assert!(ue_cost.charge() > relay_cost.charge()); // initiator pays more
///
/// let ready = link.ready_at().unwrap();
/// let mut rng = SimRng::seed_from(1);
/// let out = link.transfer(&wifi, ready, 74, 1.0, &mut rng);
/// assert!(out.success);
/// ```
#[derive(Debug, Clone)]
pub struct D2dLink {
    state: LinkState,
    /// Interference penalty: extra loss probability added to the
    /// distance model while a fault window degrades this link.
    extra_loss: f64,
}

impl D2dLink {
    /// Starts establishing a link at `now`: a discovery scan followed by
    /// connection setup. Returns the link plus the energy activities of
    /// the initiator (UE) and responder (relay).
    pub fn establish(tech: &TechProfile, now: SimTime) -> (D2dLink, D2dActivity, D2dActivity) {
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
        (D2dLink::establish_pending(ready_at), ue, relay)
    }

    /// Creates a link that is already connected (e.g. reusing a group that
    /// survived from a previous heartbeat period).
    pub fn already_connected() -> D2dLink {
        D2dLink {
            state: LinkState::Connected,
            extra_loss: 0.0,
        }
    }

    /// Creates a link whose establishment is in flight and completes at
    /// `ready_at` — for callers that billed the discovery/connection
    /// energy themselves (e.g. when several relays answered one scan).
    pub fn establish_pending(ready_at: SimTime) -> D2dLink {
        D2dLink {
            state: LinkState::Establishing { ready_at },
            extra_loss: 0.0,
        }
    }

    /// The stored lifecycle state. An `Establishing` link past its ready
    /// instant still reads `Establishing` until its first transfer;
    /// [`is_ready`](Self::is_ready) is what treats it as usable.
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

    /// Attempts to move `bytes` from initiator to responder over `tech`
    /// while the devices are `distance_m` apart.
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
        tech: &TechProfile,
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

        let sender = tech.send(now, bytes, distance_m);
        let out_of_range = distance_m > tech.range_m;
        // The degrade penalty only raises the probability of the one
        // draw the healthy path makes, so faulted and clean runs consume
        // the RNG stream identically.
        let loss = (tech.loss_probability(distance_m) + self.extra_loss).min(1.0);
        let lost = out_of_range || rng.chance(loss);
        if lost {
            if out_of_range {
                self.state = LinkState::Closed;
            }
            let completed_at = sender.done_at;
            return TransferOutcome {
                success: false,
                sender,
                receiver: D2dActivity {
                    done_at: completed_at,
                    ..D2dActivity::default()
                },
                completed_at,
            };
        }

        let receiver = tech.receive(now, bytes, distance_m);
        let completed_at = sender.done_at.max(receiver.done_at);
        TransferOutcome {
            success: true,
            sender,
            receiver,
            completed_at,
        }
    }

    /// Tears the link down; further transfers panic.
    pub fn close(&mut self) {
        self.state = LinkState::Closed;
    }
}

snap_struct!(D2dLink { state, extra_loss } check check_extra_loss);

fn check_extra_loss(link: &D2dLink) -> Result<(), SnapshotError> {
    if !(0.0..=1.0).contains(&link.extra_loss) {
        return Err(SnapshotError::Corrupt(format!(
            "extra loss {}",
            link.extra_loss
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};
    use hbr_sim::SimDuration;

    fn rng() -> SimRng {
        SimRng::seed_from(7)
    }

    #[test]
    fn establishment_costs_match_table3_sums() {
        let tech = TechProfile::wifi_direct();
        let (link, ue, relay) = D2dLink::establish(&tech, SimTime::ZERO);
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
        let tech = TechProfile::wifi_direct();
        let (mut link, _, _) = D2dLink::establish(&tech, SimTime::ZERO);
        let early = SimTime::from_millis(10);
        assert!(!link.is_ready(early));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            link.transfer(&tech, early, 74, 1.0, &mut rng())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn successful_transfer_bills_both_sides() {
        let tech = TechProfile::wifi_direct();
        let mut link = D2dLink::already_connected();
        let out = link.transfer(&tech, SimTime::ZERO, 54, 1.0, &mut rng());
        assert!(out.success);
        assert!((out.sender.charge().as_micro_amp_hours() - 73.09).abs() < 0.5);
        assert!((out.receiver.charge().as_micro_amp_hours() - 130.2).abs() < 1.0);
    }

    #[test]
    fn out_of_range_transfer_fails_and_closes() {
        let tech = TechProfile::wifi_direct();
        let mut link = D2dLink::already_connected();
        let out = link.transfer(&tech, SimTime::ZERO, 54, 500.0, &mut rng());
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
            let mut link = D2dLink::already_connected();
            if !link
                .transfer(&tech, SimTime::ZERO, 54, 170.0, &mut r)
                .success
            {
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
        let tech = TechProfile::wifi_direct();
        let mut link = D2dLink::already_connected();
        link.degrade(1.0);
        assert_eq!(link.extra_loss(), 1.0);
        let out = link.transfer(&tech, SimTime::ZERO, 54, 1.0, &mut rng());
        assert!(!out.success, "total interference must lose every payload");
        assert_eq!(
            link.state(),
            LinkState::Connected,
            "interference loses payloads without closing the link"
        );
        link.clear_degrade();
        assert_eq!(link.extra_loss(), 0.0);
        let out = link.transfer(&tech, SimTime::from_secs(1), 54, 1.0, &mut rng());
        assert!(out.success, "healthy link at 1 m delivers");
    }

    #[test]
    fn degrade_clamps_to_unit_interval() {
        let mut link = D2dLink::already_connected();
        link.degrade(7.5);
        assert_eq!(link.extra_loss(), 1.0);
        link.degrade(-3.0);
        assert_eq!(link.extra_loss(), 0.0);
    }

    fn round_trip(link: &D2dLink) -> Result<D2dLink, SnapshotError> {
        let mut w = SnapshotWriter::new();
        link.snap(&mut w);
        let bytes = w.into_bytes();
        D2dLink::unsnap(&mut SnapshotReader::new(&bytes))
    }

    #[test]
    fn snap_round_trips_state_and_penalty() {
        let mut degraded = D2dLink::already_connected();
        degraded.degrade(0.25);
        let mut closed = D2dLink::already_connected();
        closed.close();
        for link in [
            D2dLink::establish_pending(SimTime::from_secs(3)),
            degraded,
            closed,
        ] {
            let back = round_trip(&link).expect("a valid link reads back");
            assert_eq!(back.state(), link.state());
            assert_eq!(back.extra_loss(), link.extra_loss());
        }
    }

    #[test]
    fn restore_refuses_an_out_of_range_extra_loss() {
        for extra_loss in [1.5, -0.1, f64::NAN] {
            let link = D2dLink {
                state: LinkState::Connected,
                extra_loss,
            };
            let err = round_trip(&link).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Corrupt(m) if m.starts_with("extra loss ")),
                "{err}"
            );
        }
    }

    #[test]
    fn close_prevents_reuse() {
        let mut link = D2dLink::already_connected();
        link.close();
        assert_eq!(link.state(), LinkState::Closed);
        assert!(!link.is_ready(SimTime::ZERO));
    }
}
