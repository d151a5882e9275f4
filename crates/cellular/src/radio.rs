//! The per-device RRC state machine.
//!
//! [`CellularRadio`] is *lazy*: instead of scheduling demotion timers on
//! the global event queue, it records how long it has occupied each state
//! the next time anyone interacts with it (or at
//! [`CellularRadio::finalize`]). The returned [`RadioActivity`] carries
//! the exact absolute-time energy segments and layer-3 messages the radio
//! produced, which the caller feeds into the device's
//! [`EnergyMeter`](hbr_energy::EnergyMeter) and the scenario's
//! [`SignalingCapture`](crate::SignalingCapture). Laziness keeps the
//! radio self-contained and unit-testable while producing exactly the
//! same traces an eagerly-timed model would.

use hbr_energy::{MilliAmps, Phase, Segment};
use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{SimDuration, SimTime};

use crate::config::RrcConfig;
use crate::l3::L3Message;

/// The RRC protocol state of a radio (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrcState {
    /// No RRC connection; the radio only listens to paging.
    Idle,
    /// Dedicated channel: full power, full rate (WCDMA CELL_DCH / LTE
    /// CONNECTED).
    CellDch,
    /// Shared low-rate channel (WCDMA CELL_FACH).
    CellFach,
}

impl RrcState {
    /// Short lowercase label for metrics and event streams (`"idle"`,
    /// `"dch"`, `"fach"`).
    pub fn label(self) -> &'static str {
        match self {
            RrcState::Idle => "idle",
            RrcState::CellDch => "dch",
            RrcState::CellFach => "fach",
        }
    }

    /// `true` if a radio observed in `self` may legally be observed in
    /// `next` some time later (§II-B state machine, under the lazy
    /// accounting this module uses: several internal hops may collapse
    /// into one observed step, e.g. DCH → FACH → IDLE between two
    /// observations reads as DCH → IDLE).
    ///
    /// The single impossible observation is `Idle → CellFach`: FACH is
    /// only reachable by demotion from DCH, and any activity from IDLE
    /// promotes straight to DCH first — so an idle radio can never be
    /// seen in FACH without an intervening DCH observation.
    pub fn can_transition_to(self, next: RrcState) -> bool {
        !matches!((self, next), (RrcState::Idle, RrcState::CellFach))
    }
}

impl Snap for RrcState {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            RrcState::Idle => 0,
            RrcState::CellDch => 1,
            RrcState::CellFach => 2,
        });
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(RrcState::Idle),
            1 => Ok(RrcState::CellDch),
            2 => Ok(RrcState::CellFach),
            t => Err(SnapshotError::Corrupt(format!("rrc state tag {t}"))),
        }
    }
}

/// One observed RRC state change, with how long the radio dwelt in the
/// state it left — the raw material for state-residency histograms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrcTransitionRecord {
    /// When the radio entered `to`.
    pub at: SimTime,
    /// The state left behind.
    pub from: RrcState,
    /// The state entered.
    pub to: RrcState,
    /// Time spent in `from` before this transition.
    pub dwell: SimDuration,
}

/// Energy segments and layer-3 messages produced by radio operations,
/// stamped with absolute times.
#[derive(Debug, Clone, Default)]
pub struct RadioActivity {
    /// `(absolute start, segment)` pairs to feed an `EnergyMeter`.
    pub segments: Vec<(SimTime, Segment)>,
    /// Timestamped layer-3 messages to feed a `SignalingCapture`.
    pub messages: Vec<(SimTime, L3Message)>,
    /// RRC state changes this activity caused, in time order.
    pub transitions: Vec<RrcTransitionRecord>,
}

impl RadioActivity {
    /// Appends all records of `other`.
    pub fn extend(&mut self, other: RadioActivity) {
        self.segments.extend(other.segments);
        self.messages.extend(other.messages);
        self.transitions.extend(other.transitions);
    }

    fn push_segment(
        &mut self,
        start: SimTime,
        duration: SimDuration,
        current: MilliAmps,
        phase: Phase,
    ) {
        if duration.is_zero() {
            return;
        }
        self.segments.push((
            start,
            Segment {
                offset: SimDuration::ZERO,
                duration,
                current,
                phase,
            },
        ));
    }
}

/// The result of one [`CellularRadio::transmit`] call.
#[derive(Debug, Clone)]
pub struct TransmitOutcome {
    /// Energy and signaling produced by the transmission (and any state
    /// housekeeping that happened first).
    pub activity: RadioActivity,
    /// When the last payload byte reaches the network — heartbeats are
    /// considered delivered to the IM server at this instant.
    pub delivered_at: SimTime,
    /// 1 if this transmission had to establish a new RRC connection,
    /// 0 if it rode an existing one (DCH occupancy or FACH re-promotion).
    pub rrc_connections: u32,
}

/// Cumulative time the radio spent in each RRC state — the occupancy
/// breakdown RRC-optimisation papers (and operators) reason about.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StateOccupancy {
    /// Seconds in IDLE (camped, paging only).
    pub idle_secs: f64,
    /// Seconds in CELL_DCH, split below into active vs tail.
    pub dch_secs: f64,
    /// Seconds of the DCH time that were actual transfer/promotion.
    pub active_secs: f64,
    /// Seconds in CELL_FACH.
    pub fach_secs: f64,
}

impl StateOccupancy {
    /// Fraction of non-idle time that was pure tail (energy wasted
    /// waiting for timers) — the inefficiency fast dormancy attacks.
    pub fn tail_fraction(&self) -> f64 {
        let connected = self.dch_secs + self.fach_secs;
        if connected == 0.0 {
            0.0
        } else {
            (connected - self.active_secs).max(0.0) / connected
        }
    }
}

impl Snap for StateOccupancy {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.idle_secs);
        w.put_f64(self.dch_secs);
        w.put_f64(self.active_secs);
        w.put_f64(self.fach_secs);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(StateOccupancy {
            idle_secs: r.take_f64()?,
            dch_secs: r.take_f64()?,
            active_secs: r.take_f64()?,
            fach_secs: r.take_f64()?,
        })
    }
}

/// A per-device cellular radio with a lazily evaluated RRC state machine.
///
/// # Examples
///
/// ```
/// use hbr_cellular::{CellularRadio, RrcConfig, RrcState};
/// use hbr_sim::SimTime;
///
/// let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
/// assert_eq!(radio.state_at(SimTime::ZERO), RrcState::Idle);
///
/// let outcome = radio.transmit(SimTime::ZERO, 74);
/// assert_eq!(outcome.rrc_connections, 1);
/// // Right after the transfer the radio sits in its DCH tail.
/// assert_eq!(radio.state_at(outcome.delivered_at), RrcState::CellDch);
/// ```
#[derive(Debug, Clone)]
pub struct CellularRadio {
    cfg: RrcConfig,
    state: RrcState,
    /// When the current state began. For `CellDch` this is the end of the
    /// last active transfer, i.e. the start of the tail.
    state_since: SimTime,
    /// When the current state was *entered* (for `CellDch`, the original
    /// promotion instant — unlike `state_since`, repeated transfers do
    /// not reset it). Drives dwell times in [`RrcTransitionRecord`]s.
    entered_at: SimTime,
    /// Occupancy energy has been recorded up to this instant.
    accounted_until: SimTime,
    total_connections: u64,
    occupancy: StateOccupancy,
}

impl CellularRadio {
    /// Creates an idle radio at time zero.
    pub fn new(cfg: RrcConfig) -> Self {
        CellularRadio {
            cfg,
            state: RrcState::Idle,
            state_since: SimTime::ZERO,
            entered_at: SimTime::ZERO,
            accounted_until: SimTime::ZERO,
            total_connections: 0,
            occupancy: StateOccupancy::default(),
        }
    }

    /// Cumulative per-state occupancy up to the last accounted instant.
    pub fn occupancy(&self) -> StateOccupancy {
        self.occupancy
    }

    /// The configuration this radio runs with.
    pub fn config(&self) -> &RrcConfig {
        &self.cfg
    }

    /// Total RRC connections established so far.
    pub fn connections(&self) -> u64 {
        self.total_connections
    }

    /// The protocol state the radio would be in at `at` (assuming no
    /// further transmissions). Does not mutate accounting.
    pub fn state_at(&self, at: SimTime) -> RrcState {
        match self.state {
            RrcState::Idle => RrcState::Idle,
            RrcState::CellDch => {
                let demote = self.state_since.saturating_add(self.cfg.dch_tail);
                if at < demote {
                    RrcState::CellDch
                } else if self.cfg.has_fach() {
                    let release = demote.saturating_add(self.cfg.fach_tail);
                    if at < release {
                        RrcState::CellFach
                    } else {
                        RrcState::Idle
                    }
                } else {
                    RrcState::Idle
                }
            }
            RrcState::CellFach => {
                let release = self.state_since.saturating_add(self.cfg.fach_tail);
                if at < release {
                    RrcState::CellFach
                } else {
                    RrcState::Idle
                }
            }
        }
    }

    /// Moves the machine into `to` at `at`, recording the transition
    /// (and the dwell completed in the state left behind) into
    /// `activity`.
    fn enter(&mut self, activity: &mut RadioActivity, at: SimTime, to: RrcState) {
        activity.transitions.push(RrcTransitionRecord {
            at,
            from: self.state,
            to,
            dwell: at.saturating_since(self.entered_at),
        });
        self.state = to;
        self.state_since = at;
        self.entered_at = at;
    }

    /// Brings the state machine's accounting up to `now`, applying any
    /// demotions whose timers expired, and returns the energy/signaling
    /// that occupancy produced. Call this at scenario end (`finalize`) or
    /// before reading time-sensitive state.
    pub fn advance(&mut self, now: SimTime) -> RadioActivity {
        let mut activity = RadioActivity::default();
        if now <= self.accounted_until {
            return activity;
        }
        loop {
            match self.state {
                RrcState::Idle => {
                    self.occupancy.idle_secs += (now - self.accounted_until).as_secs_f64();
                    self.accounted_until = now;
                    break;
                }
                RrcState::CellDch => {
                    let demote_at = self.state_since.saturating_add(self.cfg.dch_tail);
                    if now < demote_at {
                        self.occupancy.dch_secs += (now - self.accounted_until).as_secs_f64();
                        activity.push_segment(
                            self.accounted_until,
                            now - self.accounted_until,
                            self.cfg.dch_tail_current,
                            Phase::CellularTail,
                        );
                        self.accounted_until = now;
                        break;
                    }
                    self.occupancy.dch_secs += (demote_at - self.accounted_until).as_secs_f64();
                    activity.push_segment(
                        self.accounted_until,
                        demote_at - self.accounted_until,
                        self.cfg.dch_tail_current,
                        Phase::CellularTail,
                    );
                    self.accounted_until = demote_at;
                    if self.cfg.has_fach() {
                        for m in self.cfg.demotion_messages() {
                            activity.messages.push((demote_at, *m));
                        }
                        self.enter(&mut activity, demote_at, RrcState::CellFach);
                    } else {
                        for m in self.cfg.release_messages() {
                            activity.messages.push((demote_at, *m));
                        }
                        self.enter(&mut activity, demote_at, RrcState::Idle);
                    }
                }
                RrcState::CellFach => {
                    let release_at = self.state_since.saturating_add(self.cfg.fach_tail);
                    if now < release_at {
                        self.occupancy.fach_secs += (now - self.accounted_until).as_secs_f64();
                        activity.push_segment(
                            self.accounted_until,
                            now - self.accounted_until,
                            self.cfg.fach_current,
                            Phase::CellularTail,
                        );
                        self.accounted_until = now;
                        break;
                    }
                    self.occupancy.fach_secs += (release_at - self.accounted_until).as_secs_f64();
                    activity.push_segment(
                        self.accounted_until,
                        release_at - self.accounted_until,
                        self.cfg.fach_current,
                        Phase::CellularTail,
                    );
                    self.accounted_until = release_at;
                    for m in self.cfg.release_messages() {
                        activity.messages.push((release_at, *m));
                    }
                    self.enter(&mut activity, release_at, RrcState::Idle);
                }
            }
        }
        activity
    }

    /// Transmits `bytes` of payload starting at `now`.
    ///
    /// Handles whatever RRC work is needed first — establishment from
    /// IDLE (5 layer-3 messages across the ~2 s promotion), re-promotion
    /// from FACH, or nothing if the radio is still in its DCH window —
    /// then the active transfer itself, plus any data-volume signaling.
    ///
    /// A transfer requested while the previous one is still in the air
    /// (i.e. `now` before the last `delivered_at`) queues behind it: the
    /// radio serialises, exactly like the single TX chain in a phone.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> TransmitOutcome {
        let now = now.max(self.accounted_until);
        let mut activity = self.advance(now);
        let mut new_connections = 0u32;

        let transfer_start = match self.state {
            RrcState::Idle => {
                new_connections = 1;
                self.total_connections += 1;
                let msgs = self.cfg.establishment_messages();
                let n = msgs.len() as u64;
                for (i, m) in msgs.iter().enumerate() {
                    // Spread the handshake across the promotion window, the
                    // way a real capture shows it.
                    let offset = SimDuration::from_micros(
                        self.cfg.promotion_delay.as_micros() * i as u64 / n.max(1),
                    );
                    activity.messages.push((now + offset, *m));
                }
                activity.push_segment(
                    now,
                    self.cfg.promotion_delay,
                    self.cfg.promotion_current,
                    Phase::CellularPromotion,
                );
                now + self.cfg.promotion_delay
            }
            RrcState::CellFach => {
                for m in self.cfg.repromotion_messages() {
                    activity.messages.push((now, *m));
                }
                activity.push_segment(
                    now,
                    self.cfg.fach_promotion_delay,
                    self.cfg.promotion_current,
                    Phase::CellularPromotion,
                );
                now + self.cfg.fach_promotion_delay
            }
            RrcState::CellDch => now,
        };

        let duration = self.cfg.transfer_duration(bytes);
        activity.push_segment(
            transfer_start,
            duration,
            self.cfg.active_current,
            Phase::CellularActive,
        );
        for _ in 0..self.cfg.volume_messages(bytes) {
            activity
                .messages
                .push((transfer_start, L3Message::TransportChannelReconfiguration));
        }

        let delivered_at = transfer_start + duration;
        let busy = (delivered_at - now).as_secs_f64();
        self.occupancy.dch_secs += busy;
        self.occupancy.active_secs += busy;
        if self.state != RrcState::CellDch {
            self.enter(&mut activity, now, RrcState::CellDch);
        }
        self.state_since = delivered_at; // tail timer restarts after activity
        self.accounted_until = delivered_at;

        TransmitOutcome {
            activity,
            delivered_at,
            rrc_connections: new_connections,
        }
    }

    /// Serialises the radio's dynamic state (everything except `cfg`,
    /// which is config-derived and supplied again on restore).
    pub fn snap_dyn(&self, w: &mut SnapshotWriter) {
        self.state.snap(w);
        self.state_since.snap(w);
        self.entered_at.snap(w);
        self.accounted_until.snap(w);
        w.put_u64(self.total_connections);
        self.occupancy.snap(w);
    }

    /// Rebuilds a radio from `cfg` plus the dynamic state written by
    /// [`CellularRadio::snap_dyn`].
    pub fn unsnap_dyn(cfg: RrcConfig, r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CellularRadio {
            cfg,
            state: RrcState::unsnap(r)?,
            state_since: SimTime::unsnap(r)?,
            entered_at: SimTime::unsnap(r)?,
            accounted_until: SimTime::unsnap(r)?,
            total_connections: r.take_u64()?,
            occupancy: StateOccupancy::unsnap(r)?,
        })
    }

    /// Flushes all remaining tail occupancy up to `now`. Alias of
    /// [`CellularRadio::advance`] named for call sites at scenario end.
    pub fn finalize(&mut self, now: SimTime) -> RadioActivity {
        self.advance(now)
    }

    /// Receives a mobile-terminated payload of `bytes` announced by a
    /// page at `now` — the downlink path IM pushes travel when the
    /// heartbeat machinery has kept the session alive.
    ///
    /// From IDLE the network first sends a `PagingType1` on the paging
    /// channel and the radio answers with a full RRC establishment; from
    /// a connected state the payload rides the existing channel without
    /// paging. Energy and state effects are identical to an uplink
    /// transfer of the same size (the model does not distinguish TX/RX
    /// power).
    pub fn receive_paged(&mut self, now: SimTime, bytes: usize) -> TransmitOutcome {
        let now = now.max(self.accounted_until);
        let needs_page = self.state_at(now) == RrcState::Idle;
        let mut outcome = self.transmit(now, bytes);
        if needs_page {
            // The page precedes the connection request in the capture.
            outcome
                .activity
                .messages
                .insert(0, (now, L3Message::PagingType1));
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_energy::EnergyMeter;

    fn radio() -> CellularRadio {
        CellularRadio::new(RrcConfig::wcdma_galaxy_s4())
    }

    #[test]
    fn only_idle_to_fach_is_illegal() {
        use RrcState::*;
        for from in [Idle, CellDch, CellFach] {
            for to in [Idle, CellDch, CellFach] {
                let legal = from.can_transition_to(to);
                assert_eq!(
                    legal,
                    !(from == Idle && to == CellFach),
                    "{from:?} -> {to:?}"
                );
            }
        }
    }

    #[test]
    fn observed_states_follow_legal_transitions() {
        // Drive a radio through a full cycle, observing at many instants;
        // every consecutive pair of observations must be legal.
        let mut r = radio();
        let out = r.transmit(SimTime::from_secs(5), 74);
        let mut prev = RrcState::Idle;
        for s in 0..40 {
            let at = out.delivered_at + SimDuration::from_millis(s * 500);
            let state = r.state_at(at);
            assert!(prev.can_transition_to(state), "{prev:?} -> {state:?}");
            prev = state;
        }
        assert_eq!(prev, RrcState::Idle, "tails must have expired");
    }

    fn apply(meter: &mut EnergyMeter, activity: &RadioActivity) {
        for (start, seg) in &activity.segments {
            meter.add_segment(*start, *seg);
        }
    }

    #[test]
    fn full_cycle_energy_matches_calibration() {
        let mut r = radio();
        let mut meter = EnergyMeter::new();
        let out = r.transmit(SimTime::ZERO, 74);
        apply(&mut meter, &out.activity);
        // Let every tail expire.
        let tail = r.finalize(SimTime::from_secs(60));
        apply(&mut meter, &tail);
        let uah = meter.total().as_micro_amp_hours();
        assert!(
            (uah - 581.0).abs() < 10.0,
            "one heartbeat cycle = {uah:.1} µAh, calibrated to ≈ 581"
        );
    }

    #[test]
    fn full_cycle_signaling_is_eight_messages() {
        let mut r = radio();
        let out = r.transmit(SimTime::ZERO, 74);
        assert_eq!(out.activity.messages.len(), 5, "establishment = 5 msgs");
        let tail = r.finalize(SimTime::from_secs(60));
        assert_eq!(tail.messages.len(), 3, "demotion 1 + release 2");
        assert_eq!(out.rrc_connections, 1);
    }

    #[test]
    fn dch_reuse_needs_no_new_connection() {
        let mut r = radio();
        let first = r.transmit(SimTime::ZERO, 74);
        // Second transfer 1 s after delivery: still inside the 3 s DCH tail.
        let t2 = first.delivered_at + SimDuration::from_secs(1);
        let second = r.transmit(t2, 74);
        assert_eq!(second.rrc_connections, 0);
        assert!(second
            .activity
            .messages
            .iter()
            .all(|(_, m)| *m != L3Message::RrcConnectionRequest));
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn fach_repromotion_uses_cell_update() {
        let mut r = radio();
        let first = r.transmit(SimTime::ZERO, 74);
        // 4 s after delivery: DCH tail (3 s) expired, inside FACH (2.5 s).
        let t2 = first.delivered_at + SimDuration::from_secs(4);
        assert_eq!(r.state_at(t2), RrcState::CellFach);
        let second = r.transmit(t2, 74);
        assert_eq!(second.rrc_connections, 0);
        assert!(second
            .activity
            .messages
            .iter()
            .any(|(_, m)| *m == L3Message::CellUpdate));
    }

    #[test]
    fn idle_after_both_tails() {
        let mut r = radio();
        let first = r.transmit(SimTime::ZERO, 74);
        let later = first.delivered_at + SimDuration::from_secs(10);
        assert_eq!(r.state_at(later), RrcState::Idle);
        let second = r.transmit(later, 74);
        assert_eq!(second.rrc_connections, 1);
        assert_eq!(r.connections(), 2);
    }

    #[test]
    fn tail_energy_is_split_on_interleaved_advance() {
        let mut a = radio();
        let mut b = radio();
        let out_a = a.transmit(SimTime::ZERO, 74);
        let out_b = b.transmit(SimTime::ZERO, 74);
        assert_eq!(out_a.delivered_at, out_b.delivered_at);

        // Radio A is advanced in two steps, radio B in one; totals must match.
        let mut meter_a = EnergyMeter::new();
        let mut meter_b = EnergyMeter::new();
        apply(&mut meter_a, &out_a.activity);
        apply(&mut meter_b, &out_b.activity);
        let mid = out_a.delivered_at + SimDuration::from_millis(1_500);
        apply(&mut meter_a, &a.advance(mid));
        apply(&mut meter_a, &a.advance(SimTime::from_secs(60)));
        apply(&mut meter_b, &b.advance(SimTime::from_secs(60)));
        let ea = meter_a.total().as_micro_amp_hours();
        let eb = meter_b.total().as_micro_amp_hours();
        assert!(
            (ea - eb).abs() < 1e-6,
            "split advance changed energy: {ea} vs {eb}"
        );
    }

    #[test]
    fn volume_signaling_grows_with_payload() {
        let mut r = radio();
        let out = r.transmit(SimTime::ZERO, 3_000);
        let reconfigs = out
            .activity
            .messages
            .iter()
            .filter(|(_, m)| *m == L3Message::TransportChannelReconfiguration)
            .count();
        assert_eq!(reconfigs, 2);
    }

    #[test]
    fn lte_two_state_machine_releases_directly() {
        let mut r = CellularRadio::new(RrcConfig::lte_default());
        let out = r.transmit(SimTime::ZERO, 74);
        let tail = r.finalize(SimTime::from_secs(60));
        assert_eq!(out.rrc_connections, 1);
        // LTE: no RadioBearerReconfiguration demotion, straight to release.
        assert!(tail.activity_messages_contains(L3Message::RrcConnectionRelease));
        assert!(!tail.activity_messages_contains(L3Message::RadioBearerReconfiguration));
    }

    impl RadioActivity {
        fn activity_messages_contains(&self, needle: L3Message) -> bool {
            self.messages.iter().any(|(_, m)| *m == needle)
        }
    }

    #[test]
    fn delivered_at_reflects_promotion_and_rate() {
        let cfg = RrcConfig::wcdma_galaxy_s4();
        let mut r = CellularRadio::new(cfg.clone());
        let out = r.transmit(SimTime::ZERO, 74);
        assert_eq!(
            out.delivered_at,
            SimTime::ZERO + cfg.promotion_delay + cfg.min_active
        );
    }

    #[test]
    fn occupancy_partitions_time_and_exposes_the_tail() {
        let mut r = radio();
        let out = r.transmit(SimTime::ZERO, 74);
        let _ = r.finalize(SimTime::from_secs(100));
        let occ = r.occupancy();
        // Total accounted time = 100 s, split across states.
        let total = occ.idle_secs + occ.dch_secs + occ.fach_secs;
        assert!((total - 100.0).abs() < 1e-6, "partition broke: {total}");
        // Active time = promotion (2 s) + transfer (0.2 s).
        assert!((occ.active_secs - 2.2).abs() < 1e-6);
        // Tail: 3 s DCH + 2.5 s FACH of 7.7 s connected ≈ 71%.
        assert!((occ.tail_fraction() - 5.5 / 7.7).abs() < 0.01);
        let _ = out;
    }

    #[test]
    fn occupancy_empty_radio_is_zero() {
        let r = radio();
        assert_eq!(r.occupancy(), StateOccupancy::default());
        assert_eq!(r.occupancy().tail_fraction(), 0.0);
    }

    #[test]
    fn paged_receive_from_idle_pages_then_establishes() {
        let mut r = radio();
        let out = r.receive_paged(SimTime::ZERO, 512);
        assert_eq!(out.rrc_connections, 1);
        assert_eq!(out.activity.messages[0].1, L3Message::PagingType1);
        assert_eq!(out.activity.messages[1].1, L3Message::RrcConnectionRequest);
    }

    #[test]
    fn paged_receive_in_tail_skips_the_page() {
        let mut r = radio();
        let first = r.transmit(SimTime::ZERO, 74);
        // Still inside the DCH tail: the downlink rides the open channel.
        let out = r.receive_paged(first.delivered_at + SimDuration::from_secs(1), 512);
        assert_eq!(out.rrc_connections, 0);
        assert!(out
            .activity
            .messages
            .iter()
            .all(|(_, m)| *m != L3Message::PagingType1));
    }

    #[test]
    fn advance_is_idempotent() {
        let mut r = radio();
        r.transmit(SimTime::ZERO, 74);
        let first = r.advance(SimTime::from_secs(60));
        assert!(!first.segments.is_empty());
        let second = r.advance(SimTime::from_secs(60));
        assert!(second.segments.is_empty());
        assert!(second.messages.is_empty());
    }

    #[test]
    fn transitions_cover_the_full_cycle_with_dwells() {
        let cfg = RrcConfig::wcdma_galaxy_s4();
        let mut r = CellularRadio::new(cfg.clone());
        let out = r.transmit(SimTime::from_secs(10), 74);
        assert_eq!(out.activity.transitions.len(), 1);
        let promo = out.activity.transitions[0];
        assert_eq!((promo.from, promo.to), (RrcState::Idle, RrcState::CellDch));
        assert_eq!(promo.at, SimTime::from_secs(10));
        assert_eq!(promo.dwell, SimDuration::from_secs(10), "10 s idle first");

        let tail = r.finalize(SimTime::from_secs(100));
        let pairs: Vec<_> = tail.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            pairs,
            vec![
                (RrcState::CellDch, RrcState::CellFach),
                (RrcState::CellFach, RrcState::Idle),
            ]
        );
        // DCH dwell = promotion + transfer + DCH tail; FACH dwell = FACH tail.
        let dch_dwell = cfg.promotion_delay + cfg.min_active + cfg.dch_tail;
        assert_eq!(tail.transitions[0].dwell, dch_dwell);
        assert_eq!(tail.transitions[1].dwell, cfg.fach_tail);
        assert!(tail
            .transitions
            .iter()
            .all(|t| t.from.can_transition_to(t.to)));
    }

    #[test]
    fn dch_reuse_records_no_transition() {
        let mut r = radio();
        let first = r.transmit(SimTime::ZERO, 74);
        let second = r.transmit(first.delivered_at + SimDuration::from_secs(1), 74);
        assert!(
            second.activity.transitions.is_empty(),
            "riding the open DCH window is not a state change"
        );
    }

    #[test]
    fn state_labels_are_lowercase_and_distinct() {
        assert_eq!(RrcState::Idle.label(), "idle");
        assert_eq!(RrcState::CellDch.label(), "dch");
        assert_eq!(RrcState::CellFach.label(), "fach");
    }

    #[test]
    fn overlapping_transmissions_serialise() {
        let mut r = radio();
        let first = r.transmit(SimTime::from_secs(10), 74);
        // Requested mid-flight: queues behind the first transfer instead of
        // rewriting history.
        let second = r.transmit(SimTime::from_secs(10), 74);
        assert!(second.delivered_at >= first.delivered_at);
        assert_eq!(
            second.rrc_connections, 0,
            "back-to-back transfers share the connection"
        );
    }
}
