//! The D2D Detector — discovery, pre-judgment and relay matching.
//!
//! §III-C: before establishing a (costly) D2D connection the UE makes a
//! *pre-judgment* from two signals gathered during discovery — the
//! RSSI-estimated **distance** to each candidate relay and the relay's
//! advertised **free capacity** — and picks the nearest admissible relay.
//! Short-distance matches are preferred because disconnection probability
//! and transfer energy both grow with distance (Fig. 12), and a
//! connection that dies after one or two forwards never amortises its
//! discovery + connection cost.
//!
//! The detector also performs the **energy pre-judgment** of §III-A: if
//! the predicted energy of the D2D session (establishment amortised over
//! the expected number of forwards, plus per-forward send cost) exceeds
//! sending the same heartbeats over cellular, the UE keeps the cellular
//! path. This is the "mechanism for UEs to determine when to use relay"
//! the paper lists as its second key challenge.

use hbr_d2d::{GoIntent, TechProfile};
use hbr_energy::MicroAmpHours;
use hbr_mobility::{Field, PathLoss, Position};
use hbr_sim::{DeviceId, SimRng};

use crate::config::FrameworkConfig;

/// What a relay advertises in its discovery beacon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayAdvert {
    /// The advertising relay.
    pub device: DeviceId,
    /// Remaining collection slots this period (`M − k`).
    pub free_capacity: usize,
    /// Current group-owner intent (decays as the relay fills, §IV-C).
    pub go_intent: GoIntent,
    /// The relay's true position (used by the channel model to produce
    /// the RSSI the UE actually observes; the UE never reads this field
    /// directly).
    pub position: Position,
}

/// The detector's verdict for one heartbeat (or one matching round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchDecision {
    /// Forward via this relay, estimated to be this far away.
    UseRelay {
        /// The chosen relay.
        relay: DeviceId,
        /// RSSI-estimated distance in metres.
        estimated_distance_m: f64,
    },
    /// No admissible relay — send directly over cellular.
    DirectCellular(NoMatchReason),
}

/// Why the detector fell back to cellular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoMatchReason {
    /// Discovery returned no beacons at all.
    NoRelaysDiscovered,
    /// Every candidate failed the distance or capacity pre-judgment.
    AllCandidatesInadmissible,
    /// The best candidate failed the energy pre-judgment.
    EnergyUnfavourable,
}

/// Matches UEs to relays using discovery-time information only.
///
/// # Examples
///
/// ```
/// use hbr_core::{D2dDetector, FrameworkConfig, MatchDecision, RelayAdvert};
/// use hbr_d2d::{GoIntent, TechProfile};
/// use hbr_mobility::{PathLoss, Position};
/// use hbr_sim::{DeviceId, SimRng};
///
/// let detector = D2dDetector::new(
///     FrameworkConfig::default(),
///     TechProfile::wifi_direct(),
///     PathLoss::indoor_wifi(),
/// );
/// let adverts = vec![RelayAdvert {
///     device: DeviceId::new(1),
///     free_capacity: 7,
///     go_intent: GoIntent::MAX,
///     position: Position::new(2.0, 0.0),
/// }];
/// let mut rng = SimRng::seed_from(3);
/// let decision = detector.match_relay(
///     Position::new(0.0, 0.0),
///     &adverts,
///     8,     // expected forwards during the session
///     581.0, // µAh per heartbeat over cellular
///     &mut rng,
/// );
/// assert!(matches!(decision, MatchDecision::UseRelay { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct D2dDetector {
    config: FrameworkConfig,
    tech: TechProfile,
    channel: PathLoss,
}

impl D2dDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`FrameworkConfig::validate`]).
    pub fn new(config: FrameworkConfig, tech: TechProfile, channel: PathLoss) -> Self {
        config.validate();
        D2dDetector {
            config,
            tech,
            channel,
        }
    }

    /// The framework configuration in force.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// Predicted UE-side energy of a D2D session from `ue_position`:
    /// establishment (discovery + connection) plus `expected_forwards`
    /// sends at the estimated distance.
    pub fn predicted_session_energy(
        &self,
        distance_m: f64,
        expected_forwards: u32,
    ) -> MicroAmpHours {
        use hbr_d2d::D2dRole;
        use hbr_sim::SimTime;
        let t0 = SimTime::ZERO;
        let establish = self.tech.discovery(t0, D2dRole::Initiator).charge()
            + self.tech.connection(t0, D2dRole::Initiator).charge();
        let per_send = self.tech.send(t0, 74, distance_m).charge();
        establish + per_send * expected_forwards as f64
    }

    /// Discovery: calls `visit(id, distance)` for every device currently
    /// within this D2D technology's radio range of `ue`, in no particular
    /// order. Answered from the field's uniform-grid spatial index, so a
    /// detection sweep over a dense crowd costs O(n · local density)
    /// rather than O(n²); the caller keeps the ids it cares about (live
    /// relays with capacity), orders them, and turns them into
    /// [`RelayAdvert`]s.
    pub(crate) fn visit_in_range(
        &self,
        field: &Field,
        ue: DeviceId,
        visit: impl FnMut(DeviceId, f64),
    ) {
        field.visit_within(ue, self.tech.range_m, visit);
    }

    /// Discovery as a list: every device currently within radio range
    /// of `ue`, nearest first (ties by id).
    pub fn discover_in_range(&self, field: &Field, ue: DeviceId) -> Vec<(DeviceId, f64)> {
        field.neighbours_within(ue, self.tech.range_m)
    }

    /// Runs one matching round: measures each advert's RSSI through the
    /// channel model, estimates distances, filters by the §III-C
    /// pre-judgment (distance threshold + free capacity + non-zero GO
    /// intent), ranks by estimated distance and finally applies the
    /// energy pre-judgment against `cellular_uah_per_heartbeat`.
    pub fn match_relay(
        &self,
        ue_position: Position,
        adverts: &[RelayAdvert],
        expected_forwards: u32,
        cellular_uah_per_heartbeat: f64,
        rng: &mut SimRng,
    ) -> MatchDecision {
        if adverts.is_empty() {
            return MatchDecision::DirectCellular(NoMatchReason::NoRelaysDiscovered);
        }

        let mut candidates: Vec<(DeviceId, f64)> = adverts
            .iter()
            .filter(|a| a.free_capacity > 0 && a.go_intent > GoIntent::MIN)
            .filter_map(|a| {
                let true_distance = ue_position.distance_to(a.position);
                if true_distance > self.tech.range_m {
                    return None; // beacon never heard
                }
                let rssi = self.channel.measure(true_distance, rng);
                let estimated = self.channel.estimate_distance(rssi);
                (estimated <= self.config.max_match_distance_m).then_some((a.device, estimated))
            })
            .collect();

        if candidates.is_empty() {
            return MatchDecision::DirectCellular(NoMatchReason::AllCandidatesInadmissible);
        }

        // total_cmp: a degenerate channel draw (NaN estimate) must never
        // panic the matcher; NaN sorts last and loses to real distances.
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let (relay, estimated_distance_m) = candidates[0];

        if self.config.energy_prejudgment {
            let predicted = self
                .predicted_session_energy(estimated_distance_m, expected_forwards)
                .as_micro_amp_hours();
            let cellular = cellular_uah_per_heartbeat * expected_forwards as f64;
            if predicted >= cellular {
                return MatchDecision::DirectCellular(NoMatchReason::EnergyUnfavourable);
            }
        }

        MatchDecision::UseRelay {
            relay,
            estimated_distance_m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> D2dDetector {
        // Disable shadowing for deterministic distance estimates.
        let channel = PathLoss {
            shadowing_sigma_db: 0.0,
            ..PathLoss::indoor_wifi()
        };
        D2dDetector::new(
            FrameworkConfig::default(),
            TechProfile::wifi_direct(),
            channel,
        )
    }

    fn advert(id: u32, x: f64, free: usize) -> RelayAdvert {
        RelayAdvert {
            device: DeviceId::new(id),
            free_capacity: free,
            go_intent: if free > 0 {
                GoIntent::MAX
            } else {
                GoIntent::MIN
            },
            position: Position::new(x, 0.0),
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from(11)
    }

    #[test]
    fn picks_the_nearest_admissible_relay() {
        let d = detector();
        let adverts = vec![advert(1, 10.0, 5), advert(2, 3.0, 5), advert(3, 7.0, 5)];
        let decision = d.match_relay(Position::ORIGIN, &adverts, 8, 581.0, &mut rng());
        match decision {
            MatchDecision::UseRelay {
                relay,
                estimated_distance_m,
            } => {
                assert_eq!(relay, DeviceId::new(2));
                assert!((estimated_distance_m - 3.0).abs() < 1e-6);
            }
            other => panic!("expected a relay match, got {other:?}"),
        }
    }

    #[test]
    fn empty_discovery_falls_back() {
        let d = detector();
        assert_eq!(
            d.match_relay(Position::ORIGIN, &[], 8, 581.0, &mut rng()),
            MatchDecision::DirectCellular(NoMatchReason::NoRelaysDiscovered)
        );
    }

    #[test]
    fn full_relays_are_skipped() {
        let d = detector();
        let adverts = vec![advert(1, 2.0, 0), advert(2, 9.0, 3)];
        match d.match_relay(Position::ORIGIN, &adverts, 8, 581.0, &mut rng()) {
            MatchDecision::UseRelay { relay, .. } => assert_eq!(relay, DeviceId::new(2)),
            other => panic!("expected fallback to the farther relay, got {other:?}"),
        }
    }

    #[test]
    fn distant_relays_fail_prejudgment() {
        let d = detector();
        // 40 m: within Wi-Fi Direct range but beyond the 15 m match limit.
        let adverts = vec![advert(1, 40.0, 5)];
        assert_eq!(
            d.match_relay(Position::ORIGIN, &adverts, 8, 581.0, &mut rng()),
            MatchDecision::DirectCellular(NoMatchReason::AllCandidatesInadmissible)
        );
    }

    #[test]
    fn energy_prejudgment_rejects_short_sessions() {
        let d = detector();
        let adverts = vec![advert(1, 2.0, 5)];
        // One forward cannot amortise ~196 µAh of establishment when a
        // cellular heartbeat costs only 100 µAh.
        assert_eq!(
            d.match_relay(Position::ORIGIN, &adverts, 1, 100.0, &mut rng()),
            MatchDecision::DirectCellular(NoMatchReason::EnergyUnfavourable)
        );
        // Eight forwards amortise fine against the real cellular cost.
        assert!(matches!(
            d.match_relay(Position::ORIGIN, &adverts, 8, 581.0, &mut rng()),
            MatchDecision::UseRelay { .. }
        ));
    }

    #[test]
    fn prejudgment_can_be_disabled() {
        let channel = PathLoss {
            shadowing_sigma_db: 0.0,
            ..PathLoss::indoor_wifi()
        };
        let d = D2dDetector::new(
            FrameworkConfig {
                energy_prejudgment: false,
                ..FrameworkConfig::default()
            },
            TechProfile::wifi_direct(),
            channel,
        );
        let adverts = vec![advert(1, 2.0, 5)];
        assert!(matches!(
            d.match_relay(Position::ORIGIN, &adverts, 1, 100.0, &mut rng()),
            MatchDecision::UseRelay { .. }
        ));
    }

    #[test]
    fn predicted_energy_grows_with_forwards_and_distance() {
        let d = detector();
        let near_few = d.predicted_session_energy(1.0, 1).as_micro_amp_hours();
        let near_many = d.predicted_session_energy(1.0, 8).as_micro_amp_hours();
        let far_many = d.predicted_session_energy(14.0, 8).as_micro_amp_hours();
        assert!(near_many > near_few);
        assert!(far_many > near_many);
        // Establishment ≈ 196 µAh + 1 send ≈ 73 µAh.
        assert!((near_few - 269.07).abs() < 1.5, "got {near_few}");
    }
}
