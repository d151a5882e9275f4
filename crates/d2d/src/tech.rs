//! Technology profiles: the electrical and physical parameters of each
//! D2D technique.
//!
//! # Calibration (Wi-Fi Direct)
//!
//! Phase charges are fitted to the paper's Galaxy S4 measurements:
//!
//! | Phase                | UE (µAh) | Relay (µAh) | Source    |
//! |----------------------|----------|-------------|-----------|
//! | Discovery            | 132.24   | 122.50      | Table III |
//! | Connection           | 63.74    | 60.29       | Table III |
//! | Send (54 B, 1 m)     | 73.09    | —           | Table III |
//! | Receive (per message)| —        | ≈130.2      | Table IV  |
//!
//! Table IV's receive column (123.22, 252.40, 386.11, 517.97, 655.82,
//! 791.18, 911.20 µAh for 1–7 messages) is linear with slope ≈ 130.2
//! µAh/message, which is the marginal receive cost used here.
//!
//! Transfer energy scales with distance as `1 + α·(d − 1 m)` with
//! α = 0.07/m, so a 15 m link costs ≈ 2× a 1 m link — matching the rising
//! trend of Fig. 12 — and with size as `1 + β·(bytes/54 − 1)` with
//! β = 0.02, keeping 1×–5× heartbeat payloads near-flat (Fig. 13).

use hbr_energy::{MilliAmps, Phase, Segment};
use hbr_sim::{InlineVec, SimDuration, SimTime};

/// Which end of a D2D exchange a device is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum D2dRole {
    /// The side that started discovery / sends data (the UE).
    Initiator,
    /// The side that answers / receives data (the relay).
    Responder,
}

/// The modelled D2D techniques (§II-C, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum D2dTechnology {
    /// The prototype's choice: ~200 m range, fast transfers.
    WifiDirect,
    /// Low-energy but ~10 m range — rejected by §IV-A for range.
    Bluetooth,
    /// Qualcomm's proposal: ~500 m discovery range, not widely deployed.
    LteDirect,
}

/// Absolute-time energy segments produced by one D2D phase, plus the
/// instant the phase completes, held inline.
///
/// At most 2 segments: a transfer's spike and settle (the two-segment
/// [`TransferShape`]), or a link establishment's discovery plus
/// connection; every other phase is one segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct D2dActivity {
    /// `(absolute start, segment)` pairs for the device's energy meter.
    pub segments: InlineVec<(SimTime, Segment), 2>,
    /// When the phase finishes.
    pub done_at: SimTime,
}

impl D2dActivity {
    /// Total charge of this activity.
    pub fn charge(&self) -> hbr_energy::MicroAmpHours {
        self.segments.iter().map(|(_, s)| s.charge()).sum()
    }

    fn push(&mut self, start: SimTime, duration: SimDuration, current: MilliAmps, phase: Phase) {
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

/// A two-segment "spike then settle" transfer shape (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferShape {
    /// Peak segment duration.
    pub spike: SimDuration,
    /// Peak current.
    pub spike_current: MilliAmps,
    /// Settle segment duration.
    pub settle: SimDuration,
    /// Settle current.
    pub settle_current: MilliAmps,
}

/// All parameters of one D2D technique.
#[derive(Debug, Clone, PartialEq)]
pub struct TechProfile {
    /// Which technique this profile describes.
    pub technology: D2dTechnology,
    /// Maximum communication distance in metres.
    pub range_m: f64,
    /// Duration of a discovery scan.
    pub discovery_duration: SimDuration,
    /// Scan current on the initiating (UE) side.
    pub discovery_current_initiator: MilliAmps,
    /// Listen/respond current on the responding (relay) side.
    pub discovery_current_responder: MilliAmps,
    /// Duration of connection establishment (GO negotiation + DHCP).
    pub connection_duration: SimDuration,
    /// Connection current on the initiating side.
    pub connection_current_initiator: MilliAmps,
    /// Connection current on the responding side.
    pub connection_current_responder: MilliAmps,
    /// Shape of a single heartbeat-sized send on the sender.
    pub send_shape: TransferShape,
    /// Shape of a single heartbeat-sized receive on the receiver.
    pub receive_shape: TransferShape,
    /// Link goodput in bytes/second (stretches transfers beyond the
    /// reference payload).
    pub bytes_per_sec: f64,
    /// Reference payload size for the transfer shapes.
    pub reference_bytes: usize,
    /// Keep-alive current while a group is connected but idle.
    pub idle_current: MilliAmps,
    /// Transfer-energy growth per metre beyond 1 m (Fig. 12 slope).
    pub distance_alpha_per_m: f64,
    /// Transfer-energy growth per reference-size multiple (Fig. 13 slope).
    pub size_beta: f64,
    /// Baseline probability that a single transfer fails outright.
    pub base_loss_probability: f64,
    /// `true` if the technique runs group-owner negotiation (Wi-Fi Direct).
    pub has_group_owner_negotiation: bool,
}

impl TechProfile {
    /// Wi-Fi Direct, calibrated to Table III / Table IV (see module docs).
    pub fn wifi_direct() -> Self {
        TechProfile {
            technology: D2dTechnology::WifiDirect,
            range_m: 180.0,
            // 132.24 µAh over 3.4 s → 140.02 mA (UE); 122.50 → 129.71 mA.
            discovery_duration: SimDuration::from_millis(3_400),
            discovery_current_initiator: MilliAmps::new(140.02),
            discovery_current_responder: MilliAmps::new(129.71),
            // 63.74 µAh over 1.5 s → 152.98 mA (UE); 60.29 → 144.70 mA.
            connection_duration: SimDuration::from_millis(1_500),
            connection_current_initiator: MilliAmps::new(152.98),
            connection_current_responder: MilliAmps::new(144.70),
            // Send: 0.35 s @ 600 mA + 0.5 s @ 106.23 mA = 263.1 mA·s
            // = 73.09 µAh (Table III forwarding, UE side).
            send_shape: TransferShape {
                spike: SimDuration::from_millis(350),
                spike_current: MilliAmps::new(600.0),
                settle: SimDuration::from_millis(500),
                settle_current: MilliAmps::new(106.23),
            },
            // Receive: 0.3 s @ 700 mA + 0.6 s @ 431.2 mA = 468.7 mA·s
            // = 130.2 µAh (Table IV marginal receive).
            receive_shape: TransferShape {
                spike: SimDuration::from_millis(300),
                spike_current: MilliAmps::new(700.0),
                settle: SimDuration::from_millis(600),
                settle_current: MilliAmps::new(431.2),
            },
            bytes_per_sec: 2_000_000.0,
            reference_bytes: 54,
            idle_current: MilliAmps::new(1.2),
            distance_alpha_per_m: 0.07,
            size_beta: 0.02,
            base_loss_probability: 0.002,
            has_group_owner_negotiation: true,
        }
    }

    /// Bluetooth class 2: cheap but ~10 m range (rejected in §IV-A).
    pub fn bluetooth() -> Self {
        TechProfile {
            technology: D2dTechnology::Bluetooth,
            range_m: 10.0,
            discovery_duration: SimDuration::from_millis(5_120), // inquiry scan
            discovery_current_initiator: MilliAmps::new(55.0),
            discovery_current_responder: MilliAmps::new(40.0),
            connection_duration: SimDuration::from_millis(2_000),
            connection_current_initiator: MilliAmps::new(60.0),
            connection_current_responder: MilliAmps::new(55.0),
            send_shape: TransferShape {
                spike: SimDuration::from_millis(250),
                spike_current: MilliAmps::new(150.0),
                settle: SimDuration::from_millis(300),
                settle_current: MilliAmps::new(60.0),
            },
            receive_shape: TransferShape {
                spike: SimDuration::from_millis(250),
                spike_current: MilliAmps::new(160.0),
                settle: SimDuration::from_millis(350),
                settle_current: MilliAmps::new(70.0),
            },
            bytes_per_sec: 200_000.0,
            reference_bytes: 54,
            idle_current: MilliAmps::new(0.5),
            distance_alpha_per_m: 0.12,
            size_beta: 0.05,
            base_loss_probability: 0.005,
            has_group_owner_negotiation: false,
        }
    }

    /// LTE Direct: ~500 m discovery, negligible scan cost, but requires
    /// operator deployment (§IV-A).
    pub fn lte_direct() -> Self {
        TechProfile {
            technology: D2dTechnology::LteDirect,
            range_m: 500.0,
            discovery_duration: SimDuration::from_millis(640),
            discovery_current_initiator: MilliAmps::new(120.0),
            discovery_current_responder: MilliAmps::new(90.0),
            connection_duration: SimDuration::from_millis(400),
            connection_current_initiator: MilliAmps::new(200.0),
            connection_current_responder: MilliAmps::new(180.0),
            send_shape: TransferShape {
                spike: SimDuration::from_millis(200),
                spike_current: MilliAmps::new(450.0),
                settle: SimDuration::from_millis(200),
                settle_current: MilliAmps::new(150.0),
            },
            receive_shape: TransferShape {
                spike: SimDuration::from_millis(200),
                spike_current: MilliAmps::new(420.0),
                settle: SimDuration::from_millis(250),
                settle_current: MilliAmps::new(140.0),
            },
            bytes_per_sec: 5_000_000.0,
            reference_bytes: 54,
            idle_current: MilliAmps::new(0.8),
            distance_alpha_per_m: 0.004,
            size_beta: 0.01,
            base_loss_probability: 0.001,
            has_group_owner_negotiation: false,
        }
    }

    /// Profile for a technology by name.
    pub fn for_technology(tech: D2dTechnology) -> Self {
        match tech {
            D2dTechnology::WifiDirect => TechProfile::wifi_direct(),
            D2dTechnology::Bluetooth => TechProfile::bluetooth(),
            D2dTechnology::LteDirect => TechProfile::lte_direct(),
        }
    }

    /// Combined energy/size scaling factor for a transfer at `distance_m`
    /// carrying `bytes`.
    pub fn transfer_scale(&self, distance_m: f64, bytes: usize) -> f64 {
        let d = (distance_m - 1.0).max(0.0);
        let size_ratio = (bytes as f64 / self.reference_bytes as f64 - 1.0).max(0.0);
        (1.0 + self.distance_alpha_per_m * d) * (1.0 + self.size_beta * size_ratio)
    }

    /// Probability that one transfer at `distance_m` fails and must be
    /// retried or abandoned. Grows steeply near the edge of range; 1.0
    /// beyond range.
    pub fn loss_probability(&self, distance_m: f64) -> f64 {
        if distance_m > self.range_m {
            return 1.0;
        }
        let edge = (distance_m / self.range_m).powi(4);
        (self.base_loss_probability + 0.25 * edge).min(1.0)
    }

    /// A discovery scan starting at `now` for the given role.
    pub fn discovery(&self, now: SimTime, role: D2dRole) -> D2dActivity {
        let current = match role {
            D2dRole::Initiator => self.discovery_current_initiator,
            D2dRole::Responder => self.discovery_current_responder,
        };
        let mut a = D2dActivity {
            done_at: now + self.discovery_duration,
            ..Default::default()
        };
        a.push(now, self.discovery_duration, current, Phase::D2dDiscovery);
        a
    }

    /// Connection establishment starting at `now` for the given role.
    pub fn connection(&self, now: SimTime, role: D2dRole) -> D2dActivity {
        let current = match role {
            D2dRole::Initiator => self.connection_current_initiator,
            D2dRole::Responder => self.connection_current_responder,
        };
        let mut a = D2dActivity {
            done_at: now + self.connection_duration,
            ..Default::default()
        };
        a.push(now, self.connection_duration, current, Phase::D2dConnection);
        a
    }

    /// The sender-side activity of transferring `bytes` at `distance_m`.
    pub fn send(&self, now: SimTime, bytes: usize, distance_m: f64) -> D2dActivity {
        self.transfer(now, bytes, distance_m, self.send_shape, Phase::D2dSend)
    }

    /// The receiver-side activity of the same transfer.
    pub fn receive(&self, now: SimTime, bytes: usize, distance_m: f64) -> D2dActivity {
        self.transfer(
            now,
            bytes,
            distance_m,
            self.receive_shape,
            Phase::D2dReceive,
        )
    }

    fn transfer(
        &self,
        now: SimTime,
        bytes: usize,
        distance_m: f64,
        shape: TransferShape,
        phase: Phase,
    ) -> D2dActivity {
        let scale = self.transfer_scale(distance_m, bytes);
        // Scale charge by raising the currents; stretch the spike if the
        // payload is big enough to exceed the reference airtime.
        let extra_airtime = if bytes > self.reference_bytes {
            SimDuration::from_secs_f64((bytes - self.reference_bytes) as f64 / self.bytes_per_sec)
        } else {
            SimDuration::ZERO
        };
        let spike = shape.spike + extra_airtime;
        let mut a = D2dActivity {
            done_at: now + spike + shape.settle,
            ..Default::default()
        };
        a.push(now, spike, shape.spike_current * scale, phase);
        a.push(
            now + spike,
            shape.settle,
            shape.settle_current * scale,
            phase,
        );
        a
    }

    /// Teardown (disassociation/deauth frames) when a side leaves a
    /// group: a brief exchange at the connection current. Cheap, but not
    /// free — rapid attach/detach churn pays it every cycle.
    pub fn teardown(&self, now: SimTime, role: D2dRole) -> D2dActivity {
        let current = match role {
            D2dRole::Initiator => self.connection_current_initiator,
            D2dRole::Responder => self.connection_current_responder,
        };
        let duration = SimDuration::from_millis(200);
        let mut a = D2dActivity {
            done_at: now + duration,
            ..Default::default()
        };
        a.push(now, duration, current, Phase::D2dConnection);
        a
    }

    /// Keep-alive draw while a group is connected but idle over
    /// `[from, to)`.
    pub fn idle(&self, from: SimTime, to: SimTime) -> D2dActivity {
        let mut a = D2dActivity {
            done_at: to,
            ..Default::default()
        };
        if let Some(span) = to.checked_since(from) {
            a.push(from, span, self.idle_current, Phase::D2dIdle);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uah(a: &D2dActivity) -> f64 {
        a.charge().as_micro_amp_hours()
    }

    #[test]
    fn wifi_direct_matches_table3() {
        let w = TechProfile::wifi_direct();
        let t0 = SimTime::ZERO;
        assert!((uah(&w.discovery(t0, D2dRole::Initiator)) - 132.24).abs() < 0.5);
        assert!((uah(&w.discovery(t0, D2dRole::Responder)) - 122.50).abs() < 0.5);
        assert!((uah(&w.connection(t0, D2dRole::Initiator)) - 63.74).abs() < 0.5);
        assert!((uah(&w.connection(t0, D2dRole::Responder)) - 60.29).abs() < 0.5);
        assert!((uah(&w.send(t0, 54, 1.0)) - 73.09).abs() < 0.5);
    }

    #[test]
    fn wifi_direct_receive_matches_table4_slope() {
        let w = TechProfile::wifi_direct();
        let per_msg = uah(&w.receive(SimTime::ZERO, 54, 1.0));
        // Table IV: 911.196 µAh / 7 messages ≈ 130.2 µAh each.
        assert!((per_msg - 130.2).abs() < 1.0, "receive = {per_msg}");
    }

    #[test]
    fn transfer_energy_grows_with_distance() {
        let w = TechProfile::wifi_direct();
        let near = uah(&w.send(SimTime::ZERO, 54, 1.0));
        let far = uah(&w.send(SimTime::ZERO, 54, 15.0));
        assert!(far > near * 1.8 && far < near * 2.2, "15 m ≈ 2× 1 m");
    }

    #[test]
    fn transfer_energy_nearly_flat_in_size() {
        let w = TechProfile::wifi_direct();
        let x1 = uah(&w.send(SimTime::ZERO, 54, 1.0));
        let x5 = uah(&w.send(SimTime::ZERO, 270, 1.0));
        assert!(
            x5 < x1 * 1.15,
            "5× payload should stay near-flat: {x1} → {x5}"
        );
        assert!(x5 > x1, "but not literally constant");
    }

    #[test]
    fn loss_probability_shape() {
        let w = TechProfile::wifi_direct();
        assert!(w.loss_probability(1.0) < 0.01);
        assert!(w.loss_probability(w.range_m) > 0.2);
        assert_eq!(w.loss_probability(w.range_m + 1.0), 1.0);
        let mut last = 0.0;
        for d in [1.0, 50.0, 100.0, 150.0, 179.0] {
            let p = w.loss_probability(d);
            assert!(p >= last, "loss must be monotone in distance");
            last = p;
        }
    }

    #[test]
    fn bluetooth_is_cheaper_but_shorter_range() {
        let w = TechProfile::wifi_direct();
        let b = TechProfile::bluetooth();
        assert!(uah(&b.send(SimTime::ZERO, 54, 1.0)) < uah(&w.send(SimTime::ZERO, 54, 1.0)));
        assert!(b.range_m < w.range_m);
    }

    #[test]
    fn lte_direct_has_cheap_discovery_and_long_range() {
        let w = TechProfile::wifi_direct();
        let l = TechProfile::lte_direct();
        assert!(
            uah(&l.discovery(SimTime::ZERO, D2dRole::Initiator))
                < uah(&w.discovery(SimTime::ZERO, D2dRole::Initiator))
        );
        assert!(l.range_m > w.range_m);
    }

    #[test]
    fn teardown_is_brief_and_cheap() {
        let w = TechProfile::wifi_direct();
        let t = w.teardown(SimTime::ZERO, D2dRole::Initiator);
        assert!(uah(&t) < 15.0, "teardown = {} µAh", uah(&t));
        assert_eq!(t.done_at, SimTime::ZERO + SimDuration::from_millis(200));
        // Both roles pay comparable amounts.
        let r = w.teardown(SimTime::ZERO, D2dRole::Responder);
        assert!((uah(&t) - uah(&r)).abs() < 2.0);
    }

    #[test]
    fn idle_keepalive_is_cheap() {
        let w = TechProfile::wifi_direct();
        let idle = w.idle(SimTime::ZERO, SimTime::from_secs(270));
        // One WeChat period of keep-alive must cost far less than one send.
        assert!(uah(&idle) < 100.0, "idle over 270 s = {} µAh", uah(&idle));
        assert_eq!(idle.done_at, SimTime::from_secs(270));
    }

    #[test]
    fn idle_bills_both_sides_equally() {
        // The keep-alive takes no role, so the UE's and the relay's draw
        // over one window are the same nonzero charge.
        let w = TechProfile::wifi_direct();
        let ue = w.idle(SimTime::ZERO, SimTime::from_secs(100));
        let relay = w.idle(SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(uah(&ue), uah(&relay));
        assert!(uah(&ue) > 0.0);
    }

    #[test]
    fn big_payload_stretches_airtime() {
        let w = TechProfile::wifi_direct();
        let small = w.send(SimTime::ZERO, 54, 1.0);
        let big = w.send(SimTime::ZERO, 2_000_054, 1.0);
        assert!(big.done_at > small.done_at + SimDuration::from_millis(900));
    }

    #[test]
    fn for_technology_round_trips() {
        for t in [
            D2dTechnology::WifiDirect,
            D2dTechnology::Bluetooth,
            D2dTechnology::LteDirect,
        ] {
            assert_eq!(TechProfile::for_technology(t).technology, t);
        }
    }

    #[test]
    #[should_panic(expected = "over its capacity of 2")]
    fn a_third_segment_overflows_the_activity() {
        let w = TechProfile::wifi_direct();
        let mut a = w.send(SimTime::ZERO, 54, 1.0);
        a.push(
            a.done_at,
            w.connection_duration,
            w.idle_current,
            Phase::D2dIdle,
        );
    }

    #[test]
    fn phases_are_tagged_correctly() {
        let w = TechProfile::wifi_direct();
        for (_, seg) in &w.discovery(SimTime::ZERO, D2dRole::Initiator).segments {
            assert_eq!(seg.phase, Phase::D2dDiscovery);
        }
        for (_, seg) in &w.receive(SimTime::ZERO, 54, 1.0).segments {
            assert_eq!(seg.phase, Phase::D2dReceive);
        }
    }
}
