//! The strategy implementations and their common evaluation engine.

use hbr_apps::{AppProfile, TrafficEvent, TrafficGenerator};
use hbr_cellular::{CellularRadio, RrcConfig};
use hbr_d2d::{D2dRole, TechProfile};
use hbr_energy::EnergyMeter;
use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime};

/// A reproducible single-device workload: one app's heartbeat stream,
/// optionally mixed with its foreground traffic.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The application generating traffic.
    pub app: AppProfile,
    /// Scenario length.
    pub duration: SimDuration,
    /// Workload seed.
    pub seed: u64,
    /// Include Table-I-calibrated foreground data messages.
    pub include_foreground: bool,
    /// Cellular model strategies run on.
    pub cellular: RrcConfig,
}

impl Workload {
    /// A pure heartbeat stream — the paper's §V setting.
    pub fn heartbeats_only(app: AppProfile, duration_secs: u64, seed: u64) -> Self {
        Workload {
            app,
            duration: SimDuration::from_secs(duration_secs),
            seed,
            include_foreground: false,
            cellular: RrcConfig::wcdma_galaxy_s4(),
        }
    }

    /// Heartbeats plus foreground data in the app's Table I proportion.
    pub fn mixed(app: AppProfile, duration_secs: u64, seed: u64) -> Self {
        Workload {
            include_foreground: true,
            ..Workload::heartbeats_only(app, duration_secs, seed)
        }
    }

    /// Materialises the deterministic event trace.
    pub fn events(&self) -> Vec<TrafficEvent> {
        let mut generator = TrafficGenerator::new(DeviceId::new(0), self.app.clone());
        let mut rng = SimRng::seed_from(self.seed);
        let end = SimTime::ZERO + self.duration;
        let mut events = generator.trace_until(end, &mut rng);
        if !self.include_foreground {
            events.retain(TrafficEvent::is_heartbeat);
        }
        events
    }
}

/// What one strategy did to one device over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// Strategy name for report rows.
    pub name: String,
    /// Device energy over the workload, µAh.
    pub device_energy_uah: f64,
    /// Layer-3 messages this device caused.
    pub l3_messages: u64,
    /// RRC connections this device established.
    pub rrc_connections: u64,
    /// Individual cellular transmissions performed.
    pub cellular_transmissions: u64,
    /// Heartbeat refreshes that reached the server.
    pub heartbeats_delivered: u64,
    /// Largest gap between consecutive server refreshes, seconds.
    pub max_presence_gap_secs: f64,
    /// Seconds the session appeared offline (gap beyond the server's
    /// expiration timer).
    pub offline_secs: f64,
}

/// A heartbeat-handling strategy evaluated on a [`Workload`].
pub trait Strategy {
    /// Human-readable name for report rows.
    fn name(&self) -> &str;

    /// Runs the strategy over the workload.
    fn run(&self, workload: &Workload) -> StrategyOutcome;
}

/// One cellular transmission planned by a strategy.
#[derive(Debug, Clone, Copy)]
struct PlannedTx {
    at: SimTime,
    bytes: usize,
}

/// Executes planned transmissions on a fresh radio and computes the
/// outcome row. `refresh_times` are the instants the server's expiration
/// timer was reset (independent from transmission times for strategies
/// that delay or forward heartbeats).
fn execute(
    name: &str,
    workload: &Workload,
    cfg: &RrcConfig,
    planned: &[PlannedTx],
    refresh_times: &[SimTime],
    extra_l3_per_tx: u64,
    extra_energy_uah: f64,
) -> StrategyOutcome {
    let mut radio = CellularRadio::new(cfg.clone());
    let mut meter = EnergyMeter::new();
    let mut l3 = 0u64;
    let mut transmissions = 0u64;
    let mut last = SimTime::ZERO;
    let mut planned: Vec<PlannedTx> = planned.to_vec();
    planned.sort_by_key(|tx| tx.at);
    for tx in &planned {
        // The radio serialises: a transfer requested while the previous
        // one is still in the air queues behind it.
        let at = tx.at.max(last);
        let out = radio.transmit(at, tx.bytes);
        for (s, seg) in &out.activity.segments {
            meter.add_segment(*s, *seg);
        }
        l3 += out.activity.messages.len() as u64 + extra_l3_per_tx;
        transmissions += 1;
        last = out.delivered_at;
    }
    let tail = radio.finalize(last + SimDuration::from_secs(60));
    for (s, seg) in &tail.segments {
        meter.add_segment(*s, *seg);
    }
    l3 += tail.messages.len() as u64;

    let (max_gap, offline) =
        presence_stats(refresh_times, workload.app.expiration, workload.duration);

    StrategyOutcome {
        name: name.to_owned(),
        device_energy_uah: meter.total().as_micro_amp_hours() + extra_energy_uah,
        l3_messages: l3,
        rrc_connections: radio.connections(),
        cellular_transmissions: transmissions,
        heartbeats_delivered: refresh_times.len() as u64,
        max_presence_gap_secs: max_gap,
        offline_secs: offline,
    }
}

/// Largest refresh gap and total offline time for a refresh sequence,
/// assuming the session was fresh at `t = 0`.
fn presence_stats(
    refreshes: &[SimTime],
    expiration: SimDuration,
    duration: SimDuration,
) -> (f64, f64) {
    let mut sorted: Vec<SimTime> = refreshes.to_vec();
    sorted.sort();
    let mut max_gap = 0.0f64;
    let mut offline = 0.0f64;
    let mut prev = SimTime::ZERO;
    let end = SimTime::ZERO + duration;
    for &r in sorted.iter().chain(std::iter::once(&end)) {
        let r = r.min(end);
        if let Some(gap) = r.checked_since(prev) {
            max_gap = max_gap.max(gap.as_secs_f64());
            let over = gap.as_secs_f64() - expiration.as_secs_f64();
            if over > 0.0 {
                offline += over;
            }
            prev = r;
        }
    }
    (max_gap, offline)
}

/// The unmodified system: every message is a cellular transmission.
#[derive(Debug, Clone, Copy, Default)]
pub struct Original;

impl Strategy for Original {
    fn name(&self) -> &str {
        "original"
    }

    fn run(&self, workload: &Workload) -> StrategyOutcome {
        let mut planned = Vec::new();
        let mut refreshes = Vec::new();
        for event in workload.events() {
            match event {
                TrafficEvent::Heartbeat(hb) => {
                    planned.push(PlannedTx {
                        at: hb.created_at,
                        bytes: hb.size,
                    });
                    refreshes.push(hb.created_at);
                }
                TrafficEvent::Data { at, size } => planned.push(PlannedTx { at, bytes: size }),
            }
        }
        execute(
            self.name(),
            workload,
            &workload.cellular,
            &planned,
            &refreshes,
            0,
            0.0,
        )
    }
}

/// Multiply the heartbeat period by `factor` (send every `factor`-th
/// heartbeat). Factors beyond the server's expiration budget make the
/// session flap — that is exactly why §III rejects this approach: "the
/// reduction will impact the instantaneity of these IM apps".
#[derive(Debug, Clone, Copy)]
pub struct ExtendedPeriod {
    /// Period multiplier (≥ 1).
    pub factor: u32,
}

impl Strategy for ExtendedPeriod {
    fn name(&self) -> &str {
        "extended-period"
    }

    fn run(&self, workload: &Workload) -> StrategyOutcome {
        let mut planned = Vec::new();
        let mut refreshes = Vec::new();
        let mut hb_index = 0u32;
        for event in workload.events() {
            match event {
                TrafficEvent::Heartbeat(hb) => {
                    if hb_index.is_multiple_of(self.factor.max(1)) {
                        planned.push(PlannedTx {
                            at: hb.created_at,
                            bytes: hb.size,
                        });
                        refreshes.push(hb.created_at);
                    }
                    hb_index += 1;
                }
                TrafficEvent::Data { at, size } => planned.push(PlannedTx { at, bytes: size }),
            }
        }
        execute(
            self.name(),
            workload,
            &workload.cellular,
            &planned,
            &refreshes,
            0,
            0.0,
        )
    }
}

/// Delay each heartbeat up to `window`, hoping a foreground transfer
/// opens an RRC connection it can ride for free (Qian et al., §I/§VI).
#[derive(Debug, Clone, Copy)]
pub struct Piggyback {
    /// Maximum heartbeat delay.
    pub window: SimDuration,
}

impl Strategy for Piggyback {
    fn name(&self) -> &str {
        "piggyback"
    }

    fn run(&self, workload: &Workload) -> StrategyOutcome {
        let mut planned: Vec<PlannedTx> = Vec::new();
        let mut refreshes = Vec::new();
        let mut pending_hb: Option<(SimTime, usize)> = None; // (created, size)
        for event in workload.events() {
            // Flush a pending heartbeat whose window expired before this event.
            if let Some((created, size)) = pending_hb {
                let deadline = created + self.window;
                if event.at() > deadline {
                    planned.push(PlannedTx {
                        at: deadline,
                        bytes: size,
                    });
                    refreshes.push(deadline);
                    pending_hb = None;
                }
            }
            match event {
                TrafficEvent::Heartbeat(hb) => {
                    // A heartbeat arriving while one is pending supersedes it
                    // (only the newest refresh matters to the server).
                    pending_hb = Some((hb.created_at, hb.size));
                }
                TrafficEvent::Data { at, size } => {
                    let bytes = match pending_hb.take() {
                        Some((_, hb_size)) => {
                            refreshes.push(at); // the heartbeat rides along
                            size + hb_size
                        }
                        None => size,
                    };
                    planned.push(PlannedTx { at, bytes });
                }
            }
        }
        if let Some((created, size)) = pending_hb {
            let at = created + self.window;
            planned.push(PlannedTx { at, bytes: size });
            refreshes.push(at);
        }
        execute(
            self.name(),
            workload,
            &workload.cellular,
            &planned,
            &refreshes,
            0,
            0.0,
        )
    }
}

/// Release the RRC connection immediately after every transfer
/// (RadioJockey-style fast dormancy): the tail energy disappears, but
/// every message pays full establishment signaling plus the release
/// indication — "saves energy with higher signaling overhead" (§VI).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastDormancy;

impl Strategy for FastDormancy {
    fn name(&self) -> &str {
        "fast-dormancy"
    }

    fn run(&self, workload: &Workload) -> StrategyOutcome {
        // Fast dormancy ⇒ ~no tail: the radio drops straight to IDLE a
        // moment after each transfer.
        let cfg = RrcConfig {
            dch_tail: SimDuration::from_millis(100),
            fach_tail: SimDuration::ZERO,
            ..workload.cellular.clone()
        };
        let mut planned = Vec::new();
        let mut refreshes = Vec::new();
        for event in workload.events() {
            match event {
                TrafficEvent::Heartbeat(hb) => {
                    planned.push(PlannedTx {
                        at: hb.created_at,
                        bytes: hb.size,
                    });
                    refreshes.push(hb.created_at);
                }
                TrafficEvent::Data { at, size } => planned.push(PlannedTx { at, bytes: size }),
            }
        }
        // +1 layer-3 message per transmission: the Signaling Connection
        // Release Indication the device sends to request dormancy.
        execute(self.name(), workload, &cfg, &planned, &refreshes, 1, 0.0)
    }
}

/// The paper's framework, seen from one UE: heartbeats go to a relay
/// over D2D (the relay's aggregated cellular send refreshes the server
/// by the end of each relay period), foreground data still uses the
/// device's own radio.
#[derive(Debug, Clone)]
pub struct D2dForwarding {
    /// D2D technique in use.
    pub tech: TechProfile,
    /// UE–relay distance in metres.
    pub distance_m: f64,
}

impl Default for D2dForwarding {
    fn default() -> Self {
        D2dForwarding {
            tech: TechProfile::wifi_direct(),
            distance_m: 1.0,
        }
    }
}

impl Strategy for D2dForwarding {
    fn name(&self) -> &str {
        "d2d-forwarding"
    }

    fn run(&self, workload: &Workload) -> StrategyOutcome {
        let t0 = SimTime::ZERO;
        // One establishment, then one D2D send per heartbeat.
        let mut d2d_energy = (self.tech.discovery(t0, D2dRole::Initiator).charge()
            + self.tech.connection(t0, D2dRole::Initiator).charge())
        .as_micro_amp_hours();
        let mut planned = Vec::new();
        let mut refreshes = Vec::new();
        let mut forwarded = 0u64;
        for event in workload.events() {
            match event {
                TrafficEvent::Heartbeat(hb) => {
                    d2d_energy += self
                        .tech
                        .send(hb.created_at, hb.size, self.distance_m)
                        .charge()
                        .as_micro_amp_hours();
                    // Algorithm 1 delays the aggregated send up to the
                    // relay period; assume worst-case delivery at +T.
                    refreshes.push(hb.created_at + workload.app.heartbeat_period);
                    forwarded += 1;
                }
                TrafficEvent::Data { at, size } => planned.push(PlannedTx { at, bytes: size }),
            }
        }
        let mut outcome = execute(
            self.name(),
            workload,
            &workload.cellular,
            &planned,
            &refreshes,
            0,
            d2d_energy,
        );
        outcome.heartbeats_delivered = forwarded;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload::heartbeats_only(AppProfile::wechat(), 6 * 3600, 3)
    }

    #[test]
    fn original_sends_every_heartbeat() {
        let w = workload();
        let out = Original.run(&w);
        // 6 h of WeChat: ~80 heartbeats.
        assert!(out.cellular_transmissions >= 75 && out.cellular_transmissions <= 85);
        assert_eq!(out.heartbeats_delivered, out.cellular_transmissions);
        assert_eq!(out.offline_secs, 0.0);
        // 8 L3 messages per isolated heartbeat.
        assert_eq!(out.l3_messages, out.cellular_transmissions * 8);
    }

    #[test]
    fn extended_period_trades_signaling_for_presence_risk() {
        let w = workload();
        let x2 = ExtendedPeriod { factor: 2 }.run(&w);
        let x4 = ExtendedPeriod { factor: 4 }.run(&w);
        let original = Original.run(&w);
        assert!(x2.l3_messages < original.l3_messages);
        assert!(x2.device_energy_uah < original.device_energy_uah);
        assert_eq!(x2.offline_secs, 0.0, "×2 still inside the 3T budget");
        // ×4 exceeds the 3T expiration: the session flaps.
        assert!(x4.offline_secs > 0.0);
        assert!(x4.max_presence_gap_secs > x2.max_presence_gap_secs);
    }

    #[test]
    fn fast_dormancy_saves_energy_costs_signaling() {
        let w = workload();
        let original = Original.run(&w);
        let fd = FastDormancy.run(&w);
        assert!(fd.device_energy_uah < original.device_energy_uah * 0.6);
        // On isolated periodic heartbeats the message count is a wash
        // (the SCRI replaces the demotion message)...
        assert!(fd.l3_messages >= original.l3_messages);
        assert_eq!(fd.offline_secs, 0.0);

        // ...the aggravation [26] warns about appears on bursty traffic,
        // where the original system's tail lets clustered transfers share
        // one RRC connection and fast dormancy re-establishes every time.
        let mixed = Workload::mixed(AppProfile::qq(), 12 * 3600, 5);
        let original_mixed = Original.run(&mixed);
        let fd_mixed = FastDormancy.run(&mixed);
        assert!(
            fd_mixed.rrc_connections >= original_mixed.rrc_connections,
            "fast dormancy cannot share connections"
        );
        assert!(fd_mixed.l3_messages > original_mixed.l3_messages);
    }

    #[test]
    fn piggyback_rides_foreground_traffic() {
        let w = Workload::mixed(AppProfile::wechat(), 12 * 3600, 3);
        let original = Original.run(&w);
        let piggy = Piggyback {
            window: SimDuration::from_secs(120),
        }
        .run(&w);
        assert!(
            piggy.cellular_transmissions < original.cellular_transmissions,
            "piggybacking must merge some heartbeats into data transfers"
        );
        assert!(piggy.device_energy_uah < original.device_energy_uah);
        assert_eq!(piggy.offline_secs, 0.0, "delays stay inside 3T");
    }

    #[test]
    fn d2d_forwarding_removes_heartbeat_signaling() {
        let w = workload();
        let original = Original.run(&w);
        let d2d = D2dForwarding::default().run(&w);
        assert_eq!(d2d.l3_messages, 0, "a pure-heartbeat UE emits no L3");
        assert_eq!(d2d.rrc_connections, 0);
        assert!(d2d.device_energy_uah < original.device_energy_uah * 0.6);
        assert_eq!(d2d.offline_secs, 0.0, "delay ≤ T stays within 3T");
    }

    #[test]
    fn d2d_forwarding_still_pays_for_data() {
        let w = Workload::mixed(AppProfile::wechat(), 12 * 3600, 3);
        let d2d = D2dForwarding::default().run(&w);
        assert!(d2d.l3_messages > 0, "foreground data still uses cellular");
    }

    #[test]
    fn presence_stats_basics() {
        let exp = SimDuration::from_secs(100);
        let dur = SimDuration::from_secs(500);
        let (max_gap, offline) =
            presence_stats(&[SimTime::from_secs(50), SimTime::from_secs(300)], exp, dur);
        // Gaps: 50, 250, 200 → max 250; offline: (250−100)+(200−100) = 250.
        assert_eq!(max_gap, 250.0);
        assert_eq!(offline, 250.0);
        let (_, ok) = presence_stats(
            &[SimTime::from_secs(90), SimTime::from_secs(180)],
            exp,
            SimDuration::from_secs(200),
        );
        assert_eq!(ok, 0.0);
    }
}
