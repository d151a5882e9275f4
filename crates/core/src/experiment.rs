//! Controlled experiments — the paper's lab bench, §V.
//!
//! The evaluation's energy and signaling figures all come from one
//! controlled setup: **one relay connected to `m` UEs at a fixed
//! distance, forwarding `n` standard heartbeats** ("transmission times"),
//! with the unmodified per-device cellular system as the baseline. This
//! module reproduces that bench exactly:
//!
//! * Every period, each UE forwards one heartbeat over the D2D link; the
//!   relay's [`MessageScheduler`] aggregates them with the relay's own
//!   heartbeat and ships the batch over a single RRC connection.
//! * The *original system* counterpart sends every device's heartbeat
//!   individually over its own cellular radio.
//! * Both sides run on the same calibrated radio models, and the run
//!   exposes per-device [`EnergyMeter`]s and the base-station
//!   [`SignalingCapture`] so experiments can regenerate Tables III–IV and
//!   Figs. 6–13/15.
//!
//! The paper's bench compresses time (it does not wait 270 real seconds
//! between forwards), so by default the D2D group's idle keep-alive
//! charge between heartbeats is excluded, like the paper's measurement;
//! set [`ExperimentConfig::include_idle_keepalive`] to study the honest
//! long-period cost (an ablation in `hbr-bench`).

use hbr_apps::{AppId, AppProfile, Heartbeat, MessageIdGen};
use hbr_cellular::{BaseStation, CellularRadio, SignalingCapture};
use hbr_d2d::{D2dLink, D2dRole};
use hbr_energy::{EnergyMeter, MicroAmpHours};
use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime};

use crate::config::RadioStack;
use crate::scheduler::{MessageScheduler, ScheduleDecision};

/// Parameters of one controlled run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of UEs connected to the relay (`m`).
    pub ue_count: usize,
    /// Forwarded heartbeats per UE — the paper's "transmission times"
    /// x-axis (`n`).
    pub transmissions: u32,
    /// UE–relay distance in metres.
    pub distance_m: f64,
    /// Heartbeat payload size; the paper's standard is 54 B.
    pub message_size: usize,
    /// The relay's own heartbeat period `T` (WeChat's 270 s by default).
    pub relay_period: SimDuration,
    /// Relay collection capacity `M`.
    pub relay_capacity: usize,
    /// Radio models to run on.
    pub stack: RadioStack,
    /// Charge the D2D group's keep-alive current between forwards
    /// (excluded by default to match the paper's compressed-time bench).
    pub include_idle_keepalive: bool,
    /// Scenario seed (transfer-loss draws).
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            ue_count: 1,
            transmissions: 7,
            distance_m: 1.0,
            message_size: 54,
            relay_period: SimDuration::from_secs(270),
            relay_capacity: 8,
            stack: RadioStack::default(),
            include_idle_keepalive: false,
            seed: 7,
        }
    }
}

/// The controlled bench; build with a config, call
/// [`ControlledExperiment::run`].
///
/// # Examples
///
/// ```
/// use hbr_core::experiment::{ControlledExperiment, ExperimentConfig};
///
/// let run = ControlledExperiment::new(ExperimentConfig::default()).run();
/// // The relay made one aggregated RRC connection per period.
/// assert_eq!(run.relay_rrc_connections, 7);
/// ```
#[derive(Debug, Clone)]
pub struct ControlledExperiment {
    config: ExperimentConfig,
}

/// Everything one controlled run measured.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The configuration that produced this run.
    pub config: ExperimentConfig,
    /// Energy meter of each UE under the framework (index = UE number).
    pub ue_meters: Vec<EnergyMeter>,
    /// Energy meter of the relay under the framework.
    pub relay_meter: EnergyMeter,
    /// Energy meter of one device under the original system (every device
    /// behaves identically there).
    pub original_device_meter: EnergyMeter,
    /// Layer-3 capture of the framework run (relay's aggregated sends +
    /// any UE fallbacks).
    pub framework_capture: SignalingCapture,
    /// Layer-3 capture of the original system (all `m + 1` devices).
    pub original_capture: SignalingCapture,
    /// RRC connections the relay established.
    pub relay_rrc_connections: u64,
    /// RRC connections the original system established (all devices).
    pub original_rrc_connections: u64,
    /// Heartbeats that failed on the D2D link and fell back to cellular.
    pub d2d_failures: u64,
    /// Heartbeats delivered through the relay.
    pub forwarded: u64,
}

impl ControlledExperiment {
    /// Creates the bench.
    ///
    /// # Panics
    ///
    /// Panics if `ue_count` is zero, `transmissions` is zero, or the
    /// distance is not positive and finite.
    pub fn new(config: ExperimentConfig) -> Self {
        assert!(config.ue_count > 0, "need at least one UE");
        assert!(config.transmissions > 0, "need at least one transmission");
        assert!(
            config.distance_m.is_finite() && config.distance_m > 0.0,
            "distance must be positive and finite"
        );
        assert!(config.relay_capacity > 0, "relay capacity must be positive");
        ControlledExperiment { config }
    }

    /// Runs the bench and the original-system counterpart.
    pub fn run(&self) -> ExperimentRun {
        let cfg = &self.config;
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut ids = MessageIdGen::new();
        let relay_id = DeviceId::new(0);
        let app = AppProfile::custom(
            AppId::new(100),
            "bench",
            cfg.relay_period,
            cfg.message_size,
            0.5,
        );

        // --- Framework side -------------------------------------------------
        let mut ue_meters = vec![EnergyMeter::new(); cfg.ue_count];
        let mut relay_meter = EnergyMeter::new();
        let mut relay_radio = CellularRadio::new(cfg.stack.cellular.clone());
        let mut ue_fallback_radios: Vec<CellularRadio> = (0..cfg.ue_count)
            .map(|_| CellularRadio::new(cfg.stack.cellular.clone()))
            .collect();
        let mut bs = BaseStation::new();
        let mut d2d_failures = 0u64;
        let mut forwarded = 0u64;

        // Establishment at t = 0: the relay scans once, then forms a group
        // with each UE; every UE pays a full discovery + connection.
        let t0 = SimTime::ZERO;
        let relay_scan = cfg.stack.d2d.discovery(t0, D2dRole::Responder);
        for (start, seg) in &relay_scan.segments {
            relay_meter.add_segment(*start, *seg);
        }
        let mut links = Vec::with_capacity(cfg.ue_count);
        let mut ready_at = relay_scan.done_at;
        for meter in ue_meters.iter_mut() {
            let ue_scan = cfg.stack.d2d.discovery(t0, D2dRole::Initiator);
            let conn_start = ue_scan.done_at;
            let ue_conn = cfg.stack.d2d.connection(conn_start, D2dRole::Initiator);
            let relay_conn = cfg.stack.d2d.connection(conn_start, D2dRole::Responder);
            for (s, seg) in ue_scan.segments.iter().chain(ue_conn.segments.iter()) {
                meter.add_segment(*s, *seg);
            }
            for (s, seg) in &relay_conn.segments {
                relay_meter.add_segment(*s, *seg);
            }
            ready_at = ready_at.max(ue_conn.done_at);
            links.push(D2dLink::already_connected(cfg.stack.d2d.clone()));
        }

        let margin = SimDuration::from_secs(5);
        let mut scheduler =
            MessageScheduler::new(cfg.relay_capacity, cfg.relay_period, margin, ready_at);
        // Latest instant any radio was active, so final tails are drained
        // past every transmission (fallbacks can outlive the last flush).
        let mut horizon = ready_at;

        for period in 0..cfg.transmissions {
            let period_start = ready_at + cfg.relay_period * u64::from(period);
            if period > 0 {
                scheduler.begin_period(period_start);
            }

            // Each UE forwards one heartbeat, staggered inside the period.
            let mut flushed_this_period = false;
            for (j, link) in links.iter_mut().enumerate() {
                let at =
                    period_start + cfg.relay_period * (j as u64 + 1) / (cfg.ue_count as u64 + 2);
                let hb = Heartbeat {
                    id: ids.next_id(),
                    app: app.id,
                    source: DeviceId::new(j as u32 + 1),
                    seq: period,
                    size: cfg.message_size,
                    created_at: at,
                    expires_at: at + app.expiration,
                };
                if !link.is_ready(at) {
                    // The link died (e.g. out of range for this technique):
                    // the UE has no relay and sends over cellular.
                    d2d_failures += 1;
                    let out = ue_fallback_radios[j].transmit(at, cfg.message_size);
                    for (s, seg) in &out.activity.segments {
                        ue_meters[j].add_segment(*s, *seg);
                    }
                    bs.record(hb.source, &out.activity, out.rrc_connections);
                    horizon = horizon.max(out.delivered_at);
                    continue;
                }
                let outcome = link.transfer(at, cfg.message_size, cfg.distance_m, &mut rng);
                for (s, seg) in &outcome.sender.segments {
                    ue_meters[j].add_segment(*s, *seg);
                }
                if outcome.success {
                    for (s, seg) in &outcome.receiver.segments {
                        relay_meter.add_segment(*s, *seg);
                    }
                    forwarded += 1;
                    match scheduler.on_arrival(outcome.completed_at, hb) {
                        ScheduleDecision::Flush(_) => {
                            let flush_at = outcome.completed_at;
                            Self::flush(
                                cfg,
                                &mut scheduler,
                                &mut relay_radio,
                                &mut relay_meter,
                                &mut bs,
                                relay_id,
                                flush_at,
                            );
                            flushed_this_period = true;
                            horizon = horizon.max(flush_at);
                        }
                        ScheduleDecision::Pend => {}
                        ScheduleDecision::Rejected => {
                            // Mid-period overflow already flushed; UE falls
                            // back to cellular for this heartbeat.
                            d2d_failures += 1;
                            let out = ue_fallback_radios[j].transmit(at, cfg.message_size);
                            for (s, seg) in &out.activity.segments {
                                ue_meters[j].add_segment(*s, *seg);
                            }
                            bs.record(hb.source, &out.activity, out.rrc_connections);
                            horizon = horizon.max(out.delivered_at);
                        }
                    }
                } else {
                    // Link-layer loss: the UE's fallback timer will fire and
                    // it re-sends over cellular (charged immediately here).
                    d2d_failures += 1;
                    let out = ue_fallback_radios[j].transmit(at, cfg.message_size);
                    for (s, seg) in &out.activity.segments {
                        ue_meters[j].add_segment(*s, *seg);
                    }
                    bs.record(hb.source, &out.activity, out.rrc_connections);
                    horizon = horizon.max(out.delivered_at);
                }
            }

            // Period deadline: flush the batch together with the relay's own
            // heartbeat (one aggregated RRC connection per period).
            if !flushed_this_period {
                let flush_at = scheduler.next_deadline();
                Self::flush(
                    cfg,
                    &mut scheduler,
                    &mut relay_radio,
                    &mut relay_meter,
                    &mut bs,
                    relay_id,
                    flush_at,
                );
                horizon = horizon.max(flush_at);
            }

            if cfg.include_idle_keepalive {
                let period_end = period_start + cfg.relay_period;
                for (j, link) in links.iter().enumerate() {
                    let (ue_idle, relay_idle) = link.idle(period_start, period_end);
                    for (s, seg) in &ue_idle.segments {
                        ue_meters[j].add_segment(*s, *seg);
                    }
                    // Only bill the relay's keep-alive once, not per link.
                    if j == 0 {
                        for (s, seg) in &relay_idle.segments {
                            relay_meter.add_segment(*s, *seg);
                        }
                    }
                }
            }
        }

        // Drain the relay radio's final tails.
        let end = horizon + SimDuration::from_secs(60);
        let tail = relay_radio.finalize(end);
        for (s, seg) in &tail.segments {
            relay_meter.add_segment(*s, *seg);
        }
        bs.record(relay_id, &tail, 0);
        for (j, radio) in ue_fallback_radios.iter_mut().enumerate() {
            let tail = radio.finalize(end);
            for (s, seg) in &tail.segments {
                ue_meters[j].add_segment(*s, *seg);
            }
            bs.record(DeviceId::new(j as u32 + 1), &tail, 0);
        }
        let relay_rrc_connections = relay_radio.connections()
            + ue_fallback_radios
                .iter()
                .map(|r| r.connections())
                .sum::<u64>();

        // --- Original system -------------------------------------------------
        // Every device sends its own heartbeat once per period over its own
        // radio; with periods far beyond the tail timers each send is an
        // independent full RRC cycle, so one device is representative.
        let mut original_device_meter = EnergyMeter::new();
        let mut original_radio = CellularRadio::new(cfg.stack.cellular.clone());
        let mut original_bs = BaseStation::new();
        let mut t = SimTime::ZERO;
        for _ in 0..cfg.transmissions {
            let out = original_radio.transmit(t, cfg.message_size);
            for (s, seg) in &out.activity.segments {
                original_device_meter.add_segment(*s, *seg);
            }
            original_bs.record(DeviceId::new(0), &out.activity, out.rrc_connections);
            t += cfg.relay_period;
        }
        let tail = original_radio.finalize(t + SimDuration::from_secs(60));
        for (s, seg) in &tail.segments {
            original_device_meter.add_segment(*s, *seg);
        }
        original_bs.record(DeviceId::new(0), &tail, 0);
        // The original system runs m + 1 such devices.
        let devices = (cfg.ue_count + 1) as u64;
        let original_rrc_connections = original_radio.connections() * devices;
        let mut original_capture = original_bs.capture().clone();
        let one_device = original_bs.capture().clone();
        for _ in 1..devices {
            original_capture.merge(&one_device);
        }

        ExperimentRun {
            config: self.config.clone(),
            ue_meters,
            relay_meter,
            original_device_meter,
            framework_capture: bs.capture().clone(),
            original_capture,
            relay_rrc_connections,
            original_rrc_connections,
            d2d_failures,
            forwarded,
        }
    }

    fn flush(
        cfg: &ExperimentConfig,
        scheduler: &mut MessageScheduler,
        radio: &mut CellularRadio,
        meter: &mut EnergyMeter,
        bs: &mut BaseStation,
        relay_id: DeviceId,
        at: SimTime,
    ) {
        let batch = scheduler.take_batch_at(at);
        // Aggregate payload: the relay's own heartbeat plus the batch.
        let bytes = cfg.message_size + batch.iter().map(|hb| hb.size).sum::<usize>();
        let out = radio.transmit(at, bytes);
        for (s, seg) in &out.activity.segments {
            meter.add_segment(*s, *seg);
        }
        bs.record(relay_id, &out.activity, out.rrc_connections);
    }
}

impl ExperimentRun {
    /// Mean UE energy under the framework, in µAh.
    pub fn ue_energy(&self) -> f64 {
        self.ue_meters
            .iter()
            .map(|m| m.total().as_micro_amp_hours())
            .sum::<f64>()
            / self.ue_meters.len() as f64
    }

    /// Relay energy under the framework, in µAh.
    pub fn relay_energy(&self) -> f64 {
        self.relay_meter.total().as_micro_amp_hours()
    }

    /// Whole-system energy under the framework (relay + all UEs), µAh.
    pub fn system_energy(&self) -> f64 {
        self.relay_energy()
            + self
                .ue_meters
                .iter()
                .map(|m| m.total().as_micro_amp_hours())
                .sum::<f64>()
    }

    /// Energy of one device under the original system, µAh.
    pub fn original_device_energy(&self) -> f64 {
        self.original_device_meter.total().as_micro_amp_hours()
    }

    /// Whole-system energy under the original system (`m + 1` identical
    /// devices), µAh.
    pub fn original_system_energy(&self) -> f64 {
        self.original_device_energy() * (self.config.ue_count + 1) as f64
    }

    /// Fractional energy saved by one UE versus sending its own
    /// heartbeats over cellular (Fig. 9's "Saved Energy of UE").
    pub fn ue_saving(&self) -> f64 {
        1.0 - self.ue_energy() / self.original_device_energy()
    }

    /// Fractional energy saved by the whole system (Fig. 9's "Saved
    /// Energy of System").
    pub fn system_saving(&self) -> f64 {
        1.0 - self.system_energy() / self.original_system_energy()
    }

    /// Extra energy the relay pays versus just sending its own heartbeats
    /// (Fig. 11's "wasted" numerator), µAh.
    pub fn relay_wasted_energy(&self) -> f64 {
        (self.relay_energy() - self.original_device_energy()).max(0.0)
    }

    /// Energy all UEs saved together (Fig. 11's denominator), µAh.
    pub fn ue_saved_energy(&self) -> f64 {
        ((self.original_device_energy() * self.config.ue_count as f64)
            - self
                .ue_meters
                .iter()
                .map(|m| m.total().as_micro_amp_hours())
                .sum::<f64>())
        .max(0.0)
    }

    /// Fig. 11's ratio: wasted relay energy over saved UE energy.
    pub fn wasted_to_saved_ratio(&self) -> f64 {
        let saved = self.ue_saved_energy();
        if saved == 0.0 {
            f64::INFINITY
        } else {
            self.relay_wasted_energy() / saved
        }
    }

    /// Layer-3 messages under the framework (Fig. 15's relay curves).
    pub fn framework_l3(&self) -> u64 {
        self.framework_capture.total()
    }

    /// Layer-3 messages under the original system (Fig. 15's baseline).
    pub fn original_l3(&self) -> u64 {
        self.original_capture.total()
    }

    /// Fractional signaling reduction.
    pub fn signaling_saving(&self) -> f64 {
        1.0 - self.framework_l3() as f64 / self.original_l3() as f64
    }

    /// Charge attributed to a phase group on the relay, µAh.
    pub fn relay_phase(&self, group: hbr_energy::PhaseGroup) -> MicroAmpHours {
        self.relay_meter.group_total(group)
    }

    /// Charge attributed to a phase group on UE 0, µAh.
    pub fn ue_phase(&self, group: hbr_energy::PhaseGroup) -> MicroAmpHours {
        self.ue_meters[0].group_total(group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_energy::PhaseGroup;

    fn run(ue_count: usize, transmissions: u32) -> ExperimentRun {
        ControlledExperiment::new(ExperimentConfig {
            ue_count,
            transmissions,
            ..ExperimentConfig::default()
        })
        .run()
    }

    #[test]
    fn one_connection_per_period() {
        let r = run(1, 7);
        assert_eq!(r.relay_rrc_connections, 7);
        assert_eq!(r.forwarded, 7);
        assert_eq!(r.d2d_failures, 0);
    }

    #[test]
    fn table3_phases_reproduce() {
        let r = run(1, 1);
        let ue_disc = r.ue_phase(PhaseGroup::Discovery).as_micro_amp_hours();
        let ue_conn = r.ue_phase(PhaseGroup::Connection).as_micro_amp_hours();
        let ue_fwd = r.ue_phase(PhaseGroup::Forwarding).as_micro_amp_hours();
        assert!((ue_disc - 132.24).abs() < 1.0, "UE discovery {ue_disc}");
        assert!((ue_conn - 63.74).abs() < 1.0, "UE connection {ue_conn}");
        assert!((ue_fwd - 73.09).abs() < 1.0, "UE forwarding {ue_fwd}");
        let relay_disc = r.relay_phase(PhaseGroup::Discovery).as_micro_amp_hours();
        let relay_conn = r.relay_phase(PhaseGroup::Connection).as_micro_amp_hours();
        assert!(
            (relay_disc - 122.50).abs() < 1.0,
            "relay discovery {relay_disc}"
        );
        assert!(
            (relay_conn - 60.29).abs() < 1.0,
            "relay connection {relay_conn}"
        );
    }

    #[test]
    fn system_saving_near_zero_at_one_transmission() {
        let r = run(1, 1);
        let s = r.system_saving();
        assert!(
            s.abs() < 0.08,
            "Fig. 9: D2D ≈ original at one forward, got {s:.3}"
        );
    }

    #[test]
    fn ue_saving_near_55_percent_at_first_transmission() {
        let r = run(1, 1);
        let s = r.ue_saving();
        assert!(
            (0.48..0.62).contains(&s),
            "paper: ≈55% UE saving at the first forward, got {s:.3}"
        );
    }

    #[test]
    fn savings_grow_with_transmissions() {
        let few = run(1, 1);
        let many = run(1, 7);
        assert!(many.system_saving() > few.system_saving() + 0.1);
        assert!(many.ue_saving() > few.ue_saving());
        assert!(many.system_saving() > 0.2, "paper: ~36%, shape: >20%");
    }

    #[test]
    fn signaling_saving_is_at_least_half_with_one_ue() {
        let r = run(1, 10);
        assert!(
            r.signaling_saving() >= 0.45,
            "paper: >50% signaling reduction, got {:.3}",
            r.signaling_saving()
        );
        assert!(r.framework_l3() < r.original_l3());
    }

    #[test]
    fn signaling_saving_improves_with_more_ues() {
        let one = run(1, 10);
        let two = run(2, 10);
        assert!(two.signaling_saving() > one.signaling_saving());
    }

    #[test]
    fn wasted_to_saved_ratio_drops() {
        let first = run(1, 1);
        let many = run(7, 7);
        assert!(
            first.wasted_to_saved_ratio() > 0.8,
            "Fig. 11 starts ≈97%, got {:.2}",
            first.wasted_to_saved_ratio()
        );
        assert!(
            many.wasted_to_saved_ratio() < first.wasted_to_saved_ratio() / 2.0,
            "ratio must fall steeply with more UEs and forwards"
        );
    }

    #[test]
    fn receive_energy_linear_in_message_count() {
        // Table IV: relay receive cost is linear in forwarded messages.
        let r3 = run(3, 1);
        let r6 = run(6, 1);
        let recv3 = r3.relay_meter.phase_total(hbr_energy::Phase::D2dReceive);
        let recv6 = r6.relay_meter.phase_total(hbr_energy::Phase::D2dReceive);
        let ratio = recv6.as_micro_amp_hours() / recv3.as_micro_amp_hours();
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "linear scaling, got ×{ratio:.3}"
        );
    }

    #[test]
    fn capacity_overflow_forces_extra_flushes() {
        let r = ControlledExperiment::new(ExperimentConfig {
            ue_count: 5,
            relay_capacity: 2,
            transmissions: 3,
            ..ExperimentConfig::default()
        })
        .run();
        // 5 arrivals per period with M = 2: the relay flushes mid-period and
        // rejects late arrivals, so more RRC connections than periods.
        assert!(r.relay_rrc_connections > 3);
        assert!(r.d2d_failures > 0, "rejected UEs must fall back");
    }

    #[test]
    fn idle_keepalive_increases_energy_when_enabled() {
        let without = run(1, 5);
        let with = ControlledExperiment::new(ExperimentConfig {
            include_idle_keepalive: true,
            transmissions: 5,
            ..ExperimentConfig::default()
        })
        .run();
        assert!(with.ue_energy() > without.ue_energy());
        assert!(with.relay_energy() > without.relay_energy());
    }

    #[test]
    #[should_panic(expected = "at least one UE")]
    fn zero_ues_rejected() {
        ControlledExperiment::new(ExperimentConfig {
            ue_count: 0,
            ..ExperimentConfig::default()
        });
    }
}
