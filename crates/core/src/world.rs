//! The event-driven scenario world: the full framework under mobility,
//! multiple apps, link loss, relay death and cellular fallbacks.
//!
//! The [`experiment`](crate::experiment) module reproduces the paper's
//! controlled bench; this module is the deployment-shaped harness the
//! examples and integration tests use. It wires every substrate crate
//! together:
//!
//! * devices carry a [`HeartbeatSchedule`] per participating app (the
//!   paper's Message Monitor: each schedule knows its app's period, size
//!   and expiration, and each [`Heartbeat`] carries its `size` and
//!   `expires_at`), a [`CellularRadio`], an [`EnergyMeter`] and
//!   optionally a finite [`Battery`];
//! * UEs discover and match relays through the [`D2dDetector`] using live
//!   positions from the [`Field`];
//! * relays run Algorithm 1 ([`MessageScheduler`]) anchored to their own
//!   heartbeat periods and ship aggregated batches over one RRC
//!   connection per period;
//! * the delivery-feedback / cellular-fallback loop
//!   ([`FeedbackTracker`]) rescues heartbeats lost to link failures,
//!   relay rejection or relay battery death;
//! * an [`ImServer`] per app checks the user-visible invariant: presence
//!   never lapses.

use std::collections::{BTreeMap, HashSet};

use hbr_apps::{
    AppId, AppProfile, DeliveryOutcome, Heartbeat, HeartbeatSchedule, ImServer, MessageId,
    MessageIdGen,
};
use hbr_cellular::{BaseStation, CellularRadio, L3Message, RadioActivity, RrcConfig, RrcState};
use hbr_d2d::D2dLink;
use hbr_energy::{Battery, EnergyMeter, MicroAmpHours, PhaseGroup, Segment};
use hbr_mobility::{Bounds, Field, Mobility, PathLoss, Position};
use hbr_sim::fault::{fault_stream_seed, retry_stream_seed, FaultKind, FaultPlan};
use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter, SCENARIO_MAGIC};
use hbr_sim::telemetry::{
    EventRecord, MetricsSnapshot, SpanRecorder, Telemetry, TelemetryEvent, LATENCY_BUCKETS,
    RETRY_DEPTH_BUCKETS, SIZE_BUCKETS,
};
use hbr_sim::{snap_enum, DeviceId, SimDuration, SimRng, SimTime, Simulation};

use crate::config::{FrameworkConfig, RadioStack};
use crate::delivery::{BackoffPolicy, DeliveryLedger, RetryReason};
use crate::detector::{D2dDetector, MatchDecision, RelayAdvert};
use crate::feedback::FeedbackTracker;
use crate::incentive::RewardLedger;
use crate::invariant::{self, DeviceProbe, InvariantChecker};
use crate::scheduler::{FlushReason, MessageScheduler, ScheduleDecision};

/// A device's role in the framework (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Collects heartbeats from UEs and forwards them in aggregate.
    Relay,
    /// Hands its heartbeats to a nearby relay.
    Ue,
}

/// How devices transport their heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The paper's framework: D2D forwarding with scheduling + fallback.
    D2dFramework,
    /// The unmodified baseline: every heartbeat straight over cellular.
    OriginalCellular,
}

/// Blueprint for one device in a scenario.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Relay or UE.
    pub role: Role,
    /// The IM apps installed (each contributes a heartbeat schedule).
    pub apps: Vec<AppProfile>,
    /// How the device moves.
    pub mobility: Mobility,
    /// Battery capacity in mAh; [`None`] = unlimited (mains powered).
    pub battery_mah: Option<f64>,
}

/// Full description of a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Framework tunables.
    pub framework: FrameworkConfig,
    /// Radio models.
    pub stack: RadioStack,
    /// RSSI channel for discovery.
    pub channel: PathLoss,
    /// Transport mode (framework vs baseline).
    pub mode: Mode,
    /// Wall-clock length of the scenario.
    pub duration: SimDuration,
    /// Seed for every stochastic choice.
    pub seed: u64,
    /// Mean interval between mobile-terminated pushes per session
    /// ([`None`] disables the downlink workload). Pushes are what the
    /// always-online machinery exists for: the server only pages sessions
    /// it believes are online, so presence lapses turn into missed
    /// pushes.
    pub push_interval: Option<SimDuration>,
    /// Keep the newest this-many typed events as the trace (0 = off),
    /// with or without telemetry: the invariant checker's panic context
    /// and [`ScenarioReport::trace`].
    pub trace_capacity: usize,
    /// Bill the D2D group keep-alive current for the whole time an
    /// attachment stays open (honest accounting; the paper's
    /// compressed-time bench omits it — see `ablation_idle`).
    pub bill_d2d_idle: bool,
    /// Injected fault schedule (empty = a clean run). Faults execute
    /// deterministically; their randomness comes from a dedicated
    /// splitmix64-derived stream (see [`hbr_sim::fault`]).
    pub faults: FaultPlan,
    /// Run the [`InvariantChecker`] after every engine step. [`None`]
    /// (the default) resolves via [`invariant::default_enabled`]: the
    /// `HBR_CHECK_INVARIANTS` env var if set, else on in debug builds
    /// (every workspace test) and off in release experiment binaries.
    pub check_invariants: Option<bool>,
    /// Record metrics and typed events into the report (see
    /// [`hbr_sim::telemetry`]). Off by default: disabled channels make
    /// every record call a no-op, and instrumentation is pure
    /// observation either way (no RNG draws, no behaviour change).
    pub telemetry: bool,
    /// Run the reliable-delivery layer (see [`crate::delivery`]):
    /// per-device ledger, deadline-aware D2D retransmission with
    /// bounded backoff, relay handover, and re-queue of a departing
    /// relay's batch. Off by default — legacy one-shot feedback/fallback
    /// behaviour is byte-identical then, and the dedicated retry RNG
    /// stream is never drawn, so golden traces stay pinned.
    pub reliable_delivery: bool,
    /// Record a per-heartbeat lifecycle span (see [`hbr_sim::spans`]):
    /// generation → batching → D2D transfer attempts → feedback →
    /// terminal server outcome, with retry/handover/fallback
    /// annotations in between. Off by default. Like telemetry, spans
    /// are pure observation — no RNG draws, no behaviour change — and
    /// artifacts recorded with spans off are byte-identical to runs
    /// that never knew spans existed.
    pub spans: bool,
    /// Which crowd-engine shard cell this scenario is, if any. Pure
    /// provenance: it is stamped (with the seed) into invariant-
    /// violation panics so a sharded CI failure names the cell whose
    /// derived seed reproduces it in isolation.
    pub cell: Option<usize>,
    /// Cell-grid geometry for cross-cell roaming, when this scenario is
    /// one cell of a sharded fleet. [`None`] (the default) disables
    /// migration entirely: [`Scenario::emigrate`] returns nothing, no
    /// extra RNG draws happen, and every artifact is byte-identical to
    /// a build that never knew roaming existed.
    pub topology: Option<CellTopology>,
    /// Deliberate misbehaviour for mutation smoke tests; never set this
    /// outside tests that prove the checker catches a broken scheduler.
    #[doc(hidden)]
    pub mutation: Option<ChaosMutation>,
    /// The devices, in [`DeviceId`] order.
    pub devices: Vec<DeviceSpec>,
}

/// The cell a position belongs to on a `grid × grid` tiling of
/// `[0, area_side_m]²`, as `row * grid + col`. This is the one partition
/// rule: the sharded crowd engine places devices in their initial cell
/// with it and roaming migration finds a device's new cell with it, so
/// the two never disagree. Out-of-field positions clamp into the border
/// cells — roaming mobility models reflect at the field edge
/// ([`Mobility::linear_bounded`]), so the clamp is a last-resort guard,
/// not a steady state.
pub fn cell_at(area_side_m: f64, grid: usize, x: f64, y: f64) -> usize {
    let tile = area_side_m / grid as f64;
    let clamp = |v: f64| ((v / tile) as usize).min(grid - 1);
    clamp(y) * grid + clamp(x)
}

/// Where one cell sits in the fleet-wide grid — the geometry a scenario
/// needs to decide when a device has walked out of its cell and which
/// cell it walked into ([`cell_at`]). The grid depends only on the
/// area, never on the shard count, so migration schedules are identical
/// at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTopology {
    /// Side length of the whole deployment area, metres.
    pub area_side_m: f64,
    /// Cells per axis.
    pub grid: usize,
    /// This cell's index (`row * grid + col`).
    pub cell: usize,
}

impl CellTopology {
    /// The x-coordinate of the vertical cell boundary nearest to `x`,
    /// or [`None`] when the grid has no interior boundaries. The
    /// boundary-churn fault anchors its shuttle corridor here.
    pub fn nearest_boundary_x(&self, x: f64) -> Option<f64> {
        if self.grid < 2 {
            return None;
        }
        let tile = self.area_side_m / self.grid as f64;
        let k = (x / tile).round().clamp(1.0, (self.grid - 1) as f64);
        Some(k * tile)
    }
}

/// A device in transit between cells: the migration manifest entry one
/// cell publishes at an epoch barrier and the destination cell admits
/// with [`Scenario::immigrate`].
///
/// It carries everything the destination needs to continue the device
/// as one uninterrupted session — heartbeat schedules (with live
/// sequence counters), per-app refresh history for the servers, the
/// radio with its exact RRC state, the energy meter, the battery, the
/// device's private RNG stream, a relay's scheduler, the mobility
/// model, and any still-open fault windows.
/// Fields are private: the manifest is opaque in transit, cells only
/// route on [`Migrant::to_cell`].
#[derive(Debug)]
pub struct Migrant {
    to_cell: usize,
    from_cell: usize,
    source_index: u32,
    role: Role,
    schedules: Vec<HeartbeatSchedule>,
    /// Per-schedule refresh history, parallel to `schedules`.
    sessions: Vec<Vec<SimTime>>,
    radio: CellularRadio,
    meter: EnergyMeter,
    battery: Option<Battery>,
    rng: SimRng,
    scheduler: Option<MessageScheduler>,
    mobility: Mobility,
    d2d_down_until: SimTime,
    degraded_until: SimTime,
    degrade_loss: f64,
    payload_loss_until: SimTime,
    payload_loss_p: f64,
}

impl Migrant {
    /// The cell this migrant is headed to.
    pub fn to_cell(&self) -> usize {
        self.to_cell
    }

    /// The cell that published this migrant.
    pub fn from_cell(&self) -> usize {
        self.from_cell
    }

    /// The device's index in the *source* cell (its husk's id there).
    pub fn source_index(&self) -> u32 {
        self.source_index
    }
}

/// A deliberately broken implementation detail, injectable from tests to
/// prove the invariant checker is live (mutation testing for the
/// harness itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMutation {
    /// Ignore Algorithm 1's capacity flush: the relay keeps pending past
    /// `M`, so the scheduler-bound invariant must trip.
    IgnoreCapacityFlush,
}

impl ScenarioConfig {
    /// A convenience starting point: framework mode, default stack, no
    /// devices yet.
    pub fn new(duration: SimDuration, seed: u64) -> Self {
        ScenarioConfig {
            framework: FrameworkConfig::default(),
            stack: RadioStack::default(),
            channel: PathLoss::indoor_wifi(),
            mode: Mode::D2dFramework,
            duration,
            seed,
            push_interval: None,
            trace_capacity: 0,
            bill_d2d_idle: true,
            faults: FaultPlan::new(),
            check_invariants: None,
            telemetry: false,
            reliable_delivery: false,
            spans: false,
            cell: None,
            topology: None,
            mutation: None,
            devices: Vec::new(),
        }
    }

    /// Adds a device, returning its id.
    pub fn add_device(&mut self, spec: DeviceSpec) -> DeviceId {
        let id = DeviceId::new(self.devices.len() as u32);
        self.devices.push(spec);
        id
    }
}

/// Per-device results.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// The device.
    pub device: DeviceId,
    /// Its role.
    pub role: Role,
    /// Total charge drawn, µAh.
    pub energy_uah: f64,
    /// Charge by paper-level phase group.
    pub energy_by_group: Vec<(PhaseGroup, f64)>,
    /// RRC connections this device established.
    pub rrc_connections: u64,
    /// Heartbeats this device forwarded over D2D (UE) or collected
    /// (relay).
    pub forwards: u64,
    /// Cellular fallbacks this device performed.
    pub fallbacks: u64,
    /// Operator credits earned (relays).
    pub rewards: u64,
    /// Seconds this device's sessions spent offline.
    pub offline_secs: f64,
    /// Mean forwarded-heartbeats per flush (relays only).
    pub mean_batch_size: Option<f64>,
    /// Mean queueing delay a forwarded heartbeat spent in the relay's
    /// buffer, seconds (relays only).
    pub mean_queueing_delay_secs: Option<f64>,
    /// `true` if the battery ran out during the scenario.
    pub battery_depleted: bool,
}

/// Aggregate counters a cell reports at an epoch barrier — the
/// cross-shard "message" of the sharded crowd engine. Folding the
/// pulses of every cell (in cell order) gives the fleet-level digest,
/// independent of how cells are spread over worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochPulse {
    /// D2D forwards performed so far.
    pub forwards: u64,
    /// Cellular fallbacks performed so far.
    pub fallbacks: u64,
    /// Heartbeats currently queued behind a cellular outage.
    pub outage_queued: u64,
    /// Layer-3 messages at this cell's base station so far.
    pub l3: u64,
    /// RRC connections at this cell's base station so far.
    pub rrc: u64,
    /// Heartbeats the delivery ledger has seen server-acked so far
    /// (0 when reliable delivery is off).
    pub delivered: u64,
    /// D2D retransmissions the delivery ledger has scheduled so far.
    pub retries: u64,
    /// Devices that have emigrated out of this cell so far (0 unless
    /// roaming is on).
    pub migrations: u64,
    /// LTE handover signaling bursts this cell's base station counted
    /// for emigrating devices so far (0 unless roaming is on).
    pub lte_handovers: u64,
}

impl EpochPulse {
    /// Accumulates another cell's pulse into this one.
    pub fn absorb(&mut self, other: &EpochPulse) {
        self.forwards += other.forwards;
        self.fallbacks += other.fallbacks;
        self.outage_queued += other.outage_queued;
        self.l3 += other.l3;
        self.rrc += other.rrc;
        self.delivered += other.delivered;
        self.retries += other.retries;
        self.migrations += other.migrations;
        self.lte_handovers += other.lte_handovers;
    }
}

/// Aggregate scenario results.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Per-device rows, in device order.
    pub devices: Vec<DeviceReport>,
    /// Total layer-3 messages at the base station.
    pub total_l3: u64,
    /// Total RRC connections at the base station.
    pub total_rrc: u64,
    /// Heartbeats accepted by the IM servers.
    pub delivered: u64,
    /// Heartbeats that arrived too late.
    pub rejected_expired: u64,
    /// Duplicate deliveries (relay + fallback races).
    pub duplicates: u64,
    /// Total seconds any session spent offline.
    pub offline_secs: f64,
    /// Mobile-terminated pushes delivered (session was online).
    pub pushes_delivered: u64,
    /// Pushes the server could not page out (session looked offline).
    pub pushes_missed: u64,
    /// Total system energy, µAh.
    pub total_energy_uah: f64,
    /// The newest [`ScenarioConfig::trace_capacity`] typed events,
    /// time-sorted like `events` (empty when the capacity is 0).
    pub trace: Vec<EventRecord>,
    /// Events recorded before the trace's oldest (0 = the trace is
    /// complete).
    pub trace_dropped: u64,
    /// Deterministic metrics snapshot (empty unless
    /// [`ScenarioConfig::telemetry`] was on).
    pub metrics: MetricsSnapshot,
    /// Typed telemetry events, time-sorted (empty unless telemetry was
    /// on).
    pub events: Vec<EventRecord>,
    /// Reliable-delivery summary ([`None`] unless
    /// [`ScenarioConfig::reliable_delivery`] was on).
    pub delivery: Option<DeliveryReport>,
    /// Per-heartbeat lifecycle spans (empty unless
    /// [`ScenarioConfig::spans`] was on). Serialized by
    /// [`SpanRecorder::to_jsonl`]; merged cell-order by the crowd
    /// engine like telemetry events.
    pub spans: SpanRecorder,
    /// Devices that emigrated out of this cell (0 unless roaming).
    pub migrations: u64,
    /// LTE handover signaling bursts counted for emigrations (0 unless
    /// roaming).
    pub lte_handovers: u64,
}

/// End-to-end delivery accounting a reliable-delivery run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeliveryReport {
    /// Heartbeats emitted by alive devices.
    pub generated: u64,
    /// Ledger entries retired by a server accept (exactly-once).
    pub delivered: u64,
    /// Ledger entries retired by a server expired-reject (accounted).
    pub expired: u64,
    /// Ledger entries that died with their depleted source.
    pub dropped_dead: u64,
    /// Entries still in flight at the horizon (buffered/queued).
    pub in_flight: u64,
    /// D2D retransmissions scheduled.
    pub retries: u64,
    /// Relay handovers performed.
    pub handovers: u64,
    /// Heartbeats re-queued from a departing relay's batch.
    pub requeued: u64,
    /// Seconds the servers considered a live client dead (the SLO's
    /// user-visible damage term).
    pub false_dead_secs: f64,
}

impl DeliveryReport {
    /// Delivered fraction of the heartbeats that were still accountable
    /// at the horizon (generated minus died-with-device minus still in
    /// flight) — the delivery-SLO headline number.
    pub fn ratio(&self) -> f64 {
        let accountable = self
            .generated
            .saturating_sub(self.dropped_dead)
            .saturating_sub(self.in_flight);
        if accountable == 0 {
            1.0
        } else {
            self.delivered as f64 / accountable as f64
        }
    }

    /// Component-wise sum, for merging per-cell reports.
    pub fn absorb(&mut self, other: &DeliveryReport) {
        self.generated += other.generated;
        self.delivered += other.delivered;
        self.expired += other.expired;
        self.dropped_dead += other.dropped_dead;
        self.in_flight += other.in_flight;
        self.retries += other.retries;
        self.handovers += other.handovers;
        self.requeued += other.requeued;
        self.false_dead_secs += other.false_dead_secs;
    }
}

impl ScenarioReport {
    /// Renders the operator-console view of the run: aggregate counters
    /// plus the per-relay ledger (the §III-D UI's information, as text).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "layer-3 messages : {}", self.total_l3);
        let _ = writeln!(out, "RRC connections  : {}", self.total_rrc);
        let _ = writeln!(out, "system energy    : {:.0} µAh", self.total_energy_uah);
        let _ = writeln!(
            out,
            "heartbeats       : {} delivered, {} expired, {} duplicates",
            self.delivered, self.rejected_expired, self.duplicates
        );
        if let Some(d) = &self.delivery {
            let _ = writeln!(
                out,
                "delivery         : {}/{} acked ({:.4}), {} expired, {} dead, {} in flight",
                d.delivered,
                d.generated,
                d.ratio(),
                d.expired,
                d.dropped_dead,
                d.in_flight
            );
            let _ = writeln!(
                out,
                "reliability      : {} retries, {} handovers, {} requeued, {:.0} s false-dead",
                d.retries, d.handovers, d.requeued, d.false_dead_secs
            );
        }
        if self.migrations + self.lte_handovers > 0 {
            let _ = writeln!(
                out,
                "roaming          : {} migrations, {} LTE handovers",
                self.migrations, self.lte_handovers
            );
        }
        if self.pushes_delivered + self.pushes_missed > 0 {
            let _ = writeln!(
                out,
                "pushes           : {} delivered, {} missed",
                self.pushes_delivered, self.pushes_missed
            );
        }
        let _ = writeln!(out, "offline          : {:.0} s", self.offline_secs);
        if !self.trace.is_empty() || self.trace_dropped > 0 {
            let _ = writeln!(
                out,
                "trace            : {} entries kept, {} evicted",
                self.trace.len(),
                self.trace_dropped
            );
        }
        for dev in self.devices.iter().filter(|d| d.role == Role::Relay) {
            let _ = writeln!(
                out,
                "relay {:>7}    : {:>5} collected, {:>5} credits, {:>9.0} µAh{}",
                dev.device.to_string(),
                dev.forwards,
                dev.rewards,
                dev.energy_uah,
                if dev.battery_depleted {
                    "  [battery dead]"
                } else {
                    ""
                }
            );
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A device's app heartbeat timer fired.
    HeartbeatDue { device: usize, app_idx: usize },
    /// A relay's flush deadline (generation guards stale events).
    FlushDeadline { device: usize, generation: u64 },
    /// A UE's feedback-timeout sweep.
    FeedbackSweep { device: usize },
    /// A UE's D2D link finished establishing; forward the pending batch.
    LinkReady { device: usize },
    /// The IM server has a mobile-terminated push for this session.
    PushDue { device: usize, app_idx: usize },
    /// The indexed entry of the configured [`FaultPlan`] fires.
    FaultDue { index: usize },
    /// A cellular outage window may be over; drain the queue.
    OutageOver,
    /// A departed relay returns to service.
    RelayRejoin { device: usize },
    /// A reliable-delivery backoff timer fired; retry what is due.
    /// Only ever scheduled when [`ScenarioConfig::reliable_delivery`]
    /// is on, so legacy runs see an unchanged event stream.
    DeliveryRetry { device: usize },
}

struct Device {
    id: DeviceId,
    role: Role,
    schedules: Vec<HeartbeatSchedule>,
    radio: CellularRadio,
    meter: EnergyMeter,
    battery: Option<Battery>,
    rng: SimRng,
    // Relay state.
    scheduler: Option<MessageScheduler>,
    own_pending: Vec<Heartbeat>,
    deadline_generation: u64,
    collected_total: u64,
    // UE state.
    attached_to: Option<usize>,
    link: Option<D2dLink>,
    /// When the current attachment's link became usable (idle billing).
    attached_since: Option<SimTime>,
    /// Relay-side: members currently attached, and since when the group
    /// has been non-empty (idle billing).
    member_count: usize,
    group_idle_since: Option<SimTime>,
    feedback: FeedbackTracker,
    pending_until_ready: Vec<Heartbeat>,
    /// Reliable-delivery ledger (empty and untouched when the layer is
    /// off).
    delivery: DeliveryLedger,
    forwards: u64,
    fallbacks: u64,
    // Fault state.
    /// Relay has left the system (fault-injected churn).
    departed: bool,
    /// The device's D2D radio is unusable until this instant.
    d2d_down_until: SimTime,
    /// Link transfers carry an interference penalty until this instant.
    degraded_until: SimTime,
    /// The penalty applied while degraded.
    degrade_loss: f64,
    /// Forwarded payloads are at risk until this instant.
    payload_loss_until: SimTime,
    /// Per-transfer loss probability while the payload window lasts.
    payload_loss_p: f64,
    /// The device emigrated to another cell: this entry is a husk that
    /// keeps the counters it earned here (forwards, fallbacks, ledger
    /// stats) so per-cell reports stay conservative, but owns no
    /// schedules, no position and no live protocol state. Every handler
    /// skips husks.
    migrated: bool,
}

impl Device {
    fn is_alive(&self) -> bool {
        self.battery.map(|b| !b.is_depleted()).unwrap_or(true)
    }
}

/// Runs one scenario to completion and produces its report.
///
/// # Examples
///
/// ```
/// use hbr_apps::AppProfile;
/// use hbr_core::world::{DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
/// use hbr_mobility::{Mobility, Position};
/// use hbr_sim::SimDuration;
///
/// let mut config = ScenarioConfig::new(SimDuration::from_secs(3600), 42);
/// config.add_device(DeviceSpec {
///     role: Role::Relay,
///     apps: vec![AppProfile::wechat()],
///     mobility: Mobility::stationary(Position::new(0.0, 0.0)),
///     battery_mah: None,
/// });
/// config.add_device(DeviceSpec {
///     role: Role::Ue,
///     apps: vec![AppProfile::wechat()],
///     mobility: Mobility::stationary(Position::new(1.0, 0.0)),
///     battery_mah: None,
/// });
///
/// let report = Scenario::new(config).run();
/// assert!(report.delivered > 0);
/// ```
pub struct Scenario {
    config: ScenarioConfig,
    sim: Simulation<Event>,
    devices: Vec<Device>,
    field: Field,
    detector: D2dDetector,
    servers: BTreeMap<AppId, ImServer>,
    bs: BaseStation,
    ledger: RewardLedger,
    ids: MessageIdGen,
    rng: SimRng,
    cellular_uah_per_hb: f64,
    pushes_delivered: u64,
    pushes_missed: u64,
    // Fault machinery (tentpole of the chaos harness).
    /// Dedicated randomness for fault execution, seeded independently of
    /// every other stream so clean runs are byte-identical to pre-fault
    /// builds.
    fault_rng: SimRng,
    /// The cellular uplink is down for everyone until this instant.
    outage_until: SimTime,
    /// The no-silent-lapse invariant is suspended until this instant
    /// (outage end + longest expiration: sessions legally re-converge).
    outage_grace_until: SimTime,
    /// Discovery is dark for everyone until this instant.
    blackout_until: SimTime,
    /// Heartbeats awaiting the end of a cellular outage.
    outage_queue: Vec<(usize, Heartbeat)>,
    /// The longest app expiration in the scenario (grace sizing).
    max_expiration: SimDuration,
    /// Dedicated randomness for retransmission backoff jitter, seeded
    /// independently of every other stream and drawn only when a retry
    /// is actually scheduled — clean runs consume zero draws.
    retry_rng: SimRng,
    /// Backoff schedule for D2D retransmissions.
    backoff: BackoffPolicy,
    /// Heartbeats emitted by alive devices (reliable-delivery ratio
    /// denominator; maintained unconditionally, surfaced only when the
    /// layer is on).
    generated: u64,
    /// Heartbeats re-queued from departing relays' batches.
    requeued: u64,
    /// Devices that emigrated out of this cell (roaming only).
    migrations: u64,
    /// LTE handover signaling bursts counted for emigrations.
    lte_handovers: u64,
    checker: InvariantChecker,
    /// Metrics + event channels (both disabled unless configured; the
    /// event log also keeps the trace): pure observation, so enabling
    /// them never perturbs a seeded run.
    telemetry: Telemetry,
    /// Per-heartbeat lifecycle spans (disabled unless configured),
    /// annotated where each protocol call returns its decision and
    /// closed at each terminal outcome; same pure-observation contract
    /// as `telemetry`.
    spans: SpanRecorder,
}

/// Microsecond timestamp of a sim instant, exactly as [`EventRecord`]s
/// stamp telemetry — spans and events line up in a merged timeline.
fn span_us(t: SimTime) -> u64 {
    t.saturating_since(SimTime::ZERO).as_micros()
}

impl Scenario {
    /// Builds the world from a config.
    ///
    /// # Panics
    ///
    /// Panics if the config has no devices or an invalid
    /// [`FrameworkConfig`].
    pub fn new(config: ScenarioConfig) -> Self {
        assert!(
            !config.devices.is_empty() || config.topology.is_some(),
            "scenario needs devices"
        );
        config.framework.validate();
        let mut rng = SimRng::seed_from(config.seed);
        let mut field = Field::new();
        let mut servers: BTreeMap<AppId, ImServer> = BTreeMap::new();
        let mut devices = Vec::with_capacity(config.devices.len());

        for (i, spec) in config.devices.iter().enumerate() {
            let id = DeviceId::new(i as u32);
            field.insert(id, spec.mobility.clone());
            let mut schedules = Vec::new();
            for app in &spec.apps {
                schedules.push(HeartbeatSchedule::new(id, app.clone(), 0.01));
                servers
                    .entry(app.id)
                    .or_insert_with(|| ImServer::new(app.expiration));
            }
            let relay_period = spec
                .apps
                .first()
                .map(|a| a.heartbeat_period)
                .unwrap_or(SimDuration::from_secs(270));
            let scheduler = (spec.role == Role::Relay).then(|| {
                let mut scheduler = MessageScheduler::new(
                    config.framework.relay_capacity,
                    relay_period,
                    SimDuration::from_secs(5),
                    SimTime::ZERO,
                );
                if !config.framework.expiry_guard {
                    scheduler = scheduler.without_expiry_guard();
                }
                // Periods are anchored at the relay's own heartbeats
                // (Fig. 3); collection opens when the first one fires.
                let _ = scheduler.take_batch();
                scheduler
            });
            devices.push(Device {
                id,
                role: spec.role,
                schedules,
                radio: CellularRadio::new(config.stack.cellular.clone()),
                // Aggregate-only: the report consumes totals and
                // group breakdowns, never raw segments, so the meter
                // can stay O(1) per device instead of growing with
                // every radio burst — what lets a 1M-phone cell fit.
                meter: EnergyMeter::compact(),
                battery: spec.battery_mah.map(Battery::with_capacity_mah),
                rng: rng.fork(i as u64),
                scheduler,
                own_pending: Vec::new(),
                deadline_generation: 0,
                collected_total: 0,
                attached_to: None,
                link: None,
                attached_since: None,
                member_count: 0,
                group_idle_since: None,
                feedback: FeedbackTracker::new(config.framework.feedback_timeout),
                pending_until_ready: Vec::new(),
                delivery: DeliveryLedger::new(),
                forwards: 0,
                fallbacks: 0,
                departed: false,
                d2d_down_until: SimTime::ZERO,
                degraded_until: SimTime::ZERO,
                degrade_loss: 0.0,
                payload_loss_until: SimTime::ZERO,
                payload_loss_p: 0.0,
                migrated: false,
            });
        }

        let detector = D2dDetector::new(
            config.framework.clone(),
            config.stack.d2d.clone(),
            config.channel,
        );
        let cellular_uah_per_hb = config.stack.cellular.full_cycle_charge_uah(74);
        let reward = config.framework.reward_per_heartbeat;
        let fault_rng = SimRng::seed_from(fault_stream_seed(config.seed));
        let retry_rng = SimRng::seed_from(retry_stream_seed(config.seed));
        let max_expiration = config
            .devices
            .iter()
            .flat_map(|spec| spec.apps.iter())
            .map(|app| app.expiration)
            .max()
            .unwrap_or(SimDuration::from_secs(810));
        let check = config
            .check_invariants
            .unwrap_or_else(invariant::default_enabled);
        let mut checker = InvariantChecker::new(check);
        checker.set_context(config.seed, config.cell);
        let telemetry = Telemetry::new(config.telemetry, config.trace_capacity);
        let spans = if config.spans {
            SpanRecorder::enabled()
        } else {
            SpanRecorder::disabled()
        };

        let mut world = Scenario {
            config,
            sim: Simulation::new(),
            devices,
            field,
            detector,
            servers,
            // Counters only — the report reads total_l3/rrc, never the
            // per-message capture log (exp_fig14 builds its own).
            bs: BaseStation::compact(),
            ledger: RewardLedger::new(reward),
            ids: MessageIdGen::new(),
            rng,
            cellular_uah_per_hb,
            pushes_delivered: 0,
            pushes_missed: 0,
            fault_rng,
            outage_until: SimTime::ZERO,
            outage_grace_until: SimTime::ZERO,
            blackout_until: SimTime::ZERO,
            outage_queue: Vec::new(),
            max_expiration,
            retry_rng,
            backoff: BackoffPolicy::default(),
            generated: 0,
            requeued: 0,
            migrations: 0,
            lte_handovers: 0,
            checker,
            telemetry,
            spans,
        };

        for (index, fault) in world.config.faults.events().iter().enumerate() {
            world.sim.schedule_at(fault.at, Event::FaultDue { index });
        }

        // Register sessions as online at t = 0 and schedule first beats.
        for i in 0..world.devices.len() {
            for (app_idx, schedule) in world.devices[i].schedules.iter().enumerate() {
                let app = schedule.app().id;
                world
                    .servers
                    .get_mut(&app)
                    .expect("server exists for registered app")
                    .register(world.devices[i].id, app, SimTime::ZERO);
                world.sim.schedule_at(
                    schedule.peek_next(),
                    Event::HeartbeatDue { device: i, app_idx },
                );
                if let Some(mean) = world.config.push_interval {
                    let first = SimTime::ZERO + world.rng.exp_duration(mean);
                    world
                        .sim
                        .schedule_at(first, Event::PushDue { device: i, app_idx });
                }
            }
        }
        world
    }

    /// Runs to the configured horizon and reports.
    pub fn run(mut self) -> ScenarioReport {
        let end = SimTime::ZERO + self.config.duration;
        self.run_until(end);
        self.finish(end)
    }

    /// Advances the event loop to `until` (inclusive), leaving the
    /// scenario resumable. Driving a scenario through a sequence of
    /// `run_until` calls with increasing limits fires exactly the same
    /// events as one call at the final limit — the sharded crowd engine
    /// relies on this to step its cells in epoch lockstep.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(fired) = self.sim.pop_until(until) {
            self.handle(fired.time, fired.event);
            if self.checker.enabled() {
                self.check_invariants(fired.time);
            }
        }
    }

    /// Closes out a scenario previously stepped via
    /// [`Scenario::run_until`] and reports. Equivalent to the tail of
    /// [`Scenario::run`]; the caller must have advanced the clock to the
    /// configured horizon first.
    pub fn complete(self) -> ScenarioReport {
        let end = SimTime::ZERO + self.config.duration;
        self.finish(end)
    }

    /// A cheap aggregate probe of the scenario mid-run — what the
    /// sharded engine's cells exchange at epoch barriers to build the
    /// fleet-level pulse. Pure observation: no RNG draws, no state
    /// changes.
    pub fn pulse(&self) -> EpochPulse {
        EpochPulse {
            forwards: self.devices.iter().map(|d| d.forwards).sum(),
            fallbacks: self.devices.iter().map(|d| d.fallbacks).sum(),
            outage_queued: self.outage_queue.len() as u64,
            l3: self.bs.total_l3(),
            rrc: self.bs.rrc_connections(),
            delivered: self
                .devices
                .iter()
                .map(|d| d.delivery.stats().delivered)
                .sum(),
            retries: self
                .devices
                .iter()
                .map(|d| d.delivery.stats().retries)
                .sum(),
            migrations: self.migrations,
            lte_handovers: self.lte_handovers,
        }
    }

    /// The virtual clock: the time of the last event handled (or zero
    /// before any fired). Conformance harnesses interleave injections
    /// against this.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Extracts every device that has walked out of this cell by
    /// `limit` — the migration half of an epoch barrier. Call after
    /// [`Scenario::run_until`]`(limit)`; the returned manifest is what
    /// this cell publishes alongside its [`EpochPulse`], and the
    /// devices' state here collapses to an inert husk that keeps only
    /// the counters it earned.
    ///
    /// Without a [`ScenarioConfig::topology`] this returns nothing and
    /// draws no RNG. A device in an unresolved protocol state (pending
    /// feedback, an establishing link, in-flight ledger entries beyond
    /// its own un-flushed batch, queued behind an outage) defers to a
    /// later barrier — migration is quiescent by construction, so no
    /// message id ever crosses a cell boundary.
    ///
    /// Relays depart before UEs: a migrating relay's buffered batch is
    /// re-queued to its member sources, which must still be resident to
    /// receive it.
    pub fn emigrate(&mut self, limit: SimTime) -> Vec<Migrant> {
        let Some(topology) = self.config.topology else {
            return Vec::new();
        };
        self.field.advance_to(limit, &mut self.rng);
        let mut out = Vec::new();
        for pass in [Role::Relay, Role::Ue] {
            for i in 0..self.devices.len() {
                if self.devices[i].role != pass {
                    continue;
                }
                if let Some(migrant) = self.try_depart(limit, i, topology) {
                    out.push(migrant);
                }
            }
        }
        out
    }

    /// One device's migration check and, when it passes, the full
    /// source-side teardown and state extraction.
    fn try_depart(&mut self, limit: SimTime, i: usize, topology: CellTopology) -> Option<Migrant> {
        {
            let dev = &self.devices[i];
            if dev.migrated || dev.departed || !dev.is_alive() {
                return None;
            }
        }
        let id = self.devices[i].id;
        let pos = self.field.position(id)?;
        let to_cell = cell_at(topology.area_side_m, topology.grid, pos.x, pos.y);
        if to_cell == topology.cell {
            return None;
        }
        // Quiescence gate: nothing this device originated may be in an
        // unresolved state. A relay's own un-flushed heartbeats are the
        // one exception — they are resolved synchronously below.
        if limit < self.outage_until {
            return None;
        }
        if self
            .outage_queue
            .iter()
            .any(|(holder, hb)| *holder == i || hb.source == id)
        {
            return None;
        }
        {
            let dev = &self.devices[i];
            if dev.feedback.pending_count() > 0 || !dev.pending_until_ready.is_empty() {
                return None;
            }
            let own_in_flight = if dev.role == Role::Relay {
                dev.own_pending.len()
            } else {
                0
            };
            if dev.delivery.in_flight() != own_in_flight {
                return None;
            }
        }

        // Source-side teardown: D2D links and relay membership end at
        // the boundary (the PR 5 departure path handles the batch).
        if self.devices[i].role == Role::Relay {
            self.detach_all_members(limit, i);
            let batch = self.devices[i]
                .scheduler
                .as_mut()
                .expect("relay has a scheduler")
                .take_batch();
            if self.reliable() {
                self.requeue_dropped_batch(limit, i, batch, "relay-migrated");
            }
        } else if self.devices[i].attached_to.is_some() || self.devices[i].link.is_some() {
            self.detach_ue(i, limit);
        }
        // Un-flushed own heartbeats ride cellular before the device
        // leaves (mirrors the departed-relay path); the cell is not in
        // outage by the gate above, so their ledger entries retire
        // synchronously.
        let own = std::mem::take(&mut self.devices[i].own_pending);
        for hb in own {
            self.send_cellular(limit, i, hb);
        }
        // Any armed FlushDeadline for the emptied scheduler dies stale.
        self.devices[i].deadline_generation += 1;

        // Settle the radio at the boundary so the carried RRC state is
        // exact, then count the LTE handover signaling at the source
        // base station: a connected-mode handover is the four-message
        // reconfiguration exchange, an idle-mode reselection the
        // two-message cell/tracking-area update.
        let tail = self.devices[i].radio.advance(limit);
        self.apply_activity(i, &tail.segments);
        self.record_radio(i, &tail, 0);
        self.bs.record(id, &tail, 0);
        let connected = self.devices[i].radio.state_at(limit) != RrcState::Idle;
        let mut messages = vec![
            (limit, L3Message::CellUpdate),
            (limit, L3Message::CellUpdateConfirm),
        ];
        if connected {
            messages.push((limit, L3Message::RadioBearerReconfiguration));
            messages.push((limit, L3Message::TransportChannelReconfiguration));
        }
        let handover = RadioActivity {
            messages,
            ..RadioActivity::default()
        };
        self.bs.record(id, &handover, 0);
        self.migrations += 1;
        self.lte_handovers += 1;
        if self.telemetry.metrics.is_enabled() {
            let rrc = if connected { "connected" } else { "idle" };
            self.telemetry
                .metrics
                .incr(&format!("hbr_lte_handover_total{{rrc=\"{rrc}\"}}"));
        }
        self.telemetry.record(
            limit,
            TelemetryEvent::Migrate {
                device: id.index(),
                from_cell: topology.cell,
                to_cell,
            },
        );

        // Extract the carried state, leaving a husk that keeps the
        // counters it earned in this cell (per-cell conservation) but
        // owns nothing live. The husk's replacement RNG is never drawn.
        let (schedules, radio, meter, battery, rng, scheduler, role) = {
            let fresh_radio = CellularRadio::new(self.config.stack.cellular.clone());
            let dev = &mut self.devices[i];
            dev.migrated = true;
            (
                std::mem::take(&mut dev.schedules),
                std::mem::replace(&mut dev.radio, fresh_radio),
                std::mem::replace(&mut dev.meter, EnergyMeter::compact()),
                dev.battery.take(),
                std::mem::replace(&mut dev.rng, SimRng::seed_from(0)),
                dev.scheduler.take(),
                dev.role,
            )
        };
        let mobility = self
            .field
            .remove(id)
            .expect("migrating device has a position");
        let sessions = schedules
            .iter()
            .map(|schedule| {
                let app = schedule.app().id;
                self.servers
                    .get_mut(&app)
                    .and_then(|server| server.take_session(id, app))
                    .unwrap_or_default()
            })
            .collect();
        let dev = &self.devices[i];
        Some(Migrant {
            to_cell,
            from_cell: topology.cell,
            source_index: id.index(),
            role,
            schedules,
            sessions,
            radio,
            meter,
            battery,
            rng,
            scheduler,
            mobility,
            d2d_down_until: dev.d2d_down_until,
            degraded_until: dev.degraded_until,
            degrade_loss: dev.degrade_loss,
            payload_loss_until: dev.payload_loss_until,
            payload_loss_p: dev.payload_loss_p,
        })
    }

    /// Admits migrants that other cells published at the same epoch
    /// barrier. The crowd engine applies manifests in ascending source
    /// cell order and within a manifest in emission order, so the new
    /// [`DeviceId`]s — returned in admission order — are identical at
    /// any shard count.
    pub fn immigrate(&mut self, migrants: Vec<Migrant>, now: SimTime) -> Vec<DeviceId> {
        migrants.into_iter().map(|m| self.admit(m, now)).collect()
    }

    fn admit(&mut self, migrant: Migrant, now: SimTime) -> DeviceId {
        let i = self.devices.len();
        let id = DeviceId::new(i as u32);
        let Migrant {
            role,
            mut schedules,
            sessions,
            radio,
            meter,
            battery,
            rng,
            scheduler,
            mobility,
            d2d_down_until,
            degraded_until,
            degrade_loss,
            payload_loss_until,
            payload_loss_p,
            ..
        } = migrant;
        // The heartbeat stream continues as one session: schedules are
        // re-homed onto the cell-local id and the carried refresh
        // history is adopted by this cell's servers, so presence never
        // lapses across the boundary.
        for (schedule, history) in schedules.iter_mut().zip(sessions) {
            schedule.retarget(id);
            let app = schedule.app().clone();
            self.servers
                .entry(app.id)
                .or_insert_with(|| ImServer::new(app.expiration))
                .adopt_session(id, app.id, history);
            self.max_expiration = self.max_expiration.max(app.expiration);
        }
        self.field.insert(id, mobility);
        self.devices.push(Device {
            id,
            role,
            schedules,
            radio,
            meter,
            battery,
            rng,
            scheduler,
            own_pending: Vec::new(),
            deadline_generation: 0,
            collected_total: 0,
            attached_to: None,
            link: None,
            attached_since: None,
            member_count: 0,
            group_idle_since: None,
            feedback: FeedbackTracker::new(self.config.framework.feedback_timeout),
            pending_until_ready: Vec::new(),
            delivery: DeliveryLedger::new(),
            forwards: 0,
            fallbacks: 0,
            departed: false,
            d2d_down_until,
            degraded_until,
            degrade_loss,
            payload_loss_until,
            payload_loss_p,
            migrated: false,
        });
        // Re-enter discovery here: heartbeat timers resume where the
        // source cell left them; a fresh push chain starts from the
        // destination's own RNG (deterministic by admission order).
        let beats: Vec<(usize, SimTime)> = self.devices[i]
            .schedules
            .iter()
            .enumerate()
            .map(|(app_idx, s)| (app_idx, s.peek_next()))
            .collect();
        for (app_idx, at) in beats {
            self.sim
                .schedule_at(at.max(now), Event::HeartbeatDue { device: i, app_idx });
        }
        if let Some(mean) = self.config.push_interval {
            for app_idx in 0..self.devices[i].schedules.len() {
                let first = now + self.rng.exp_duration(mean);
                self.sim
                    .schedule_at(first, Event::PushDue { device: i, app_idx });
            }
        }
        id
    }

    /// Injects a fault into a *running* scenario — the step-injection
    /// seam the conformance DAG engine uses to race faults against
    /// in-flight protocol activity, instead of declaring the whole
    /// schedule up front in [`ScenarioConfig::faults`].
    ///
    /// The fault behaves exactly as if it had been in the plan from the
    /// start: it draws from the dedicated fault stream, never from the
    /// main RNG.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`Scenario::now`] (the engine cannot
    /// schedule into the past).
    pub fn inject_fault(&mut self, at: SimTime, kind: FaultKind) {
        let index = self.config.faults.append(at, kind);
        self.sim.schedule_at(at, Event::FaultDue { index });
    }

    /// Read-only view of one app's IM server — presence, refresh
    /// history and dedup counters for mid-run `expect` conditions.
    pub fn server(&self, app: AppId) -> Option<&ImServer> {
        self.servers.get(&app)
    }

    /// The typed telemetry events recorded so far: the whole stream
    /// with telemetry on, else just the trace (empty when both are off).
    pub fn events_so_far(&self) -> &[EventRecord] {
        self.telemetry.events.records()
    }

    /// Events currently pending in the engine queue — the backlog the
    /// wall-clock shard profiler samples between epochs.
    pub fn queue_depth(&self) -> usize {
        self.sim.pending()
    }

    /// Total events ever scheduled on this cell's engine (monotone);
    /// the profiler reads per-epoch deltas to estimate events/sec.
    pub fn events_scheduled(&self) -> u64 {
        self.sim.scheduled_total()
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::HeartbeatDue { device, app_idx } => self.on_heartbeat_due(now, device, app_idx),
            Event::FlushDeadline { device, generation } => {
                if self.devices[device].deadline_generation == generation {
                    // A deadline can outlive the condition that armed it:
                    // a capacity flush empties the buffer without bumping
                    // the generation, so the old event still fires. Forcing
                    // a flush here would fabricate a period-elapsed reason
                    // and record a phantom zero-size batch in the stats —
                    // skip the stale deadline and re-arm from the
                    // scheduler's real next deadline instead.
                    let due = self.devices[device]
                        .scheduler
                        .as_ref()
                        .and_then(|s| s.flush_due(now));
                    match due {
                        Some(reason) => self.flush_relay(now, device, reason),
                        None => {
                            let next = self.devices[device]
                                .scheduler
                                .as_ref()
                                .filter(|s| s.is_collecting())
                                .map(|s| s.next_deadline());
                            if let Some(next) = next {
                                let dev = &mut self.devices[device];
                                dev.deadline_generation += 1;
                                let generation = dev.deadline_generation;
                                self.sim.schedule_at(
                                    next.max(now),
                                    Event::FlushDeadline { device, generation },
                                );
                            }
                        }
                    }
                }
            }
            Event::FeedbackSweep { device } => self.on_feedback_sweep(now, device),
            Event::LinkReady { device } => self.on_link_ready(now, device),
            Event::PushDue { device, app_idx } => self.on_push_due(now, device, app_idx),
            Event::FaultDue { index } => self.on_fault(now, index),
            Event::OutageOver => self.drain_outage_queue(now),
            Event::RelayRejoin { device } => self.on_relay_rejoin(device),
            Event::DeliveryRetry { device } => self.on_delivery_retry(now, device),
        }
    }

    /// Whether the reliable-delivery layer is active for this run.
    fn reliable(&self) -> bool {
        self.config.reliable_delivery
    }

    /// Runs the per-step invariant pass: probes every device and feeds
    /// the checker. Pure observation — no RNG draws, no report changes.
    fn check_invariants(&mut self, now: SimTime) {
        for i in 0..self.devices.len() {
            if self.devices[i].migrated {
                continue; // husks own no protocol state to probe
            }
            let probe = {
                let dev = &self.devices[i];
                let online = dev.schedules.iter().all(|schedule| {
                    let app = schedule.app().id;
                    self.servers
                        .get(&app)
                        .map(|s| s.is_online(dev.id, app, now))
                        .unwrap_or(true)
                });
                DeviceProbe {
                    device: dev.id,
                    alive: dev.is_alive(),
                    buffered: dev.scheduler.as_ref().map(|s| s.collected()).unwrap_or(0),
                    capacity: dev
                        .scheduler
                        .as_ref()
                        .map(|s| s.capacity())
                        .unwrap_or(usize::MAX),
                    energy_uah: dev.meter.total().as_micro_amp_hours(),
                    battery_remaining_uah: dev.battery.map(|b| b.remaining().as_micro_amp_hours()),
                    rrc: dev.radio.state_at(now),
                    online,
                    offline_exempt: now < self.outage_grace_until,
                }
            };
            self.checker
                .check_device(now, i, &probe, self.telemetry.events.trace());
        }
    }

    /// Records a cellular-fallback decision against its cause, both in
    /// telemetry and on the heartbeat's span.
    fn note_fallback(&mut self, now: SimTime, device: usize, cause: &'static str, id: MessageId) {
        self.spans
            .annotate(id.raw(), span_us(now), "fallback", Some(cause), None, None);
        self.telemetry.record(
            now,
            TelemetryEvent::Fallback {
                device: self.devices[device].id.index(),
                cause,
                span: self.spans.is_enabled().then(|| id.raw()),
            },
        );
    }

    /// Closes `id`'s lifecycle span with a terminal outcome and feeds
    /// the latency/retry-depth histograms. The histograms belong to the
    /// span plane: they observe only when a span actually closes, so
    /// runs with spans off render byte-identical telemetry.
    fn close_span(&mut self, id: MessageId, at: SimTime, outcome: &'static str) {
        if let Some((latency_us, retries)) = self.spans.close(id.raw(), span_us(at), outcome) {
            self.telemetry.metrics.observe(
                &format!("hbr_delivery_latency_us{{outcome=\"{outcome}\"}}"),
                LATENCY_BUCKETS,
                latency_us as f64,
            );
            self.telemetry.metrics.observe(
                "hbr_retry_chain_depth",
                RETRY_DEPTH_BUCKETS,
                retries as f64,
            );
        }
    }

    /// Records a radio's RRC transitions (and the state-dwell and
    /// release metrics they imply) plus its new connections.
    fn record_radio(&mut self, device: usize, activity: &RadioActivity, new_connections: u32) {
        if !self.telemetry.is_enabled() {
            return;
        }
        if new_connections > 0 {
            self.telemetry
                .metrics
                .add("hbr_rrc_establish_total", new_connections as u64);
        }
        let id = self.devices[device].id.index();
        for t in &activity.transitions {
            self.telemetry.record(
                t.at,
                TelemetryEvent::RrcTransition {
                    device: id,
                    from: t.from.label(),
                    to: t.to.label(),
                    dwell_secs: t.dwell.as_secs_f64(),
                },
            );
        }
    }

    /// Applies the indexed [`FaultPlan`] entry.
    fn on_fault(&mut self, now: SimTime, index: usize) {
        let fault = self.config.faults.events()[index];
        self.telemetry.record(
            now,
            TelemetryEvent::FaultInjected {
                index,
                kind: fault.kind.label(),
                device: fault.kind.device().map(|d| d.index()),
            },
        );
        if let Some(target) = fault.kind.device() {
            if self.devices[target.index() as usize].migrated {
                // The target emigrated to another cell; there is nothing
                // here left to fault (mirrors the departed-relay no-op).
                return;
            }
        }
        match fault.kind {
            FaultKind::LinkDrop {
                device,
                d2d_down_for,
            } => {
                let idx = device.index() as usize;
                let until = now + d2d_down_for;
                let dev = &mut self.devices[idx];
                dev.d2d_down_until = dev.d2d_down_until.max(until);
                match self.devices[idx].role {
                    Role::Ue => self.drop_ue_link(now, idx),
                    Role::Relay => self.detach_all_members(now, idx),
                }
            }
            FaultKind::LinkDegrade {
                device,
                extra_loss,
                duration,
            } => {
                let idx = device.index() as usize;
                let dev = &mut self.devices[idx];
                dev.degraded_until = dev.degraded_until.max(now + duration);
                dev.degrade_loss = extra_loss.clamp(0.0, 1.0);
            }
            FaultKind::RelayDeparture {
                device,
                rejoin_after,
            } => {
                let idx = device.index() as usize;
                if self.devices[idx].role != Role::Relay || self.devices[idx].departed {
                    return;
                }
                self.devices[idx].departed = true;
                self.detach_all_members(now, idx);
                // Its collected batch leaves with it; the sources'
                // feedback timers rescue those heartbeats (§III-A).
                let dropped = self.devices[idx]
                    .scheduler
                    .as_mut()
                    .expect("relay has a scheduler")
                    .take_batch();
                if self.reliable() {
                    self.requeue_dropped_batch(now, idx, dropped, "relay-departed");
                }
                // The departed phone still keeps its *own* presence alive
                // over its cellular radio.
                let own = std::mem::take(&mut self.devices[idx].own_pending);
                for hb in own {
                    self.send_cellular(now, idx, hb);
                }
                if let Some(after) = rejoin_after {
                    self.sim
                        .schedule_at(now + after, Event::RelayRejoin { device: idx });
                }
            }
            FaultKind::DiscoveryBlackout { duration } => {
                self.blackout_until = self.blackout_until.max(now + duration);
            }
            FaultKind::CellularOutage { duration } => {
                self.outage_until = self.outage_until.max(now + duration);
                self.outage_grace_until = self
                    .outage_grace_until
                    .max(self.outage_until + self.max_expiration);
                self.sim.schedule_at(self.outage_until, Event::OutageOver);
            }
            FaultKind::PayloadLoss {
                device,
                probability,
                duration,
            } => {
                let idx = device.index() as usize;
                let dev = &mut self.devices[idx];
                dev.payload_loss_until = dev.payload_loss_until.max(now + duration);
                dev.payload_loss_p = probability.clamp(0.0, 1.0);
            }
            FaultKind::BoundaryChurn {
                device,
                half_span_m,
                speed_mps,
            } => {
                // Swap the device onto a shuttle walk oscillating across
                // the nearest cell boundary — the adversarial input for
                // the migration machinery (a population that crosses the
                // edge every few minutes). Without a topology the
                // corridor is anchored at the device's own x, which
                // still exercises the reflecting walk.
                let idx = device.index() as usize;
                self.field.advance_to(now, &mut self.rng);
                let Some(pos) = self
                    .field
                    .position(self.devices[device.index() as usize].id)
                else {
                    return;
                };
                let centre = self
                    .config
                    .topology
                    .and_then(|t| t.nearest_boundary_x(pos.x))
                    .unwrap_or(pos.x);
                let half = half_span_m.max(1.0);
                let corridor = Bounds::new(
                    Position::new((centre - half).max(0.0), pos.y),
                    Position::new(centre + half, pos.y),
                );
                let start = Position::new(pos.x.clamp(corridor.min.x, corridor.max.x), pos.y);
                self.field.insert(
                    self.devices[idx].id,
                    Mobility::linear_bounded(start, (speed_mps, 0.0), corridor).started_at(now),
                );
            }
        }
    }

    /// Reliable delivery does not discard a leaving relay's batch: each
    /// heartbeat is re-queued to its source for a backed-off retry that
    /// avoids the departed relay. Shared by the departure fault and
    /// cross-cell migration teardown (`cause` labels the span).
    fn requeue_dropped_batch(
        &mut self,
        now: SimTime,
        relay_idx: usize,
        dropped: Vec<Heartbeat>,
        cause: &'static str,
    ) {
        for hb in dropped {
            let src = hb.source.index() as usize;
            // The feedback deadline armed at forward time is now stale;
            // retract it so the sweep cannot double-rescue what this
            // path re-sends.
            self.devices[src].feedback.retract([hb.id]);
            if !self.devices[src].is_alive() {
                self.drop_dead(now, &hb);
                continue;
            }
            self.requeued += 1;
            self.spans.annotate(
                hb.id.raw(),
                span_us(now),
                "requeued",
                Some(cause),
                None,
                Some(self.devices[relay_idx].id.index()),
            );
            self.recover(now, src, hb, RetryReason::RelayDeparted, Some(relay_idx));
        }
    }

    /// Tears down a UE's attachment (fault path) and reroutes anything
    /// queued behind the link to cellular.
    fn drop_ue_link(&mut self, now: SimTime, device: usize) {
        if self.devices[device].attached_to.is_some() || self.devices[device].link.is_some() {
            self.detach_ue(device, now);
        }
        let pending = std::mem::take(&mut self.devices[device].pending_until_ready);
        for hb in pending {
            self.send_cellular(now, device, hb);
        }
    }

    /// Drops every member currently attached to a relay.
    fn detach_all_members(&mut self, now: SimTime, relay_idx: usize) {
        let members: Vec<usize> = (0..self.devices.len())
            .filter(|&i| self.devices[i].attached_to == Some(relay_idx))
            .collect();
        for member in members {
            self.drop_ue_link(now, member);
        }
    }

    fn on_relay_rejoin(&mut self, device: usize) {
        // Collection restarts at its next own heartbeat (begin_period).
        self.devices[device].departed = false;
    }

    /// Delivers everything a cellular outage queued, once it is over.
    fn drain_outage_queue(&mut self, now: SimTime) {
        if now < self.outage_until {
            return; // a longer overlapping outage superseded this one
        }
        let queued = std::mem::take(&mut self.outage_queue);
        for (device, hb) in queued {
            let src = hb.source.index() as usize;
            let relayed = src != device;
            if !self.devices[device].is_alive() {
                // Lost at a device that died during the outage. A relayed
                // copy still has the source's feedback timer as rescue;
                // the device's own heartbeat dies with it.
                if !relayed {
                    self.drop_dead(now, &hb);
                }
                continue;
            }
            self.spans.annotate(
                hb.id.raw(),
                span_us(now),
                "outage-drained",
                None,
                None,
                None,
            );
            if relayed {
                self.devices[src].delivery.feedback_confirmed([hb.id]);
                self.devices[src].feedback.on_delivered(vec![hb.id]);
                self.spans.annotate(
                    hb.id.raw(),
                    span_us(now),
                    "feedback-confirmed",
                    None,
                    None,
                    Some(self.devices[device].id.index()),
                );
            }
            self.send_cellular(now, device, hb);
        }
    }

    /// The server wants to push a message to this session. It only pages
    /// sessions whose expiration timer is alive; everything else is a
    /// missed push — the user-visible cost of a presence lapse.
    fn on_push_due(&mut self, now: SimTime, device: usize, app_idx: usize) {
        if self.devices[device].migrated {
            // The push chain dies with the husk; the destination cell
            // started a fresh one at admission.
            return;
        }
        let mean = self
            .config
            .push_interval
            .expect("push events only exist with an interval");
        let next = now + self.rng.exp_duration(mean);
        self.sim
            .schedule_at(next, Event::PushDue { device, app_idx });

        let app = self.devices[device].schedules[app_idx].app().id;
        let id = self.devices[device].id;
        let online = self
            .servers
            .get(&app)
            .map(|s| s.is_online(id, app, now))
            .unwrap_or(false);
        if !online || !self.devices[device].is_alive() || now < self.outage_until {
            self.pushes_missed += 1;
            return;
        }
        self.pushes_delivered += 1;
        let out = self.devices[device].radio.receive_paged(now, 512);
        self.apply_activity(device, &out.activity.segments);
        self.record_radio(device, &out.activity, out.rrc_connections);
        self.bs
            .record(self.devices[device].id, &out.activity, out.rrc_connections);
    }

    fn on_heartbeat_due(&mut self, now: SimTime, device: usize, app_idx: usize) {
        if self.devices[device].migrated {
            // The schedule emigrated with the device; its heartbeat
            // stream continues in the destination cell.
            return;
        }
        // Generate the heartbeat and schedule the next one.
        let (hb, next_at) = {
            let dev = &mut self.devices[device];
            let hb = dev.schedules[app_idx].next_heartbeat(&mut self.ids, &mut dev.rng);
            (hb, dev.schedules[app_idx].peek_next())
        };
        self.sim
            .schedule_at(next_at, Event::HeartbeatDue { device, app_idx });

        if !self.devices[device].is_alive() {
            return; // dead devices emit nothing
        }
        self.checker.on_emitted(&hb);
        self.generated += 1;
        self.spans
            .start(hb.id.raw(), self.devices[device].id.index(), span_us(now));
        if self.reliable() {
            self.devices[device].delivery.track(hb);
        }

        match (self.config.mode, self.devices[device].role) {
            (Mode::OriginalCellular, _) => self.send_cellular(now, device, hb),
            (Mode::D2dFramework, Role::Relay) => self.on_relay_own_heartbeat(now, device, hb),
            (Mode::D2dFramework, Role::Ue) => self.on_ue_heartbeat(now, device, hb),
        }
    }

    /// A relay's own heartbeat anchors its scheduling period (Fig. 3): it
    /// is *delayed* up to `T` and flushed together with the collected
    /// batch.
    fn on_relay_own_heartbeat(&mut self, now: SimTime, device: usize, hb: Heartbeat) {
        if self.devices[device].departed {
            // A departed relay aggregates nothing but still keeps its
            // own presence alive over its cellular radio.
            self.send_cellular(now, device, hb);
            return;
        }
        if !self.devices[device]
            .scheduler
            .as_ref()
            .expect("relay has a scheduler")
            .is_collecting()
            && !self.devices[device].own_pending.is_empty()
        {
            // Shouldn't happen (flush clears own_pending), defensive only.
            self.flush_relay(now, device, FlushReason::PeriodElapsed);
        }
        if !self.devices[device].own_pending.is_empty() {
            // Previous period never flushed (e.g. deadline still ahead but a
            // new own heartbeat arrived due to jitter): flush the old batch
            // first so periods never overlap.
            self.flush_relay(now, device, FlushReason::PeriodElapsed);
        }
        let dev = &mut self.devices[device];
        dev.own_pending.push(hb);
        let scheduler = dev.scheduler.as_mut().expect("relay has a scheduler");
        if !scheduler.is_collecting() {
            scheduler.begin_period(now);
        }
        let deadline = scheduler.next_deadline();
        dev.deadline_generation += 1;
        let generation = dev.deadline_generation;
        self.sim.schedule_at(
            deadline.max(now),
            Event::FlushDeadline { device, generation },
        );
    }

    /// Extra slack a UE requires beyond the relay's aggregation window
    /// before delegating a message (§VII's delay-tolerance constraint).
    const DELEGATION_CUSHION: SimDuration = SimDuration::from_secs(30);

    /// `true` if a message with this much remaining slack may be handed
    /// to a relay with the given aggregation period.
    fn delegation_allowed(&self, slack: SimDuration, relay_period: SimDuration) -> bool {
        !self.config.framework.delegation_slack_check
            || slack >= relay_period + Self::DELEGATION_CUSHION
    }

    fn on_ue_heartbeat(&mut self, now: SimTime, device: usize, hb: Heartbeat) {
        if now < self.devices[device].d2d_down_until {
            // Fault window: the D2D radio is down; everything rides the
            // cellular fallback until it recovers.
            if self.devices[device].attached_to.is_some() {
                self.detach_ue(device, now);
            }
            self.note_fallback(now, device, "d2d-down", hb.id);
            self.send_cellular(now, device, hb);
            return;
        }

        // Already attached with a live link?
        if let Some(relay_idx) = self.devices[device].attached_to {
            let relay_period = self.devices[relay_idx]
                .scheduler
                .as_ref()
                .map(|s| s.period())
                .unwrap_or(SimDuration::from_secs(270));
            if !self.delegation_allowed(hb.slack(now), relay_period) {
                // Not delay-tolerant enough for this relay's window: the
                // message takes the direct path; the attachment survives
                // for the device's other, slower classes.
                self.send_cellular(now, device, hb);
                return;
            }
            let link_ready = self.devices[device]
                .link
                .as_ref()
                .map(|l| l.is_ready(now))
                .unwrap_or(false);
            if link_ready && self.devices[relay_idx].is_alive() {
                self.forward_over_link(now, device, relay_idx, hb);
                return;
            }
            // Link establishing: queue behind it.
            if self.devices[device]
                .link
                .as_ref()
                .and_then(|l| l.ready_at())
                .is_some()
            {
                self.devices[device].pending_until_ready.push(hb);
                return;
            }
            // Link died or relay dead: detach and re-match below.
            self.detach_ue(device, now);
        }

        let slack = hb.slack(now);
        self.match_and_forward(now, device, hb, None, slack);
    }

    /// Matches `device` to a relay and forwards `hb`, or falls back to
    /// cellular. `slack` is the delay budget used to filter relay
    /// candidates: the full message slack on a first delivery, the
    /// tighter liveness budget on a reliable-layer redelivery.
    fn match_and_forward(
        &mut self,
        now: SimTime,
        device: usize,
        hb: Heartbeat,
        handover_from: Option<usize>,
        slack: SimDuration,
    ) {
        if now < self.blackout_until {
            // Discovery is dark: no rematching, but the cellular path
            // still carries the heartbeat (existing attachments are
            // unaffected — they skip this function entirely).
            self.note_fallback(now, device, "blackout", hb.id);
            self.send_cellular(now, device, hb);
            return;
        }
        self.field.advance_to(now, &mut self.rng);
        let Some(ue_pos) = self.field.position(self.devices[device].id) else {
            self.send_cellular(now, device, hb);
            return;
        };

        // Discover devices in radio range through the field's spatial
        // index — O(local density), not a scan over the whole world —
        // keeping only the relays, then build adverts from the live ones
        // whose aggregation window fits the message's slack (the
        // delegation policy). Only the kept relays are sorted: adverts
        // reach the detector in ascending id order, which fixes its RNG
        // draw order (and with it every seeded experiment). A handover
        // must avoid the relay that just failed this heartbeat.
        let mut relays: Vec<usize> = Vec::new();
        self.detector
            .visit_in_range(&self.field, self.devices[device].id, |id, _| {
                let i = id.index() as usize;
                if self.devices[i].role == Role::Relay && Some(i) != handover_from {
                    relays.push(i);
                }
            });
        relays.sort_unstable();
        let adverts: Vec<RelayAdvert> = relays
            .into_iter()
            .map(|i| &self.devices[i])
            .filter(|d| d.is_alive() && !d.departed && now >= d.d2d_down_until)
            .filter_map(|d| {
                let scheduler = d.scheduler.as_ref()?;
                let position = self.field.position(d.id)?;
                Some((
                    scheduler.period(),
                    RelayAdvert {
                        device: d.id,
                        free_capacity: scheduler.capacity().saturating_sub(scheduler.collected()),
                        go_intent: scheduler.go_intent(),
                        position,
                    },
                ))
            })
            .filter(|(period, _)| {
                !self.config.framework.delegation_slack_check
                    || slack >= *period + Self::DELEGATION_CUSHION
            })
            .map(|(_, advert)| advert)
            .collect();

        // The UE pays a discovery scan whenever it has to (re)match. Only
        // the relay that ends up matched pays its responder cost (the
        // beacon exchange of the pairing, Table III); idle relays answer
        // probe requests from their always-on listen state at negligible
        // marginal cost.
        let scan = self
            .config
            .stack
            .d2d
            .discovery(now, hbr_d2d::D2dRole::Initiator);
        self.apply_activity(device, &scan.segments);

        let expected_forwards = 8;
        let decision = {
            let dev_rng = &mut self.devices[device].rng;
            self.detector.match_relay(
                ue_pos,
                &adverts,
                expected_forwards,
                self.cellular_uah_per_hb,
                dev_rng,
            )
        };

        match decision {
            MatchDecision::UseRelay { relay, .. } => {
                let relay_idx = relay.index() as usize;
                let listen = self
                    .config
                    .stack
                    .d2d
                    .discovery(now, hbr_d2d::D2dRole::Responder);
                self.apply_activity(relay_idx, &listen.segments);
                let conn_start = scan.done_at;
                let ue_conn = self
                    .config
                    .stack
                    .d2d
                    .connection(conn_start, hbr_d2d::D2dRole::Initiator);
                let relay_conn = self
                    .config
                    .stack
                    .d2d
                    .connection(conn_start, hbr_d2d::D2dRole::Responder);
                let ready_at = ue_conn.done_at;
                self.apply_activity(device, &ue_conn.segments);
                self.apply_activity(relay_idx, &relay_conn.segments);
                self.telemetry.record(
                    now,
                    TelemetryEvent::RelayMatch {
                        device: self.devices[device].id.index(),
                        relay: self.devices[relay_idx].id.index(),
                    },
                );
                if let Some(from) = handover_from {
                    self.spans.annotate(
                        hb.id.raw(),
                        span_us(now),
                        "handover",
                        None,
                        None,
                        Some(self.devices[relay_idx].id.index()),
                    );
                    self.telemetry.record(
                        now,
                        TelemetryEvent::Handover {
                            device: self.devices[device].id.index(),
                            from_relay: self.devices[from].id.index(),
                            to_relay: self.devices[relay_idx].id.index(),
                        },
                    );
                }
                let dev = &mut self.devices[device];
                dev.attached_to = Some(relay_idx);
                dev.link = Some(D2dLink::establish_pending(ready_at));
                dev.pending_until_ready.push(hb);
                self.note_attached(device, relay_idx, ready_at);
                if self.telemetry.is_enabled() {
                    let fanin = self.devices[relay_idx].member_count;
                    self.telemetry.metrics.observe(
                        "hbr_relay_group_fanin",
                        SIZE_BUCKETS,
                        fanin as f64,
                    );
                }
                self.sim.schedule_at(ready_at, Event::LinkReady { device });
            }
            MatchDecision::DirectCellular(_) => {
                self.note_fallback(now, device, "no-relay", hb.id);
                self.send_cellular(now, device, hb);
            }
        }
    }

    fn on_link_ready(&mut self, now: SimTime, device: usize) {
        // A detach-and-rematch between scheduling and firing leaves this
        // event pointing at a *newer* link still in setup; its own
        // LinkReady is queued, so a stale event must not drain early.
        let still_establishing = self.devices[device]
            .link
            .as_ref()
            .and_then(|l| l.ready_at())
            .is_some_and(|at| at > now);
        if still_establishing {
            return;
        }
        let pending = std::mem::take(&mut self.devices[device].pending_until_ready);
        for hb in pending {
            // A failed forward can close the link and detach the UE
            // mid-batch, so re-check the attachment for every message.
            match (
                self.devices[device].attached_to,
                self.devices[device].link.is_some(),
            ) {
                (Some(relay_idx), true) => self.forward_over_link(now, device, relay_idx, hb),
                _ => self.send_cellular(now, device, hb),
            }
        }
    }

    fn forward_over_link(&mut self, now: SimTime, device: usize, relay_idx: usize, hb: Heartbeat) {
        self.field.advance_to(now, &mut self.rng);
        let distance = self
            .field
            .distance(self.devices[device].id, self.devices[relay_idx].id)
            .unwrap_or(f64::INFINITY);
        let relay_alive = self.devices[relay_idx].is_alive();

        let mut outcome = {
            let tech = &self.config.stack.d2d;
            let dev = &mut self.devices[device];
            let link = dev.link.as_mut().expect("attached UE has a link");
            // Interference fault window: raise (or restore) the link's
            // loss model. The healthy path makes the same single RNG
            // draw, so fault windows never shift the main streams.
            if now < dev.degraded_until {
                link.degrade(dev.degrade_loss);
            } else if link.extra_loss() > 0.0 {
                link.clear_degrade();
            }
            let mut outcome = link.transfer(tech, now, hb.size, distance, &mut dev.rng);
            if !relay_alive {
                // A dead relay never receives; the sender still paid.
                outcome.success = false;
                outcome.receiver.segments.clear();
            }
            outcome
        };

        // Payload-loss fault window: the extra draw comes from the
        // dedicated fault stream, which clean runs never consume.
        let mut payload_lost = false;
        if outcome.success && now < self.devices[device].payload_loss_until {
            let p = self.devices[device].payload_loss_p;
            if self.fault_rng.chance(p) {
                payload_lost = true;
                outcome.success = false;
                outcome.receiver.segments.clear();
            }
        }

        let relay_gid = self.devices[relay_idx].id.index();
        self.spans.annotate(
            hb.id.raw(),
            span_us(now),
            if outcome.success {
                "d2d-transfer"
            } else {
                "transfer-failed"
            },
            (!outcome.success).then_some(if payload_lost {
                "payload-lost"
            } else if !relay_alive {
                "relay-dead"
            } else {
                "link-failed"
            }),
            None,
            Some(relay_gid),
        );
        if self.telemetry.is_enabled() {
            self.telemetry.metrics.incr(&format!(
                "hbr_d2d_transfer_total{{result=\"{}\"}}",
                outcome.result_label()
            ));
        }
        let sender_segments = outcome.sender.segments.clone();
        self.apply_activity(device, &sender_segments);

        // Arm the fallback timer regardless of link-layer success: the UE
        // only learns the truth through delivery feedback (§III-A).
        let deadline = self.devices[device].feedback.on_forward(hb, now);
        self.spans.annotate(
            hb.id.raw(),
            span_us(now),
            "feedback-armed",
            None,
            None,
            Some(relay_gid),
        );
        self.sim
            .schedule_at(deadline, Event::FeedbackSweep { device });
        self.devices[device].forwards += 1;

        if !outcome.success {
            if matches!(
                self.devices[device].link.as_ref().map(|l| l.state()),
                Some(hbr_d2d::LinkState::Closed)
            ) {
                self.detach_ue(device, now);
            }
            if self.reliable() && !payload_lost {
                // The feedback deadline armed above would fire a one-shot
                // cellular rescue; retract it and run the backoff path
                // instead (the stale sweep event becomes a harmless
                // no-op). The same relay may be retried — a transfer
                // failure indicts the link, not the relay.
                //
                // A payload lost *in transit* is different: the sender's
                // link layer reported success, so it cannot observe the
                // loss — only the missing delivery feedback reveals it
                // (§III-A). The armed deadline stands and the sweep runs
                // the backoff path with the feedback-timeout reason.
                self.devices[device].feedback.retract([hb.id]);
                self.recover(now, device, hb, RetryReason::TransferFailed, None);
            }
            return;
        }

        self.apply_activity(relay_idx, &outcome.receiver.segments);
        let arrival = outcome.completed_at;
        let mut decision = self.devices[relay_idx]
            .scheduler
            .as_mut()
            .expect("relay has a scheduler")
            .on_arrival(arrival, hb);
        let (kind, cause) = match decision {
            ScheduleDecision::Rejected => ("relay-rejected", None),
            ScheduleDecision::Flush(reason) => ("batched", Some(reason.label())),
            ScheduleDecision::Pend => ("batched", None),
        };
        self.spans.annotate(
            hb.id.raw(),
            span_us(arrival),
            kind,
            cause,
            None,
            Some(relay_gid),
        );
        if self.config.mutation == Some(ChaosMutation::IgnoreCapacityFlush)
            && decision == ScheduleDecision::Flush(FlushReason::CapacityReached)
        {
            decision = ScheduleDecision::Pend;
        }
        self.devices[relay_idx].collected_total += 1;
        if decision != ScheduleDecision::Rejected {
            self.devices[device].delivery.d2d_acked(hb.id);
        }
        if self.telemetry.is_enabled() && decision != ScheduleDecision::Rejected {
            let occupancy = self.devices[relay_idx]
                .scheduler
                .as_ref()
                .map(|s| s.collected())
                .unwrap_or(0);
            self.telemetry.metrics.observe(
                "hbr_relay_buffer_occupancy",
                SIZE_BUCKETS,
                occupancy as f64,
            );
        }
        match decision {
            ScheduleDecision::Pend => {
                let dev = &mut self.devices[relay_idx];
                let deadline = dev
                    .scheduler
                    .as_ref()
                    .expect("relay has a scheduler")
                    .next_deadline();
                dev.deadline_generation += 1;
                let generation = dev.deadline_generation;
                self.sim.schedule_at(
                    deadline.max(arrival),
                    Event::FlushDeadline {
                        device: relay_idx,
                        generation,
                    },
                );
            }
            ScheduleDecision::Flush(reason) => self.flush_relay(arrival, relay_idx, reason),
            ScheduleDecision::Rejected => {
                // Relay is full or between flush and next period: the
                // heartbeat will be rescued by the UE's feedback timeout,
                // and the UE detaches so its next heartbeat re-matches to
                // a relay with free capacity (the goIntent-0 signal of
                // §IV-C).
                self.devices[relay_idx].collected_total -= 1;
                self.detach_ue(device, arrival);
            }
        }
    }

    fn flush_relay(&mut self, now: SimTime, device: usize, reason: FlushReason) {
        if !self.devices[device].is_alive() {
            return; // dead relays transmit nothing; UEs' timers rescue
        }
        let (batch, own) = {
            let dev = &mut self.devices[device];
            let scheduler = dev.scheduler.as_mut().expect("relay has a scheduler");
            let batch = scheduler.take_batch_at(now);
            let own = std::mem::take(&mut dev.own_pending);
            (batch, own)
        };
        if batch.is_empty() && own.is_empty() {
            return;
        }
        if now < self.outage_until {
            // The cell is down: the flush cannot leave the relay. Queue
            // every heartbeat for the post-outage drain (which also
            // confirms the sources' feedback then).
            self.telemetry.record(
                now,
                TelemetryEvent::Flush {
                    device: self.devices[device].id.index(),
                    reason: "outage-queued",
                    buffered: batch.len(),
                    own: own.len(),
                    bytes: batch.iter().chain(own.iter()).map(|h| h.size).sum(),
                },
            );
            let relay_gid = self.devices[device].id.index();
            for hb in batch.into_iter().chain(own) {
                self.spans.annotate(
                    hb.id.raw(),
                    span_us(now),
                    "outage-queued",
                    None,
                    None,
                    Some(relay_gid),
                );
                self.outage_queue.push((device, hb));
            }
            return;
        }
        let bytes: usize = batch.iter().chain(own.iter()).map(|h| h.size).sum();
        self.telemetry.record(
            now,
            TelemetryEvent::Flush {
                device: self.devices[device].id.index(),
                reason: reason.label(),
                buffered: batch.len(),
                own: own.len(),
                bytes,
            },
        );
        let out = {
            let dev = &mut self.devices[device];
            dev.radio.transmit(now, bytes)
        };
        self.apply_activity(device, &out.activity.segments);
        self.record_radio(device, &out.activity, out.rrc_connections);
        self.bs
            .record(self.devices[device].id, &out.activity, out.rrc_connections);

        let delivered_at = out.delivered_at;
        self.ledger
            .credit_forwards(self.devices[device].id, batch.len() as u64);

        // Deliver to the IM servers and send feedback to the source UEs.
        let relay_gid = self.devices[device].id.index();
        let mut by_source: BTreeMap<DeviceId, Vec<hbr_apps::MessageId>> = BTreeMap::new();
        for hb in batch.iter().chain(own.iter()) {
            self.spans.annotate(
                hb.id.raw(),
                span_us(now),
                "flushed",
                Some(reason.label()),
                None,
                Some(relay_gid),
            );
            if hb.source.index() as usize != device {
                // Feedback annotation must precede the close: an
                // annotate on a closed span is a no-op by design.
                self.spans.annotate(
                    hb.id.raw(),
                    span_us(delivered_at),
                    "feedback-confirmed",
                    None,
                    None,
                    Some(relay_gid),
                );
            }
            self.deliver(hb, delivered_at);
            by_source.entry(hb.source).or_default().push(hb.id);
        }
        for (source, ids) in by_source {
            let idx = source.index() as usize;
            if idx != device {
                self.devices[idx]
                    .delivery
                    .feedback_confirmed(ids.iter().copied());
                self.devices[idx].feedback.on_delivered(ids);
            }
        }
    }

    fn on_feedback_sweep(&mut self, now: SimTime, device: usize) {
        if self.reliable() {
            // A feedback miss means the relay failed us: detach, remember
            // the relay to avoid, and run the backoff/handover path
            // instead of the legacy one-shot cellular rescue.
            let due = self.devices[device].feedback.take_expired(now);
            for pending in due {
                let failed = self.devices[device].attached_to;
                if failed.is_some() {
                    self.detach_ue(device, now);
                }
                self.recover(
                    now,
                    device,
                    pending.heartbeat,
                    RetryReason::FeedbackTimeout,
                    failed,
                );
            }
            return;
        }
        let due = self.devices[device].feedback.expire_due(now);
        for pending in due {
            self.degrade_to_cellular(now, device, pending.heartbeat, "feedback-timeout");
        }
    }

    /// Exhausted (or inapplicable) D2D recovery: one cellular rescue,
    /// counted and labelled against its cause. This is the legacy
    /// feedback-timeout action, shared with the reliable layer's
    /// degrade path.
    fn degrade_to_cellular(
        &mut self,
        now: SimTime,
        device: usize,
        hb: Heartbeat,
        cause: &'static str,
    ) {
        self.devices[device].fallbacks += 1;
        self.note_fallback(now, device, cause, hb.id);
        self.send_cellular(now, device, hb);
    }

    /// Reliable-delivery recovery for one failed heartbeat: schedule a
    /// backed-off D2D retry while the expiration window still permits
    /// one, else degrade to the cellular fallback. When a specific relay
    /// failed us, remember it so the retry avoids it (handover).
    fn recover(
        &mut self,
        now: SimTime,
        device: usize,
        hb: Heartbeat,
        reason: RetryReason,
        failed_relay: Option<usize>,
    ) {
        if let Some(relay_idx) = failed_relay {
            let relay_id = self.devices[relay_idx].id;
            self.devices[device].delivery.relay_failed(hb.id, relay_id);
        }
        let delivery = &mut self.devices[device].delivery;
        let planned = delivery.plan_retry(
            hb.id,
            now,
            &self.backoff,
            FeedbackTracker::RESCUE_MARGIN,
            &mut self.retry_rng,
        );
        let attempt = delivery.entry(hb.id).map(|e| e.attempts);
        if let Some(attempt) = attempt {
            let kind = if planned.is_some() {
                "retry"
            } else {
                "retry-exhausted"
            };
            self.spans.annotate(
                hb.id.raw(),
                span_us(now),
                kind,
                Some(reason.label()),
                Some(attempt),
                None,
            );
        }
        match planned {
            Some(at) => {
                self.telemetry.record(
                    now,
                    TelemetryEvent::Retry {
                        device: self.devices[device].id.index(),
                        cause: reason.label(),
                        attempt: attempt.unwrap_or(0),
                    },
                );
                self.sim.schedule_at(at, Event::DeliveryRetry { device });
            }
            None => self.degrade_to_cellular(now, device, hb, "retry-exhausted"),
        }
    }

    /// A backoff timer fired: re-attempt everything due. Entries that
    /// advanced or retired since keep no timer, so stale events find
    /// nothing due and fall through harmlessly.
    fn on_delivery_retry(&mut self, now: SimTime, device: usize) {
        let due = self.devices[device].delivery.take_due(now);
        for hb in due {
            self.attempt_redelivery(now, device, hb);
        }
    }

    /// One D2D re-attempt for a heartbeat whose backoff expired: reuse a
    /// healthy attachment, else re-match — consuming the single handover
    /// credit when a specific relay failed us — else degrade to cellular.
    fn attempt_redelivery(&mut self, now: SimTime, device: usize, hb: Heartbeat) {
        if !self.devices[device].is_alive() {
            self.drop_dead(now, &hb);
            return;
        }
        if now < self.devices[device].d2d_down_until {
            self.degrade_to_cellular(now, device, hb, "d2d-down");
            return;
        }
        let failed = self.devices[device]
            .delivery
            .entry(hb.id)
            .and_then(|e| e.failed_relay);
        let failed_idx = failed.map(|id| id.index() as usize);
        // The failed first attempt already ate into the session's
        // refresh budget, so redelivery gates on the *liveness*
        // deadline, not message expiry: a message parked through
        // another full aggregation window could stretch the server's
        // refresh gap past its expiration window — reading as a dead
        // client — while staying individually fresh the whole time.
        let liveness_slack = hb.liveness_deadline().saturating_since(now);
        if let Some(relay_idx) = self.devices[device].attached_to {
            let relay_ok = failed_idx != Some(relay_idx)
                && self.devices[relay_idx].is_alive()
                && !self.devices[relay_idx].departed;
            let relay_period = self.devices[relay_idx]
                .scheduler
                .as_ref()
                .map(|s| s.period())
                .unwrap_or(SimDuration::from_secs(270));
            if relay_ok && !self.delegation_allowed(liveness_slack, relay_period) {
                self.degrade_to_cellular(now, device, hb, "retry-exhausted");
                return;
            }
            let link_ready = self.devices[device]
                .link
                .as_ref()
                .map(|l| l.is_ready(now))
                .unwrap_or(false);
            if relay_ok && link_ready {
                self.forward_over_link(now, device, relay_idx, hb);
                return;
            }
            // A healthy relay whose link is still establishing: queue
            // behind the setup like the primary path does — detaching
            // here would orphan the already-scheduled LinkReady event.
            if relay_ok
                && self.devices[device]
                    .link
                    .as_ref()
                    .and_then(|l| l.ready_at())
                    .is_some()
            {
                self.devices[device].pending_until_ready.push(hb);
                return;
            }
            self.detach_ue(device, now);
        }
        match failed_idx {
            Some(avoid) => {
                if self.devices[device].delivery.take_handover(hb.id, 1) {
                    self.match_and_forward(now, device, hb, Some(avoid), liveness_slack);
                } else {
                    self.degrade_to_cellular(now, device, hb, "retry-exhausted");
                }
            }
            None => self.match_and_forward(now, device, hb, None, liveness_slack),
        }
    }

    /// Plain cellular transmission of one heartbeat, shared by the
    /// baseline mode and every fallback path.
    fn send_cellular(&mut self, now: SimTime, device: usize, hb: Heartbeat) {
        if !self.devices[device].is_alive() {
            self.drop_dead(now, &hb);
            return;
        }
        if now < self.outage_until {
            // Cellular outage fault window: queue for the drain.
            self.spans
                .annotate(hb.id.raw(), span_us(now), "outage-queued", None, None, None);
            self.outage_queue.push((device, hb));
            return;
        }
        let out = self.devices[device].radio.transmit(now, hb.size);
        self.apply_activity(device, &out.activity.segments);
        self.record_radio(device, &out.activity, out.rrc_connections);
        self.bs
            .record(self.devices[device].id, &out.activity, out.rrc_connections);
        self.deliver(&hb, out.delivered_at);
    }

    /// Hands `hb` to its app's server at `at`, then records the verdict
    /// with the checker and the source's ledger and closes the span.
    fn deliver(&mut self, hb: &Heartbeat, at: SimTime) {
        let outcome = self
            .servers
            .get_mut(&hb.app)
            .expect("every heartbeat's app has a server")
            .deliver_observed(hb, at);
        let accepted = outcome == DeliveryOutcome::Accepted;
        self.checker
            .on_delivery(hb, at, accepted, self.telemetry.events.trace());
        let delivery = &mut self.devices[hb.source.index() as usize].delivery;
        if accepted {
            delivery.server_acked(hb.id);
        } else if !hb.is_fresh(at) {
            delivery.expired(hb.id);
        }
        self.close_span(hb.id, at, outcome.label());
    }

    /// The heartbeat dies with its source — the one legal way a message
    /// disappears: tell the checker and the ledger, so conservation
    /// holds, and close the span.
    fn drop_dead(&mut self, now: SimTime, hb: &Heartbeat) {
        self.checker.on_dropped_dead(hb);
        self.devices[hb.source.index() as usize]
            .delivery
            .dropped_dead(hb.id);
        self.close_span(hb.id, now, "dropped-dead");
    }

    /// Bills the D2D keep-alive a UE paid while attached, detaches it and
    /// updates the relay's group membership (billing the relay's share
    /// when its group empties).
    fn detach_ue(&mut self, device: usize, now: SimTime) {
        let relay_idx = self.devices[device].attached_to.take();
        let had_link = self.devices[device].link.take().is_some();
        if let Some(r) = relay_idx {
            self.telemetry.record(
                now,
                TelemetryEvent::RelayDepart {
                    device: self.devices[device].id.index(),
                    relay: self.devices[r].id.index(),
                },
            );
        }
        if self.config.bill_d2d_idle {
            if let Some(since) = self.devices[device].attached_since.take() {
                let idle = self.config.stack.d2d.idle(since, now.max(since));
                self.apply_activity(device, &idle.segments);
            }
            if had_link {
                let bye = self
                    .config
                    .stack
                    .d2d
                    .teardown(now, hbr_d2d::D2dRole::Initiator);
                self.apply_activity(device, &bye.segments);
            }
        } else {
            self.devices[device].attached_since = None;
        }
        if let Some(r) = relay_idx {
            let relay = &mut self.devices[r];
            relay.member_count = relay.member_count.saturating_sub(1);
            if relay.member_count == 0 {
                if let Some(since) = relay.group_idle_since.take() {
                    if self.config.bill_d2d_idle {
                        let idle = self.config.stack.d2d.idle(since, now.max(since));
                        self.apply_activity(r, &idle.segments);
                    }
                }
            }
        }
    }

    /// Marks a UE attached (link ready) for idle billing.
    fn note_attached(&mut self, device: usize, relay_idx: usize, ready_at: SimTime) {
        self.devices[device].attached_since = Some(ready_at);
        let relay = &mut self.devices[relay_idx];
        if relay.member_count == 0 {
            relay.group_idle_since = Some(ready_at);
        }
        relay.member_count += 1;
    }

    fn apply_activity(&mut self, device: usize, segments: &[(SimTime, Segment)]) {
        let dev = &mut self.devices[device];
        let mut charge = MicroAmpHours::ZERO;
        for (start, seg) in segments {
            dev.meter.add_segment(*start, *seg);
            charge += seg.charge();
        }
        if let Some(battery) = dev.battery.as_mut() {
            battery.drain(charge);
        }
    }

    fn finish(mut self, end: SimTime) -> ScenarioReport {
        // Conservation audit: every heartbeat the checker still has
        // in-flight must be parked in some legitimate buffer at the
        // horizon — anything else was silently lost. It runs before the
        // books close below, so a failure reports the run's own trace.
        if self.checker.enabled() {
            let mut surviving: HashSet<MessageId> = HashSet::new();
            for dev in &self.devices {
                if let Some(scheduler) = dev.scheduler.as_ref() {
                    surviving.extend(scheduler.buffered().map(|hb| hb.id));
                }
                surviving.extend(dev.own_pending.iter().map(|hb| hb.id));
                surviving.extend(dev.pending_until_ready.iter().map(|hb| hb.id));
                surviving.extend(dev.feedback.pending_ids());
                // Ledger entries awaiting a backoff timer live in no
                // other buffer — they are legitimately parked too.
                surviving.extend(dev.delivery.in_flight_ids());
            }
            surviving.extend(self.outage_queue.iter().map(|(_, hb)| hb.id));
            self.checker
                .on_finish(&surviving, self.telemetry.events.trace());
        }

        // Close the books on attachments still open at the horizon.
        if self.config.bill_d2d_idle {
            for i in 0..self.devices.len() {
                if self.devices[i].attached_to.is_some() {
                    if let Some(since) = self.devices[i].attached_since.take() {
                        let idle = self.config.stack.d2d.idle(since, end.max(since));
                        self.apply_activity(i, &idle.segments);
                    }
                }
                if let Some(since) = self.devices[i].group_idle_since.take() {
                    let idle = self.config.stack.d2d.idle(since, end.max(since));
                    self.apply_activity(i, &idle.segments);
                }
            }
        }
        // Drain radio tails. Husks were settled at their departure
        // barrier and own a fresh, never-driven radio — skip them.
        for i in 0..self.devices.len() {
            if self.devices[i].migrated {
                continue;
            }
            let tail = self.devices[i]
                .radio
                .finalize(end + SimDuration::from_secs(60));
            let id = self.devices[i].id;
            self.apply_activity(i, &tail.segments);
            self.record_radio(i, &tail, 0);
            self.bs.record(id, &tail, 0);
        }

        // Close the telemetry books: per-device per-group energy events
        // (stamped at the horizon, each adding to its group's energy
        // gauge) and the engine's step count — every event `run_until`
        // popped, each handled exactly once.
        if self.telemetry.is_enabled() {
            for i in 0..self.devices.len() {
                let id = self.devices[i].id.index();
                for (group, charge) in self.devices[i].meter.group_breakdown() {
                    self.telemetry.record(
                        end,
                        TelemetryEvent::EnergyPhase {
                            device: id,
                            group: group.label(),
                            uah: charge.as_micro_amp_hours(),
                        },
                    );
                }
            }
        }
        let steps = self.sim.scheduled_total() - self.sim.pending() as u64;
        if steps > 0 {
            self.telemetry.metrics.add("hbr_engine_steps_total", steps);
        }

        let mut delivered = 0;
        let mut rejected = 0;
        let mut duplicates = 0;
        let mut offline = 0.0;
        for server in self.servers.values() {
            delivered += server.delivered();
            rejected += server.rejected_expired();
            duplicates += server.duplicates();
        }
        let per_device_offline: Vec<f64> = self
            .devices
            .iter()
            .map(|dev| {
                dev.schedules
                    .iter()
                    .map(|schedule| {
                        let app = schedule.app().id;
                        self.servers
                            .get(&app)
                            .map(|server| {
                                server
                                    .offline_time(dev.id, app, SimTime::ZERO, end)
                                    .as_secs_f64()
                            })
                            .unwrap_or(0.0)
                    })
                    .sum()
            })
            .collect();
        offline += per_device_offline.iter().sum::<f64>();

        let devices: Vec<DeviceReport> = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| DeviceReport {
                device: d.id,
                role: d.role,
                energy_uah: d.meter.total().as_micro_amp_hours(),
                energy_by_group: d
                    .meter
                    .group_breakdown()
                    .into_iter()
                    .map(|(g, c)| (g, c.as_micro_amp_hours()))
                    .collect(),
                rrc_connections: d.radio.connections(),
                forwards: if d.role == Role::Relay {
                    d.collected_total
                } else {
                    d.forwards
                },
                fallbacks: d.fallbacks + d.feedback.fallbacks(),
                rewards: self.ledger.balance(d.id),
                offline_secs: per_device_offline[i],
                mean_batch_size: d
                    .scheduler
                    .as_ref()
                    .and_then(|s| s.stats().batch_sizes.mean()),
                mean_queueing_delay_secs: d
                    .scheduler
                    .as_ref()
                    .and_then(|s| s.stats().queueing_delay_secs.mean()),
                battery_depleted: d.battery.map(|b| b.is_depleted()).unwrap_or(false),
            })
            .collect();

        let total_energy_uah = devices.iter().map(|d| d.energy_uah).sum();
        let delivery = self.config.reliable_delivery.then(|| {
            // A session is *falsely* dead when the server let it lapse
            // while the device was alive the whole run — offline time of
            // devices that really died is legitimate, not an SLO miss.
            // (Conservative: a device that died at the horizon's edge
            // contributes nothing.)
            let false_dead_secs: f64 = self
                .devices
                .iter()
                .zip(per_device_offline.iter())
                .filter(|(d, _)| d.is_alive())
                .map(|(_, o)| *o)
                .sum();
            let mut report = DeliveryReport {
                generated: self.generated,
                requeued: self.requeued,
                false_dead_secs,
                ..DeliveryReport::default()
            };
            for d in &self.devices {
                let s = d.delivery.stats();
                report.delivered += s.delivered;
                report.expired += s.expired;
                report.dropped_dead += s.dropped_dead;
                report.retries += s.retries;
                report.handovers += s.handovers;
                report.in_flight += d.delivery.in_flight() as u64;
            }
            report
        });
        if self.telemetry.is_enabled() {
            if let Some(d) = &delivery {
                self.telemetry
                    .metrics
                    .add_gauge("hbr_false_dead_seconds", d.false_dead_secs);
                self.telemetry
                    .metrics
                    .add_gauge("hbr_delivery_ratio", d.ratio());
                self.telemetry
                    .metrics
                    .add_gauge("hbr_delivery_in_flight", d.in_flight as f64);
            }
        }
        // Lazy radio accounting records RRC transitions when they are
        // *observed*, which can trail the simulated instant they
        // happened at — a stable sort puts the stream (and the trace)
        // in causal order (and is deterministic: same recording order
        // in, same order out).
        let mut trace = self.telemetry.events.trace().to_vec();
        trace.sort_by_key(|r| r.time);
        let trace_dropped = self.telemetry.events.trace_dropped();
        let mut events = if self.config.telemetry {
            std::mem::take(&mut self.telemetry.events).into_records()
        } else {
            Vec::new()
        };
        events.sort_by_key(|r| r.time);
        let metrics = self.telemetry.metrics.snapshot();
        // Spans still open at the horizon are in flight, not lost: mark
        // them so the artifact distinguishes "never closed" from "bug".
        self.spans.finalize();
        ScenarioReport {
            devices,
            total_l3: self.bs.total_l3(),
            total_rrc: self.bs.rrc_connections(),
            delivered,
            rejected_expired: rejected,
            duplicates,
            offline_secs: offline,
            pushes_delivered: self.pushes_delivered,
            pushes_missed: self.pushes_missed,
            total_energy_uah,
            trace,
            trace_dropped,
            metrics,
            events,
            delivery,
            spans: self.spans,
            migrations: self.migrations,
            lte_handovers: self.lte_handovers,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore (see `hbr_sim::snapshot` for the format contract).
//
// A scenario snapshot captures every piece of dynamic state — the event
// queue, the devices (with live RNG stream positions), the field, the
// servers, the base station, the fault machinery and the observation
// channels — but *not* the config: restore takes the same config the
// run started from and refuses (via a fingerprint) one that differs.
// Config-derived state (the detector, `cellular_uah_per_hb`) is rebuilt
// rather than serialized. Taking a snapshot is pure observation: no RNG
// draws, no state changes, so a checkpointed run stays byte-identical
// to an uninterrupted one.
// ---------------------------------------------------------------------

snap_enum!(Role "role" { 0 => Relay, 1 => Ue });

snap_enum!(Mode "mode" { 0 => D2dFramework, 1 => OriginalCellular });

snap_enum!(Event "event" {
    0 => HeartbeatDue { device, app_idx },
    1 => FlushDeadline { device, generation },
    2 => FeedbackSweep { device },
    3 => LinkReady { device },
    4 => PushDue { device, app_idx },
    5 => FaultDue { index },
    6 => OutageOver,
    7 => RelayRejoin { device },
    8 => DeliveryRetry { device },
});

impl Device {
    /// Serializes the device. The radio config is not written — it
    /// comes from the scenario config on restore.
    fn snap_dyn(&self, w: &mut SnapshotWriter) {
        self.id.snap(w);
        self.role.snap(w);
        self.schedules.snap(w);
        self.radio.snap_dyn(w);
        self.meter.snap(w);
        self.battery.snap(w);
        self.rng.snap(w);
        self.scheduler.snap(w);
        self.own_pending.snap(w);
        w.put_u64(self.deadline_generation);
        w.put_u64(self.collected_total);
        self.attached_to.snap(w);
        self.link.snap(w);
        self.attached_since.snap(w);
        w.put_usize(self.member_count);
        self.group_idle_since.snap(w);
        self.feedback.snap(w);
        self.pending_until_ready.snap(w);
        self.delivery.snap(w);
        w.put_u64(self.forwards);
        w.put_u64(self.fallbacks);
        w.put_bool(self.departed);
        self.d2d_down_until.snap(w);
        self.degraded_until.snap(w);
        w.put_f64(self.degrade_loss);
        self.payload_loss_until.snap(w);
        w.put_f64(self.payload_loss_p);
        w.put_bool(self.migrated);
    }

    fn unsnap_dyn(cellular: &RrcConfig, r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let id = DeviceId::unsnap(r)?;
        let role = Role::unsnap(r)?;
        let schedules = Vec::unsnap(r)?;
        let radio = CellularRadio::unsnap_dyn(cellular.clone(), r)?;
        let meter = EnergyMeter::unsnap(r)?;
        let battery = Option::unsnap(r)?;
        let rng = SimRng::unsnap(r)?;
        let scheduler = Option::unsnap(r)?;
        let own_pending = Vec::unsnap(r)?;
        let deadline_generation = r.take_u64()?;
        let collected_total = r.take_u64()?;
        let attached_to = Option::unsnap(r)?;
        let link = Option::unsnap(r)?;
        let attached_since = Option::unsnap(r)?;
        let member_count = r.take_usize()?;
        let group_idle_since = Option::unsnap(r)?;
        let feedback = FeedbackTracker::unsnap(r)?;
        let pending_until_ready = Vec::unsnap(r)?;
        let delivery = DeliveryLedger::unsnap(r)?;
        let forwards = r.take_u64()?;
        let fallbacks = r.take_u64()?;
        let departed = r.take_bool()?;
        let d2d_down_until = SimTime::unsnap(r)?;
        let degraded_until = SimTime::unsnap(r)?;
        let degrade_loss = r.take_f64()?;
        let payload_loss_until = SimTime::unsnap(r)?;
        let payload_loss_p = r.take_f64()?;
        let migrated = r.take_bool()?;
        for (name, p) in [
            ("degrade loss", degrade_loss),
            ("payload loss", payload_loss_p),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(SnapshotError::Corrupt(format!("{name} {p}")));
            }
        }
        Ok(Device {
            id,
            role,
            schedules,
            radio,
            meter,
            battery,
            rng,
            scheduler,
            own_pending,
            deadline_generation,
            collected_total,
            attached_to,
            link,
            attached_since,
            member_count,
            group_idle_since,
            feedback,
            pending_until_ready,
            delivery,
            forwards,
            fallbacks,
            departed,
            d2d_down_until,
            degraded_until,
            degrade_loss,
            payload_loss_until,
            payload_loss_p,
            migrated,
        })
    }
}

/// FNV-1a over the `Debug` rendering of every config field that shapes a
/// run. `faults` is excluded on purpose: the snapshot carries the fault
/// plan itself (it may have grown via [`Scenario::inject_fault`]) and
/// restore overwrites the config's plan with the snapshot's. Streaming
/// the formatter through the hasher keeps 100k-device configs from
/// materialising a giant string.
fn config_fingerprint(config: &ScenarioConfig) -> u64 {
    use std::fmt::Write as _;
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(
        h,
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{}|{}|{:?}|{}|{}|{}|{:?}|{:?}|{:?}|{}",
        config.framework,
        config.stack,
        config.channel,
        config.mode,
        config.duration,
        config.seed,
        config.push_interval,
        config.trace_capacity,
        config.bill_d2d_idle,
        config.check_invariants,
        config.telemetry,
        config.reliable_delivery,
        config.spans,
        config.cell,
        config.topology,
        config.mutation,
        config.devices.len(),
    );
    for spec in &config.devices {
        let _ = write!(
            h,
            "|{:?}|{:?}|{:?}|{:?}",
            spec.role, spec.apps, spec.mobility, spec.battery_mah
        );
    }
    h.0
}

impl Scenario {
    /// Serializes the complete dynamic state of the scenario. Pure
    /// observation: no RNG draws, no state changes — checkpointing a
    /// run cannot perturb it.
    ///
    /// Valid at any quiescent point between events; the crowd engine
    /// takes snapshots at epoch barriers, after migration has settled,
    /// so no [`Migrant`] is ever in flight inside one.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::with_header(SCENARIO_MAGIC);
        w.put_u64(config_fingerprint(&self.config));
        self.snap_body(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a scenario from [`Scenario::snapshot`] bytes and the
    /// *same* config the snapshotted run was built from.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] if `config` differs from the
    /// one the snapshot was taken under; [`SnapshotError::BadMagic`] /
    /// [`SnapshotError::BadVersion`] / [`SnapshotError::Truncated`] /
    /// [`SnapshotError::Corrupt`] for damaged bytes. Never panics on
    /// malformed input and never returns a partially-restored world.
    pub fn restore(config: ScenarioConfig, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::with_header(bytes, SCENARIO_MAGIC)?;
        let found = r.take_u64()?;
        let expected = config_fingerprint(&config);
        if found != expected {
            return Err(SnapshotError::ConfigMismatch(format!(
                "snapshot taken under a different scenario config \
                 (fingerprint {found:#018x}, this config {expected:#018x})"
            )));
        }
        let mut world = Scenario::new(config);
        world.unsnap_body(&mut r)?;
        r.finish()?;
        Ok(world)
    }

    /// Body serialization, header- and fingerprint-less — shared by
    /// [`Scenario::snapshot`] and embedded whole (as a byte blob) in
    /// crowd-engine checkpoints.
    fn snap_body(&self, w: &mut SnapshotWriter) {
        self.sim.snap(w);
        w.put_u64(self.devices.len() as u64);
        for dev in &self.devices {
            dev.snap_dyn(w);
        }
        self.field.snap(w);
        self.servers.snap(w);
        self.bs.snap(w);
        self.ledger.snap(w);
        self.ids.snap(w);
        self.rng.snap(w);
        w.put_u64(self.pushes_delivered);
        w.put_u64(self.pushes_missed);
        self.fault_rng.snap(w);
        self.outage_until.snap(w);
        self.outage_grace_until.snap(w);
        self.blackout_until.snap(w);
        self.outage_queue.snap(w);
        self.max_expiration.snap(w);
        self.retry_rng.snap(w);
        self.backoff.snap(w);
        w.put_u64(self.generated);
        w.put_u64(self.requeued);
        w.put_u64(self.migrations);
        w.put_u64(self.lte_handovers);
        self.checker.snap(w);
        self.telemetry.snap(w);
        self.spans.snap(w);
        self.config.faults.snap(w);
    }

    /// Overwrites every piece of dynamic state from the reader. `self`
    /// must be a freshly-built scenario from the snapshotted config —
    /// config-derived state (detector, energy constants) is kept, all
    /// dynamic state is replaced.
    fn unsnap_body(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.sim = Simulation::unsnap(r)?;
        let n = r.take_u64()? as usize;
        if n > r.remaining() {
            return Err(SnapshotError::Corrupt(format!("device count {n}")));
        }
        let mut devices = Vec::with_capacity(n);
        for i in 0..n {
            let dev = Device::unsnap_dyn(&self.config.stack.cellular, r)?;
            if dev.id != DeviceId::new(i as u32) {
                return Err(SnapshotError::Corrupt(format!(
                    "device {i} carries id {}",
                    dev.id
                )));
            }
            devices.push(dev);
        }
        self.devices = devices;
        self.field = Field::unsnap(r)?;
        self.servers = BTreeMap::unsnap(r)?;
        self.bs = BaseStation::unsnap(r)?;
        self.ledger = RewardLedger::unsnap(r)?;
        self.ids = MessageIdGen::unsnap(r)?;
        self.rng = SimRng::unsnap(r)?;
        self.pushes_delivered = r.take_u64()?;
        self.pushes_missed = r.take_u64()?;
        self.fault_rng = SimRng::unsnap(r)?;
        self.outage_until = SimTime::unsnap(r)?;
        self.outage_grace_until = SimTime::unsnap(r)?;
        self.blackout_until = SimTime::unsnap(r)?;
        self.outage_queue = Vec::unsnap(r)?;
        self.max_expiration = SimDuration::unsnap(r)?;
        self.retry_rng = SimRng::unsnap(r)?;
        self.backoff = BackoffPolicy::unsnap(r)?;
        self.generated = r.take_u64()?;
        self.requeued = r.take_u64()?;
        self.migrations = r.take_u64()?;
        self.lte_handovers = r.take_u64()?;
        self.checker = InvariantChecker::unsnap(r)?;
        self.telemetry = Telemetry::unsnap(r)?;
        self.spans = SpanRecorder::unsnap(r)?;
        self.config.faults = FaultPlan::unsnap(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_mobility::Position;

    fn spec(role: Role, x: f64) -> DeviceSpec {
        DeviceSpec {
            role,
            apps: vec![AppProfile::wechat()],
            mobility: Mobility::stationary(Position::new(x, 0.0)),
            battery_mah: None,
        }
    }

    fn basic_config(mode: Mode) -> ScenarioConfig {
        let mut config = ScenarioConfig::new(SimDuration::from_secs(3 * 3600), 42);
        config.mode = mode;
        config.add_device(spec(Role::Relay, 0.0));
        config.add_device(spec(Role::Ue, 1.0));
        config.add_device(spec(Role::Ue, 2.0));
        config
    }

    /// A config that exercises every snapshot field: observation
    /// channels on, reliable delivery, pushes, traces and faults.
    fn loaded_config() -> ScenarioConfig {
        let mut config = basic_config(Mode::D2dFramework);
        config.telemetry = true;
        config.spans = true;
        config.reliable_delivery = true;
        config.trace_capacity = 64;
        config.push_interval = Some(SimDuration::from_secs(1800));
        config.faults.schedule(
            SimTime::from_secs(2000),
            FaultKind::CellularOutage {
                duration: SimDuration::from_secs(120),
            },
        );
        config.faults.schedule(
            SimTime::from_secs(3000),
            FaultKind::LinkDrop {
                device: DeviceId::new(1),
                d2d_down_for: SimDuration::from_secs(300),
            },
        );
        config
    }

    #[test]
    fn a_device_holds_one_copy_of_each_fact() {
        // Every phone pays these bytes, a million times in the 1 M hour.
        // The apps live in the schedules and the D2D profile in the
        // scenario config; neither is copied into the device.
        let device = std::mem::size_of::<Device>();
        assert!(device <= 840, "Device is {device} B");
        let link = std::mem::size_of::<Option<D2dLink>>();
        assert!(link <= 24, "Option<D2dLink> is {link} B");
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical_to_uninterrupted_run() {
        // The loaded config, and the same run with the bounded trace as
        // its only recorder: the tail must survive the round trip too.
        let mut trace_only = loaded_config();
        trace_only.telemetry = false;
        trace_only.spans = false;
        for config in [loaded_config(), trace_only] {
            let straight = Scenario::new(config.clone()).run();

            let mut first = Scenario::new(config.clone());
            first.run_until(SimTime::from_secs(2500));
            let snap = first.snapshot();
            first.run_until(SimTime::ZERO + config.duration);
            let interrupted = first.complete();

            let mut resumed = Scenario::restore(config.clone(), &snap).expect("restore");
            resumed.run_until(SimTime::ZERO + config.duration);
            let restored = resumed.complete();

            assert!(!straight.trace.is_empty() && straight.trace_dropped > 0);
            let a = format!("{straight:?}");
            assert_eq!(a, format!("{interrupted:?}"), "run_until must not perturb");
            assert_eq!(a, format!("{restored:?}"), "restore must not perturb");
        }
    }

    #[test]
    fn snapshot_is_pure_observation() {
        let config = loaded_config();
        let mut observed = Scenario::new(config.clone());
        observed.run_until(SimTime::from_secs(1000));
        let s1 = observed.snapshot();
        let s2 = observed.snapshot();
        assert_eq!(s1, s2, "snapshotting twice must read the same state");
        observed.run_until(SimTime::ZERO + config.duration);
        let a = Scenario::new(config).run();
        assert_eq!(format!("{a:?}"), format!("{:?}", observed.complete()));
    }

    #[test]
    fn restore_refuses_a_different_config() {
        let config = loaded_config();
        let mut s = Scenario::new(config.clone());
        s.run_until(SimTime::from_secs(1000));
        let snap = s.snapshot();
        let mut other = config;
        other.seed = 43;
        match Scenario::restore(other, &snap) {
            Err(SnapshotError::ConfigMismatch(_)) => {}
            Err(other) => panic!("expected ConfigMismatch, got {other:?}"),
            Ok(_) => panic!("expected ConfigMismatch, restore succeeded"),
        }
    }

    #[test]
    fn corrupt_and_truncated_snapshots_are_typed_errors_not_panics() {
        let config = loaded_config();
        let mut s = Scenario::new(config.clone());
        s.run_until(SimTime::from_secs(1000));
        let snap = s.snapshot();

        // Truncation at every prefix of the header plus a few body cuts.
        for cut in [0, 4, 8, 11, 12, 20, snap.len() / 2, snap.len() - 1] {
            assert!(
                Scenario::restore(config.clone(), &snap[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        // Flip one byte at a time across a sample of offsets; every
        // outcome must be Ok or a typed error, never a panic.
        for at in (12..snap.len()).step_by(97) {
            let mut bad = snap.clone();
            bad[at] ^= 0xff;
            let _ = Scenario::restore(config.clone(), &bad);
        }

        // Wrong magic is BadMagic, stale version is BadVersion.
        let mut bad = snap.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Scenario::restore(config.clone(), &bad),
            Err(SnapshotError::BadMagic)
        ));
        let mut old = snap;
        old[8] = 0xfe;
        assert!(matches!(
            Scenario::restore(config, &old),
            Err(SnapshotError::BadVersion { .. })
        ));
    }

    #[test]
    fn framework_beats_baseline_on_signaling_and_energy() {
        let fw = Scenario::new(basic_config(Mode::D2dFramework)).run();
        let base = Scenario::new(basic_config(Mode::OriginalCellular)).run();
        assert!(
            fw.total_l3 < base.total_l3 / 2,
            "framework {} vs baseline {} L3 messages",
            fw.total_l3,
            base.total_l3
        );
        assert!(fw.total_energy_uah < base.total_energy_uah);
        assert!(fw.total_rrc < base.total_rrc);
    }

    #[test]
    fn presence_never_lapses_under_the_framework() {
        let report = Scenario::new(basic_config(Mode::D2dFramework)).run();
        assert_eq!(report.rejected_expired, 0, "no heartbeat may expire");
        assert_eq!(
            report.offline_secs, 0.0,
            "no session may ever appear offline"
        );
        assert_eq!(report.duplicates, 0, "feedback must prevent double sends");
        assert!(report.delivered > 0);
    }

    #[test]
    fn relay_earns_rewards_for_forwards() {
        let report = Scenario::new(basic_config(Mode::D2dFramework)).run();
        let relay = &report.devices[0];
        assert_eq!(relay.role, Role::Relay);
        assert!(relay.rewards > 0);
        // Heartbeats still buffered at the horizon are collected but not
        // yet credited, so rewards can trail forwards slightly.
        assert!(relay.rewards <= relay.forwards);
        assert!(relay.rewards + 2 >= relay.forwards);
    }

    #[test]
    fn dead_relay_triggers_fallbacks_without_losing_presence() {
        let mut config = basic_config(Mode::D2dFramework);
        // A relay with a tiny battery dies early in the scenario.
        config.devices[0].battery_mah = Some(2.0);
        let report = Scenario::new(config).run();
        let relay = &report.devices[0];
        assert!(relay.battery_depleted, "relay should exhaust its battery");
        let ue_fallbacks: u64 = report.devices[1..].iter().map(|d| d.fallbacks).sum();
        assert!(ue_fallbacks > 0, "UEs must rescue their heartbeats");
        // The dead relay itself is legitimately offline, but the UEs'
        // fallback path must keep *their* presence alive.
        for ue in &report.devices[1..] {
            assert_eq!(ue.offline_secs, 0.0, "{} lapsed", ue.device);
        }
    }

    #[test]
    fn out_of_range_ue_uses_cellular() {
        let mut config = ScenarioConfig::new(SimDuration::from_secs(2 * 3600), 7);
        config.add_device(spec(Role::Relay, 0.0));
        // 60 m away: in Wi-Fi Direct range but beyond the 15 m match limit.
        config.add_device(spec(Role::Ue, 60.0));
        let report = Scenario::new(config).run();
        let ue = &report.devices[1];
        assert_eq!(ue.forwards, 0, "no D2D forwards at 60 m");
        assert!(ue.rrc_connections > 0, "heartbeats flow over cellular");
        assert_eq!(report.offline_secs, 0.0);
    }

    #[test]
    fn stale_flush_deadline_is_skipped_not_fabricated() {
        // A capacity flush empties the buffer without bumping the
        // deadline generation, so the previously armed FlushDeadline
        // still fires — with nothing due. It must be skipped: forcing a
        // flush there records a phantom zero-size batch that drags the
        // relay's mean batch size below what it really sent. With a
        // capacity of 2 and two chatty UEs in range, every real flush
        // carries a full batch, so any phantom shows up in the mean.
        let mut config = ScenarioConfig::new(SimDuration::from_secs(3 * 3600), 42);
        config.mode = Mode::D2dFramework;
        config.framework.relay_capacity = 2;
        config.add_device(spec(Role::Relay, 0.0));
        config.add_device(spec(Role::Ue, 1.0));
        config.add_device(spec(Role::Ue, 2.0));
        let report = Scenario::new(config).run();
        let relay = &report.devices[0];
        let mean = relay
            .mean_batch_size
            .expect("the relay must flush something");
        assert!(
            mean > 1.5,
            "phantom zero-size batches dragged the mean batch size to {mean}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Scenario::new(basic_config(Mode::D2dFramework)).run();
        let b = Scenario::new(basic_config(Mode::D2dFramework)).run();
        assert_eq!(a.total_l3, b.total_l3);
        assert_eq!(a.delivered, b.delivered);
        assert!((a.total_energy_uah - b.total_energy_uah).abs() < 1e-9);
    }

    #[test]
    fn spans_conserve_heartbeats_and_mirror_the_delivery_ledger() {
        let mut config = basic_config(Mode::D2dFramework);
        config.reliable_delivery = true;
        config.telemetry = true;
        config.spans = true;
        // A relay with a tiny battery dies mid-run, exercising the
        // retry/fallback/dropped-dead span paths.
        config.devices[0].battery_mah = Some(2.0);
        let report = Scenario::new(config).run();
        let d = report.delivery.expect("reliable run reports delivery");
        let by = |label: &str| {
            report
                .spans
                .spans()
                .iter()
                .filter(|s| s.outcome == Some(label))
                .count() as u64
        };
        // Every generated heartbeat has exactly one span, and every
        // span closed with the same terminal outcome the ledger
        // recorded — the observability plane cannot invent or lose
        // messages (the span-level delivery_audit mirror).
        assert_eq!(report.spans.len() as u64, d.generated);
        assert_eq!(by("accepted"), d.delivered);
        assert_eq!(by("expired"), d.expired);
        assert_eq!(by("dropped-dead"), d.dropped_dead);
        assert_eq!(by("in-flight"), d.in_flight);
        let retry_events = report
            .spans
            .spans()
            .iter()
            .flat_map(|s| s.events.iter())
            .filter(|e| e.kind == "retry")
            .count() as u64;
        assert_eq!(retry_events, d.retries);
        // The latency histograms fire once per closed span.
        let closed: u64 = d.delivered + d.expired + d.dropped_dead;
        let observed: u64 = report
            .metrics
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("hbr_delivery_latency_us"))
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(observed, closed);
    }

    #[test]
    fn spans_are_pure_observation() {
        let mut with_spans = basic_config(Mode::D2dFramework);
        with_spans.reliable_delivery = true;
        with_spans.spans = true;
        let mut without = with_spans.clone();
        without.spans = false;
        let a = Scenario::new(with_spans).run();
        let b = Scenario::new(without).run();
        assert!(!a.spans.is_empty());
        assert!(b.spans.is_empty());
        assert_eq!(a.total_l3, b.total_l3);
        assert_eq!(a.total_rrc, b.total_rrc);
        assert_eq!(a.delivered, b.delivered);
        assert!((a.total_energy_uah - b.total_energy_uah).abs() < 1e-9);
    }

    #[test]
    fn pushes_reach_online_sessions_and_skip_dead_ones() {
        let mut config = basic_config(Mode::D2dFramework);
        config.push_interval = Some(SimDuration::from_secs(1200));
        // One UE dies early: its pushes must be missed, the others' not.
        config.devices[2].battery_mah = Some(0.5);
        let report = Scenario::new(config).run();
        assert!(report.pushes_delivered > 0, "healthy sessions get pushes");
        assert!(
            report.pushes_missed > 0,
            "the dead UE's session must miss pushes"
        );
        let dead = &report.devices[2];
        assert!(dead.battery_depleted);
        assert!(dead.offline_secs > 0.0);
    }

    #[test]
    fn trace_captures_the_story_in_order() {
        let mut config = basic_config(Mode::D2dFramework);
        config.trace_capacity = 10_000;
        let report = Scenario::new(config).run();
        assert!(!report.trace.is_empty());
        assert!(
            report.events.is_empty(),
            "the trace alone turns no telemetry on"
        );
        // Ordered by time.
        for w in report.trace.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // The story contains attachments and flushes, as typed records.
        assert!(report.trace.iter().any(|r| r.event.kind() == "match"));
        assert!(report.trace.iter().any(|r| r.event.kind() == "flush"));
        assert!(report.trace[0].to_jsonl().starts_with("{\"t_us\":"));

        // With telemetry on too, the trace is the event stream's tail.
        let mut config = basic_config(Mode::D2dFramework);
        config.trace_capacity = 10;
        config.telemetry = true;
        let report = Scenario::new(config).run();
        assert_eq!(report.trace.len(), 10);
        assert_eq!(
            report.trace_dropped as usize + 10,
            report.events.len(),
            "every event is either traced or counted as dropped"
        );
    }

    #[test]
    fn idle_billing_adds_energy_but_framework_still_wins() {
        let honest = Scenario::new(basic_config(Mode::D2dFramework)).run();
        let mut paper_bench = basic_config(Mode::D2dFramework);
        paper_bench.bill_d2d_idle = false;
        let unbilled = Scenario::new(paper_bench).run();
        assert!(
            honest.total_energy_uah > unbilled.total_energy_uah,
            "keep-alive billing must cost something: {} vs {}",
            honest.total_energy_uah,
            unbilled.total_energy_uah
        );
        let base = Scenario::new(basic_config(Mode::OriginalCellular)).run();
        assert!(
            honest.total_energy_uah < base.total_energy_uah,
            "the framework must win even with honest idle accounting"
        );
    }

    #[test]
    fn trace_is_off_by_default() {
        let report = Scenario::new(basic_config(Mode::D2dFramework)).run();
        assert!(report.trace.is_empty());
    }

    #[test]
    fn pushes_disabled_by_default() {
        let report = Scenario::new(basic_config(Mode::D2dFramework)).run();
        assert_eq!(report.pushes_delivered, 0);
        assert_eq!(report.pushes_missed, 0);
    }

    #[test]
    fn telemetry_is_pure_observation_and_captures_the_story() {
        let plain = Scenario::new(basic_config(Mode::D2dFramework)).run();
        assert!(plain.metrics.is_empty(), "telemetry is off by default");
        assert!(plain.events.is_empty());

        let mut config = basic_config(Mode::D2dFramework);
        config.telemetry = true;
        let instrumented = Scenario::new(config).run();
        assert_eq!(
            plain.render(),
            instrumented.render(),
            "enabling telemetry must not perturb the run"
        );

        let m = &instrumented.metrics;
        let flushes: u64 = m
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("hbr_flush_total"))
            .map(|(_, v)| v)
            .sum();
        assert!(flushes > 0, "a 3 h framework run flushes");
        assert!(m.counter("hbr_rrc_establish_total") > 0);
        assert!(m.counter("hbr_rrc_release_total") > 0);
        assert!(m
            .histograms
            .contains_key("hbr_rrc_dwell_seconds{state=\"dch\"}"));
        assert!(m.histograms.contains_key("hbr_relay_batch_size"));
        assert!(m.histograms.contains_key("hbr_relay_buffer_occupancy"));
        assert!(m.gauges.keys().any(|k| k.starts_with("hbr_energy_uah")));
        assert!(m.counter("hbr_engine_steps_total") > 0);

        for w in instrumented.events.windows(2) {
            assert!(w[0].time <= w[1].time, "events must be time-sorted");
        }
        for kind in ["flush", "match", "rrc", "energy"] {
            assert!(
                instrumented.events.iter().any(|e| e.event.kind() == kind),
                "missing {kind} events"
            );
        }

        let mut config2 = basic_config(Mode::D2dFramework);
        config2.telemetry = true;
        let again = Scenario::new(config2).run();
        assert_eq!(
            again.metrics.to_json(),
            instrumented.metrics.to_json(),
            "metrics snapshots are byte-identical run to run"
        );
        let lines = |evs: &[hbr_sim::telemetry::EventRecord]| {
            evs.iter()
                .map(|e| e.to_jsonl())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(lines(&again.events), lines(&instrumented.events));
    }

    #[test]
    fn reliable_delivery_accounts_exactly_once_and_saves_signaling() {
        let legacy = Scenario::new(basic_config(Mode::D2dFramework)).run();
        assert!(legacy.delivery.is_none(), "legacy runs carry no ledger");
        let mut config = basic_config(Mode::D2dFramework);
        config.reliable_delivery = true;
        let reliable = Scenario::new(config).run();
        // Presence and dedup invariants hold with the retry layer on.
        assert_eq!(reliable.offline_secs, 0.0);
        assert_eq!(reliable.duplicates, 0);
        assert_eq!(reliable.rejected_expired, 0);
        // Feedback misses that legacy rescued over cellular are retried
        // over D2D instead, which can only reduce signaling load.
        assert!(
            reliable.total_l3 <= legacy.total_l3,
            "retries must not add L3 traffic: {} vs {}",
            reliable.total_l3,
            legacy.total_l3
        );
        let d = reliable.delivery.expect("reliable runs report delivery");
        assert_eq!(d.expired, 0);
        assert_eq!(d.dropped_dead, 0);
        assert_eq!(d.requeued, 0, "nothing departs in a fault-free run");
        assert_eq!(
            d.delivered + d.in_flight,
            d.generated,
            "every generated heartbeat must end in exactly one terminal state"
        );
        assert!((d.ratio() - 1.0).abs() < 1e-12);
        assert_eq!(d.false_dead_secs, 0.0);
        // Determinism is unchanged by the retry RNG stream.
        let mut config2 = basic_config(Mode::D2dFramework);
        config2.reliable_delivery = true;
        let again = Scenario::new(config2).run();
        assert_eq!(reliable.render(), again.render());
    }

    #[test]
    fn relay_departure_requeues_its_buffered_batch_exactly_once() {
        // Regression: a member's feedback deadline armed before the
        // relay departs used to survive the detach; when the sweep later
        // fired on the stale entry it re-sent a heartbeat the re-queue
        // path had already recovered, and the server counted a
        // duplicate. The departure arm must retract pending feedback
        // before recovering the batch.
        use hbr_sim::fault::FaultKind;
        let mut config = basic_config(Mode::D2dFramework);
        config.reliable_delivery = true;
        // Several departure/rejoin cycles at varying phases of the
        // 270 s heartbeat period so at least one lands while the relay
        // still buffers forwarded heartbeats.
        for at in [1700u64, 2905, 4110, 5315] {
            config.faults.schedule(
                SimTime::from_secs(at),
                FaultKind::RelayDeparture {
                    device: hbr_sim::DeviceId::new(0),
                    rejoin_after: Some(SimDuration::from_secs(400)),
                },
            );
        }
        let report = Scenario::new(config).run();
        let d = report.delivery.as_ref().expect("reliable run");
        assert!(
            d.requeued > 0,
            "a departing relay's buffered batch must be re-queued, not dropped"
        );
        assert_eq!(
            report.duplicates, 0,
            "a stale feedback deadline double-sent a re-queued heartbeat"
        );
        assert_eq!(report.offline_secs, 0.0, "no session may lapse");
        assert_eq!(d.false_dead_secs, 0.0);
    }

    #[test]
    fn baseline_mode_never_uses_d2d() {
        let report = Scenario::new(basic_config(Mode::OriginalCellular)).run();
        for dev in &report.devices {
            let d2d: f64 = dev
                .energy_by_group
                .iter()
                .filter(|(g, _)| {
                    matches!(
                        g,
                        PhaseGroup::Discovery | PhaseGroup::Connection | PhaseGroup::Forwarding
                    )
                })
                .map(|(_, e)| e)
                .sum();
            assert_eq!(d2d, 0.0, "baseline device {} used D2D", dev.device);
        }
    }
}
