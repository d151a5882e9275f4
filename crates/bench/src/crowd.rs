//! The sharded crowd engine: one `Scenario` per base-station cell,
//! stepped in epoch lockstep across worker threads, merged into a
//! single fleet report that is **byte-identical at any shard count**.
//!
//! A single [`Scenario`] is one event queue on one core, which caps
//! `hbr crowd` far below the million-phone populations the paper's
//! city-scale framing implies. This module partitions the fleet by
//! *cell* — a fixed spatial rule that depends only on the deployment
//! area, never on the shard count — and gives every cell its own
//! engine:
//!
//! - its own event queue (a private [`Scenario`]),
//! - its own RNG stream, seeded [`derive_seed`]`(seed, cell_index)` so
//!   no cell ever observes randomness consumed by another (the same
//!   splitmix64 discipline the sweep harness established),
//! - its own telemetry registry and event log,
//! - its own slice of the deployment field (only its devices).
//!
//! Shards are *worker threads over cells*: `--shards S` spreads the
//! cells across `S` threads that advance in lockstep through a fixed
//! number of epoch barriers. At each barrier every cell publishes an
//! [`EpochPulse`] (its cross-shard "message"); one thread folds the
//! pulses **in cell order** into a fleet-level digest, recorded as a
//! `FleetPulse` telemetry event and `hbr_fleet_*` gauges. Because the
//! partition, the per-cell seeds and the fold order are all functions
//! of the scenario alone, the merged report, metrics snapshot and
//! event stream cannot depend on how many threads carried the cells.
//!
//! Determinism rules, in one place:
//!
//! 1. cell membership = initial position on a fixed grid (`area` only);
//! 2. cell seed = `derive_seed(scenario_seed, cell_index)`;
//! 3. every fold — pulses, device rows, metrics, events, traces, spans —
//!    runs in ascending cell order; each cell remaps and sorts its own
//!    records on its worker, and the fold merges those sorted runs with
//!    ties in cell order, the same order as a stable sort of their
//!    concatenation;
//! 4. nothing a worker computes ever feeds back into another cell's
//!    dynamics mid-epoch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;

use hbr_core::fleet::FleetBuilder;
use hbr_core::world::{
    cell_at, CellTopology, DeviceReport, DeviceSpec, EpochPulse, Migrant, Mode, Scenario,
    ScenarioConfig, ScenarioReport,
};
use hbr_sim::fault::FaultPlan;
use hbr_sim::signal;
use hbr_sim::snapshot::{
    write_atomic, Snap, SnapshotError, SnapshotReader, SnapshotWriter, CROWD_MAGIC, FORMAT_VERSION,
};
use hbr_sim::spans::SpanRecorder;
use hbr_sim::telemetry::{merge_sorted_runs, Telemetry, TelemetryEvent};
use hbr_sim::{snap_struct, DeviceId, SimDuration, SimTime};

use crate::profile::{CrowdProfile, Profiler};
use crate::sweep::{derive_seed, sweep_threads};

/// Nominal base-station cell side: the fleet is partitioned on a
/// `ceil(area / 100 m)`² grid. The default 40 m crowd area stays a
/// single cell (identical topology to the unsharded engine); a
/// city-scale kilometre square becomes a 10×10 grid of cells.
pub const NOMINAL_CELL_SIDE_M: f64 = 100.0;

/// Epoch barriers per run. Fixed — the barrier schedule is part of the
/// deterministic contract, so it must not depend on shards or cores.
pub const EPOCHS: u64 = 8;

/// Everything `hbr crowd` needs to run one mode through the sharded
/// engine.
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// Total phones in the fleet.
    pub phones: usize,
    /// Volunteer relays among them.
    pub relays: usize,
    /// Scenario length in hours.
    pub hours: u64,
    /// Deployment area side, metres.
    pub area_side_m: f64,
    /// Scenario seed (per-cell engines derive their streams from it).
    pub seed: u64,
    /// Mean minutes between mobile-terminated pushes (0 disables).
    pub push_mins: u64,
    /// Which system to run.
    pub mode: Mode,
    /// Deterministic fault schedule; global faults reach every cell,
    /// device-targeted faults are routed to the owning cell.
    pub faults: FaultPlan,
    /// Per-cell trace capacity: each cell keeps its newest this-many
    /// typed events (0 disables tracing).
    pub trace_capacity: usize,
    /// Record metrics and events.
    pub telemetry: bool,
    /// Run the reliable-delivery layer in every cell (see
    /// [`hbr_core::delivery`]). Crowd runs default this on — the fleet
    /// digest is never pinned across releases, and the delivery SLO is
    /// what chaos runs are judged on.
    pub reliable: bool,
    /// Record per-heartbeat lifecycle spans in every cell (see
    /// [`hbr_sim::spans`]); merged cell-order like events, so the span
    /// artifact is byte-identical at any shard count.
    pub spans: bool,
    /// Worker threads ([`None`] = auto: sweep threads capped by the
    /// cell count).
    pub shards: Option<usize>,
    /// Real cross-cell roaming: devices that walk out of their cell
    /// migrate to the destination cell at the next epoch barrier
    /// (deterministic manifests, LTE handover accounting) instead of
    /// being pinned to their home cell forever. Off by default — the
    /// pinned-home partition is the pre-roaming contract and keeps
    /// older golden artifacts byte-identical.
    pub roam: bool,
}

/// Cells per axis for a deployment area.
pub fn cell_grid(area_side_m: f64) -> usize {
    ((area_side_m / NOMINAL_CELL_SIDE_M).ceil() as usize).max(1)
}

/// The shard count an unspecified `--shards` resolves to: the sweep
/// harness's thread count (`RAYON_NUM_THREADS` / `HBR_THREADS` /
/// available parallelism), capped by the number of populated cells.
pub fn auto_shards(cells: usize) -> usize {
    sweep_threads().clamp(1, cells.max(1))
}

/// One populated cell: its engine, and the map from cell-local device
/// indices back to fleet-global ones.
struct Cell {
    scenario: Option<Scenario>,
    report: Option<ScenarioReport>,
    global_ids: Vec<u32>,
}

/// A cell's staged checkpoint contribution — its fleet-global id map
/// plus its serialized scenario snapshot — once the worker has
/// serialized it for the barrier leader.
type StagedCell = Option<(Vec<u32>, Vec<u8>)>;

/// The `hbr serve` per-epoch emission hook: called by the barrier
/// leader with the 1-based epoch number and the fleet-folded pulse.
pub type EpochHook<'a> = &'a (dyn Fn(u64, &EpochPulse) + Sync);

/// Knobs that shape how a crowd run *executes* without changing what it
/// computes: checkpointing, crash injection, signal handling, the
/// per-epoch observation callback and the wall-clock profiler.
/// Everything here is pure observation or process control — a run with
/// checkpoints enabled produces byte-identical artifacts to one without.
pub struct RunControls<'a> {
    /// Write epoch-barrier checkpoints into this directory
    /// (`epoch-N.ckpt` + `MANIFEST.json`). [`None`] disables
    /// checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint at every Nth epoch barrier (values `0` and `1` both
    /// mean every barrier). The final barrier, an interrupt and a
    /// scheduled crash always checkpoint regardless.
    pub checkpoint_every: u64,
    /// Deterministic kill: after the checkpoint at this epoch barrier
    /// (1-based) hits disk, die via SIGKILL with no flushing — the
    /// `crash@EPOCH` fault the kill-resume harness drives.
    pub crash_after_epoch: Option<u64>,
    /// Honor SIGINT/SIGTERM (armed via [`signal::install`]): finish the
    /// current epoch, write a final checkpoint if a directory is
    /// configured, and return early with `truncated = true`.
    pub heed_signals: bool,
    /// Called by the barrier leader after each epoch fold with the
    /// 1-based epoch number and the fleet-folded pulse — the `hbr
    /// serve` emission hook. Must not touch scenario state.
    pub on_epoch: Option<EpochHook<'a>>,
    /// Attach the wall-clock shard profiler; the outcome then carries
    /// its [`CrowdProfile`].
    pub profile: bool,
}

impl Default for RunControls<'_> {
    fn default() -> Self {
        RunControls {
            checkpoint_dir: None,
            checkpoint_every: 1,
            crash_after_epoch: None,
            heed_signals: false,
            on_epoch: None,
            profile: false,
        }
    }
}

/// What a controlled crowd run hands back.
pub struct CrowdOutcome {
    /// The merged fleet report (partial if `truncated`).
    pub report: ScenarioReport,
    /// Epoch barriers fully completed (== [`EPOCHS`] for a full run).
    pub epochs_done: u64,
    /// `true` if the run stopped early on SIGINT/SIGTERM.
    pub truncated: bool,
    /// The wall-clock profile, when [`RunControls::profile`] asked for
    /// one. Host-time and **not** deterministic.
    pub profile: Option<CrowdProfile>,
}

/// Runs one crowd mode through the sharded engine and merges the
/// per-cell results into a single fleet report. The output is a pure
/// function of the config — the shard count only chooses how many
/// threads carry the cells.
pub fn run_crowd(config: &CrowdConfig) -> ScenarioReport {
    run_crowd_inner(config, &RunControls::default(), None).report
}

/// [`run_crowd`] under explicit [`RunControls`]: checkpointing, crash
/// injection, graceful-interrupt handling, per-epoch emission and
/// profiling.
pub fn run_crowd_controlled(config: &CrowdConfig, controls: &RunControls<'_>) -> CrowdOutcome {
    run_crowd_inner(config, controls, None)
}

/// [`run_crowd`] with the wall-clock shard profiler attached: same
/// deterministic report, plus a [`CrowdProfile`] of per-cell step
/// costs, barrier stalls and queue depths. The profile is host-time
/// and **not** deterministic — keep it out of anything golden-pinned.
pub fn run_crowd_profiled(config: &CrowdConfig) -> (ScenarioReport, CrowdProfile) {
    let controls = RunControls {
        profile: true,
        ..RunControls::default()
    };
    let outcome = run_crowd_inner(config, &controls, None);
    (
        outcome.report,
        outcome.profile.expect("the run was profiled"),
    )
}

/// One cell's blueprint: the scenario config the cell engine is (or
/// was) built from, plus the fleet-global ids of its initial members.
/// A pure function of the [`CrowdConfig`] — resume rebuilds the same
/// setups and restores each cell's dynamic state into them.
fn cell_setups(config: &CrowdConfig, duration: SimDuration) -> Vec<(ScenarioConfig, Vec<u32>)> {
    let fleet = FleetBuilder::new(config.phones, config.relays)
        .area_side_m(config.area_side_m)
        .build(config.seed);
    let k = cell_grid(config.area_side_m);

    // Partition rule: a device lives in the cell its *initial* position
    // falls in, forever (home-cell D2D; wanderers that stray simply fail
    // range checks and fall back to cellular, same as strangers in the
    // unsharded engine). Membership depends only on (fleet, area).
    let homes: Vec<usize> = fleet
        .iter()
        .map(|spec| {
            let p = spec.mobility.position();
            cell_at(config.area_side_m, k, p.x, p.y)
        })
        .collect();
    let mut members: BTreeMap<usize, Vec<(usize, &DeviceSpec)>> = BTreeMap::new();
    for (i, spec) in fleet.iter().enumerate() {
        members.entry(homes[i]).or_default().push((i, spec));
    }

    // Cell configs, in cell order. Pinned-home runs only materialise
    // populated cells; roaming runs materialise the whole k×k grid,
    // because an empty border cell is still a legitimate migration
    // target.
    let cell_indices: Vec<usize> = if config.roam {
        (0..k * k).collect()
    } else {
        members.keys().copied().collect()
    };
    let no_members: Vec<(usize, &DeviceSpec)> = Vec::new();
    let mut setups = Vec::with_capacity(cell_indices.len());
    for &cell_index in &cell_indices {
        let devices = members.get(&cell_index).unwrap_or(&no_members);
        let mut cell_config = ScenarioConfig::new(duration, derive_seed(config.seed, cell_index));
        cell_config.mode = config.mode;
        cell_config.trace_capacity = config.trace_capacity;
        cell_config.telemetry = config.telemetry;
        cell_config.reliable_delivery = config.reliable;
        cell_config.spans = config.spans;
        // Stamp provenance so an invariant panic inside this cell names
        // the (seed, cell) pair that reproduces it in isolation.
        cell_config.cell = Some(cell_index);
        if config.roam {
            cell_config.topology = Some(CellTopology {
                area_side_m: config.area_side_m,
                grid: k,
                cell: cell_index,
            });
        }
        if config.push_mins > 0 {
            cell_config.push_interval = Some(SimDuration::from_secs(config.push_mins * 60));
        }
        // Route the fault plan: global faults are broadcast to every
        // cell (each reports its own injection), device-targeted faults
        // go to the owning cell with the id translated to cell-local.
        // Targets outside the fleet are dropped.
        let local_of: BTreeMap<usize, u32> = devices
            .iter()
            .enumerate()
            .map(|(local, (global, _))| (*global, local as u32))
            .collect();
        for event in config.faults.events() {
            let kind = match event.kind.device() {
                None => Some(event.kind),
                Some(target) => {
                    let global = target.index() as usize;
                    if homes.get(global) == Some(&cell_index) {
                        Some(retarget(event.kind, DeviceId::new(local_of[&global])))
                    } else {
                        None
                    }
                }
            };
            if let Some(kind) = kind {
                cell_config.faults.schedule(event.at, kind);
            }
        }
        let mut global_ids = Vec::with_capacity(devices.len());
        for (global, spec) in devices {
            global_ids.push(*global as u32);
            cell_config.add_device((*spec).clone());
        }
        setups.push((cell_config, global_ids));
    }
    setups
}

/// Restored mid-run state a resumed crowd picks up from.
struct ResumeState {
    epochs_done: u64,
    cells: Vec<Cell>,
    fleet: Telemetry,
}

/// The sharded run behind every public entry point. A profiled run's
/// clock starts before the cells are built, and its profile carries the
/// cell and shard counts this run actually used.
fn run_crowd_inner(
    config: &CrowdConfig,
    controls: &RunControls<'_>,
    resume: Option<ResumeState>,
) -> CrowdOutcome {
    let profiler = controls.profile.then(Profiler::new);
    let profiling = profiler.as_ref();
    let duration = SimDuration::from_secs(config.hours * 3600);
    let (start_epoch, mut cells, fleet_init) = match resume {
        Some(state) => (state.epochs_done, state.cells, state.fleet),
        None => {
            let cells = cell_setups(config, duration)
                .into_iter()
                .map(|(cell_config, global_ids)| Cell {
                    scenario: Some(Scenario::new(cell_config)),
                    report: None,
                    global_ids,
                })
                .collect();
            (0, cells, Telemetry::new(config.telemetry, 0))
        }
    };

    let cell_count = cells.len();
    let shards = config
        .shards
        .unwrap_or_else(|| auto_shards(cell_count))
        .clamp(1, cell_count.max(1));

    // Epoch boundaries on the microsecond grid — integer math (widened
    // so city-scale horizons cannot overflow), so every shard count
    // sees the exact same barrier times; the last lands on the horizon.
    let total_us = duration.as_micros();
    let boundaries: Vec<SimTime> = (1..=EPOCHS)
        .map(|e| {
            let us = (u128::from(total_us) * u128::from(e) / u128::from(EPOCHS)) as u64;
            SimTime::ZERO + SimDuration::from_micros(us)
        })
        .collect();

    let pulses: Mutex<Vec<EpochPulse>> = Mutex::new(vec![EpochPulse::default(); cell_count]);
    let fleet_log = Mutex::new(fleet_init);
    // Set once by the barrier leader (between the two epoch barriers)
    // when an interrupt arrives; read by every worker after the second
    // barrier, so all of them agree on stopping at the same epoch.
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(start_epoch);
    // Per-cell snapshot staging for checkpoint barriers: each worker
    // serializes its own cells, the leader assembles and writes.
    let staged: Mutex<Vec<StagedCell>> = Mutex::new((0..cell_count).map(|_| None).collect());
    // Per-epoch migration manifests, indexed by *source* cell. Each
    // entry pairs a migrant with the fleet-global id its source cell
    // knows it by (the destination appends it to its own id map on
    // admission). Filled between run_until and the first barrier,
    // drained — in ascending source-cell order — before the second, so
    // an epoch's manifests can never mix with the next epoch's.
    let manifests: Mutex<Vec<Vec<(u32, Migrant)>>> =
        Mutex::new((0..cell_count).map(|_| Vec::new()).collect());

    // Contiguous chunks of cells per worker; the chunk layout only
    // affects which thread runs a cell, never the cell's behaviour.
    // The barrier must match the worker count, which ceil-division can
    // leave below the requested shard count.
    let chunk = cell_count.div_ceil(shards);
    let workers = cell_count.div_ceil(chunk);
    let barrier = Barrier::new(workers);
    thread::scope(|scope| {
        for (chunk_index, worker_cells) in cells.chunks_mut(chunk).enumerate() {
            let base = chunk_index * chunk;
            let pulses = &pulses;
            let fleet_log = &fleet_log;
            let barrier = &barrier;
            let boundaries = &boundaries;
            let manifests = &manifests;
            let roam = config.roam;
            let stop = &stop;
            let completed = &completed;
            let staged = &staged;
            scope.spawn(move || {
                // Per-epoch deltas of the engine's monotone scheduled
                // counter give the profiler its events/sec numerator.
                let mut last_events = vec![0u64; worker_cells.len()];
                for (epoch, &limit) in boundaries.iter().enumerate().skip(start_epoch as usize) {
                    for (offset, cell) in worker_cells.iter_mut().enumerate() {
                        let scenario = cell.scenario.as_mut().expect("cell still running");
                        let step_start = profiling.map(|p| p.elapsed_us());
                        scenario.run_until(limit);
                        if let (Some(p), Some(start)) = (profiling, step_start) {
                            let total = scenario.events_scheduled();
                            let delta = total - last_events[offset];
                            last_events[offset] = total;
                            p.record_cell(
                                epoch as u32,
                                base + offset,
                                chunk_index,
                                start,
                                p.elapsed_us().saturating_sub(start),
                                scenario.queue_depth(),
                                delta,
                            );
                        }
                        if roam {
                            let migrants = scenario.emigrate(limit);
                            if !migrants.is_empty() {
                                let mut published = manifests.lock().expect("manifest lock");
                                for migrant in migrants {
                                    let global = cell.global_ids[migrant.source_index() as usize];
                                    published[base + offset].push((global, migrant));
                                }
                            }
                        }
                        pulses.lock().expect("pulse lock")[base + offset] = scenario.pulse();
                    }
                    let stall_start = profiling.map(|p| p.elapsed_us());
                    let folded = barrier.wait().is_leader();
                    if let (Some(p), Some(start)) = (profiling, stall_start) {
                        p.record_stall(
                            epoch as u32,
                            chunk_index,
                            start,
                            p.elapsed_us().saturating_sub(start),
                        );
                    }
                    if folded {
                        let snapshot = pulses.lock().expect("pulse lock").clone();
                        let mut fleet = EpochPulse::default();
                        for pulse in &snapshot {
                            fleet.absorb(pulse);
                        }
                        // The leader alone samples the interrupt flag,
                        // between the barriers, so every worker later
                        // reads one agreed-upon verdict for this epoch.
                        if controls.heed_signals && signal::interrupted() {
                            stop.store(true, Ordering::SeqCst);
                        }
                        if let Some(on_epoch) = controls.on_epoch {
                            on_epoch(epoch as u64 + 1, &fleet);
                        }
                        fleet_log.lock().expect("fleet lock").record(
                            limit,
                            TelemetryEvent::FleetPulse {
                                epoch: epoch as u32,
                                cells: snapshot.len() as u32,
                                forwards: fleet.forwards,
                                fallbacks: fleet.fallbacks,
                                outage_queued: fleet.outage_queued,
                                l3: fleet.l3,
                                delivered: fleet.delivered,
                                retries: fleet.retries,
                                migrations: roam.then_some(fleet.migrations),
                                lte_handovers: roam.then_some(fleet.lte_handovers),
                            },
                        );
                    }
                    // Apply this epoch's migration manifests to the
                    // cells this worker carries: scan source cells in
                    // ascending order (every worker scans the same way,
                    // so admission order — and thus the new local ids —
                    // is a pure function of the scenario), extract the
                    // migrants bound for an owned cell, and admit them
                    // at the barrier instant.
                    if roam {
                        let mut incoming: Vec<(usize, Vec<u32>, Vec<Migrant>)> = Vec::new();
                        {
                            let mut published = manifests.lock().expect("manifest lock");
                            for (offset, _) in worker_cells.iter().enumerate() {
                                let dest = base + offset;
                                let mut ids = Vec::new();
                                let mut migrants = Vec::new();
                                for bucket in published.iter_mut() {
                                    let mut i = 0;
                                    while i < bucket.len() {
                                        if bucket[i].1.to_cell() == dest {
                                            let (global, migrant) = bucket.remove(i);
                                            ids.push(global);
                                            migrants.push(migrant);
                                        } else {
                                            i += 1;
                                        }
                                    }
                                }
                                if !migrants.is_empty() {
                                    incoming.push((offset, ids, migrants));
                                }
                            }
                        }
                        for (offset, ids, migrants) in incoming {
                            let cell = &mut worker_cells[offset];
                            let scenario = cell.scenario.as_mut().expect("cell still running");
                            scenario.immigrate(migrants, limit);
                            cell.global_ids.extend(ids);
                        }
                    }
                    // Second barrier: nobody starts the next epoch until
                    // the fold has read this epoch's pulses and every
                    // manifest has been drained.
                    barrier.wait();
                    let done = epoch as u64 + 1;
                    completed.store(done, Ordering::SeqCst);
                    let stopping = stop.load(Ordering::SeqCst);

                    // Checkpoint barrier. Every worker evaluates the
                    // same predicate over shared state, so barrier
                    // counts always agree. Snapshots are pure
                    // observation — a checkpointing run stays
                    // byte-identical to one without.
                    let every = controls.checkpoint_every.max(1);
                    let crash_now = controls.crash_after_epoch == Some(done);
                    let want_checkpoint = controls.checkpoint_dir.is_some()
                        && (done.is_multiple_of(every) || done == EPOCHS || stopping || crash_now);
                    if want_checkpoint {
                        {
                            let mut slots = staged.lock().expect("staging lock");
                            for (offset, cell) in worker_cells.iter().enumerate() {
                                let scenario = cell.scenario.as_ref().expect("cell still running");
                                slots[base + offset] =
                                    Some((cell.global_ids.clone(), scenario.snapshot()));
                            }
                        }
                        let writer = barrier.wait().is_leader();
                        if writer {
                            let dir = controls
                                .checkpoint_dir
                                .as_deref()
                                .expect("checkpoint dir gated above");
                            let blobs: Vec<(Vec<u32>, Vec<u8>)> = staged
                                .lock()
                                .expect("staging lock")
                                .iter_mut()
                                .map(|slot| slot.take().expect("every cell staged"))
                                .collect();
                            let log = fleet_log.lock().expect("fleet lock");
                            if let Err(err) = write_checkpoint(dir, config, done, &blobs, &log) {
                                eprintln!("warning: checkpoint at epoch {done} failed: {err}");
                            }
                            if crash_now {
                                // Die exactly like kill -9, right after
                                // the checkpoint hit disk: the whole
                                // point of the kill-resume harness.
                                signal::hard_abort();
                            }
                        }
                        // Nobody races ahead while the file is written.
                        barrier.wait();
                    } else if crash_now {
                        // crash@EPOCH with no checkpoint directory:
                        // still die hard (a test may resume from an
                        // earlier checkpoint or assert artifact loss).
                        let killer = barrier.wait().is_leader();
                        if killer {
                            signal::hard_abort();
                        }
                        barrier.wait();
                    }
                    if stopping {
                        break;
                    }
                }
                for cell in worker_cells.iter_mut() {
                    let scenario = cell.scenario.take().expect("cell still running");
                    let mut report = scenario.complete();
                    to_fleet_order(&mut report, &cell.global_ids);
                    cell.report = Some(report);
                }
            });
        }
    });

    let fleet_log = fleet_log.into_inner().expect("fleet lock");
    CrowdOutcome {
        report: merge_reports(cells, fleet_log),
        epochs_done: completed.load(Ordering::SeqCst),
        truncated: stop.load(Ordering::SeqCst),
        profile: profiler.map(|p| p.finish(config.phones, cell_count, shards, EPOCHS)),
    }
}

/// Retargets a device-scoped fault at a cell-local id.
fn retarget(kind: hbr_sim::fault::FaultKind, local: DeviceId) -> hbr_sim::fault::FaultKind {
    use hbr_sim::fault::FaultKind::*;
    match kind {
        LinkDrop { d2d_down_for, .. } => LinkDrop {
            device: local,
            d2d_down_for,
        },
        LinkDegrade {
            extra_loss,
            duration,
            ..
        } => LinkDegrade {
            device: local,
            extra_loss,
            duration,
        },
        RelayDeparture { rejoin_after, .. } => RelayDeparture {
            device: local,
            rejoin_after,
        },
        PayloadLoss {
            probability,
            duration,
            ..
        } => PayloadLoss {
            device: local,
            probability,
            duration,
        },
        BoundaryChurn {
            half_span_m,
            speed_mps,
            ..
        } => BoundaryChurn {
            device: local,
            half_span_m,
            speed_mps,
        },
        global @ (CellularOutage { .. } | DiscoveryBlackout { .. }) => global,
    }
}

/// Folds the finished cells (in cell order) plus the fleet log into one
/// report shaped exactly like an unsharded [`ScenarioReport`].
fn merge_reports(cells: Vec<Cell>, fleet_log: Telemetry) -> ScenarioReport {
    let mut reports: Vec<(Vec<u32>, ScenarioReport)> = cells
        .into_iter()
        .map(|c| (c.global_ids, c.report.expect("cell finished")))
        .collect();

    let fleet_snapshot = fleet_log.metrics.snapshot();
    let metrics = crate::merge_snapshots(
        reports
            .iter()
            .map(|(_, r)| &r.metrics)
            .chain(std::iter::once(&fleet_snapshot)),
    );

    let mut merged = ScenarioReport {
        devices: Vec::new(),
        total_l3: 0,
        total_rrc: 0,
        delivered: 0,
        rejected_expired: 0,
        duplicates: 0,
        offline_secs: 0.0,
        pushes_delivered: 0,
        pushes_missed: 0,
        total_energy_uah: 0.0,
        trace: Vec::new(),
        trace_dropped: 0,
        metrics,
        events: Vec::new(),
        delivery: None,
        spans: SpanRecorder::disabled(),
        migrations: 0,
        lte_handovers: 0,
    };

    // A roaming device leaves one row per cell it lived in: the counters
    // it earned there (its husk) plus the row from its final residence.
    // Coalesce by fleet-global id — the fold runs in cell order, so the
    // result is shard-count-invariant. Without roaming every id appears
    // exactly once and this is the old straight append.
    let mut rows: BTreeMap<u32, DeviceReport> = BTreeMap::new();
    let (mut events, mut traces, mut spans) = (Vec::new(), Vec::new(), Vec::new());

    for (global_ids, report) in &mut reports {
        merged.total_l3 += report.total_l3;
        merged.total_rrc += report.total_rrc;
        merged.delivered += report.delivered;
        merged.rejected_expired += report.rejected_expired;
        merged.duplicates += report.duplicates;
        merged.offline_secs += report.offline_secs;
        merged.pushes_delivered += report.pushes_delivered;
        merged.pushes_missed += report.pushes_missed;
        merged.total_energy_uah += report.total_energy_uah;
        merged.trace_dropped += report.trace_dropped;
        merged.migrations += report.migrations;
        merged.lte_handovers += report.lte_handovers;
        if let Some(cell_delivery) = &report.delivery {
            merged
                .delivery
                .get_or_insert_with(Default::default)
                .absorb(cell_delivery);
        }
        for (row, mut device_report) in report.devices.drain(..).enumerate() {
            let global = global_ids[row];
            device_report.device = DeviceId::new(global);
            match rows.entry(global) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(device_report);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    coalesce_rows(slot.get_mut(), device_report);
                }
            }
        }
        events.push(std::mem::take(&mut report.events));
        traces.push(std::mem::take(&mut report.trace));
        spans.push(std::mem::take(&mut report.spans));
    }
    // Each cell's records arrive remapped and sorted (`to_fleet_order`),
    // so a merge of sorted runs with ties in cell order — the fleet's
    // pulses last — gives exactly the stable time sort of their
    // concatenation: the merged timeline is a pure function of the
    // scenario. (Devices come out of the BTreeMap sorted by global id.)
    events.push(fleet_log.events.into_records());
    merged.events = merge_sorted_runs(events, |r| r.time);
    merged.trace = merge_sorted_runs(traces, |r| r.time);
    merged.spans = SpanRecorder::merge(spans);
    merged.devices = rows.into_values().collect();
    // Gauges merge by addition, which suits the additive ones (energy,
    // false-dead seconds, in-flight heartbeats) but not a ratio: the
    // fleet's delivery ratio comes from the fleet's merged ledger.
    if let (Some(d), Some(ratio)) = (
        &merged.delivery,
        merged.metrics.gauges.get_mut("hbr_delivery_ratio"),
    ) {
        *ratio = d.ratio();
    }
    merged
}

/// Finishes a cell's records on its own worker: events, trace and spans
/// get fleet-global device ids, and the spans are sorted into artifact
/// order (events and trace already are in time order), so
/// `merge_reports` only merges sorted runs.
fn to_fleet_order(report: &mut ScenarioReport, global_ids: &[u32]) {
    let global = |local: u32| global_ids[local as usize];
    for record in report.events.iter_mut().chain(&mut report.trace) {
        record.event.remap_devices(global);
    }
    report.spans.remap_devices(global);
    report.spans.sort();
}

/// Folds a later cell-order row for the same fleet-global device into
/// the accumulated one. Sums are exact because migration *moves* state:
/// the meter, radio and scheduler travel with the device, so a husk row
/// contributes only the counters frozen at its departure.
fn coalesce_rows(into: &mut DeviceReport, other: DeviceReport) {
    into.energy_uah += other.energy_uah;
    for (group, uah) in other.energy_by_group {
        match into.energy_by_group.iter_mut().find(|(g, _)| *g == group) {
            Some((_, have)) => *have += uah,
            None => into.energy_by_group.push((group, uah)),
        }
    }
    into.rrc_connections += other.rrc_connections;
    into.forwards += other.forwards;
    into.fallbacks += other.fallbacks;
    into.rewards += other.rewards;
    into.offline_secs += other.offline_secs;
    // Scheduler stats travel with a migrating relay, so exactly one
    // residence reports them.
    into.mean_batch_size = into.mean_batch_size.or(other.mean_batch_size);
    into.mean_queueing_delay_secs = into
        .mean_queueing_delay_secs
        .or(other.mean_queueing_delay_secs);
    into.battery_depleted |= other.battery_depleted;
}

// ---------------------------------------------------------------------
// Crowd checkpoints: the on-disk format, the writer the epoch loop
// calls, and the resume entry points. A checkpoint embeds the full
// `CrowdConfig`, so `hbr resume <dir>` needs no flags — and refuses
// (via the per-cell scenario fingerprints) a checkpoint whose embedded
// config no longer reproduces the same cell setups.
// ---------------------------------------------------------------------

snap_struct!(CrowdConfig {
    phones,
    relays,
    hours,
    area_side_m,
    seed,
    push_mins,
    mode,
    faults,
    trace_capacity,
    telemetry,
    reliable,
    spans,
    shards,
    roam,
} check check_crowd_config);

/// Refuses a config no run could have been started with.
fn check_crowd_config(c: &CrowdConfig) -> Result<(), SnapshotError> {
    if c.phones == 0 || c.relays > c.phones {
        return Err(SnapshotError::Corrupt(format!(
            "{} relays among {} phones",
            c.relays, c.phones
        )));
    }
    if !(c.area_side_m.is_finite() && c.area_side_m > 0.0) {
        return Err(SnapshotError::Corrupt(format!(
            "area side {}",
            c.area_side_m
        )));
    }
    // Both become `SimDuration`s, which count microseconds in a u64.
    if c.hours.checked_mul(3_600_000_000).is_none() || c.push_mins.checked_mul(60_000_000).is_none()
    {
        return Err(SnapshotError::Corrupt(format!(
            "{} h horizon or {} min push interval overflows the clock",
            c.hours, c.push_mins
        )));
    }
    Ok(())
}

/// The file a checkpoint at `epochs_done` barriers lands in.
pub fn checkpoint_file(dir: &Path, epochs_done: u64) -> PathBuf {
    dir.join(format!("epoch-{epochs_done}.ckpt"))
}

/// Writes one checkpoint: `epoch-N.ckpt` (atomic write-rename) plus a
/// refreshed `MANIFEST.json` naming the latest file and recording the
/// seed/config provenance a human (or a CI gate) wants without parsing
/// the binary.
fn write_checkpoint(
    dir: &Path,
    config: &CrowdConfig,
    epochs_done: u64,
    cells: &[(Vec<u32>, Vec<u8>)],
    fleet: &Telemetry,
) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
    let mut w = SnapshotWriter::with_header(CROWD_MAGIC);
    config.snap(&mut w);
    w.put_u64(epochs_done);
    fleet.snap(&mut w);
    w.put_u64(cells.len() as u64);
    for (global_ids, blob) in cells {
        global_ids.snap(&mut w);
        w.put_bytes(blob);
    }
    write_atomic(&checkpoint_file(dir, epochs_done), &w.into_bytes())?;

    let mode = match config.mode {
        Mode::D2dFramework => "d2d",
        Mode::OriginalCellular => "baseline",
    };
    let manifest = format!(
        concat!(
            "{{\"format_version\":{},\"seed\":{},\"phones\":{},\"relays\":{},",
            "\"hours\":{},\"mode\":\"{}\",\"roam\":{},\"epochs_done\":{},",
            "\"epochs_total\":{},\"latest\":\"epoch-{}.ckpt\"}}\n"
        ),
        FORMAT_VERSION,
        config.seed,
        config.phones,
        config.relays,
        config.hours,
        mode,
        config.roam,
        epochs_done,
        EPOCHS,
        epochs_done,
    );
    write_atomic(&dir.join("MANIFEST.json"), manifest.as_bytes())
}

/// A parsed crowd checkpoint, ready to resume.
pub struct CrowdCheckpoint {
    /// The config the interrupted run was started with.
    pub config: CrowdConfig,
    /// Epoch barriers the interrupted run completed.
    pub epochs_done: u64,
    fleet: Telemetry,
    cells: Vec<(Vec<u32>, Vec<u8>)>,
}

/// Finds the highest-epoch `epoch-N.ckpt` in a checkpoint directory.
pub fn latest_checkpoint(dir: &Path) -> Result<PathBuf, SnapshotError> {
    let entries = std::fs::read_dir(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| SnapshotError::Io(e.to_string()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(n) = name
            .strip_prefix("epoch-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            if best.as_ref().map(|(b, _)| n > *b).unwrap_or(true) {
                best = Some((n, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
        .ok_or_else(|| SnapshotError::Io(format!("no epoch-N.ckpt files in {}", dir.display())))
}

/// Parses a checkpoint file. Typed errors on damage, never a panic.
pub fn load_checkpoint(path: &Path) -> Result<CrowdCheckpoint, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    let mut r = SnapshotReader::with_header(&bytes, CROWD_MAGIC)?;
    let config = CrowdConfig::unsnap(&mut r)?;
    let epochs_done = r.take_u64()?;
    if epochs_done > EPOCHS {
        return Err(SnapshotError::Corrupt(format!(
            "epochs done {epochs_done} of {EPOCHS}"
        )));
    }
    let fleet = Telemetry::unsnap(&mut r)?;
    let n = r.take_u64()? as usize;
    if n > r.remaining() {
        return Err(SnapshotError::Corrupt(format!("cell count {n}")));
    }
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let global_ids = Vec::unsnap(&mut r)?;
        let blob = r.take_bytes()?;
        cells.push((global_ids, blob));
    }
    r.finish()?;
    Ok(CrowdCheckpoint {
        config,
        epochs_done,
        fleet,
        cells,
    })
}

/// Resumes an interrupted crowd run from a parsed checkpoint: rebuilds
/// the cell setups from the embedded config, restores every cell's
/// dynamic state, and runs the remaining epochs under `controls`. The
/// artifacts of `run-to-epoch-k → kill → resume` are byte-identical to
/// an uninterrupted run.
///
/// # Errors
///
/// Any [`SnapshotError`] from a cell restore — including
/// [`SnapshotError::ConfigMismatch`] when the checkpoint's embedded
/// config no longer reproduces the cell a blob was taken from.
pub fn resume_crowd(
    checkpoint: CrowdCheckpoint,
    controls: &RunControls<'_>,
) -> Result<CrowdOutcome, SnapshotError> {
    let config = checkpoint.config;
    let duration = SimDuration::from_secs(config.hours * 3600);
    let setups = cell_setups(&config, duration);
    if setups.len() != checkpoint.cells.len() {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint has {} cells, config produces {}",
            checkpoint.cells.len(),
            setups.len()
        )));
    }
    let mut cells = Vec::with_capacity(setups.len());
    for ((cell_config, _), (global_ids, blob)) in setups.into_iter().zip(checkpoint.cells) {
        cells.push(Cell {
            scenario: Some(Scenario::restore(cell_config, &blob)?),
            report: None,
            global_ids,
        });
    }
    let resume = ResumeState {
        epochs_done: checkpoint.epochs_done,
        cells,
        fleet: checkpoint.fleet,
    };
    Ok(run_crowd_inner(&config, controls, Some(resume)))
}
