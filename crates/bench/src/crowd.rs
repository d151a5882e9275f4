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
//! Shards are *worker threads over cells*, forked and joined once per
//! epoch: `--shards S` splits the cells into `S` contiguous chunks, and
//! each epoch the calling thread spawns one scoped worker per chunk to
//! step its cells to the next of a fixed number of epoch barriers, then
//! joins them. Every cell returns an [`EpochPulse`] (its cross-shard
//! "message"); the calling thread folds the pulses **in cell order**
//! into a fleet-level digest, recorded as a `FleetPulse` telemetry
//! event and `hbr_fleet_*` gauges. Because the partition, the per-cell
//! seeds and the fold order are all functions of the scenario alone,
//! the merged report, metrics snapshot and event stream cannot depend
//! on how many threads carried the cells. A worker's panic resumes on
//! the calling thread at the join, so one failing cell ends the run.
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
use std::io::Write as _;
use std::panic;
use std::path::{Path, PathBuf};
use std::thread::{self, ScopedJoinHandle};

use hbr_core::fleet::FleetBuilder;
use hbr_core::world::{
    cell_at, CellTopology, DeviceReport, DeviceSpec, EpochPulse, Migrant, Mode, Scenario,
    ScenarioConfig, ScenarioReport,
};
use hbr_sim::fault::FaultPlan;
use hbr_sim::json;
use hbr_sim::signal;
use hbr_sim::snapshot::{
    write_atomic, Snap, SnapshotError, SnapshotReader, SnapshotWriter, CROWD_MAGIC, FORMAT_VERSION,
};
use hbr_sim::spans::SpanRecorder;
use hbr_sim::telemetry::{PulseCounters, SortedRuns, Telemetry, TelemetryEvent};
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

/// One populated cell: its engine, the map from cell-local device
/// indices back to fleet-global ones, and the migrants bound for it at
/// the current barrier.
struct Cell {
    scenario: Option<Scenario>,
    global_ids: Vec<u32>,
    /// Migrants routed here at this barrier, each with its fleet-global
    /// id, admitted before the next epoch.
    arrivals: Vec<(u32, Migrant)>,
    /// The engine's scheduled-event count at the last profiled step.
    events_seen: u64,
}

impl Cell {
    fn new(scenario: Scenario, global_ids: Vec<u32>) -> Self {
        Cell {
            scenario: Some(scenario),
            global_ids,
            arrivals: Vec::new(),
            events_seen: 0,
        }
    }

    /// Admits this barrier's migrants at the barrier instant `now`.
    fn admit_arrivals(&mut self, now: SimTime) {
        if !self.arrivals.is_empty() {
            let (ids, migrants): (Vec<u32>, Vec<Migrant>) = self.arrivals.drain(..).unzip();
            let scenario = self.scenario.as_mut().expect("cell still running");
            scenario.immigrate(migrants, now);
            self.global_ids.extend(ids);
        }
    }

    /// The cell's checkpoint contribution: its id map and scenario blob.
    fn snapshot(&self) -> (Vec<u32>, Vec<u8>) {
        let scenario = self.scenario.as_ref().expect("cell still running");
        (self.global_ids.clone(), scenario.snapshot())
    }

    /// Completes the cell on its worker into its report and the id map
    /// that names the report's rows. Events, trace and spans get
    /// fleet-global device ids, and the spans are put back in artifact
    /// order over them (events and trace are in time order), so
    /// `merge_reports` only orders sorted runs.
    fn complete(&mut self) -> (Vec<u32>, ScenarioReport) {
        let mut report = self.scenario.take().expect("cell still running").complete();
        let global_ids = std::mem::take(&mut self.global_ids);
        let global = |local: u32| global_ids[local as usize];
        report.events.remap_devices(global);
        for record in &mut report.trace {
            record.event.remap_devices(global);
        }
        report.spans.remap_devices(global);
        (global_ids, report)
    }
}

/// A checkpoint file being written on its own scoped thread: the epochs
/// done it records, and the handle its result is joined from.
type PendingWrite<'scope> = (u64, ScopedJoinHandle<'scope, Result<(), SnapshotError>>);

/// The `hbr serve` per-epoch emission hook: called on the engine's
/// calling thread after each epoch's join, with the 1-based epoch
/// number and the fleet-folded pulse.
pub type EpochHook<'a> = &'a (dyn Fn(u64, &EpochPulse) + Sync);

/// Knobs that shape how a crowd run *executes* without changing what it
/// computes: checkpointing, crash injection, signal handling, the
/// per-epoch observation callback and the wall-clock profiler.
/// Everything here is pure observation or process control — a run with
/// checkpoints enabled produces byte-identical artifacts to one without.
pub struct RunControls<'a> {
    /// Write epoch-barrier checkpoints into this directory
    /// (`epoch-N.ckpt` + `MANIFEST.json`). [`None`] disables
    /// checkpointing entirely. Each file is written on its own thread
    /// while the workers step the next epoch; at most one write is in
    /// flight, and the run joins the last one before it returns.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint at every Nth epoch barrier (values `0` and `1` both
    /// mean every barrier). The final barrier, an interrupt and a
    /// scheduled crash always checkpoint regardless.
    pub checkpoint_every: u64,
    /// Deterministic kill: at this epoch barrier (1-based), die via
    /// SIGKILL with no flushing — the `crash@EPOCH` fault the
    /// kill-resume harness drives. Checkpoint files are written on a
    /// writer thread while the next epoch runs; the engine's calling
    /// thread joins the previous write and then this barrier's own
    /// (renamed, directory synced, MANIFEST.json updated) before it
    /// kills, so the latest checkpoint on disk is this barrier's.
    pub crash_after_epoch: Option<u64>,
    /// Honor SIGINT/SIGTERM (armed via [`signal::install`]): the flag is
    /// sampled after each epoch's join, so the current epoch finishes;
    /// then write a final checkpoint if a directory is configured, and
    /// return early with `truncated = true`.
    pub heed_signals: bool,
    /// Called on the engine's calling thread after each epoch fold with
    /// the 1-based epoch number and the fleet-folded pulse — the `hbr
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
///
/// The calling thread drives the epochs. Each epoch, scoped workers step
/// their chunk of cells to the barrier and are joined; this thread folds
/// their pulses, routes the migrants and hands checkpoints to a writer;
/// a second pass admits the migrants and takes the snapshots when there
/// is anything to admit or snapshot.
fn run_crowd_inner(
    config: &CrowdConfig,
    controls: &RunControls<'_>,
    resume: Option<ResumeState>,
) -> CrowdOutcome {
    let profiler = controls.profile.then(Profiler::new);
    let profiling = profiler.as_ref();
    let duration = SimDuration::from_secs(config.hours * 3600);
    let (start_epoch, mut cells, mut fleet_log) = match resume {
        Some(state) => (state.epochs_done, state.cells, state.fleet),
        None => {
            let cells = cell_setups(config, duration)
                .into_iter()
                .map(|(cell_config, global_ids)| Cell::new(Scenario::new(cell_config), global_ids))
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

    // Contiguous chunks of cells per worker; the chunk layout only
    // affects which thread runs a cell, never the cell's behaviour.
    // Rounding the chunk up can leave fewer chunks than shards (9 cells
    // on 4 shards run as 3 chunks of 3): the chunks are the lanes that
    // run, and the profile counts those.
    let chunk = cell_count.div_ceil(shards);
    let lanes = cell_count.div_ceil(chunk.max(1));
    let mut epochs_done = start_epoch;
    let mut truncated = false;
    let reports = thread::scope(|scope| {
        // The checkpoint file being written on its own thread, if any.
        let mut writing: Option<PendingWrite<'_>> = None;
        for (epoch, &limit) in boundaries.iter().enumerate().skip(start_epoch as usize) {
            let stepped = fork_join(&mut cells, chunk, |worker, cells| {
                let mut pulses = Vec::with_capacity(cells.len());
                let mut migrants = Vec::new();
                for (offset, cell) in cells.iter_mut().enumerate() {
                    let scenario = cell.scenario.as_mut().expect("cell still running");
                    let step_start = profiling.map(|p| p.elapsed_us());
                    scenario.run_until(limit);
                    if let (Some(p), Some(start)) = (profiling, step_start) {
                        // Per-epoch deltas of the engine's monotone
                        // scheduled counter: the events/sec numerator.
                        let total = scenario.events_scheduled();
                        p.record_cell(
                            epoch as u32,
                            worker * chunk + offset,
                            worker,
                            start,
                            p.since(start),
                            scenario.queue_depth(),
                            total - cell.events_seen,
                        );
                        cell.events_seen = total;
                    }
                    // Emigrate before the pulse, which counts this
                    // barrier's migrations. Each migrant travels with
                    // the fleet-global id its source cell knows it by.
                    for migrant in scenario.emigrate(limit) {
                        migrants.push((cell.global_ids[migrant.source_index() as usize], migrant));
                    }
                    pulses.push(scenario.pulse());
                }
                (pulses, migrants, profiling.map(|p| p.elapsed_us()))
            });

            // Fold in cell order, and route each migrant to its
            // destination in ascending source-cell order (emission order
            // within one source): admission order fixes the new local
            // ids, so it is a pure function of the scenario.
            let joined = profiling.map_or(0, |p| p.elapsed_us());
            let mut fleet = EpochPulse::default();
            for (worker, (pulses, migrants, stepped_us)) in stepped.into_iter().enumerate() {
                if let (Some(p), Some(start)) = (profiling, stepped_us) {
                    p.record_stall(epoch as u32, worker, start, joined.saturating_sub(start));
                }
                for pulse in &pulses {
                    fleet.absorb(pulse);
                }
                for (global, migrant) in migrants {
                    cells[migrant.to_cell()].arrivals.push((global, migrant));
                }
            }
            let stopping = controls.heed_signals && signal::interrupted();
            if let Some(on_epoch) = controls.on_epoch {
                on_epoch(epoch as u64 + 1, &fleet);
            }
            fleet_log.record(
                limit,
                TelemetryEvent::FleetPulse {
                    epoch: epoch as u32,
                    cells: cell_count as u32,
                    counters: Box::new(PulseCounters {
                        forwards: fleet.forwards,
                        fallbacks: fleet.fallbacks,
                        outage_queued: fleet.outage_queued,
                        l3: fleet.l3,
                        delivered: fleet.delivered,
                        retries: fleet.retries,
                        migrations: config.roam.then_some(fleet.migrations),
                        lte_handovers: config.roam.then_some(fleet.lte_handovers),
                    }),
                },
            );
            let done = epoch as u64 + 1;
            epochs_done = done;
            truncated = stopping;

            // Snapshots are pure observation — a checkpointing run stays
            // byte-identical to one without.
            let every = controls.checkpoint_every.max(1);
            let crash_now = controls.crash_after_epoch == Some(done);
            let checkpoint_dir = controls
                .checkpoint_dir
                .as_deref()
                .filter(|_| done.is_multiple_of(every) || done == EPOCHS || stopping || crash_now);
            let staged = if config.roam || checkpoint_dir.is_some() {
                fork_join(&mut cells, chunk, |_, cells| {
                    for cell in cells.iter_mut() {
                        cell.admit_arrivals(limit);
                    }
                    checkpoint_dir.map(|_| {
                        let start = profiling.map(|p| p.elapsed_us());
                        let snapshots: Vec<(Vec<u32>, Vec<u8>)> =
                            cells.iter().map(Cell::snapshot).collect();
                        (snapshots, start)
                    })
                })
            } else {
                Vec::new()
            };
            if let Some(dir) = checkpoint_dir {
                // At most one write in flight: the previous one
                // finishes before the next starts.
                if let Some(previous) = writing.take() {
                    finish_write(previous);
                }
                let (snapshots, starts): (Vec<_>, Vec<_>) = staged.into_iter().flatten().unzip();
                let snapshots: Vec<(Vec<u32>, Vec<u8>)> = snapshots.into_iter().flatten().collect();
                let head = checkpoint_head(config, done, &fleet_log, snapshots.len());
                // The file is written while the workers step the next
                // epoch.
                let writer = scope.spawn(move || {
                    let start = profiling.map(|p| p.elapsed_us());
                    let written = write_checkpoint(dir, config, done, &head, &snapshots);
                    if let (Some(p), Some(start)) = (profiling, start) {
                        // The writer's own lane, one past the last worker's.
                        p.record_write(epoch as u32, lanes, start, p.since(start));
                    }
                    written
                });
                writing = Some((done, writer));
                for (worker, start) in starts.into_iter().enumerate() {
                    if let (Some(p), Some(start)) = (profiling, start) {
                        p.record_checkpoint(epoch as u32, worker, start, p.since(start));
                    }
                }
            }
            if crash_now {
                // Die exactly like kill -9, right after this barrier's
                // checkpoint (if any) hit disk: the whole point of the
                // kill-resume harness.
                if let Some(own) = writing.take() {
                    finish_write(own);
                }
                signal::hard_abort();
            }
            if stopping {
                break;
            }
        }
        let reports: Vec<(Vec<u32>, ScenarioReport)> = fork_join(&mut cells, chunk, |_, cells| {
            cells.iter_mut().map(Cell::complete).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        // The cells completed while the last file was written; report
        // how it went.
        if let Some(last) = writing {
            finish_write(last);
        }
        reports
    });

    CrowdOutcome {
        report: merge_reports(reports, fleet_log),
        epochs_done,
        truncated,
        profile: profiler.map(|p| p.finish(config.phones, cell_count, lanes, EPOCHS)),
    }
}

/// Runs `work` on each worker's contiguous chunk of cells, every chunk on
/// a scoped thread of its own, and returns the results in chunk order. A
/// worker's panic resumes on the calling thread once every worker has
/// finished its chunk, so one failing cell ends the run.
fn fork_join<T: Send>(
    cells: &mut [Cell],
    chunk: usize,
    work: impl Fn(usize, &mut [Cell]) -> T + Sync,
) -> Vec<T> {
    let work = &work;
    thread::scope(|scope| {
        let workers: Vec<_> = cells
            .chunks_mut(chunk)
            .enumerate()
            .map(|(worker, cells)| scope.spawn(move || work(worker, cells)))
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Waits for a checkpoint write and prints its failure, if it failed (a
/// writer thread that panicked counts as failed).
fn finish_write((epochs_done, writer): PendingWrite<'_>) {
    let written = writer
        .join()
        .unwrap_or_else(|_| Err(SnapshotError::Io("checkpoint writer panicked".into())));
    if let Err(err) = written {
        eprintln!("warning: checkpoint at epoch {epochs_done} failed: {err}");
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
fn merge_reports(
    mut reports: Vec<(Vec<u32>, ScenarioReport)>,
    fleet_log: Telemetry,
) -> ScenarioReport {
    let fleet_snapshot = fleet_log.metrics.snapshot();
    let metrics = crate::merge_snapshots(
        reports
            .iter()
            .map(|(_, r)| &r.metrics)
            .chain(std::iter::once(&fleet_snapshot)),
    );

    let mut merged = ScenarioReport {
        metrics,
        ..ScenarioReport::default()
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
        events.extend(std::mem::take(&mut report.events).into_runs());
        traces.push(std::mem::take(&mut report.trace));
        spans.extend(std::mem::take(&mut report.spans).into_runs());
    }
    // Each cell's records arrive remapped and sorted (`Cell::complete`),
    // so merging the sorted runs with ties in cell order — the fleet's
    // pulses last — gives exactly the stable time sort of their
    // concatenation: the merged timeline is a pure function of the
    // scenario. The records stay in their cells' runs, merged as the
    // writers walk them. (Devices come out of the BTreeMap sorted by
    // global id.)
    events.push(fleet_log.events.into_records());
    merged.events = SortedRuns::new(events);
    merged.trace = SortedRuns::new(traces).iter().cloned().collect();
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

/// The head of a checkpoint file: magic and version, the `CrowdConfig`,
/// the epochs done, the fleet-level metrics/event folds and the cell
/// count. Each cell's `(global-id map, snapshot blob)` follows it.
fn checkpoint_head(
    config: &CrowdConfig,
    epochs_done: u64,
    fleet: &Telemetry,
    cells: usize,
) -> Vec<u8> {
    let mut w = SnapshotWriter::with_header(CROWD_MAGIC);
    config.snap(&mut w);
    w.put_u64(epochs_done);
    fleet.snap(&mut w);
    w.put_usize(cells);
    w.into_bytes()
}

/// Writes one checkpoint: `epoch-N.ckpt` (atomic write-rename), streamed
/// from its [`checkpoint_head`] and each cell's ids, blob length and blob,
/// plus a refreshed `MANIFEST.json` naming the latest file and recording
/// the seed/config provenance a human (or a CI gate) wants without
/// parsing the binary.
fn write_checkpoint(
    dir: &Path,
    config: &CrowdConfig,
    epochs_done: u64,
    head: &[u8],
    cells: &[(Vec<u32>, Vec<u8>)],
) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&checkpoint_file(dir, epochs_done), |out| {
        out.write_all(head)?;
        for (global_ids, blob) in cells {
            let mut w = SnapshotWriter::new();
            global_ids.snap(&mut w);
            w.put_usize(blob.len());
            out.write_all(&w.into_bytes())?;
            out.write_all(blob)?;
        }
        Ok(())
    })?;

    let mode = match config.mode {
        Mode::D2dFramework => "d2d",
        Mode::OriginalCellular => "baseline",
    };
    let mut manifest = String::new();
    json::object(&mut manifest, |o| {
        o.field("format_version", FORMAT_VERSION)
            .field("seed", config.seed)
            .field("phones", config.phones)
            .field("relays", config.relays)
            .field("hours", config.hours)
            .field("mode", mode)
            .field("roam", config.roam)
            .field("epochs_done", epochs_done)
            .field("epochs_total", EPOCHS)
            .field("latest", &*format!("epoch-{epochs_done}.ckpt"));
    });
    manifest.push('\n');
    write_atomic(&dir.join("MANIFEST.json"), |out| {
        out.write_all(manifest.as_bytes())
    })
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
/// config no longer reproduces the cell a blob was taken from — and
/// [`SnapshotError::Corrupt`] when a cell's fleet-id map does not fit
/// its restored devices or names a phone outside the fleet.
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
    for (index, ((cell_config, _), (global_ids, blob))) in
        setups.into_iter().zip(checkpoint.cells).enumerate()
    {
        let scenario = Scenario::restore(cell_config, &blob)?;
        // One fleet id per device row. Repeats are legal: a device that
        // roamed out and back holds a husk and a live row in one cell.
        let largest = global_ids.iter().copied().max().unwrap_or(0);
        if global_ids.len() != scenario.device_count() || largest as usize >= config.phones {
            return Err(SnapshotError::Corrupt(format!(
                "cell {index} maps {} fleet ids (largest {largest}) onto {} devices of a {}-phone fleet",
                global_ids.len(),
                scenario.device_count(),
                config.phones
            )));
        }
        cells.push(Cell::new(scenario, global_ids));
    }
    let resume = ResumeState {
        epochs_done: checkpoint.epochs_done,
        cells,
        fleet: checkpoint.fleet,
    };
    Ok(run_crowd_inner(&config, controls, Some(resume)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_core::world::ChaosMutation;
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

    /// The dense two-shard hour the checker first tripped on: 1 600
    /// phones on 200 m, four cells, two per worker.
    fn dense_hour() -> CrowdConfig {
        CrowdConfig {
            phones: 1600,
            relays: 160,
            hours: 1,
            area_side_m: 200.0,
            seed: 7,
            push_mins: 0,
            mode: Mode::D2dFramework,
            faults: FaultPlan::new(),
            trace_capacity: 0,
            telemetry: false,
            reliable: true,
            spans: false,
            shards: Some(2),
            roam: false,
        }
    }

    /// Four shards asked for nine cells run as three chunks of three: the
    /// profile reports the three lanes that ran, each with cell time,
    /// and divides the stall by them.
    #[test]
    fn the_profile_counts_the_lanes_that_ran() {
        let config = CrowdConfig {
            phones: 900,
            relays: 90,
            area_side_m: 300.0,
            shards: Some(4),
            ..dense_hour()
        };
        let (_, profile) = run_crowd_profiled(&config);
        assert_eq!(profile.cells, 9, "the 300 m area is a 3×3 grid");
        assert_eq!(profile.shards, 3);
        let cell_lanes: BTreeSet<usize> = profile.cell_samples.iter().map(|s| s.shard).collect();
        let stall_lanes: BTreeSet<usize> = profile.stall_samples.iter().map(|s| s.lane).collect();
        assert_eq!(cell_lanes, BTreeSet::from([0, 1, 2]));
        assert_eq!(stall_lanes, cell_lanes);
        let summary = profile.to_summary_json();
        assert!(summary.contains("\"shards\":3,"), "{summary}");
        assert_eq!(summary.matches("\"cell_us\":").count(), 3, "{summary}");
        assert!(!summary.contains("\"cell_us\":0,"), "{summary}");
        let stalled: u64 = profile.stall_samples.iter().map(|s| s.wall_us).sum();
        let expected = stalled as f64 / (profile.total_wall_us * 3) as f64;
        assert_eq!(profile.stall_fraction(), expected);
    }

    /// One panicking cell must end the run with its panic, not leave the
    /// other worker waiting for it forever. Cell 3 runs a scheduler that
    /// ignores its capacity flush under the checker, so it panics in the
    /// first epoch while cells 0–2 (checker off) run clean.
    #[test]
    fn a_panicking_cell_ends_the_run_instead_of_hanging_it() {
        let config = dense_hour();
        let duration = SimDuration::from_secs(config.hours * 3600);
        let cells: Vec<Cell> = cell_setups(&config, duration)
            .into_iter()
            .enumerate()
            .map(|(index, (mut cell_config, global_ids))| {
                let broken = index == 3;
                cell_config.check_invariants = Some(broken);
                cell_config.mutation = broken.then_some(ChaosMutation::IgnoreCapacityFlush);
                Cell::new(Scenario::new(cell_config), global_ids)
            })
            .collect();
        assert_eq!(cells.len(), 4, "the 200 m area is a 2×2 grid");
        let resume = ResumeState {
            epochs_done: 0,
            cells,
            fleet: Telemetry::new(false, 0),
        };
        let run = thread::spawn(move || {
            run_crowd_inner(&config, &RunControls::default(), Some(resume));
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !run.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the run still hangs 60 s after cell 3 panicked"
            );
            thread::sleep(Duration::from_millis(10));
        }
        assert!(run.join().is_err(), "cell 3's panic must reach the caller");
    }

    /// A cell's fleet-id map must fit the cell it was saved with: one id
    /// short, one extra, or one naming a phone outside the fleet makes
    /// the checkpoint `Corrupt` instead of a panic or a wrong report.
    #[test]
    fn resume_refuses_an_id_map_that_does_not_fit_its_cell() {
        let dir = std::env::temp_dir().join(format!("hbr-crowd-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CrowdConfig {
            phones: 200,
            relays: 40,
            area_side_m: 300.0,
            roam: true,
            ..dense_hour()
        };
        let controls = RunControls {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            ..RunControls::default()
        };
        run_crowd_controlled(&config, &controls);
        let edits: [fn(&mut Vec<u32>); 3] = [
            |ids| ids.truncate(ids.len() - 1),
            |ids| ids.push(ids[0]),
            |ids| ids[0] = 999_999,
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            let mut checkpoint =
                load_checkpoint(&checkpoint_file(&dir, 4)).expect("checkpoint loads");
            edit(&mut checkpoint.cells[0].0);
            assert!(
                matches!(
                    resume_crowd(checkpoint, &RunControls::default()),
                    Err(SnapshotError::Corrupt(_))
                ),
                "edit {i} must be refused"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
