//! Wall-clock shard profiler for the crowd engine.
//!
//! This is the **second plane** of the observability subsystem, and it
//! is everything the first plane is not: where lifecycle spans are
//! sim-time, deterministic and byte-identical at any shard count, this
//! module measures *host* time — how long each cell's epoch step took
//! on the machine that ran it, how long each shard sat idle at the
//! epoch's join waiting for its slowest peer, how deep the per-cell event
//! queues ran. Its output is **explicitly non-deterministic** (two runs
//! of the same seed produce different numbers) and therefore lives in
//! its own artifacts, far away from anything golden-pinned:
//!
//! - a JSON summary (`BENCH_profile.json` by convention) with
//!   events/sec, per-shard barrier-stall and checkpoint totals and the
//!   slowest cells;
//! - a Chrome trace-event file (`--profile-out`), loadable in Perfetto
//!   or `chrome://tracing`, with one lane per shard: `X` duration
//!   slices for cell steps, barrier stalls and checkpoints, `C`
//!   counters for queue depth, and `X` slices for each checkpoint file
//!   write.
//!
//! The profiler costs two `Instant::now` calls and one short mutex
//! section per cell-epoch; with thousands of cells that is noise next
//! to the simulation work itself, and `run_crowd` (the unprofiled
//! path) skips even that.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use hbr_sim::json::{self, Fixed};

/// One cell advancing to one epoch boundary on some worker thread.
#[derive(Debug, Clone, Copy)]
pub struct CellSample {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Cell index in the fleet partition.
    pub cell: usize,
    /// Worker thread (shard) that carried the cell this run.
    pub shard: usize,
    /// Wall-clock start, µs since the profiler was created.
    pub start_us: u64,
    /// Wall-clock cost of the `run_until` call, µs.
    pub wall_us: u64,
    /// Engine events still queued when the epoch boundary was reached.
    pub queue_depth: usize,
    /// Engine events scheduled during this epoch (events/sec numerator).
    pub events: u64,
}

/// One slice of a lane's wall time at an epoch barrier: a shard waiting
/// for its slowest peer (a stall), a shard's share of a checkpoint, or
/// the write of one checkpoint file.
#[derive(Debug, Clone, Copy)]
pub struct LaneSample {
    /// Epoch index (0-based) of the barrier.
    pub epoch: u32,
    /// The lane (trace `tid`): a shard, or the checkpoint writer's.
    pub lane: usize,
    /// Wall-clock start, µs since the profiler was created.
    pub start_us: u64,
    /// Length of the slice, µs.
    pub wall_us: u64,
}

/// Collects samples from the workers (cell steps), the engine's calling
/// thread (stalls and checkpoint parts, at each join) and the checkpoint
/// writer (file writes). All methods take `&self`; the short mutex
/// section is the whole synchronization story.
pub struct Profiler {
    start: Instant,
    cells: Mutex<Vec<CellSample>>,
    stalls: Mutex<Vec<LaneSample>>,
    checkpoints: Mutex<Vec<LaneSample>>,
    writes: Mutex<Vec<LaneSample>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Starts the wall clock.
    pub fn new() -> Self {
        Profiler {
            start: Instant::now(),
            cells: Mutex::new(Vec::new()),
            stalls: Mutex::new(Vec::new()),
            checkpoints: Mutex::new(Vec::new()),
            writes: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the profiler was created.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Microseconds from `start_us` (a [`Profiler::elapsed_us`] reading)
    /// until now: the length of a slice that ends now.
    pub fn since(&self, start_us: u64) -> u64 {
        self.elapsed_us().saturating_sub(start_us)
    }

    /// Records one cell-epoch step.
    #[allow(clippy::too_many_arguments)]
    pub fn record_cell(
        &self,
        epoch: u32,
        cell: usize,
        shard: usize,
        start_us: u64,
        wall_us: u64,
        queue_depth: usize,
        events: u64,
    ) {
        self.cells.lock().expect("profiler lock").push(CellSample {
            epoch,
            cell,
            shard,
            start_us,
            wall_us,
            queue_depth,
            events,
        });
    }

    /// Records one shard's barrier stall: its wait from the end of its
    /// last cell step to the epoch's join.
    pub fn record_stall(&self, epoch: u32, shard: usize, start_us: u64, wall_us: u64) {
        push_lane(&self.stalls, epoch, shard, start_us, wall_us);
    }

    /// Records one shard's part of a checkpoint barrier: from the start
    /// of its snapshots until the file is handed to the writer.
    pub fn record_checkpoint(&self, epoch: u32, shard: usize, start_us: u64, wall_us: u64) {
        push_lane(&self.checkpoints, epoch, shard, start_us, wall_us);
    }

    /// Records the write of one checkpoint file on `lane`.
    pub fn record_write(&self, epoch: u32, lane: usize, start_us: u64, wall_us: u64) {
        push_lane(&self.writes, epoch, lane, start_us, wall_us);
    }

    /// Stops the clock and freezes the samples into a profile.
    pub fn finish(self, phones: usize, cells: usize, shards: usize, epochs: u64) -> CrowdProfile {
        let total_wall_us = self.elapsed_us();
        CrowdProfile {
            phones,
            cells,
            shards,
            epochs,
            total_wall_us,
            cell_samples: self.cells.into_inner().expect("profiler lock"),
            stall_samples: self.stalls.into_inner().expect("profiler lock"),
            checkpoint_samples: self.checkpoints.into_inner().expect("profiler lock"),
            write_samples: self.writes.into_inner().expect("profiler lock"),
        }
    }
}

fn push_lane(list: &Mutex<Vec<LaneSample>>, epoch: u32, lane: usize, start_us: u64, wall_us: u64) {
    list.lock().expect("profiler lock").push(LaneSample {
        epoch,
        lane,
        start_us,
        wall_us,
    });
}

/// A finished profile: run shape, total wall time and every sample.
#[derive(Debug, Clone)]
pub struct CrowdProfile {
    /// Fleet size the run simulated.
    pub phones: usize,
    /// Populated cells in the partition.
    pub cells: usize,
    /// Worker threads that carried them.
    pub shards: usize,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Wall time of the whole sharded run, µs.
    pub total_wall_us: u64,
    /// Every cell-epoch step.
    pub cell_samples: Vec<CellSample>,
    /// Every barrier stall, one per worker per epoch.
    pub stall_samples: Vec<LaneSample>,
    /// Every shard's part of every checkpoint barrier.
    pub checkpoint_samples: Vec<LaneSample>,
    /// Every checkpoint file write.
    pub write_samples: Vec<LaneSample>,
}

impl CrowdProfile {
    /// Engine events scheduled across all cells and epochs.
    pub fn events_total(&self) -> u64 {
        self.cell_samples.iter().map(|s| s.events).sum()
    }

    /// Fleet-level throughput: events scheduled per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_wall_us == 0 {
            return 0.0;
        }
        self.events_total() as f64 / (self.total_wall_us as f64 / 1e6)
    }

    /// Total barrier-stall time per shard, µs. The spread between the
    /// busiest and idlest shard is the load-balance headroom.
    pub fn stall_us_by_shard(&self) -> BTreeMap<usize, u64> {
        us_by_lane(&self.stall_samples)
    }

    /// Fraction of total shard wall time spent stalled at barriers
    /// (0 when the run had a single shard — nobody waits for nobody).
    pub fn stall_fraction(&self) -> f64 {
        let denom = self.total_wall_us.saturating_mul(self.shards as u64);
        if denom == 0 {
            return 0.0;
        }
        let stalled: u64 = self.stall_samples.iter().map(|s| s.wall_us).sum();
        stalled as f64 / denom as f64
    }

    /// Deepest event queue observed at any epoch boundary.
    pub fn max_queue_depth(&self) -> usize {
        self.cell_samples
            .iter()
            .map(|s| s.queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// The `n` most expensive cell-epoch steps, most expensive first.
    pub fn slowest_cells(&self, n: usize) -> Vec<CellSample> {
        let mut sorted = self.cell_samples.clone();
        sorted.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.cell.cmp(&b.cell)));
        sorted.truncate(n);
        sorted
    }

    /// The machine-readable summary (`BENCH_profile.json`): run shape,
    /// throughput, per-shard stall totals and the slowest steps.
    pub fn to_summary_json(&self) -> String {
        let stalls = self.stall_us_by_shard();
        let checkpoints = us_by_lane(&self.checkpoint_samples);
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("phones", self.phones)
                .field("cells", self.cells)
                .field("shards", self.shards)
                .field("epochs", self.epochs)
                .field("total_wall_us", self.total_wall_us)
                .field("events_total", self.events_total())
                .field("events_per_sec", Fixed(self.events_per_sec(), 1))
                .field("max_queue_depth", self.max_queue_depth())
                .field("stall_fraction", Fixed(self.stall_fraction(), 4))
                .objects("per_shard", 0..self.shards, |o, shard| {
                    let cell_us: u64 = self
                        .cell_samples
                        .iter()
                        .filter(|s| s.shard == shard)
                        .map(|s| s.wall_us)
                        .sum();
                    o.field("shard", shard)
                        .field("cell_us", cell_us)
                        .field("stall_us", stalls.get(&shard).copied().unwrap_or(0))
                        .field(
                            "checkpoint_us",
                            checkpoints.get(&shard).copied().unwrap_or(0),
                        );
                })
                .objects("slowest", self.slowest_cells(5), |o, s| {
                    o.field("cell", s.cell)
                        .field("epoch", s.epoch)
                        .field("wall_us", s.wall_us)
                        .field("queue_depth", s.queue_depth)
                        .field("events", s.events);
                });
        });
        out
    }

    /// The Chrome trace-event JSON (`catapult` format): one `tid` lane
    /// per shard carrying `X` duration slices for cell steps, barrier
    /// stalls and checkpoints, plus `C` counter tracks for queue depth,
    /// and one `X` slice per checkpoint file write on the lane that
    /// wrote it. Loads directly in Perfetto or `chrome://tracing`.
    /// Events are sorted by timestamp, so every lane's `ts` sequence is
    /// monotone — the structural property CI's profile-smoke job
    /// asserts.
    pub fn to_chrome_trace(&self) -> String {
        struct Ev {
            ts: u64,
            json: String,
        }
        let mut events: Vec<Ev> = Vec::new();
        for s in &self.cell_samples {
            events.push(Ev {
                ts: s.start_us,
                json: format!(
                    "{{\"name\":\"cell {} epoch {}\",\"cat\":\"cell\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                     \"args\":{{\"cell\":{},\"epoch\":{},\"queue_depth\":{},\"events\":{}}}}}",
                    s.cell,
                    s.epoch,
                    s.start_us,
                    s.wall_us,
                    s.shard,
                    s.cell,
                    s.epoch,
                    s.queue_depth,
                    s.events
                ),
            });
            events.push(Ev {
                ts: s.start_us + s.wall_us,
                json: format!(
                    "{{\"name\":\"queue depth shard {}\",\"cat\":\"queue\",\"ph\":\"C\",\
                     \"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
                    s.shard,
                    s.start_us + s.wall_us,
                    s.shard,
                    s.queue_depth
                ),
            });
        }
        let lanes = [
            ("barrier stall epoch ", "barrier", &self.stall_samples),
            ("checkpoint epoch ", "checkpoint", &self.checkpoint_samples),
            (
                "write checkpoint epoch ",
                "checkpoint-write",
                &self.write_samples,
            ),
        ];
        for (name, cat, samples) in lanes {
            for s in samples {
                events.push(Ev {
                    ts: s.start_us,
                    json: format!(
                        "{{\"name\":\"{name}{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                         \"args\":{{\"epoch\":{}}}}}",
                        s.epoch, s.start_us, s.wall_us, s.lane, s.epoch
                    ),
                });
            }
        }
        // A global stable timestamp sort makes every tid's subsequence
        // monotone too.
        events.sort_by_key(|e| e.ts);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.json);
        }
        out.push_str("]}");
        out
    }
}

/// Total slice time per lane, µs.
fn us_by_lane(samples: &[LaneSample]) -> BTreeMap<usize, u64> {
    let mut by: BTreeMap<usize, u64> = BTreeMap::new();
    for s in samples {
        *by.entry(s.lane).or_default() += s.wall_us;
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> CrowdProfile {
        let p = Profiler::new();
        p.record_cell(0, 0, 0, 10, 100, 7, 500);
        p.record_cell(0, 1, 1, 12, 300, 9, 1500);
        p.record_stall(0, 0, 110, 202);
        p.record_checkpoint(0, 0, 312, 8);
        p.record_checkpoint(0, 1, 312, 6);
        p.record_write(0, 2, 314, 40);
        p.record_cell(1, 0, 0, 320, 80, 3, 400);
        p.record_cell(1, 1, 1, 320, 90, 2, 450);
        let mut profile = p.finish(100, 2, 2, 2);
        // Pin the wall clock so assertions are stable.
        profile.total_wall_us = 1_000_000;
        profile
    }

    #[test]
    fn summary_aggregates_throughput_and_stalls() {
        let profile = sample_profile();
        assert_eq!(profile.events_total(), 2850);
        assert!((profile.events_per_sec() - 2850.0).abs() < 1e-9);
        assert_eq!(profile.max_queue_depth(), 9);
        assert_eq!(profile.stall_us_by_shard().get(&0), Some(&202));
        let slowest = profile.slowest_cells(1);
        assert_eq!((slowest[0].cell, slowest[0].wall_us), (1, 300));
        let json = profile.to_summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"events_total\":2850"));
        assert!(json.contains("\"per_shard\":[{\"shard\":0,"));
        assert!(json.contains("\"stall_us\":202,\"checkpoint_us\":8}"));
        assert!(json.contains("\"stall_us\":0,\"checkpoint_us\":6}"));
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let profile = sample_profile();
        let trace = profile.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"C\""));
        assert_eq!(trace.matches("\"cat\":\"checkpoint\"").count(), 2);
        assert_eq!(trace.matches("\"cat\":\"checkpoint-write\"").count(), 1);
        // Monotone ts overall (and therefore per tid).
        let mut last = 0u64;
        for piece in trace.split("\"ts\":").skip(1) {
            let ts: u64 = piece
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(ts >= last, "ts regressed: {ts} < {last}");
            last = ts;
        }
    }
}
