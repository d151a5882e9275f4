//! In-process half of the crowd-hour benchmark (`perfbench/run.py`).
//!
//! Every subcommand takes the workload's shape as flags and prints one
//! JSON object on stdout:
//!
//! - `setup`: runs the workload's crowd hour through the profiled engine
//!   and reports the host seconds from entering the engine to its first
//!   cell step. The profiler records nothing before that step, so the
//!   figure is the untraced set-up cost.
//! - `trace --out DIR`: one profiled run of the workload with the metrics
//!   plane on, writing the artifacts the workload writes into DIR, then
//!   timed calls into each layer's public functions on inputs built from
//!   the workload's most populated cell. Raw samples are printed;
//!   `run.py` turns them into percentiles.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hbr_apps::{AppId, Heartbeat, MessageIdGen};
use hbr_bench::{
    cell_grid, derive_seed, load_checkpoint, run_crowd_profiled, CrowdConfig, CrowdProfile,
};
use hbr_cellular::{CellularRadio, RrcConfig};
use hbr_core::fleet::FleetBuilder;
use hbr_core::world::{CellTopology, DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use hbr_core::{
    D2dDetector, DeliveryLedger, FrameworkConfig, MessageScheduler, RelayAdvert, ScheduleDecision,
};
use hbr_d2d::{GoIntent, TechProfile};
use hbr_energy::EnergyMeter;
use hbr_mobility::{Field, PathLoss};
use hbr_sim::fault::{FaultKind, FaultPlan};
use hbr_sim::telemetry::MetricsRegistry;
use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime, Simulation, SpanRecorder};

/// Timed samples per layer probe: enough for a p99 with 20 samples
/// beyond it, too few for a p99.9.
const SAMPLES: usize = 2000;
/// Calls per sample for probes that take nanoseconds, so the clock read
/// is not what gets measured.
const BATCH: usize = 100;
/// The run label `hbr crowd --mode d2d` writes into every artifact.
const RUN: &str = "d2d-framework";

/// The workload's crowd-hour shape, as `run.py` passes it.
struct Workload {
    phones: usize,
    relays: usize,
    area: f64,
    seed: u64,
    shards: usize,
    roam: bool,
    faults: FaultPlan,
    /// Artifacts beyond render and SLO the workload writes:
    /// any of `metrics`, `events`, `spans`.
    artifacts: Vec<String>,
}

impl Workload {
    fn writes(&self, artifact: &str) -> bool {
        self.artifacts.iter().any(|a| a == artifact)
    }

    /// `hbr crowd` turns the metrics and event planes on together, for
    /// `--metrics-out` or `--events-out`.
    fn telemetry(&self) -> bool {
        self.writes("metrics") || self.writes("events")
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        fail("usage: hbr-perfbench-probe setup|trace [--flag value]...");
    };
    let flags = parse_flags(rest);
    let workload = workload(&flags);
    let json = match command.as_str() {
        "setup" => setup(&workload),
        "trace" => trace(
            &workload,
            Path::new(&flag::<String>(&flags, "out", ".")),
            flags.get("ckpt-dir").map(PathBuf::from),
        ),
        other => fail(&format!("unknown subcommand {other}")),
    };
    println!("{json}");
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn parse_flags(rest: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(name) = it.next() {
        let Some(name) = name.strip_prefix("--") else {
            fail(&format!("expected a --flag, got {name}"));
        };
        let Some(value) = it.next() else {
            fail(&format!("--{name} needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str, default: &str) -> T {
    let raw = flags.get(name).map_or(default, String::as_str);
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("cannot parse --{name} {raw}")))
}

fn workload(flags: &BTreeMap<String, String>) -> Workload {
    let faults: String = flag(flags, "faults", "");
    let artifacts: String = flag(flags, "artifacts", "");
    Workload {
        phones: flag(flags, "phones", "0"),
        relays: flag(flags, "relays", "0"),
        area: flag(flags, "area", "0"),
        seed: flag(flags, "seed", "7"),
        shards: flag(flags, "shards", "2"),
        roam: flag::<u8>(flags, "roam", "0") == 1,
        faults: parse_faults(&faults).unwrap_or_else(|e| fail(&e)),
        artifacts: artifacts
            .split(',')
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect(),
    }
}

/// Parses the `hbr crowd --faults` entries the workloads use:
/// `outage|blackout@AT+DUR` and `drop|depart|degrade|loss@AT+DUR:DEV[=P]`.
fn parse_faults(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        let bad = || format!("cannot parse fault {entry}");
        let (kind, rest) = entry.split_once('@').ok_or_else(bad)?;
        let (rest, p) = match rest.split_once('=') {
            Some((head, p)) => (head, Some(p.parse::<f64>().map_err(|_| bad())?)),
            None => (rest, None),
        };
        let (timing, dev) = match rest.split_once(':') {
            Some((head, dev)) => (head, Some(DeviceId::new(dev.parse().map_err(|_| bad())?))),
            None => (rest, None),
        };
        let (at, dur) = timing.split_once('+').ok_or_else(bad)?;
        let at = SimTime::from_secs(at.parse().map_err(|_| bad())?);
        let secs: u64 = dur.parse().map_err(|_| bad())?;
        let duration = SimDuration::from_secs(secs);
        let device = || dev.ok_or_else(bad);
        let p = || p.ok_or_else(bad);
        let kind = match kind {
            "outage" => FaultKind::CellularOutage { duration },
            "blackout" => FaultKind::DiscoveryBlackout { duration },
            "drop" => FaultKind::LinkDrop {
                device: device()?,
                d2d_down_for: duration,
            },
            "depart" => FaultKind::RelayDeparture {
                device: device()?,
                rejoin_after: (secs > 0).then_some(duration),
            },
            "degrade" => FaultKind::LinkDegrade {
                device: device()?,
                extra_loss: p()?,
                duration,
            },
            "loss" => FaultKind::PayloadLoss {
                device: device()?,
                probability: p()?,
                duration,
            },
            _ => return Err(bad()),
        };
        plan.schedule(at, kind);
    }
    Ok(plan)
}

/// The engine config `hbr crowd --mode d2d --hours 1` builds for the
/// workload; `telemetry` forces the metrics and event planes on.
fn crowd_config(w: &Workload, telemetry: bool) -> CrowdConfig {
    CrowdConfig {
        phones: w.phones,
        relays: w.relays,
        hours: 1,
        area_side_m: w.area,
        seed: w.seed,
        push_mins: 0,
        mode: Mode::D2dFramework,
        faults: w.faults.clone(),
        trace_capacity: 0,
        telemetry: w.telemetry() || telemetry,
        reliable: true,
        spans: w.writes("spans"),
        shards: Some(w.shards),
        roam: w.roam,
    }
}

fn setup(w: &Workload) -> String {
    let (report, profile) = run_crowd_profiled(&crowd_config(w, false));
    black_box(report);
    format!("{{\"setup_s\":{}}}", json_f64(first_step_s(&profile)))
}

/// Host seconds from entering the engine to its first cell step.
fn first_step_s(profile: &CrowdProfile) -> f64 {
    let first_us = profile.cell_samples.iter().map(|s| s.start_us).min();
    first_us.unwrap_or(0) as f64 / 1e6
}

fn trace(w: &Workload, out: &Path, ckpt_dir: Option<PathBuf>) -> String {
    std::fs::create_dir_all(out).unwrap_or_else(|e| fail(&format!("{}: {e}", out.display())));
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let write = |name: &str, text: &str| {
        std::fs::write(out.join(name), text)
            .unwrap_or_else(|e| fail(&format!("cannot write {name}: {e}")));
    };

    // The traced run: profiled engine, then the artifacts the workload
    // writes, so its wall time compares with the untraced process.
    let start = Instant::now();
    let (report, profile) = run_crowd_profiled(&crowd_config(w, true));
    let returned_s = start.elapsed().as_secs_f64();
    let (render, render_s) = timed(|| report.render());
    write("render.txt", &format!("── {RUN} ──\n{render}\n"));
    let (metrics_json, metrics_s) = timed(|| {
        let mut json = report.metrics.to_json();
        json.push('\n');
        (json, report.metrics.to_prometheus())
    });
    let (events, events_s) = timed(|| {
        let mut text = String::new();
        for record in &report.events {
            let line = record.to_jsonl();
            let _ = writeln!(text, "{{\"run\":\"{RUN}\",{}", &line[1..]);
        }
        text
    });
    let (spans, spans_s) = timed(|| report.spans.to_jsonl());
    for artifact in &w.artifacts {
        match artifact.as_str() {
            "metrics" => {
                write("metrics.json", &metrics_json.0);
                write("metrics.prom", &metrics_json.1);
            }
            "events" => write("events.jsonl", &events),
            "spans" => {
                let mut text = String::with_capacity(spans.len());
                for line in spans.lines() {
                    let _ = writeln!(text, "{{\"run\":\"{RUN}\",{}", &line[1..]);
                }
                write("spans.jsonl", &text);
            }
            other => fail(&format!("unknown artifact {other}")),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // Planes the workload does not write were serialized only to time
    // them; take that time back out of the traced wall.
    let unwritten = |name: &str, s: f64| if w.writes(name) { 0.0 } else { s };
    let traced_wall_s = wall_s
        - unwritten("metrics", metrics_s)
        - unwritten("events", events_s)
        - unwritten("spans", spans_s);

    values.insert("traced_wall_s", traced_wall_s);
    values.insert("obs.events", report.events.len() as f64);
    values.insert("obs.spans", report.spans.len() as f64);
    values.insert("obs.events_mb", events.len() as f64 / MIB);
    values.insert("obs.spans_mb", spans.len() as f64 / MIB);
    values.insert("obs.events_jsonl_ms", events_s * 1e3);
    values.insert("obs.spans_jsonl_ms", spans_s * 1e3);
    values.insert("obs.metrics_json_ms", metrics_s * 1e3);
    values.insert("obs.render_ms", render_s * 1e3);
    values.insert("migration.count", report.migrations as f64);

    let last_end_us = profile
        .cell_samples
        .iter()
        .map(|s| s.start_us + s.wall_us)
        .max()
        .unwrap_or(0);
    let busy_us: u64 = profile.cell_samples.iter().map(|s| s.wall_us).sum();
    let events_total = profile.events_total();
    values.insert("crowd.events", events_total as f64);
    values.insert(
        "crowd.us_per_event",
        busy_us as f64 / events_total.max(1) as f64,
    );
    values.insert("crowd.max_queue_depth", profile.max_queue_depth() as f64);
    values.insert("crowd.stall_frac", profile.stall_fraction());
    values.insert("crowd.finish_s", returned_s - last_end_us as f64 / 1e6);
    samples.insert(
        "crowd.cell_step_ms",
        profile
            .cell_samples
            .iter()
            .map(|s| s.wall_us as f64 / 1e3)
            .collect(),
    );

    let (l3, energy, generated, delivered) = (
        report.total_l3,
        report.total_energy_uah,
        report.delivery.as_ref().map_or(0, |d| d.generated),
        report.delivery.as_ref().map_or(0, |d| d.delivered),
    );
    let metrics = report.metrics.to_json();
    let max_queue_depth = profile.max_queue_depth();
    drop((report, profile, events, spans, metrics_json));

    if let Some(dir) = ckpt_dir {
        checkpoint_probes(&dir, &mut values);
    }
    layer_probes(w, max_queue_depth, &mut values, &mut samples);

    let mut json = String::from("{\"values\":{");
    for (i, (name, v)) in values.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(json, "{sep}\"{name}\":{}", json_f64(*v));
    }
    json.push_str("},\"samples\":{");
    for (i, (name, s)) in samples.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(json, "{sep}\"{name}\":{}", json_list(s));
    }
    let _ = write!(
        json,
        "}},\"outcome\":{{\"l3\":{l3},\"energy_uah\":{},\"generated\":{generated},\
         \"delivered\":{delivered}}},\"metrics\":{metrics}}}",
        json_f64(energy)
    );
    json
}

const MIB: f64 = 1024.0 * 1024.0;

/// Checkpoint sizes at the first and last barrier, and the median of a
/// few `load_checkpoint` calls on the last one.
fn checkpoint_probes(dir: &Path, values: &mut BTreeMap<&str, f64>) {
    let size = |epoch: u64| {
        std::fs::metadata(hbr_bench::checkpoint_file(dir, epoch))
            .map(|m| m.len() as f64 / MIB)
            .unwrap_or_else(|e| fail(&format!("checkpoint epoch {epoch}: {e}")))
    };
    values.insert("ckpt.epoch1_mb", size(1));
    values.insert("ckpt.epoch8_mb", size(hbr_bench::EPOCHS));
    let last = hbr_bench::checkpoint_file(dir, hbr_bench::EPOCHS);
    let mut loads: Vec<f64> = (0..3)
        .map(|_| {
            let (loaded, s) = timed(|| load_checkpoint(&last));
            black_box(loaded.unwrap_or_else(|e| fail(&format!("load_checkpoint: {e}"))));
            s * 1e3
        })
        .collect();
    loads.sort_by(f64::total_cmp);
    values.insert("ckpt.load_ms", loads[1]);
}

/// Times calls into each layer on inputs built from the workload's fleet,
/// using its most populated cell (the engine's partition rule: the cell
/// of a device's initial position on the `cell_grid(area)` square grid).
fn layer_probes(
    w: &Workload,
    max_queue_depth: usize,
    values: &mut BTreeMap<&str, f64>,
    samples: &mut BTreeMap<&str, Vec<f64>>,
) {
    let builder = FleetBuilder::new(w.phones, w.relays).area_side_m(w.area);
    let mut builds: Vec<f64> = (0..3).map(|_| timed(|| builder.build(w.seed)).1).collect();
    builds.sort_by(f64::total_cmp);
    values.insert("fleet.build_s", builds[1]);

    let fleet = builder.build(w.seed);
    let k = cell_grid(w.area);
    let tile = w.area / k as f64;
    let axis = |v: f64| ((v / tile) as usize).min(k - 1);
    let mut members: BTreeMap<usize, Vec<&DeviceSpec>> = BTreeMap::new();
    for spec in &fleet {
        let p = spec.mobility.position();
        members
            .entry(axis(p.y) * k + axis(p.x))
            .or_default()
            .push(spec);
    }
    let (&cell, specs) = members
        .iter()
        .max_by_key(|(cell, specs)| (specs.len(), std::cmp::Reverse(**cell)))
        .expect("a fleet has at least one phone");
    let mut rng = SimRng::seed_from(derive_seed(w.seed, cell));

    // Event engine at the run's deepest queue: pop the next event and
    // schedule a successor, so the depth holds.
    let mut sim: Simulation<u64> = Simulation::new();
    for i in 0..max_queue_depth.max(1) {
        let at = SimTime::from_micros(rng.range(0..3_600_000_000u64));
        sim.schedule_at(at, i as u64);
    }
    let delays: Vec<SimDuration> = (0..BATCH)
        .map(|_| SimDuration::from_micros(rng.range(1..600_000_000u64)))
        .collect();
    samples.insert(
        "engine.schedule_pop_ns",
        batch_ns(|| {
            for delay in &delays {
                let fired = sim
                    .pop_until(SimTime::MAX)
                    .expect("the queue holds its depth");
                sim.schedule_at(fired.time + *delay, fired.event);
            }
        }),
    );

    // Mobility: advance every track and rebuild the grid, as a match at a
    // new instant does; then neighbourhood queries on the cached grid.
    let detector = D2dDetector::new(
        FrameworkConfig::default(),
        TechProfile::wifi_direct(),
        PathLoss::indoor_wifi(),
    );
    let range = TechProfile::wifi_direct().range_m;
    let mut field: Field = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| (DeviceId::new(i as u32), spec.mobility.clone()))
        .collect();
    black_box(field.neighbours_within(DeviceId::new(0), range));
    let mut now = SimTime::ZERO;
    samples.insert(
        "mobility.advance_us",
        (0..SAMPLES)
            .map(|_| {
                now += SimDuration::from_millis(1800);
                timed(|| field.advance_to(now, &mut rng)).1 * 1e6
            })
            .collect(),
    );
    let n = specs.len();
    samples.insert(
        "mobility.neighbours_us",
        (0..SAMPLES)
            .map(|i| {
                let ue = DeviceId::new((i % n) as u32);
                timed(|| black_box(field.neighbours_within(ue, range))).1 * 1e6
            })
            .collect(),
    );

    // Discovery and matching for every UE of the cell in turn.
    let relay_capacity = FrameworkConfig::default().relay_capacity;
    let cellular_uah = RrcConfig::wcdma_galaxy_s4().full_cycle_charge_uah(74);
    let ues: Vec<DeviceId> = (0..n)
        .filter(|&i| specs[i].role == Role::Ue)
        .map(|i| DeviceId::new(i as u32))
        .collect();
    let ues = if ues.is_empty() {
        vec![DeviceId::new(0)]
    } else {
        ues
    };
    samples.insert(
        "detector.match_us",
        (0..SAMPLES)
            .map(|i| {
                let ue = ues[i % ues.len()];
                let position = field.position(ue).expect("tracked device");
                timed(|| {
                    let adverts: Vec<RelayAdvert> = detector
                        .discover_in_range(&field, ue)
                        .into_iter()
                        .filter(|(id, _)| specs[id.index() as usize].role == Role::Relay)
                        .map(|(id, _)| RelayAdvert {
                            device: id,
                            free_capacity: relay_capacity,
                            go_intent: GoIntent::MAX,
                            position: field.position(id).expect("tracked device"),
                        })
                        .collect();
                    black_box(detector.match_relay(position, &adverts, 8, cellular_uah, &mut rng))
                })
                .1 * 1e6
            })
            .collect(),
    );

    // Algorithm 1: arrivals at a relay, flushing each full batch.
    let mut ids = MessageIdGen::new();
    let mut heartbeat = |at: SimTime| Heartbeat {
        id: ids.next_id(),
        app: AppId::new(0),
        source: DeviceId::new(1),
        seq: 0,
        size: 74,
        created_at: at,
        expires_at: at + SimDuration::from_secs(810),
    };
    let period = SimDuration::from_secs(270);
    let mut scheduler = MessageScheduler::new(
        relay_capacity,
        period,
        SimDuration::from_secs(5),
        SimTime::ZERO,
    );
    let mut clock = SimTime::ZERO;
    let arrivals: Vec<Heartbeat> = (0..SAMPLES * BATCH)
        .map(|_| {
            clock += SimDuration::from_millis(500);
            heartbeat(clock)
        })
        .collect();
    let mut arrivals = arrivals.into_iter();
    samples.insert(
        "scheduler.arrival_ns",
        batch_ns(|| {
            for hb in arrivals.by_ref().take(BATCH) {
                let at = hb.created_at;
                let decision = scheduler.on_arrival(at, hb);
                if matches!(decision, ScheduleDecision::Flush(_))
                    || scheduler.flush_due(at).is_some()
                {
                    black_box(scheduler.take_batch_at(at));
                    scheduler.begin_period(at);
                }
            }
        }),
    );

    // RRC radio: heartbeat-sized transmissions at irregular gaps, so
    // promotions, FACH re-use and releases all occur; then the energy
    // meter charging each transmission's segments.
    let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
    let mut at = SimTime::ZERO;
    let gaps: Vec<SimDuration> = (0..BATCH)
        .map(|_| SimDuration::from_millis(rng.range(500..300_000u64)))
        .collect();
    let mut outcomes = Vec::with_capacity(BATCH);
    samples.insert(
        "radio.transmit_ns",
        batch_ns(|| {
            for gap in &gaps {
                at += *gap;
                outcomes.push(radio.transmit(at, 74));
            }
            black_box(outcomes.drain(..).count());
        }),
    );
    let activity: Vec<_> = (0..BATCH)
        .map(|i| {
            at += gaps[i];
            radio.transmit(at, 74).activity.segments
        })
        .collect();
    let mut meter = EnergyMeter::compact();
    samples.insert(
        "energy.apply_ns",
        batch_ns(|| {
            for segments in &activity {
                for (start, segment) in segments {
                    meter.add_segment(*start, *segment);
                }
            }
            black_box(meter.total());
        }),
    );

    // Delivery ledger: one heartbeat's whole relayed life.
    let mut ledger = DeliveryLedger::new();
    let mut ledger_clock = SimTime::ZERO;
    samples.insert(
        "delivery.ledger_ns",
        batch_ns(|| {
            for _ in 0..BATCH {
                ledger_clock += SimDuration::from_millis(10);
                let hb = heartbeat(ledger_clock);
                let id = hb.id;
                ledger.track(hb);
                ledger.d2d_acked(id);
                ledger.feedback_confirmed([id]);
            }
        }),
    );

    // Observation planes: a counter increment on and off, and a span
    // annotation.
    for (name, mut registry) in [
        ("telemetry.incr_ns.on", MetricsRegistry::enabled()),
        ("telemetry.incr_ns.off", MetricsRegistry::disabled()),
    ] {
        samples.insert(
            name,
            batch_ns(|| {
                for _ in 0..BATCH {
                    registry.incr(black_box("hbr_engine_steps_total"));
                }
            }),
        );
    }
    let mut recorder = SpanRecorder::enabled();
    for id in 0..BATCH as u64 {
        recorder.start(id, id as u32, 0);
    }
    let mut t_us = 0u64;
    samples.insert(
        "spans.annotate_ns",
        batch_ns(|| {
            for id in 0..BATCH as u64 {
                t_us += 1;
                recorder.annotate(id, t_us, "flushed", Some("capacity"), None, Some(1));
            }
        }),
    );
    drop(recorder);

    // Checkpoint write of one cell: the most populated one, at
    // mid-horizon, configured as the crowd engine configures its cells.
    let horizon = SimDuration::from_secs(3600);
    let mut config = ScenarioConfig::new(horizon, derive_seed(w.seed, cell));
    config.mode = Mode::D2dFramework;
    config.telemetry = w.telemetry();
    config.reliable_delivery = true;
    config.spans = w.writes("spans");
    config.cell = Some(cell);
    if w.roam {
        config.topology = Some(CellTopology {
            area_side_m: w.area,
            grid: k,
            cell,
        });
    }
    for event in w.faults.events() {
        if event.kind.device().is_none() {
            config.faults.schedule(event.at, event.kind);
        }
    }
    for spec in specs {
        config.add_device((*spec).clone());
    }
    let mut scenario = Scenario::new(config);
    scenario.run_until(SimTime::from_secs(1800));
    samples.insert(
        "snapshot.cell_ms",
        (0..SAMPLES / 2)
            .map(|_| timed(|| black_box(scenario.snapshot())).1 * 1e3)
            .collect(),
    );
}

/// Runs `op` and returns its result with the wall seconds it took.
fn timed<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = op();
    (out, start.elapsed().as_secs_f64())
}

/// [`SAMPLES`] timings of `batch`, each divided by [`BATCH`]: nanoseconds
/// per call.
fn batch_ns(mut batch: impl FnMut()) -> Vec<f64> {
    (0..SAMPLES)
        .map(|_| timed(&mut batch).1 * 1e9 / BATCH as f64)
        .collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_f64(*v)).collect();
    format!("[{}]", items.join(","))
}
