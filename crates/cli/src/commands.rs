//! Command implementations for the `hbr` binary.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hbr_apps::AppProfile;
use hbr_baseline::{
    D2dForwarding, ExtendedPeriod, FastDormancy, Original, Piggyback, Strategy, Workload,
};
use hbr_bench::{RunControls, EPOCHS};
use hbr_core::experiment::{ControlledExperiment, ExperimentConfig};
use hbr_core::world::{EpochPulse, Mode, ScenarioReport};
use hbr_sim::json::{self, Fixed};
use hbr_sim::signal;
use hbr_sim::telemetry::{EventRecord, SpanRef};

use crate::args::{self, Command, CrowdArgs, CrowdMode, OutFlags, USAGE};

/// Parses `argv` and runs the command, returning the process exit
/// status. Whatever prints `error:` exits nonzero: bad arguments (with
/// the usage text), a file that cannot be read or written, and an
/// interrupted batch run.
pub fn exec(argv: &[String]) -> ExitCode {
    match args::parse(argv) {
        Ok(command) => run(command),
        Err(message) => {
            eprintln!("error: {message}\n");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches a parsed command; the returned code is the process exit
/// status.
pub fn run(command: Command) -> ExitCode {
    match command {
        Command::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Command::Quickstart {
            ues,
            transmissions,
            distance,
        } => {
            quickstart(ues, transmissions, distance);
            ExitCode::SUCCESS
        }
        Command::Crowd(args) => crowd(args, false),
        Command::Serve(args) => crowd(args, true),
        Command::Resume {
            dir,
            checkpoint_every,
            out,
        } => resume(&dir, checkpoint_every, &out),
        Command::Strategies { app, hours, seed } => {
            strategies(&app, hours, seed);
            ExitCode::SUCCESS
        }
        Command::Timeline {
            file,
            around,
            window,
            device,
            spans,
        } => {
            if let Err(message) =
                crate::timeline::run(&file, around, window, device, spans.as_deref())
            {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Command::Spans {
            file,
            outcome,
            device,
            slowest,
            id,
        } => {
            if let Err(message) = crate::spans::run(&file, outcome.as_deref(), device, slowest, id)
            {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}

fn quickstart(ues: usize, transmissions: u32, distance: f64) {
    let run = ControlledExperiment::new(ExperimentConfig {
        ue_count: ues,
        transmissions,
        distance_m: distance,
        ..ExperimentConfig::default()
    })
    .run();
    println!("bench: {ues} UE(s) × {transmissions} forwarded heartbeat(s) at {distance} m\n");
    println!(
        "UE energy        : {:>9.0} µAh  (original {:>9.0} µAh, saving {:.1}%)",
        run.ue_energy(),
        run.original_device_energy(),
        run.ue_saving() * 100.0
    );
    println!(
        "system energy    : {:>9.0} µAh  (original {:>9.0} µAh, saving {:.1}%)",
        run.system_energy(),
        run.original_system_energy(),
        run.system_saving() * 100.0
    );
    println!(
        "layer-3 messages : {:>9}      (original {:>9}, saving {:.1}%)",
        run.framework_l3(),
        run.original_l3(),
        run.signaling_saving() * 100.0
    );
    println!(
        "RRC connections  : {:>9}      (original {:>9})",
        run.relay_rrc_connections, run.original_rrc_connections
    );
    if run.d2d_failures > 0 {
        println!("d2d fallbacks    : {:>9}", run.d2d_failures);
    }
}

/// Runs `hbr crowd` (batch) or `hbr serve` (resident): the same engine
/// under [`RunControls`], differing in defaults, per-epoch emission and
/// what an interrupt means — batch treats it as a failure (exit
/// nonzero, artifacts marked partial), serve as a graceful shutdown.
fn crowd(args: CrowdArgs, serve: bool) -> ExitCode {
    let CrowdArgs {
        phones,
        relays,
        hours,
        area,
        seed,
        push_mins,
        mode,
        faults,
        trace,
        shards,
        roam,
        checkpoint_dir,
        checkpoint_every,
        crash_after,
        out: outputs,
    } = args;
    let what = if serve { "serve" } else { "crowd" };
    println!("{what}: {phones} phones ({relays} relays), {area} m side, {hours} h, seed {seed}\n");
    let grid = hbr_bench::cell_grid(area);
    let roaming = if roam { ", roaming" } else { "" };
    match shards {
        Some(s) => println!("engine: {grid}×{grid} cell grid, {s} shard(s){roaming}\n"),
        None => println!("engine: {grid}×{grid} cell grid, auto shards{roaming}\n"),
    }
    if !faults.is_empty() {
        println!("fault plan: {} scheduled event(s)\n", faults.events().len());
    }
    let checkpoint_dir = checkpoint_dir.map(PathBuf::from);
    if let Some(dir) = &checkpoint_dir {
        println!(
            "checkpoints: {} (every {} epoch barrier(s))\n",
            dir.display(),
            checkpoint_every.max(1)
        );
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create checkpoint dir {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    // Batch and resident runs both honor SIGINT/SIGTERM: finish the
    // epoch in flight, checkpoint if configured, flush what exists.
    signal::install();
    let emitter = checkpoint_dir.as_ref().map(|d| pulse_emitter(d.clone()));
    let telemetry = outputs.metrics_out.is_some() || outputs.events_out.is_some();
    let spans = outputs.spans_out.is_some();
    let runs: Vec<(&str, Mode)> = match mode {
        CrowdMode::D2d => vec![("d2d-framework", Mode::D2dFramework)],
        CrowdMode::Original => vec![("original", Mode::OriginalCellular)],
        CrowdMode::Both => vec![
            ("original", Mode::OriginalCellular),
            ("d2d-framework", Mode::D2dFramework),
        ],
    };
    // The profiler times wall clocks, so it attaches to exactly one
    // run: the d2d leg when present (the interesting engine), else
    // whatever single mode was asked for.
    let profile_target = outputs.profile_out.as_ref().map(|_| {
        runs.iter()
            .map(|&(_, m)| m)
            .find(|&m| m == Mode::D2dFramework)
            .unwrap_or(runs[0].1)
    });
    let mut profile = None;
    let mut truncated_at = None;
    // Each mode goes through the sharded engine, which already spreads
    // its cells over worker threads — run the modes sequentially so the
    // two thread pools never compete. The merged reports are
    // byte-identical at any shard count.
    let reports: Vec<ScenarioReport> = runs
        .iter()
        .map(|&(_, m)| {
            let config = hbr_bench::CrowdConfig {
                phones,
                relays,
                hours,
                area_side_m: area,
                seed,
                push_mins,
                mode: m,
                faults: faults.clone(),
                trace_capacity: trace,
                telemetry,
                reliable: true,
                spans,
                shards,
                roam,
            };
            let controls = RunControls {
                checkpoint_dir: checkpoint_dir.clone(),
                checkpoint_every,
                crash_after_epoch: crash_after,
                heed_signals: true,
                on_epoch: emitter
                    .as_ref()
                    .filter(|_| serve)
                    .map(|e| e as &(dyn Fn(u64, &EpochPulse) + Sync)),
                profile: profile_target == Some(m),
            };
            let outcome = hbr_bench::run_crowd_controlled(&config, &controls);
            if outcome.truncated {
                truncated_at.get_or_insert(outcome.epochs_done);
            }
            profile = profile.take().or(outcome.profile);
            outcome.report
        })
        .collect();
    for ((name, _), report) in runs.iter().zip(&reports) {
        println!("── {name} ──");
        print!("{}", report.render());
        println!();
    }
    let truncated = truncated_at.is_some();
    if let Some(done) = truncated_at {
        println!("interrupted: stopped after epoch {done}/{EPOCHS}; artifacts are partial");
        if let Some(dir) = &checkpoint_dir {
            println!("resume with: hbr resume {}", dir.display());
        }
        println!();
    }
    let written = write_artifacts(&runs, &reports, &outputs, truncated);
    let profiled = write_profile(profile.as_ref(), outputs.profile_out.as_deref());
    if reports.len() == 2 && !truncated {
        let (base, fw) = (&reports[0], &reports[1]);
        println!("── comparison ──");
        println!(
            "signaling saving : {:.1}%",
            (1.0 - fw.total_l3 as f64 / base.total_l3 as f64) * 100.0
        );
        println!(
            "energy saving    : {:.1}%",
            (1.0 - fw.total_energy_uah / base.total_energy_uah) * 100.0
        );
    }
    // For a resident service an operator's Ctrl-C is the intended way
    // to stop: the state is checkpointed, so that is a success. A
    // truncated *batch* run did not do what was asked — exit nonzero.
    if !(written && profiled) || (truncated && !serve) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Continues a checkpointed run from the latest `epoch-N.ckpt` in
/// `dir`, checkpointing back into the same directory so repeated
/// kill/resume cycles keep working.
fn resume(dir: &str, checkpoint_every: u64, out: &OutFlags) -> ExitCode {
    signal::install();
    let dir = Path::new(dir);
    let checkpoint = match hbr_bench::latest_checkpoint(dir)
        .and_then(|path| hbr_bench::load_checkpoint(&path))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "error: cannot load a checkpoint from {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let name = match checkpoint.config.mode {
        Mode::D2dFramework => "d2d-framework",
        Mode::OriginalCellular => "original",
    };
    println!(
        "resume: {} from epoch {}/{} ({} phones, seed {}, {})\n",
        dir.display(),
        checkpoint.epochs_done,
        EPOCHS,
        checkpoint.config.phones,
        checkpoint.config.seed,
        name,
    );
    let mode = checkpoint.config.mode;
    let emitter = pulse_emitter(dir.to_path_buf());
    let controls = RunControls {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every,
        crash_after_epoch: None,
        heed_signals: true,
        on_epoch: Some(&emitter),
        profile: out.profile_out.is_some(),
    };
    let outcome = match hbr_bench::resume_crowd(checkpoint, &controls) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: cannot resume from {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!("── {name} ──");
    print!("{}", outcome.report.render());
    println!();
    if outcome.truncated {
        println!(
            "interrupted: stopped after epoch {}/{EPOCHS}; artifacts are partial",
            outcome.epochs_done
        );
        println!("resume with: hbr resume {}\n", dir.display());
    }
    let written = write_artifacts(&[(name, mode)], &[outcome.report], out, outcome.truncated);
    let profiled = write_profile(outcome.profile.as_ref(), out.profile_out.as_deref());
    if !(written && profiled) || outcome.truncated {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The per-epoch emission hook of resident runs: refreshes
/// `metrics.prom` (Prometheus text of the fleet-folded pulse) and
/// appends one JSON line to `pulse.jsonl`, both inside the checkpoint
/// directory. Pure observation — failures are swallowed so a full disk
/// cannot kill the engine mid-epoch.
fn pulse_emitter(dir: PathBuf) -> impl Fn(u64, &EpochPulse) + Sync {
    move |epoch, pulse| {
        let gauges = [
            ("hbr_serve_epoch", epoch),
            ("hbr_serve_forwards", pulse.forwards),
            ("hbr_serve_fallbacks", pulse.fallbacks),
            ("hbr_serve_outage_queued", pulse.outage_queued),
            ("hbr_serve_l3", pulse.l3),
            ("hbr_serve_rrc", pulse.rrc),
            ("hbr_serve_delivered", pulse.delivered),
            ("hbr_serve_retries", pulse.retries),
            ("hbr_serve_migrations", pulse.migrations),
            ("hbr_serve_lte_handovers", pulse.lte_handovers),
        ];
        let mut prom = String::new();
        for (name, value) in &gauges {
            prom.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        let _ = std::fs::write(dir.join("metrics.prom"), prom);
        let mut line = String::new();
        json::object(&mut line, |o| {
            for (name, value) in &gauges {
                o.field(name.trim_start_matches("hbr_serve_"), *value);
            }
        });
        line.push('\n');
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("pulse.jsonl"))
        {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// Writes every deterministic artifact `out` asks for, each even if an
/// earlier one failed; `false` if any write failed (it printed
/// `error:`). The events and spans files, the large ones, are written
/// each on a thread of its own while this thread writes the rest; the
/// outcomes are printed once all are done, in a fixed order (metrics,
/// events, SLO, spans, render), so stdout does not depend on which
/// finished first.
fn write_artifacts(
    runs: &[(&str, Mode)],
    reports: &[ScenarioReport],
    out: &OutFlags,
    truncated: bool,
) -> bool {
    let outcomes = std::thread::scope(|scope| {
        let events = out
            .events_out
            .as_deref()
            .map(|path| scope.spawn(move || write_events(runs, reports, path)));
        let spans = out
            .spans_out
            .as_deref()
            .map(|path| scope.spawn(move || write_spans(runs, reports, path)));
        let metrics = out
            .metrics_out
            .as_deref()
            .map(|path| write_metrics(reports, path));
        let slo = out
            .slo_out
            .as_deref()
            .map(|path| write_slo(runs, reports, path, truncated));
        let render = out
            .render_out
            .as_deref()
            .map(|path| write_render(runs, reports, path, truncated));
        let join = |writer: std::thread::ScopedJoinHandle<'_, Outcome>| {
            writer
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        };
        [metrics, events.map(join), slo, spans.map(join), render]
    });
    let mut ok = true;
    for outcome in outcomes.into_iter().flatten() {
        ok &= report(outcome);
    }
    ok
}

/// Writes the rendered operator console to a file so CI can cmp-gate
/// it like every other deterministic artifact. A truncated run is
/// marked on its own final line.
fn write_render(
    runs: &[(&str, Mode)],
    reports: &[ScenarioReport],
    path: &str,
    truncated: bool,
) -> Outcome {
    let mut text = String::new();
    for ((name, _), report) in runs.iter().zip(reports) {
        text.push_str(&format!("── {name} ──\n"));
        text.push_str(&report.render());
        text.push('\n');
    }
    if truncated {
        text.push_str("truncated: true\n");
    }
    outcome(
        std::fs::write(path, text).map(|()| format!("render   : wrote {path}")),
        &format!("render to {path}"),
    )
}

/// Writes the merged metrics snapshot of a `crowd` run as JSON, plus a
/// `.prom` sibling in Prometheus text. Reports arrive in run order from
/// the sweep, so both files are byte-identical across thread counts and
/// reruns.
fn write_metrics(reports: &[ScenarioReport], path: &str) -> Outcome {
    let merged = hbr_bench::merge_snapshots(reports.iter().map(|r| &r.metrics));
    let prom_path = std::path::Path::new(path).with_extension("prom");
    let mut json = merged.to_json();
    json.push('\n');
    outcome(
        std::fs::write(path, json)
            .and_then(|()| std::fs::write(&prom_path, merged.to_prometheus()))
            .map(|()| format!("metrics  : wrote {path} and {}", prom_path.display())),
        &format!("metrics to {path}"),
    )
}

/// Writes the run-labelled event stream of a `crowd` run as JSONL, in
/// run order, so the file is byte-identical across thread counts and
/// reruns.
fn write_events(runs: &[(&str, Mode)], reports: &[ScenarioReport], path: &str) -> Outcome {
    let runs = runs
        .iter()
        .zip(reports)
        .map(|((name, _), report)| (*name, &report.events));
    outcome(
        write_jsonl(path, runs, |record: &EventRecord, run, out| {
            record.write_jsonl(run, out)
        })
        .map(|lines| format!("events   : wrote {path} ({lines} event line(s))")),
        &format!("events to {path}"),
    )
}

/// Writes the delivery-SLO report of the d2d run as one line of
/// deterministic JSON. Crowd runs always carry the reliable-delivery
/// ledger, so the report exists whenever a d2d leg ran; `--mode
/// original` has none, which is reported instead of writing an empty
/// file. The line is byte-identical across shard counts and reruns, so
/// CI can `cmp` two runs directly.
fn write_slo(
    runs: &[(&str, Mode)],
    reports: &[ScenarioReport],
    path: &str,
    truncated: bool,
) -> Outcome {
    let Some((_, report)) = runs
        .iter()
        .zip(reports)
        .find(|((_, m), _)| *m == Mode::D2dFramework)
    else {
        return Err("--slo-out needs a d2d run, but only the original baseline ran".into());
    };
    let Some(d) = &report.delivery else {
        return Err(format!(
            "the d2d run carried no delivery ledger; cannot write {path}"
        ));
    };
    // A run stopped early carries an explicit marker; complete runs
    // keep the historical byte layout so existing cmp gates still hold.
    let mut slo = String::new();
    json::object(&mut slo, |o| {
        o.field("generated", d.generated)
            .field("delivered", d.delivered)
            .field("duplicates", report.duplicates)
            .field("expired", d.expired)
            .field("dropped_dead", d.dropped_dead)
            .field("in_flight", d.in_flight)
            .field("retries", d.retries)
            .field("handovers", d.handovers)
            .field("requeued", d.requeued)
            .field("migrations", report.migrations)
            .field("lte_handovers", report.lte_handovers)
            .field("delivery_ratio", Fixed(d.ratio(), 6))
            .field("false_dead_seconds", Fixed(d.false_dead_secs, 3))
            .field("truncated", truncated.then_some(true));
    });
    slo.push('\n');
    outcome(
        std::fs::write(path, slo).map(|()| format!("slo      : wrote {path}")),
        &format!("SLO report to {path}"),
    )
}

/// Writes the per-heartbeat lifecycle spans as run-labelled JSONL,
/// exactly like the event stream: spans ride the simulation clock, so
/// the file is byte-identical across thread and shard counts and CI
/// can `cmp` two runs directly.
fn write_spans(runs: &[(&str, Mode)], reports: &[ScenarioReport], path: &str) -> Outcome {
    let runs = runs
        .iter()
        .zip(reports)
        .map(|((name, _), report)| (*name, &report.spans));
    outcome(
        write_jsonl(path, runs, |span: SpanRef<'_>, run, out| {
            span.write_jsonl(run, out)
        })
        .map(|lines| format!("spans    : wrote {path} ({lines} span line(s))")),
        &format!("spans to {path}"),
    )
}

/// Bytes of lines [`write_jsonl`] gathers before it hands them to the
/// file.
const BATCH_BYTES: usize = 1 << 16;

/// Streams run-labelled JSONL to `path`: each record of each run becomes
/// one `line(record, Some(run), buf)` plus a newline, in order, appended
/// to a buffer of this call's own and written through one `BufWriter`.
/// Returns the line count.
///
/// [`write_artifacts`] runs one call per file, each on its own thread.
/// No thread may write a cache line another thread writes: every push
/// updates its `String`'s length, so two threads filling `String`s whose
/// headers share a line (adjacent in a `Vec`) move that line between
/// their cores on every push, and an earlier writer that did so spent
/// twice one thread's time per line on two threads.
fn write_jsonl<'a, I: IntoIterator>(
    path: &str,
    runs: impl IntoIterator<Item = (&'a str, I)>,
    line: impl Fn(I::Item, Option<&str>, &mut String),
) -> std::io::Result<usize> {
    let mut file = BufWriter::new(File::create(path)?);
    let mut batch = String::with_capacity(2 * BATCH_BYTES);
    let mut lines = 0;
    for (run, records) in runs {
        for record in records {
            line(record, Some(run), &mut batch);
            batch.push('\n');
            lines += 1;
            if batch.len() >= BATCH_BYTES {
                file.write_all(batch.as_bytes())?;
                batch.clear();
            }
        }
    }
    file.write_all(batch.as_bytes())?;
    file.flush()?;
    Ok(lines)
}

/// Writes the wall-clock shard profile: the Chrome trace-event JSON at
/// the asked-for path (loadable in Perfetto or about://tracing) and the
/// aggregate summary as a `BENCH_profile.json` sibling. Unlike every
/// other crowd artifact these numbers are wall-clock and therefore NOT
/// deterministic — never cmp-gate them.
fn write_profile(profile: Option<&hbr_bench::CrowdProfile>, profile_out: Option<&str>) -> bool {
    let (Some(profile), Some(path)) = (profile, profile_out) else {
        return true;
    };
    let summary_path = std::path::Path::new(path)
        .parent()
        .map(|d| d.join("BENCH_profile.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_profile.json"));
    let mut summary = profile.to_summary_json();
    summary.push('\n');
    report(outcome(
        std::fs::write(path, profile.to_chrome_trace())
            .and_then(|()| std::fs::write(&summary_path, summary))
            .map(|()| {
                format!(
                    "profile  : wrote {path} (Chrome trace) and {}",
                    summary_path.display()
                )
            }),
        &format!("profile to {path}"),
    ))
}

/// What one artifact write prints: its success line, or the message of
/// its `error:` line.
type Outcome = Result<String, String>;

/// The outcome of an artifact write, a failure naming `what`.
fn outcome(written: std::io::Result<String>, what: &str) -> Outcome {
    written.map_err(|e| format!("cannot write {what}: {e}"))
}

/// Prints an artifact write's outcome — its success line, or `error:`
/// and its message — and returns whether it succeeded.
fn report(outcome: Outcome) -> bool {
    match outcome {
        Ok(line) => {
            println!("{line}");
            true
        }
        Err(message) => {
            eprintln!("error: {message}");
            false
        }
    }
}

fn strategies(app: &AppProfile, hours: u64, seed: u64) {
    println!(
        "strategies: {} mixed workload, {hours} h, seed {seed}\n",
        app.name
    );
    let workload = Workload::mixed(app.clone(), hours * 3600, seed);
    let all: Vec<Box<dyn Strategy>> = vec![
        Box::new(Original),
        Box::new(ExtendedPeriod { factor: 2 }),
        Box::new(Piggyback {
            window: app.heartbeat_period / 2,
        }),
        Box::new(FastDormancy),
        Box::new(D2dForwarding::default()),
    ];
    println!(
        "{:<16} {:>12} {:>9} {:>7} {:>11} {:>10}",
        "strategy", "energy µAh", "L3 msgs", "RRC", "max gap s", "offline s"
    );
    for strategy in &all {
        let out = strategy.run(&workload);
        println!(
            "{:<16} {:>12.0} {:>9} {:>7} {:>11.0} {:>10.0}",
            out.name,
            out.device_energy_uah,
            out.l3_messages,
            out.rrc_connections,
            out.max_presence_gap_secs,
            out.offline_secs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::OutFlags;
    use hbr_sim::fault::FaultPlan;

    #[test]
    fn quickstart_runs() {
        run(Command::Quickstart {
            ues: 1,
            transmissions: 2,
            distance: 1.0,
        });
    }

    #[test]
    fn small_crowd_runs_both_modes() {
        run(Command::Crowd(CrowdArgs {
            phones: 6,
            relays: 2,
            hours: 1,
            area: 15.0,
            seed: 3,
            faults: FaultPlan::new(),
            ..CrowdArgs::default()
        }));
    }

    #[test]
    fn faulted_crowd_runs_with_trace() {
        let faults = crate::args::parse_fault_spec("outage@600+120,blackout@1800+60").unwrap();
        run(Command::Crowd(CrowdArgs {
            phones: 6,
            relays: 2,
            hours: 1,
            area: 15.0,
            seed: 3,
            mode: CrowdMode::D2d,
            faults,
            trace: 200,
            ..CrowdArgs::default()
        }));
    }

    #[test]
    fn crowd_writes_telemetry_files_and_timeline_reads_them() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("hbr_cli_test_{}.json", std::process::id()));
        let prom = metrics.with_extension("prom");
        let events = dir.join(format!("hbr_cli_test_{}.jsonl", std::process::id()));
        let faults = crate::args::parse_fault_spec("outage@600+120").unwrap();
        run(Command::Crowd(CrowdArgs {
            phones: 6,
            relays: 2,
            hours: 1,
            area: 15.0,
            seed: 3,
            faults,
            out: OutFlags {
                metrics_out: Some(metrics.to_string_lossy().into_owned()),
                events_out: Some(events.to_string_lossy().into_owned()),
                ..OutFlags::default()
            },
            ..CrowdArgs::default()
        }));
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("hbr_flush_total"));
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_text.contains("hbr_rrc_dwell_seconds_bucket"));
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(jsonl.lines().all(|l| l.starts_with("{\"run\":\"")));
        assert!(jsonl.contains("\"run\":\"original\""));
        assert!(jsonl.contains("\"run\":\"d2d-framework\""));
        assert!(jsonl.contains("\"event\":\"fault\""));
        // The timeline command consumes exactly what crowd produced.
        run(Command::Timeline {
            file: events.to_string_lossy().into_owned(),
            around: Some(600),
            window: 120,
            device: None,
            spans: None,
        });
        for p in [&metrics, &prom, &events] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn crowd_writes_a_deterministic_slo_report() {
        let dir = std::env::temp_dir();
        let slo_a = dir.join(format!("hbr_cli_slo_a_{}.json", std::process::id()));
        let slo_b = dir.join(format!("hbr_cli_slo_b_{}.json", std::process::id()));
        let crowd = |slo: &std::path::Path, shards: Option<usize>| {
            run(Command::Crowd(CrowdArgs {
                phones: 6,
                relays: 2,
                hours: 1,
                area: 15.0,
                seed: 3,
                mode: CrowdMode::D2d,
                faults: crate::args::parse_fault_spec("outage@600+120").unwrap(),
                shards,
                out: OutFlags {
                    slo_out: Some(slo.to_string_lossy().into_owned()),
                    ..OutFlags::default()
                },
                ..CrowdArgs::default()
            }));
        };
        crowd(&slo_a, Some(1));
        crowd(&slo_b, Some(2));
        let a = std::fs::read_to_string(&slo_a).unwrap();
        let b = std::fs::read_to_string(&slo_b).unwrap();
        assert_eq!(a, b, "SLO report must not depend on the shard count");
        for key in [
            "\"generated\":",
            "\"delivered\":",
            "\"duplicates\":0",
            "\"delivery_ratio\":",
            "\"false_dead_seconds\":",
        ] {
            assert!(a.contains(key), "missing {key} in SLO report: {a}");
        }
        for p in [&slo_a, &slo_b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn crowd_writes_spans_and_profile_and_spans_command_reads_them() {
        let dir = std::env::temp_dir().join(format!("hbr_cli_spans_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spans = dir.join("spans.jsonl");
        let trace = dir.join("trace.json");
        run(Command::Crowd(CrowdArgs {
            phones: 6,
            relays: 2,
            hours: 1,
            area: 15.0,
            seed: 3,
            faults: crate::args::parse_fault_spec("outage@600+120").unwrap(),
            shards: Some(2),
            out: OutFlags {
                spans_out: Some(spans.to_string_lossy().into_owned()),
                profile_out: Some(trace.to_string_lossy().into_owned()),
                ..OutFlags::default()
            },
            ..CrowdArgs::default()
        }));
        let jsonl = std::fs::read_to_string(&spans).unwrap();
        assert!(jsonl.lines().all(|l| l.starts_with("{\"run\":\"")));
        assert!(jsonl.contains("\"run\":\"original\""));
        assert!(jsonl.contains("\"run\":\"d2d-framework\""));
        assert!(jsonl.contains("\"outcome\":\"accepted\""));
        // The spans command consumes exactly what crowd produced.
        crate::spans::run(&spans.to_string_lossy(), None, None, 2, None).unwrap();
        // The profiler wrote a Chrome trace plus its summary sibling.
        let chrome = std::fs::read_to_string(&trace).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        let summary = std::fs::read_to_string(dir.join("BENCH_profile.json")).unwrap();
        for key in ["\"phones\":6", "\"events_total\":", "\"stall_fraction\":"] {
            assert!(summary.contains(key), "missing {key} in {summary}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strategies_handles_known_and_unknown_apps() {
        let argv = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        assert_eq!(
            exec(&argv("strategies --app qq --hours 2 --seed 1")),
            ExitCode::SUCCESS
        );
        assert_eq!(
            exec(&argv("strategies --app not-an-app --hours 2 --seed 1")),
            ExitCode::FAILURE
        );
    }

    fn small_crowd(mode: CrowdMode, out: OutFlags) -> ExitCode {
        run(Command::Crowd(CrowdArgs {
            phones: 6,
            relays: 2,
            hours: 1,
            area: 15.0,
            seed: 3,
            mode,
            faults: FaultPlan::new(),
            out,
            ..CrowdArgs::default()
        }))
    }

    /// The run-labelled line form, pinned for one event and one span.
    #[test]
    fn crowd_writes_run_labelled_event_and_span_lines() {
        let dir = std::env::temp_dir().join(format!("hbr_cli_lines_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (events, spans) = (dir.join("events.jsonl"), dir.join("spans.jsonl"));
        let code = small_crowd(
            CrowdMode::D2d,
            OutFlags {
                events_out: Some(events.to_string_lossy().into_owned()),
                spans_out: Some(spans.to_string_lossy().into_owned()),
                ..OutFlags::default()
            },
        );
        assert_eq!(code, ExitCode::SUCCESS);
        let events = std::fs::read_to_string(&events).unwrap();
        let spans = std::fs::read_to_string(&spans).unwrap();
        assert_eq!((events.lines().count(), spans.lines().count()), (162, 103));
        assert!(events
            .lines()
            .chain(spans.lines())
            .all(|l| l.starts_with("{\"run\":\"d2d-framework\",")));
        assert_eq!(
            events.lines().find(|l| l.contains("\"event\":\"rrc\"")),
            Some(concat!(
                r#"{"run":"d2d-framework","t_us":480000000,"event":"rrc","device":1,"#,
                r#""from":"idle","to":"dch","dwell_secs":480.0}"#
            ))
        );
        assert_eq!(
            spans.lines().find(|l| l.contains("\"attempt\"")),
            Some(concat!(
                r#"{"run":"d2d-framework","id":28,"device":5,"start_us":1079577696,"#,
                r#""end_us":1386399485,"latency_us":306821789,"outcome":"accepted","retries":1,"#,
                r#""events":[{"t_us":1079577696,"kind":"d2d-transfer","relay":0},"#,
                r#"{"t_us":1079577696,"kind":"feedback-armed","relay":0},"#,
                r#"{"t_us":1080477706,"kind":"relay-rejected","relay":0},"#,
                r#"{"t_us":1379577696,"kind":"retry","cause":"feedback-timeout","attempt":1},"#,
                r#"{"t_us":1384199485,"kind":"fallback","cause":"no-relay"}]}"#
            ))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each line of the file is the record's own line behind its run
    /// label, in run order: for an empty run, for one run, and for two
    /// runs in one file as `--mode both` writes them, long enough that
    /// the lines reach the file in several batches.
    #[test]
    fn jsonl_writer_puts_each_record_line_behind_its_run_label() {
        let path =
            std::env::temp_dir().join(format!("hbr_cli_writer_{}.jsonl", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let records: Vec<EventRecord> = (0..2_000u64)
            .map(|i| EventRecord {
                time: hbr_sim::SimTime::from_micros(i * 1_001),
                event: hbr_sim::telemetry::TelemetryEvent::Fallback {
                    device: i as u32,
                    cause: "no-relay",
                    span: (i % 3 == 0).then_some(i),
                },
            })
            .collect();
        let labelled = |run: &str, records: &[EventRecord]| -> String {
            records
                .iter()
                .map(|r| format!("{{\"run\":\"{run}\",{}\n", &r.to_jsonl()[1..]))
                .collect()
        };
        assert!(labelled("original", &records).len() > 2 * BATCH_BYTES);
        let cases: [&[(&str, &[EventRecord])]; 3] = [
            &[("d2d-framework", &[])],
            &[("d2d-framework", &records)],
            &[("original", &records[..1_000]), ("d2d-framework", &records)],
        ];
        for runs in cases {
            let expected: String = runs.iter().map(|(run, r)| labelled(run, r)).collect();
            let lines = write_jsonl(
                &path,
                runs.iter().copied(),
                |record: &EventRecord, run, out| record.write_jsonl(run, out),
            )
            .unwrap();
            assert_eq!(lines, runs.iter().map(|(_, r)| r.len()).sum::<usize>());
            let written = std::fs::read_to_string(&path).unwrap();
            assert!(written == expected, "{lines} lines");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_write_exits_nonzero_after_writing_the_rest() {
        let dir = std::env::temp_dir().join(format!("hbr_cli_failed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let render = dir.join("render.txt");
        let missing = Some(dir.join("missing/out").to_string_lossy().into_owned());
        let failing: [fn(&mut OutFlags) -> &mut Option<String>; 3] = [
            |out| &mut out.metrics_out,
            |out| &mut out.events_out,
            |out| &mut out.spans_out,
        ];
        for (case, flag) in failing.into_iter().enumerate() {
            let _ = std::fs::remove_file(&render);
            let mut out = OutFlags {
                render_out: Some(render.to_string_lossy().into_owned()),
                ..OutFlags::default()
            };
            *flag(&mut out) = missing.clone();
            assert_eq!(
                small_crowd(CrowdMode::D2d, out),
                ExitCode::FAILURE,
                "case {case}"
            );
            let text = std::fs::read_to_string(&render).expect("render written after the failure");
            assert!(
                text.starts_with("── d2d-framework ──"),
                "case {case}: {text}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slo_out_without_a_d2d_run_exits_nonzero() {
        let slo = std::env::temp_dir().join(format!("hbr_cli_no_d2d_{}.json", std::process::id()));
        let code = small_crowd(
            CrowdMode::Original,
            OutFlags {
                slo_out: Some(slo.to_string_lossy().into_owned()),
                ..OutFlags::default()
            },
        );
        assert_eq!(code, ExitCode::FAILURE);
        assert!(!slo.exists(), "no SLO report without a d2d run");
    }

    #[test]
    fn help_prints() {
        run(Command::Help);
    }
}
