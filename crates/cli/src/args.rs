//! Argument parsing for the `hbr` binary — std-only, no dependencies.

use hbr_apps::AppProfile;
use hbr_sim::fault::{FaultKind, FaultPlan};
use hbr_sim::{DeviceId, SimDuration, SimTime};

/// Printed on `hbr help` and on any parse error.
pub const USAGE: &str = "\
hbr — D2D heartbeat relaying framework (ICDCS'17 reproduction)

USAGE:
    hbr quickstart [--ues N] [--transmissions N] [--distance METRES]
        Reproduce the headline numbers for one relay bench run.

    hbr crowd [--phones N] [--relays N] [--hours H] [--area METRES]
              [--seed S] [--push-mins M] [--mode d2d|original|both]
              [--shards S] [--roam 0|1] [--faults SPEC] [--trace N]
              [--metrics-out FILE] [--events-out FILE] [--slo-out FILE]
              [--spans-out FILE] [--profile-out FILE] [--render-out FILE]
              [--checkpoint-dir DIR] [--checkpoint-every N]
        Run a crowd scenario and print the operator console.
        --devices is accepted as an alias for --phones.

        --checkpoint-dir writes a deterministic engine snapshot
        (`epoch-N.ckpt` + MANIFEST.json) into DIR at every epoch
        barrier — atomically, via write-and-rename — so a killed run
        restarts from its last barrier with `hbr resume DIR` instead of
        from zero. --checkpoint-every N thins that to every Nth barrier
        (the final barrier, a graceful interrupt and a scheduled crash
        always checkpoint). Checkpointing is pure observation: the run
        consumes zero extra RNG draws and its artifacts stay
        byte-identical to an uncheckpointed run. Requires a single
        --mode (d2d or original).

        On SIGINT/SIGTERM a crowd run finishes the epoch in flight,
        writes a final checkpoint if a directory is configured, emits
        whatever artifacts were requested with a truncated:true marker,
        and exits nonzero.

        --render-out writes the operator console block to FILE so CI
        can cmp-gate it alongside the other artifacts.

        An artifact that cannot be written is reported as `error:`;
        the other artifacts are still written, and the run exits
        nonzero.

        --shards splits the fleet into per-cell engines that run on S
        worker threads with deterministic epoch barriers; the output is
        byte-identical at any shard count (default: auto — one worker
        per core, capped by the cell count).

        --roam 1 turns on real cross-cell mobility: a device that walks
        out of its 100 m cell migrates to the destination cell at the
        next epoch barrier (deterministic manifests applied in cell
        order), with its D2D links torn down at the source and the LTE
        handover signaling counted at the base station. The merged
        artifacts stay byte-identical at any shard count. Default 0:
        devices keep their home cell forever (the pre-roaming
        contract).

        --metrics-out writes the merged telemetry snapshot to FILE as
        JSON and, next to it, as Prometheus text (extension .prom);
        --events-out writes the typed event stream as JSONL, one
        run-labelled event per line. Either flag turns telemetry on;
        both files are byte-identical across thread counts and reruns.

        --slo-out writes the delivery-SLO report of the d2d run as
        JSON: generated/delivered/duplicate counts, retries, handovers,
        the delivery ratio and false-dead seconds. Byte-identical
        across thread counts, so CI can cmp-gate it.

        --spans-out writes one lifecycle span per heartbeat as JSONL
        (generated, batched, every d2d attempt, retries, handovers,
        the server outcome), readable by `hbr spans`. Spans ride the
        sim clock, so the file is byte-identical across thread and
        shard counts; CI can cmp-gate it like the SLO report.

        --profile-out writes a wall-clock shard profile of the run:
        FILE gets a Chrome trace-event JSON (load it in Perfetto or
        about://tracing) and a BENCH_profile.json sibling gets
        aggregate throughput, per-shard barrier stall and the slowest
        cells. Wall-clock numbers are NOT deterministic — keep this
        artifact apart from the cmp-gated ones.

        --faults injects a deterministic fault schedule; SPEC is a
        comma-separated list of events (times/durations in seconds,
        devices by index):
            outage@AT+DUR           cellular outage for everyone
            blackout@AT+DUR         discovery blackout (no matching)
            drop@AT+DUR:DEV         device's D2D link down for DUR
            depart@AT+REJOIN:DEV    relay departs, back after REJOIN
                                    (REJOIN 0 = never returns)
            degrade@AT+DUR:DEV=P    link suffers extra loss P in [0,1]
            loss@AT+DUR:DEV=P       payloads lost in transit w.p. P
            churn@AT+SPAN:DEV=SPEED device shuttles across the nearest
                                    cell boundary forever (SPAN metres
                                    to each side, SPEED m/s); pair with
                                    --roam 1 to stress migration
            crash@EPOCH             die via SIGKILL right after the
                                    checkpoint at epoch barrier EPOCH
                                    (1-8) hits disk — the deterministic
                                    power-loss fault the kill-resume
                                    harness drives; engine control, not
                                    part of the simulated fault plan
        --trace N keeps every cell's newest N typed events (the records
        --events-out writes, whether or not it is given) and prints how
        many were kept and evicted; an invariant violation prints them
        as JSONL.

    hbr serve [same flags as crowd] --checkpoint-dir DIR
        Resident mode: run the crowd as a long-lived foreground service
        that survives being killed. Requires --checkpoint-dir (that is
        the survival mechanism) and runs a single mode (default d2d).
        After every epoch barrier the server refreshes DIR/metrics.prom
        (Prometheus text of the fleet pulse) and appends one JSON line
        to DIR/pulse.jsonl. SIGINT/SIGTERM is a *graceful* shutdown:
        finish the epoch, write a final checkpoint, flush artifacts
        (marked truncated:true if the horizon was not reached) and exit
        zero. Pick the run up again with `hbr resume DIR`.

    hbr resume DIR [--checkpoint-every N] [--metrics-out FILE]
               [--events-out FILE] [--slo-out FILE] [--spans-out FILE]
               [--profile-out FILE] [--render-out FILE]
        Continue a checkpointed run from the latest `epoch-N.ckpt` in
        DIR: restore every cell engine bit-for-bit, run the remaining
        epochs (checkpointing into the same DIR), and emit artifacts
        byte-identical to a never-interrupted run. A snapshot written
        by a different format version or under a different config is
        refused with a typed error. Exits nonzero if interrupted again
        before the horizon. --profile-out profiles the resumed epochs.

    hbr strategies [--app wechat|qq|whatsapp|facebook] [--hours H] [--seed S]
        Compare every heartbeat strategy on one app's mixed workload.

    hbr timeline FILE [--around SECS] [--window SECS] [--device N]
                 [--spans FILE]
        Explain a window of an --events-out JSONL file as a causal,
        human-readable timeline. --around centres the window (--window
        half-width, default 120 s; omit --around to show everything);
        --device keeps one device's events plus global faults.
        --spans points at the matching --spans-out file: fallbacks
        then cite the exact cause chain recorded on the heartbeat's
        span instead of the nearest-fault guess.

    hbr spans FILE [--outcome NAME] [--device N] [--slowest N] [--id ID]
        Summarise an --spans-out JSONL file: span counts and
        p50/p95/p99 delivery latency by outcome, the retry-depth
        distribution, and the leading annotation causes. --outcome and
        --device filter the population; --slowest N prints the N
        slowest delivered spans as event trees; --id drills into one
        heartbeat's full span tree.

    hbr help
        Show this text.";

/// A parsed `hbr` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// The controlled-bench quickstart.
    Quickstart {
        /// Number of UEs.
        ues: usize,
        /// Forwarded heartbeats per UE.
        transmissions: u32,
        /// UE–relay distance in metres.
        distance: f64,
    },
    /// A crowd scenario through the event-driven world.
    Crowd(CrowdArgs),
    /// The resident-service flavour of `Crowd`: checkpoint directory
    /// mandatory, single mode, per-epoch Prometheus/JSONL emission,
    /// graceful SIGINT/SIGTERM shutdown.
    Serve(CrowdArgs),
    /// Continue a checkpointed run from its latest epoch barrier.
    Resume {
        /// The `--checkpoint-dir` of the interrupted run.
        dir: String,
        /// Checkpoint cadence for the continued run.
        checkpoint_every: u64,
        /// Artifact output flags for the completed run.
        out: OutFlags,
    },
    /// Render a causal timeline from an `--events-out` JSONL file.
    Timeline {
        /// The JSONL file to read.
        file: String,
        /// Centre of the window, seconds (None = whole file).
        around: Option<u64>,
        /// Window half-width, seconds.
        window: u64,
        /// Restrict to one device (global faults are kept).
        device: Option<u32>,
        /// Matching `--spans-out` file for exact fallback causes.
        spans: Option<String>,
    },
    /// Summarise a `--spans-out` JSONL file.
    Spans {
        /// The spans JSONL file to read.
        file: String,
        /// Keep only spans with this outcome.
        outcome: Option<String>,
        /// Keep only spans of this device.
        device: Option<u32>,
        /// Print the N slowest matching spans as event trees.
        slowest: usize,
        /// Drill into one heartbeat id's span tree.
        id: Option<u64>,
    },
    /// The strategy comparison table.
    Strategies {
        /// The app whose workload is compared.
        app: AppProfile,
        /// Workload length in hours.
        hours: u64,
        /// Workload seed.
        seed: u64,
    },
    /// Print usage.
    Help,
}

/// Everything a `crowd` or `serve` run takes from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdArgs {
    /// Total phones.
    pub phones: usize,
    /// Volunteer relays among them.
    pub relays: usize,
    /// Scenario length in hours.
    pub hours: u64,
    /// Deployment area side, metres.
    pub area: f64,
    /// Scenario seed.
    pub seed: u64,
    /// Mean minutes between pushes (0 disables).
    pub push_mins: u64,
    /// Which system(s) to run.
    pub mode: CrowdMode,
    /// Deterministic fault schedule (empty = clean run).
    pub faults: FaultPlan,
    /// Per-cell trace capacity in typed events (0 disables tracing).
    pub trace: usize,
    /// Worker threads for the sharded engine (None = auto).
    pub shards: Option<usize>,
    /// Real cross-cell roaming with deterministic migration.
    pub roam: bool,
    /// Write epoch-barrier checkpoints into this directory.
    pub checkpoint_dir: Option<String>,
    /// Checkpoint at every Nth barrier (0 and 1 both mean every one).
    pub checkpoint_every: u64,
    /// `crash@EPOCH` from the fault spec: SIGKILL right after that
    /// barrier's checkpoint lands — engine control, not a sim fault.
    pub crash_after: Option<u64>,
    /// Artifact output flags.
    pub out: OutFlags,
}

impl Default for CrowdArgs {
    fn default() -> Self {
        CrowdArgs {
            phones: 40,
            relays: 8,
            hours: 2,
            area: 40.0,
            seed: 7,
            push_mins: 0,
            mode: CrowdMode::Both,
            faults: FaultPlan::new(),
            trace: 0,
            shards: None,
            roam: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            crash_after: None,
            out: OutFlags::default(),
        }
    }
}

/// The artifact output-file flags shared by `crowd`, `serve` and
/// `resume`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutFlags {
    /// Write the merged metrics snapshot here (JSON + `.prom`).
    pub metrics_out: Option<String>,
    /// Write the typed event stream here (JSONL).
    pub events_out: Option<String>,
    /// Write the delivery-SLO report here (JSON).
    pub slo_out: Option<String>,
    /// Write per-heartbeat lifecycle spans here (JSONL).
    pub spans_out: Option<String>,
    /// Write the wall-clock shard profile here (Chrome trace JSON
    /// plus a `BENCH_profile.json` summary sibling).
    pub profile_out: Option<String>,
    /// Write the rendered operator console here (text).
    pub render_out: Option<String>,
}

/// Which transport system(s) a `crowd` run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrowdMode {
    /// The framework only.
    D2d,
    /// The unmodified baseline only.
    Original,
    /// Both, with a comparison footer.
    Both,
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown subcommands, unknown
/// flags, missing values or unparsable numbers.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(sub) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "quickstart" => {
            let mut ues = 1usize;
            let mut transmissions = 7u32;
            let mut distance = 1.0f64;
            parse_flags(rest, |flag, value| match flag {
                "--ues" => set(value, &mut ues),
                "--transmissions" => set(value, &mut transmissions),
                "--distance" => set(value, &mut distance),
                _ => Err(format!("unknown flag {flag} for quickstart")),
            })?;
            if ues == 0 || transmissions == 0 {
                return Err("--ues and --transmissions must be positive".into());
            }
            if !(distance.is_finite() && distance > 0.0) {
                return Err("--distance must be a positive number of metres".into());
            }
            Ok(Command::Quickstart {
                ues,
                transmissions,
                distance,
            })
        }
        "crowd" => Ok(Command::Crowd(parse_crowd_args(
            rest,
            CrowdMode::Both,
            "crowd",
        )?)),
        "serve" => {
            let args = parse_crowd_args(rest, CrowdMode::D2d, "serve")?;
            if args.checkpoint_dir.is_none() {
                return Err(
                    "serve needs --checkpoint-dir DIR (that is how it survives kills)".into(),
                );
            }
            Ok(Command::Serve(args))
        }
        "resume" => {
            let Some(dir) = rest.first().filter(|a| !a.starts_with("--")) else {
                return Err("resume needs a checkpoint directory".into());
            };
            let dir = dir.clone();
            let mut checkpoint_every = 1u64;
            let mut out = OutFlags::default();
            parse_flags(&rest[1..], |flag, value| {
                if flag == "--checkpoint-every" {
                    return set(value, &mut checkpoint_every);
                }
                if set_out_flag(&mut out, flag, value) {
                    return Ok(());
                }
                Err(format!("unknown flag {flag} for resume"))
            })?;
            Ok(Command::Resume {
                dir,
                checkpoint_every,
                out,
            })
        }
        "timeline" => {
            let Some(file) = rest.first().filter(|a| !a.starts_with("--")) else {
                return Err("timeline needs an events JSONL file".into());
            };
            let file = file.clone();
            let mut around = None;
            let mut window = 120u64;
            let mut device = None;
            let mut spans = None;
            parse_flags(&rest[1..], |flag, value| match flag {
                "--around" => {
                    let mut at = 0u64;
                    set_duration(flag, value, &mut at, MAX_TIMELINE_SECS)?;
                    around = Some(at);
                    Ok(())
                }
                "--window" => set_duration(flag, value, &mut window, MAX_TIMELINE_SECS),
                "--device" => {
                    let mut d = 0u32;
                    set(value, &mut d)?;
                    device = Some(d);
                    Ok(())
                }
                "--spans" => {
                    spans = Some(value.to_string());
                    Ok(())
                }
                _ => Err(format!("unknown flag {flag} for timeline")),
            })?;
            if window == 0 {
                return Err("--window must be positive".into());
            }
            Ok(Command::Timeline {
                file,
                around,
                window,
                device,
                spans,
            })
        }
        "spans" => {
            let Some(file) = rest.first().filter(|a| !a.starts_with("--")) else {
                return Err("spans needs a --spans-out JSONL file".into());
            };
            let file = file.clone();
            let mut outcome = None;
            let mut device = None;
            let mut slowest = 0usize;
            let mut id = None;
            parse_flags(&rest[1..], |flag, value| match flag {
                "--outcome" => {
                    outcome = Some(value.to_string());
                    Ok(())
                }
                "--device" => {
                    let mut d = 0u32;
                    set(value, &mut d)?;
                    device = Some(d);
                    Ok(())
                }
                "--slowest" => set(value, &mut slowest),
                "--id" => {
                    let mut i = 0u64;
                    set(value, &mut i)?;
                    id = Some(i);
                    Ok(())
                }
                _ => Err(format!("unknown flag {flag} for spans")),
            })?;
            Ok(Command::Spans {
                file,
                outcome,
                device,
                slowest,
                id,
            })
        }
        "strategies" => {
            let mut app = AppProfile::wechat();
            let mut hours = 24u64;
            let mut seed = 2017u64;
            parse_flags(rest, |flag, value| match flag {
                "--app" => {
                    app = AppProfile::by_name(value).ok_or_else(|| {
                        format!("unknown app {value}; try wechat, qq, whatsapp or facebook")
                    })?;
                    Ok(())
                }
                "--hours" => set_duration(flag, value, &mut hours, MAX_HOURS),
                "--seed" => set(value, &mut seed),
                _ => Err(format!("unknown flag {flag} for strategies")),
            })?;
            if hours == 0 {
                return Err("--hours must be positive".into());
            }
            Ok(Command::Strategies { app, hours, seed })
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// Parses the flag set shared by `crowd` and `serve` into [`CrowdArgs`]
/// and applies the validation both subcommands agree on.
fn parse_crowd_args(
    rest: &[String],
    default_mode: CrowdMode,
    what: &str,
) -> Result<CrowdArgs, String> {
    let mut args = CrowdArgs {
        mode: default_mode,
        ..CrowdArgs::default()
    };
    parse_flags(rest, |flag, value| {
        if set_out_flag(&mut args.out, flag, value) {
            return Ok(());
        }
        match flag {
            "--phones" | "--devices" => set(value, &mut args.phones),
            "--relays" => set(value, &mut args.relays),
            "--hours" => set_duration(flag, value, &mut args.hours, MAX_HOURS),
            "--area" => set(value, &mut args.area),
            "--seed" => set(value, &mut args.seed),
            "--push-mins" => set_duration(flag, value, &mut args.push_mins, MAX_PUSH_MINS),
            "--trace" => set(value, &mut args.trace),
            "--shards" => {
                let mut s = 0usize;
                set(value, &mut s)?;
                args.shards = Some(s);
                Ok(())
            }
            "--roam" => {
                args.roam = match value {
                    "1" | "true" | "on" => true,
                    "0" | "false" | "off" => false,
                    other => return Err(format!("--roam takes 0 or 1, got {other}")),
                };
                Ok(())
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(value.to_string());
                Ok(())
            }
            "--checkpoint-every" => set(value, &mut args.checkpoint_every),
            "--faults" => {
                let (plan, crash) = parse_fault_spec_full(value)?;
                args.faults = plan;
                args.crash_after = crash;
                Ok(())
            }
            "--mode" => {
                args.mode = match value {
                    "d2d" => CrowdMode::D2d,
                    "original" => CrowdMode::Original,
                    "both" => CrowdMode::Both,
                    other => return Err(format!("unknown mode {other}")),
                };
                Ok(())
            }
            _ => Err(format!("unknown flag {flag} for {what}")),
        }
    })?;
    if args.phones == 0 || args.hours == 0 {
        return Err("--phones and --hours must be positive".into());
    }
    if args.relays > args.phones {
        return Err("--relays cannot exceed --phones".into());
    }
    if args.shards == Some(0) {
        return Err("--shards must be positive (omit it for auto)".into());
    }
    if args.mode == CrowdMode::Both && (args.checkpoint_dir.is_some() || args.crash_after.is_some())
    {
        return Err(
            "checkpointing runs exactly one system; pass --mode d2d or --mode original".into(),
        );
    }
    Ok(args)
}

/// Applies one of the shared artifact output flags; `false` means the
/// flag is not an output flag and the caller should keep matching.
fn set_out_flag(out: &mut OutFlags, flag: &str, value: &str) -> bool {
    let slot = match flag {
        "--metrics-out" => &mut out.metrics_out,
        "--events-out" => &mut out.events_out,
        "--slo-out" => &mut out.slo_out,
        "--spans-out" => &mut out.spans_out,
        "--profile-out" => &mut out.profile_out,
        "--render-out" => &mut out.render_out,
        _ => return false,
    };
    *slot = Some(value.to_string());
    true
}

/// [`parse_fault_spec`] plus the `crash@EPOCH` engine control: peels
/// crash entries (which are process control, not simulated faults) off
/// the spec and returns them separately.
pub fn parse_fault_spec_full(spec: &str) -> Result<(FaultPlan, Option<u64>), String> {
    let mut crash = None;
    let mut sim_entries: Vec<&str> = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        if let Some(epoch) = entry.strip_prefix("crash@") {
            let epoch: u64 = epoch
                .parse()
                .map_err(|_| format!("fault {entry}: cannot parse epoch {epoch}"))?;
            if !(1..=hbr_bench::EPOCHS).contains(&epoch) {
                return Err(format!(
                    "fault {entry}: epoch must be 1..={}",
                    hbr_bench::EPOCHS
                ));
            }
            if crash.replace(epoch).is_some() {
                return Err("at most one crash@EPOCH per run".into());
            }
        } else {
            sim_entries.push(entry);
        }
    }
    Ok((parse_fault_spec(&sim_entries.join(","))?, crash))
}

/// Parses a `--faults` spec (see [`USAGE`]) into a [`FaultPlan`].
///
/// Each comma-separated entry is `kind@AT+DUR[:DEV][=P]`; times and
/// durations are whole seconds, `DEV` is the device's index in fleet
/// order, `P` a probability in `[0, 1]`.
pub fn parse_fault_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (kind, rest) = entry
            .split_once('@')
            .ok_or_else(|| format!("fault {entry} is missing an @time"))?;
        // Peel the optional trailing pieces right to left: `=P`, `:DEV`.
        // The `=` slot is a probability for degrade/loss but a speed for
        // churn, so range validation happens in the per-kind arms.
        let (rest, prob) = match rest.split_once('=') {
            Some((head, p)) => {
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("fault {entry}: cannot parse value {p}"))?;
                (head, Some(p))
            }
            None => (rest, None),
        };
        let (timing, device) = match rest.split_once(':') {
            Some((head, dev)) => {
                let dev: u32 = dev
                    .parse()
                    .map_err(|_| format!("fault {entry}: cannot parse device index {dev}"))?;
                (head, Some(DeviceId::new(dev)))
            }
            None => (rest, None),
        };
        let (at, dur) = timing
            .split_once('+')
            .ok_or_else(|| format!("fault {entry} is missing a +duration"))?;
        let at: u64 = at
            .parse()
            .map_err(|_| format!("fault {entry}: cannot parse time {at}"))?;
        let dur: u64 = dur
            .parse()
            .map_err(|_| format!("fault {entry}: cannot parse duration {dur}"))?;
        let at = SimTime::from_secs(at);
        let duration = SimDuration::from_secs(dur);

        let need_device = || device.ok_or_else(|| format!("fault {entry} needs a :device index"));
        let need_probability = |p: Option<f64>, what: &str| -> Result<f64, String> {
            let p = p.ok_or_else(|| format!("fault {entry} needs =P for the {what}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault {entry}: probability must be in [0, 1]"));
            }
            Ok(p)
        };
        let kind = match kind {
            "outage" => FaultKind::CellularOutage { duration },
            "blackout" => FaultKind::DiscoveryBlackout { duration },
            "drop" => FaultKind::LinkDrop {
                device: need_device()?,
                d2d_down_for: duration,
            },
            "depart" => FaultKind::RelayDeparture {
                device: need_device()?,
                rejoin_after: (dur > 0).then_some(duration),
            },
            "degrade" => FaultKind::LinkDegrade {
                device: need_device()?,
                extra_loss: need_probability(prob, "extra loss")?,
                duration,
            },
            "loss" => FaultKind::PayloadLoss {
                device: need_device()?,
                probability: need_probability(prob, "loss probability")?,
                duration,
            },
            "churn" => {
                // `churn@AT+SPAN:DEV=SPEED`: the duration slot carries
                // the corridor half-span in metres, the `=` slot the
                // walking speed in m/s.
                let speed = prob.ok_or_else(|| format!("fault {entry} needs =SPEED in m/s"))?;
                if !(speed.is_finite() && speed > 0.0) {
                    return Err(format!(
                        "fault {entry}: speed must be positive, got {speed}"
                    ));
                }
                FaultKind::BoundaryChurn {
                    device: need_device()?,
                    half_span_m: dur as f64,
                    speed_mps: speed,
                }
            }
            other => {
                return Err(format!(
                    "unknown fault kind {other}; try outage, blackout, drop, depart, \
                     degrade, loss, churn"
                ))
            }
        };
        plan.schedule(at, kind);
    }
    Ok(plan)
}

fn set<T: std::str::FromStr>(value: &str, slot: &mut T) -> Result<(), String> {
    *slot = value
        .parse()
        .map_err(|_| format!("cannot parse value {value}"))?;
    Ok(())
}

/// Largest value a seconds-denominated timeline flag may take: anything
/// bigger cannot be represented on the simulator's microsecond grid.
pub(crate) const MAX_TIMELINE_SECS: u64 = u64::MAX / 1_000_000;

/// Largest `--hours` value whose microsecond total still fits in `u64`.
pub(crate) const MAX_HOURS: u64 = u64::MAX / (3600 * 1_000_000);

/// Largest `--push-mins` value whose microsecond total still fits in `u64`.
pub(crate) const MAX_PUSH_MINS: u64 = u64::MAX / (60 * 1_000_000);

/// Parses a duration-valued flag (hours, minutes or seconds). A bare
/// `set` would report negatives as an opaque parse failure and let
/// huge values overflow the microsecond grid downstream — which once
/// meant a silently zero-length run; reject both here with the flag
/// named in the error.
fn set_duration(flag: &str, value: &str, slot: &mut u64, max: u64) -> Result<(), String> {
    if value.trim().starts_with('-') {
        return Err(format!("{flag} cannot be negative, got {value}"));
    }
    let parsed: u64 = value
        .parse()
        .map_err(|_| format!("{flag} needs a whole non-negative number, got {value}"))?;
    if parsed > max {
        return Err(format!("{flag} is too large (max {max}), got {value}"));
    }
    *slot = parsed;
    Ok(())
}

fn parse_flags<F>(rest: &[String], mut apply: F) -> Result<(), String>
where
    F: FnMut(&str, &str) -> Result<(), String>,
{
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        if !flag.starts_with("--") {
            return Err(format!("expected a --flag, got {flag}"));
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        apply(flag, value)?;
        i += 2;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_are_sane() {
        assert_eq!(
            parse(&argv("quickstart")).unwrap(),
            Command::Quickstart {
                ues: 1,
                transmissions: 7,
                distance: 1.0
            }
        );
        match parse(&argv("crowd")).unwrap() {
            Command::Crowd(a) => {
                assert_eq!(a.phones, 40);
                assert_eq!(a.relays, 8);
                assert_eq!(a.mode, CrowdMode::Both);
                assert!(a.checkpoint_dir.is_none() && a.crash_after.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flags_override() {
        let cmd = parse(&argv(
            "crowd --phones 100 --relays 20 --hours 3 --mode d2d --push-mins 30",
        ))
        .unwrap();
        match cmd {
            Command::Crowd(a) => {
                assert_eq!((a.phones, a.relays, a.hours, a.push_mins), (100, 20, 3, 30));
                assert_eq!(a.mode, CrowdMode::D2d);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("crowd --phones")).is_err());
        assert!(parse(&argv("crowd --phones ten")).is_err());
        assert!(parse(&argv("crowd --relays 50 --phones 10")).is_err());
        assert!(parse(&argv("crowd --mode sideways")).is_err());
        assert!(parse(&argv("quickstart --distance -4")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn help_parses() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn fault_spec_covers_every_kind() {
        let plan = parse_fault_spec(
            "outage@1800+120,blackout@3600+300,drop@2000+60:3,\
             depart@1800+900:0,degrade@1000+600:2=0.9,loss@1000+600:2=0.5",
        )
        .unwrap();
        assert_eq!(plan.events().len(), 6);
        // Events come back sorted by time.
        let times: Vec<u64> = plan
            .events()
            .iter()
            .map(|e| e.at.saturating_since(SimTime::ZERO).as_secs())
            .collect();
        assert_eq!(times, vec![1000, 1000, 1800, 1800, 2000, 3600]);
        assert!(plan.events().iter().any(|e| e.kind
            == FaultKind::RelayDeparture {
                device: DeviceId::new(0),
                rejoin_after: Some(SimDuration::from_secs(900)),
            }));
        assert!(plan.events().iter().any(|e| e.kind
            == FaultKind::LinkDrop {
                device: DeviceId::new(3),
                d2d_down_for: SimDuration::from_secs(60),
            }));
    }

    #[test]
    fn fault_spec_zero_rejoin_means_permanent_departure() {
        let plan = parse_fault_spec("depart@100+0:1").unwrap();
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::RelayDeparture {
                device: DeviceId::new(1),
                rejoin_after: None,
            }
        );
    }

    #[test]
    fn fault_spec_errors_are_reported() {
        assert!(parse_fault_spec("outage").is_err(), "missing @time");
        assert!(parse_fault_spec("outage@100").is_err(), "missing +duration");
        assert!(parse_fault_spec("drop@100+60").is_err(), "missing :device");
        assert!(parse_fault_spec("degrade@100+60:2").is_err(), "missing =P");
        assert!(parse_fault_spec("loss@100+60:2=1.5").is_err(), "P > 1");
        assert!(parse_fault_spec("teleport@100+60").is_err(), "unknown kind");
        assert!(parse_fault_spec("outage@ten+60").is_err(), "bad number");
    }

    #[test]
    fn crowd_accepts_telemetry_outputs_and_devices_alias() {
        let cmd = parse(&argv(
            "crowd --devices 200 --metrics-out m.json --events-out e.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Crowd(a) => {
                assert_eq!(a.phones, 200);
                assert_eq!(a.out.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(a.out.events_out.as_deref(), Some("e.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Without the flags both stay off.
        match parse(&argv("crowd")).unwrap() {
            Command::Crowd(a) => {
                assert!(a.out.metrics_out.is_none() && a.out.events_out.is_none())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn crowd_accepts_slo_out() {
        match parse(&argv("crowd --slo-out slo.json")).unwrap() {
            Command::Crowd(a) => assert_eq!(a.out.slo_out.as_deref(), Some("slo.json")),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("crowd")).unwrap() {
            Command::Crowd(a) => assert!(a.out.slo_out.is_none(), "default is off"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timeline_parses_and_validates() {
        assert_eq!(
            parse(&argv("timeline e.jsonl --around 1800 --device 7")).unwrap(),
            Command::Timeline {
                file: "e.jsonl".into(),
                around: Some(1800),
                window: 120,
                device: Some(7),
                spans: None,
            }
        );
        assert_eq!(
            parse(&argv("timeline e.jsonl --window 60 --spans s.jsonl")).unwrap(),
            Command::Timeline {
                file: "e.jsonl".into(),
                around: None,
                window: 60,
                device: None,
                spans: Some("s.jsonl".into()),
            }
        );
        assert!(parse(&argv("timeline")).is_err(), "missing file");
        assert!(parse(&argv("timeline --around 5")).is_err(), "flag as file");
        assert!(parse(&argv("timeline e.jsonl --window 0")).is_err());
        assert!(parse(&argv("timeline e.jsonl --frobnicate 1")).is_err());
    }

    #[test]
    fn duration_flags_reject_negatives_by_name() {
        // A negative duration used to fail as an opaque "cannot parse
        // value"; worse, before validation existed it could wrap into a
        // zero-length run. The error must now name the flag.
        for bad in [
            "crowd --hours -3",
            "crowd --push-mins -1",
            "strategies --hours -24",
            "timeline e.jsonl --around -5",
            "timeline e.jsonl --window -60",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            let flag = bad
                .split_whitespace()
                .find(|w| w.starts_with("--"))
                .unwrap();
            assert!(
                err.contains(flag) && err.contains("negative"),
                "{bad}: unhelpful error {err:?}"
            );
        }
    }

    #[test]
    fn duration_flags_reject_values_off_the_microsecond_grid() {
        // u64::MAX hours cannot be represented in microseconds; letting
        // it through would overflow (or silently truncate) downstream.
        let max = u64::MAX;
        for bad in [
            format!("crowd --hours {max}"),
            format!("crowd --push-mins {max}"),
            format!("strategies --hours {max}"),
            format!("timeline e.jsonl --around {max}"),
            format!("timeline e.jsonl --window {max}"),
        ] {
            let err = parse(&argv(&bad)).unwrap_err();
            assert!(err.contains("too large"), "{bad}: unexpected error {err:?}");
        }
        // The documented maxima themselves are accepted.
        assert!(parse(&argv(&format!("crowd --hours {MAX_HOURS}"))).is_ok());
        assert!(parse(&argv(&format!(
            "timeline e.jsonl --around {MAX_TIMELINE_SECS}"
        )))
        .is_ok());
    }

    #[test]
    fn crowd_accepts_spans_and_profile_outputs() {
        let cmd = parse(&argv("crowd --spans-out s.jsonl --profile-out trace.json")).unwrap();
        match cmd {
            Command::Crowd(a) => {
                assert_eq!(a.out.spans_out.as_deref(), Some("s.jsonl"));
                assert_eq!(a.out.profile_out.as_deref(), Some("trace.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("crowd")).unwrap() {
            Command::Crowd(a) => assert!(
                a.out.spans_out.is_none() && a.out.profile_out.is_none(),
                "default off"
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spans_subcommand_parses_and_validates() {
        assert_eq!(
            parse(&argv(
                "spans s.jsonl --outcome expired --device 3 --slowest 5"
            ))
            .unwrap(),
            Command::Spans {
                file: "s.jsonl".into(),
                outcome: Some("expired".into()),
                device: Some(3),
                slowest: 5,
                id: None,
            }
        );
        assert_eq!(
            parse(&argv("spans s.jsonl --id 42")).unwrap(),
            Command::Spans {
                file: "s.jsonl".into(),
                outcome: None,
                device: None,
                slowest: 0,
                id: Some(42),
            }
        );
        assert!(parse(&argv("spans")).is_err(), "missing file");
        assert!(parse(&argv("spans --id 1")).is_err(), "flag as file");
        assert!(parse(&argv("spans s.jsonl --frobnicate 1")).is_err());
        assert!(parse(&argv("spans s.jsonl --id minus")).is_err());
    }

    #[test]
    fn crowd_shards_flag_parses_and_rejects_zero() {
        match parse(&argv("crowd --shards 4")).unwrap() {
            Command::Crowd(a) => assert_eq!(a.shards, Some(4)),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("crowd")).unwrap() {
            Command::Crowd(a) => assert_eq!(a.shards, None, "default is auto"),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("crowd --shards 0")).unwrap_err();
        assert!(err.contains("--shards"), "unhelpful error {err:?}");
    }

    #[test]
    fn crowd_roam_flag_parses_and_defaults_off() {
        match parse(&argv("crowd --roam 1")).unwrap() {
            Command::Crowd(a) => assert!(a.roam),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("crowd --roam 0")).unwrap() {
            Command::Crowd(a) => assert!(!a.roam),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("crowd")).unwrap() {
            Command::Crowd(a) => assert!(!a.roam, "default is pinned-home"),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("crowd --roam sideways")).unwrap_err();
        assert!(err.contains("--roam"), "unhelpful error {err:?}");
    }

    #[test]
    fn fault_spec_parses_boundary_churn() {
        let plan = parse_fault_spec("churn@600+50:3=1.4").unwrap();
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::BoundaryChurn {
                device: DeviceId::new(3),
                half_span_m: 50.0,
                speed_mps: 1.4,
            }
        );
        // Speeds above 1 m/s are legitimate — the [0,1] check guards
        // probabilities only.
        assert!(parse_fault_spec("churn@600+50:3=5.0").is_ok());
        assert!(parse_fault_spec("churn@600+50:3").is_err(), "missing speed");
        assert!(parse_fault_spec("churn@600+50=1.4").is_err(), "no device");
        assert!(parse_fault_spec("churn@600+50:3=0").is_err(), "zero speed");
    }

    #[test]
    fn crowd_accepts_faults_and_trace() {
        let cmd = parse(&argv("crowd --faults outage@1800+120 --trace 500")).unwrap();
        match cmd {
            Command::Crowd(a) => {
                assert_eq!(a.faults.events().len(), 1);
                assert_eq!(a.trace, 500);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("crowd --faults nonsense")).is_err());
    }

    #[test]
    fn crowd_checkpoint_flags_parse_and_validate() {
        let cmd = parse(&argv(
            "crowd --mode d2d --checkpoint-dir ckpt --checkpoint-every 3 \
             --faults outage@600+120,crash@5 --render-out console.txt",
        ))
        .unwrap();
        match cmd {
            Command::Crowd(a) => {
                assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpt"));
                assert_eq!(a.checkpoint_every, 3);
                assert_eq!(a.crash_after, Some(5));
                assert_eq!(a.faults.events().len(), 1, "crash is not a sim fault");
                assert_eq!(a.out.render_out.as_deref(), Some("console.txt"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Checkpointing a `both` run would interleave two engines in
        // one directory; rejected.
        let err = parse(&argv("crowd --checkpoint-dir ckpt")).unwrap_err();
        assert!(err.contains("--mode"), "unhelpful error {err:?}");
        // crash@EPOCH is bounded by the barrier count and unique.
        assert!(parse(&argv("crowd --mode d2d --faults crash@0")).is_err());
        assert!(parse(&argv("crowd --mode d2d --faults crash@9")).is_err());
        assert!(parse(&argv("crowd --mode d2d --faults crash@2,crash@3")).is_err());
    }

    #[test]
    fn serve_requires_a_checkpoint_dir_and_defaults_to_d2d() {
        match parse(&argv("serve --checkpoint-dir state")).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.checkpoint_dir.as_deref(), Some("state"));
                assert_eq!(a.mode, CrowdMode::D2d, "serve runs one system");
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("serve")).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "unhelpful error {err:?}");
        assert!(parse(&argv("serve --checkpoint-dir s --mode both")).is_err());
    }

    #[test]
    fn resume_parses_and_validates() {
        assert_eq!(
            parse(&argv("resume ckpt --slo-out slo.json")).unwrap(),
            Command::Resume {
                dir: "ckpt".into(),
                checkpoint_every: 1,
                out: OutFlags {
                    slo_out: Some("slo.json".into()),
                    ..OutFlags::default()
                },
            }
        );
        assert!(parse(&argv("resume")).is_err(), "missing directory");
        assert!(parse(&argv("resume --slo-out x")).is_err(), "flag as dir");
        assert!(parse(&argv("resume ckpt --frobnicate 1")).is_err());
    }
}
