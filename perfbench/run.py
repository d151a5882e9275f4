#!/usr/bin/env python3
"""Crowd-hour benchmark for `hbr crowd`.

Runs one simulated crowd hour of a named workload through the shipped
`hbr` binary (release build, `--mode d2d --shards 2`), one fresh process
per repetition, checks every output, and prints the end-to-end metrics.
With `--trace 1` it also runs the same workload and seed once through
the benchmark's own probe binary (`perfbench/probe`), which times calls
into each layer, and prints the per-layer metrics instead.

    python3 perfbench/run.py --workload city-hour --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # the three in turn

Run it from anywhere; it builds into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), works in `.bench_work/` and
appends one row per run to `.bench_work/results.jsonl` (`--rows FILE`
to choose another file). The last line of stdout is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The exit code is 1 if an output check failed and 2 if the benchmark
could not run at all. `perfbench/README.md` explains every workload and
metric.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIB = 1024.0 * 1024.0

DEFAULT_SEED = 7
# Held out for claims: never used while tuning a change.
HELD_OUT_SEED = 2017
SHARDS = 2
MIN_ROUNDS = 3
MAX_ROUNDS = 50
# A set-up sample is a whole profiled crowd hour, so only every other
# round takes one; at least MIN_ROUNDS of them either way.
SETUP_EVERY = 2
CHILD_TIMEOUT_S = 60.0
# Whole-run budget after the build; the contract allows 180 s.
RUN_BUDGET_S = 165.0

# The CI six-fault plan.
CI_FAULTS = ("outage@600+120,blackout@1200+90,drop@900+300:3,depart@1500+600:0,"
             "degrade@1000+600:2=0.5,loss@1100+300:4=0.25")


@dataclass(frozen=True)
class Shape:
    phones: int
    relays: int
    area: float
    # Artifacts written beyond render and SLO: metrics, events, spans.
    outputs: tuple = ()
    roam: bool = False
    faults: str = ""
    checkpoints: bool = False

    def scaled(self, factor):
        """Same density (phones per cell), `factor` times the phones."""
        if factor == 1.0:
            return self
        phones = max(20, round(self.phones * factor))
        relays = max(5, round(self.relays * factor))
        area = round(self.area * math.sqrt(phones / self.phones), 1)
        return Shape(phones, relays, area, self.outputs, self.roam, self.faults,
                     self.checkpoints)

    def as_row(self):
        return {"phones": self.phones, "relays": self.relays, "area_m": self.area,
                "hours": 1, "outputs": list(self.outputs), "roam": self.roam,
                "faults": self.faults, "checkpoints": self.checkpoints}


# About 100 phones per 100 m cell, as the ROADMAP's 100 k and 1 M hours.
# Small enough for several repetitions a run; at least 125 cells, so
# that the 8 epochs give 1 000 cell steps and a p99 step time.
WORKLOADS = {
    "city-hour": Shape(25000, 2500, 1600.0),
    "observed-hour": Shape(14400, 1440, 1200.0, outputs=("metrics", "events", "spans")),
    "churn-hour": Shape(20000, 2000, 1400.0, roam=True, faults=CI_FAULTS, checkpoints=True),
}


class BenchError(Exception):
    """The benchmark could not run at all (exit 2, no result line)."""


# ---------------------------------------------------------------------------
# Parsers and statistics (unit-tested in test_run.py).
# ---------------------------------------------------------------------------

SLO_KEYS = ("generated", "delivered", "expired", "dropped_dead", "in_flight",
            "migrations", "lte_handovers", "delivery_ratio", "false_dead_seconds")


def parse_slo(text):
    """The `--slo-out` line as a dict; raises ValueError when a key is missing."""
    slo = json.loads(text)
    missing = [k for k in SLO_KEYS if k not in slo]
    if missing:
        raise ValueError(f"SLO lacks {', '.join(missing)}")
    return slo


def parse_render(text):
    """Layer-3 message count and system energy (µAh) from the render header."""
    found = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "layer-3 messages":
            found["l3"] = int(value.split()[0])
        elif key == "system energy":
            found["energy_uah"] = float(value.split()[0])
    if set(found) != {"l3", "energy_uah"}:
        raise ValueError("render lacks the layer-3 messages or system energy line")
    return found


def work_counts(metrics):
    """Per-layer work counts from a merged metrics snapshot (`to_json` form)."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    hists = metrics.get("histograms", {})

    def counter(name):
        return float(counters.get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    forwards = float(gauges.get("hbr_fleet_forwards", 0.0))
    no_relay = counter('hbr_fallback_total{cause="no-relay"}')
    ok = counter('hbr_d2d_transfer_total{result="ok"}')
    lost = counter('hbr_d2d_transfer_total{result="lost"}')
    batch = hists.get("hbr_relay_batch_size", {})
    return {
        "match.forwards": forwards,
        "match.no_relay_fallbacks": no_relay,
        "match.yield": ratio(forwards, forwards + no_relay),
        "d2d.link_setups": counter("hbr_d2d_link_setup_total"),
        "d2d.transfer_ok_frac": ratio(ok, ok + lost),
        "scheduler.flushes.capacity": counter('hbr_flush_total{reason="capacity"}'),
        "scheduler.flushes.period": counter('hbr_flush_total{reason="period"}'),
        "scheduler.flushes.expiration": counter('hbr_flush_total{reason="expiration"}'),
        "scheduler.batch_mean": ratio(float(batch.get("sum", 0.0)), float(batch.get("count", 0))),
        "radio.rrc_establish": counter("hbr_rrc_establish_total"),
        "delivery.retries": sum(float(v) for k, v in counters.items()
                                if k.startswith("hbr_delivery_retry_total")),
        "delivery.handovers": counter("hbr_delivery_handover_total"),
    }


PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def rank(p, n):
    """Nearest rank (1-based) of percentile `p` among `n` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n):
    """The highest percentile with at least ten of `n` samples beyond it."""
    fitting = [p for p in PERCENTILE_LADDER if n - rank(p, n) >= 10]
    return fitting[-1] if fitting else None


def percentile(values, p):
    """Nearest-rank percentile."""
    return sorted(values)[rank(p, len(values)) - 1]


def summarize(name, values):
    """Median, the tail the percentile rule allows, and the sample count."""
    out = {f"{name}.p50": statistics.median(values), f"{name}.n": float(len(values))}
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50.0:
        out[f"{name}.p{tail:g}"] = percentile(values, tail)
    return out


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

_live = set()


def child_env():
    env = dict(os.environ)
    env.update(HBR_CHECK_INVARIANTS="0", HBR_THREADS=str(SHARDS), RAYON_NUM_THREADS=str(SHARDS))
    return env


@dataclass
class Child:
    status: int
    killed: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(cmd, cwd, deadline, log_dir):
    """Runs `cmd` to completion; SIGKILL after CHILD_TIMEOUT_S seconds or
    at the `time.monotonic()` deadline, whichever comes first."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    log_dir.mkdir(parents=True, exist_ok=True)
    # Write back what earlier children wrote, so this one does not pay for it.
    os.sync()
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=child_env())
        _live.add(proc.pid)
        killed = threading.Event()

        def kill():
            killed.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # reaped just before the timer fired
                pass

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        # Reaped; until here an interrupted run leaves it to kill_live().
        _live.discard(proc.pid)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        status=proc.returncode,
        killed=killed.is_set() and proc.returncode == -signal.SIGKILL,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def kill_live():
    for pid in list(_live):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        _live.discard(pid)


def build(target_dir):
    """Builds the shipped `hbr` binary and the probe; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} holds no Cargo workspace with crates/ to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for args in (["-p", "hbr-cli"], ["--manifest-path", str(BENCH / "probe" / "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    hbr, probe = target_dir / "release" / "hbr", target_dir / "release" / "hbr-perfbench-probe"
    for binary in (hbr, probe):
        if not binary.is_file():
            raise BenchError(f"build produced no {binary}")
    return hbr, probe


# ---------------------------------------------------------------------------
# One untraced repetition.
# ---------------------------------------------------------------------------

OUTPUT_FILES = {"metrics": "metrics.json", "events": "events.jsonl", "spans": "spans.jsonl"}


def hbr_args(hbr, shape, seed):
    args = [str(hbr), "crowd", "--mode", "d2d", "--shards", str(SHARDS), "--hours", "1",
            "--phones", str(shape.phones), "--relays", str(shape.relays),
            "--area", f"{shape.area:g}", "--seed", str(seed),
            "--slo-out", "slo.json", "--render-out", "render.txt"]
    for output in shape.outputs:
        args += [f"--{output}-out", OUTPUT_FILES[output]]
    if shape.roam:
        args += ["--roam", "1"]
    if shape.faults:
        args += ["--faults", shape.faults]
    if shape.checkpoints:
        args += ["--checkpoint-dir", "ckpt", "--checkpoint-every", "1"]
    return args


def probe_args(probe, command, shape, seed):
    return [str(probe), command, "--phones", str(shape.phones), "--relays", str(shape.relays),
            "--area", f"{shape.area:g}", "--seed", str(seed), "--shards", str(SHARDS),
            "--roam", str(int(shape.roam)), "--faults", shape.faults,
            "--artifacts", ",".join(shape.outputs)]


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Rep:
    child: Child
    artifact_bytes: int = 0
    slo: dict = None
    render: dict = None
    hashes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def check_rep(rep, shape, out):
    """Output checks for one `hbr crowd` run; appends to rep.failures."""
    child = rep.child
    if child.killed:
        rep.failures.append(f"killed at its timeout after {child.wall_s:.1f} s")
        return
    if child.status != 0:
        rep.failures.append(f"exit status {child.status}: {child.stderr.strip()[-400:]}")
        return
    try:
        rep.slo = parse_slo((out / "slo.json").read_text())
        rep.render = parse_render((out / "render.txt").read_text())
    except (OSError, ValueError) as err:
        rep.failures.append(f"unreadable output: {err}")
        return
    slo = rep.slo
    accounted = slo["delivered"] + slo["expired"] + slo["dropped_dead"] + slo["in_flight"]
    if slo["generated"] != accounted:
        rep.failures.append(f"SLO conservation: generated {slo['generated']} != {accounted}")
    if slo["delivery_ratio"] < 0.995:
        rep.failures.append(f"delivery_ratio {slo['delivery_ratio']} < 0.995")
    if shape.roam and not slo["migrations"] == slo["lte_handovers"] > 0:
        rep.failures.append(
            f"migrations {slo['migrations']} vs LTE handovers {slo['lte_handovers']}")
    if shape.checkpoints:
        try:
            manifest = json.loads((out / "ckpt" / "MANIFEST.json").read_text())
            if manifest.get("epochs_done") != 8:
                rep.failures.append(f"MANIFEST epochs_done {manifest.get('epochs_done')} != 8")
        except (OSError, ValueError) as err:
            rep.failures.append(f"unreadable MANIFEST.json: {err}")
    hashed = ["render.txt", "slo.json"] + [OUTPUT_FILES[o] for o in shape.outputs]
    for name in hashed:
        try:
            rep.hashes[name] = file_hash(out / name)
        except OSError as err:
            rep.failures.append(f"missing {name}: {err}")
    if "metrics" in shape.outputs:
        try:
            json.loads((out / "metrics.json").read_text())
        except (OSError, ValueError) as err:
            rep.failures.append(f"unreadable metrics.json: {err}")


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(shape, reps, setup_samples):
    good = [r for r in reps if r.ok]
    if not good:
        return {}
    slo, render = good[0].slo, good[0].render
    phone_s = shape.phones * 3600.0
    return {
        "setup_s": median(setup_samples),
        "phone_sim_s_per_s": phone_s / median([r.child.wall_s for r in good]),
        "cpu_s": median([r.child.cpu_s for r in good]),
        "peak_rss_mb": median([r.child.rss_mb for r in good]),
        "artifact_mb": median([r.artifact_bytes for r in good]) / MIB,
        "l3_per_phone_h": render["l3"] / shape.phones,
        "energy_mah_per_phone_h": render["energy_uah"] / 1000.0 / shape.phones,
        "delivery_ratio": float(slo["delivery_ratio"]),
        "hb_ok_frac": 1.0 - (slo["expired"] + slo["dropped_dead"]) / slo["generated"],
        "live_seen_frac": 1.0 - slo["false_dead_seconds"] / phone_s,
    }


def per_layer(probe_out, reps):
    values = dict(probe_out["values"])
    for name, samples in probe_out["samples"].items():
        values.update(summarize(name, samples))
    values.update(work_counts(probe_out["metrics"]))
    for name in ("ckpt.epoch1_mb", "ckpt.epoch8_mb", "ckpt.load_ms"):
        values.setdefault(name, 0.0)
    good = [r for r in reps if r.ok]
    if good:
        slo = good[0].slo
        values["slo.hb_failed_frac"] = (slo["expired"] + slo["dropped_dead"]) / slo["generated"]
        values["slo.false_dead_s"] = float(slo["false_dead_seconds"])
        untraced = median([r.child.wall_s for r in good])
        values["trace_overhead_frac"] = values["traced_wall_s"] / untraced - 1.0
    return values


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def rustc_version():
    done = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)}")
    e2e_specs, layer_specs = load_metric_specs()
    shape = WORKLOADS[args.workload].scaled(args.scale)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    hbr, probe = build(target)
    deadline = time.monotonic() + RUN_BUDGET_S

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures, reps, setup_samples, probe_out = [], [], [], None
    try:
        # Rounds of one untraced `hbr crowd` process and, untraced runs
        # only and every other round, one set-up sample in a fresh probe
        # process: interleaving spreads both over the run, so a slow
        # spell of a shared host lands in every median alike.
        began = time.monotonic()
        kept = None
        while len(reps) < MAX_ROUNDS:
            elapsed = time.monotonic() - began
            enough = len(reps) >= MIN_ROUNDS and (args.trace or len(setup_samples) >= MIN_ROUNDS)
            if enough and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
            rep_dir = work / f"rep{len(reps)}"
            out = rep_dir / "out"
            out.mkdir(parents=True)
            child = run_child(hbr_args(hbr, shape, args.seed), out, deadline, rep_dir / "log")
            rep = Rep(child=child, artifact_bytes=tree_bytes(out))
            check_rep(rep, shape, out)
            reps.append(rep)
            # Outputs are checked by now; only the traced run reads one
            # later, the last repetition's checkpoints.
            if kept is not None:
                shutil.rmtree(kept, ignore_errors=True)
            if args.trace:
                kept = out
            else:
                shutil.rmtree(out, ignore_errors=True)
            failures += [f"rep {len(reps) - 1}: {f}" for f in rep.failures]
            if not rep.ok:
                break
            if not args.trace and (len(reps) - 1) % SETUP_EVERY == 0:
                child = run_child(probe_args(probe, "setup", shape, args.seed), work, deadline,
                                  rep_dir / "setup")
                if child.status != 0 or child.killed:
                    failures.append(f"setup probe failed: {child.stderr.strip()[-400:]}")
                    break
                setup_samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
        if not failures:
            first = reps[0].hashes
            for i, rep in enumerate(reps[1:], 1):
                differ = [n for n in first if rep.hashes.get(n) != first[n]]
                if differ:
                    failures.append(f"rep {i}: {', '.join(differ)} differ from rep 0")

        if not failures and args.trace:
            traced = work / "traced"
            cmd = probe_args(probe, "trace", shape, args.seed) + ["--out", str(traced)]
            if shape.checkpoints:
                cmd += ["--ckpt-dir", str(kept / "ckpt")]
            child = run_child(cmd, work, deadline, work / "trace")
            if child.status != 0 or child.killed:
                failures.append(f"trace probe failed: {child.stderr.strip()[-400:]}")
            else:
                probe_out = json.loads(child.stdout.strip().splitlines()[-1])
                failures += check_traced(probe_out, traced, shape, reps[0])
    finally:
        kill_live()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(probe_out, reps) if probe_out else {}
        specs = layer_specs
    else:
        metrics = end_to_end(shape, reps, setup_samples)
        specs = e2e_specs
    # A scaled-down smoke run has too few samples for every tail.
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing and (args.scale == 1.0 or not metrics):
        failures.append("metrics missing: " + ", ".join(missing))
    correct = not failures

    # Heartbeats are the operations. A failed check fails every one of them.
    generated = max([r.slo["generated"] for r in reps if r.slo] or [1])
    attempted = generated * max(len(reps), 1)
    failed = attempted if failures else sum(
        r.slo["expired"] + r.slo["dropped_dead"] for r in reps)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics.get(s["name"], 0.0), "unit": s["unit"]}
                    for s in specs},
    }
    append_row(args, shape, result, reps, setup_samples, failures)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for s in specs:
        print(f"{s['name']:<34} {metrics.get(s['name'], float('nan')):>16.6g} {s['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def check_traced(probe_out, traced, shape, rep):
    """The traced run must reproduce the untraced outputs exactly."""
    failures = []
    if file_hash(traced / "render.txt") != rep.hashes.get("render.txt"):
        failures.append("traced render differs from the untraced render")
    if "metrics" in shape.outputs and file_hash(traced / "metrics.json") != rep.hashes.get(
            "metrics.json"):
        failures.append("traced metrics.json differs from the untraced one")
    outcome = probe_out["outcome"]
    for key in ("generated", "delivered"):
        if outcome[key] != rep.slo[key]:
            failures.append(f"traced {key} {outcome[key]} != untraced {rep.slo[key]}")
    return failures


def append_row(args, shape, result, reps, setup_samples, failures):
    row = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": args.scale,
        "shape": shape.as_row(),
        "shards": SHARDS,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "rustc": rustc_version(),
        "reps": [{"wall_s": r.child.wall_s, "cpu_s": r.child.cpu_s, "rss_mb": r.child.rss_mb,
                  "artifact_bytes": r.artifact_bytes, "ok": r.ok} for r in reps],
        "setup_s": setup_samples,
        "failures": failures,
        **result,
    }
    rows = Path(args.rows) if args.rows else ROOT / ".bench_work" / "results.jsonl"
    rows.parent.mkdir(parents=True, exist_ok=True)
    with open(rows, "a") as f:
        f.write(json.dumps(row) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=", ".join(WORKLOADS) + ", or all of them in turn: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="keep repeating measurement rounds for this long (at least 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="phones multiplier at the same density (smoke runs)")
    parser.add_argument("--rows", help="append result rows here")
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            return run(args)
        codes = []
        for workload in WORKLOADS:
            print(f"== {workload}")
            codes.append(run(argparse.Namespace(**{**vars(args), "workload": workload})))
        return max(codes)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        kill_live()


if __name__ == "__main__":
    sys.exit(main())
