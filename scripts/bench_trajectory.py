#!/usr/bin/env python3
"""Append rows to, or check, the committed scale trajectory.

`BENCH_trajectory.json` at the repository root is a JSON array of rows,
one per build and shape. Each change appends its rows and never
rewrites earlier ones. A row times one `hbr crowd` hour at
`--mode d2d --shards 2` with `--slo-out` (for `false_dead_seconds`):
wall time and peak RSS are medians over three fresh processes, read
from each child's `wait4`. A row with an `artifacts` key also wrote
those artifacts (`--metrics-out`, `--events-out`, `--spans-out`); a
row without one ran with observation off.

    python3 scripts/bench_trajectory.py append --hbr PATH --source DIR \\
        --pr N --build change --base-commit SHA
    python3 scripts/bench_trajectory.py check

`--source` is the checkout `--hbr` was built from; the row carries its
non-test line count (`scripts/nontest_lines.py`). `cores` counts the
CPUs the process may run on (`sched_getaffinity`), which is Rust's
`available_parallelism` on a host without a CPU quota. `check` validates
structure only: every row has the keys below with the right types,
numbers are finite and non-negative, `cores` is at least 1, and an
`artifacts` key, where present, lists distinct artifact names. It exits
1 naming the first bad row.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import nontest_lines

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"
# Every row's wall time and peak RSS are medians of this many runs.
RUNS = 3

# The artifact files a row may write, by the name its `artifacts` key
# lists.
ARTIFACTS = {"metrics": "metrics.json", "events": "events.jsonl", "spans": "spans.jsonl"}

# The ROADMAP's 10 k (1 km) and 100 k (2 km) hours as (phones, relays,
# area, artifacts): both with observation off, and the 10 k hour again
# with every artifact on. The 1 M hour on 5 km joins once dense cells
# keep presence.
SHAPES = (
    (10_000, 1_000, 1000.0, ()),
    (100_000, 10_000, 2000.0, ()),
    (10_000, 1_000, 1000.0, tuple(ARTIFACTS)),
)

FIELDS = {
    "pr": int,
    "build": str,
    "base_commit": str,
    "cores": int,
    "phones": int,
    "relays": int,
    "area_m": float,
    "wall_s": float,
    "peak_rss_mib": float,
    "phone_sim_s_per_s": float,
    "false_dead_seconds": float,
    "nontest_lines": int,
}
BUILDS = ("parent", "change")


def run_once(hbr, phones, relays, area, artifacts, work):
    """One crowd hour: (wall s, peak RSS MiB, false-dead s)."""
    cmd = [str(hbr), "crowd", "--mode", "d2d", "--shards", "2", "--hours", "1",
           "--phones", str(phones), "--relays", str(relays), "--area", f"{area:g}",
           "--slo-out", "slo.json"]
    for name in artifacts:
        cmd += [f"--{name}-out", ARTIFACTS[name]]
    env = dict(os.environ, HBR_CHECK_INVARIANTS="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"error: {' '.join(cmd)} exited with status {status}")
    slo = json.loads((Path(work) / "slo.json").read_text())
    return wall, usage.ru_maxrss / 1024.0, float(slo["false_dead_seconds"])


def measure(args):
    # Each run starts in its own scratch directory, so resolve the
    # binary's path first.
    hbr = args.hbr.resolve()
    rows = []
    for phones, relays, area, artifacts in SHAPES:
        runs = []
        for _ in range(RUNS):
            with tempfile.TemporaryDirectory() as work:
                runs.append(run_once(hbr, phones, relays, area, artifacts, work))
        wall = statistics.median(r[0] for r in runs)
        rows.append({
            "pr": args.pr,
            "build": args.build,
            "base_commit": args.base_commit,
            "cores": len(os.sched_getaffinity(0)),
            "phones": phones,
            "relays": relays,
            "area_m": area,
            "wall_s": round(wall, 3),
            "peak_rss_mib": round(statistics.median(r[1] for r in runs), 1),
            "phone_sim_s_per_s": round(phones * 3600.0 / wall, 1),
            "false_dead_seconds": runs[0][2],
            "nontest_lines": nontest_lines.total(args.source),
        })
        if artifacts:
            rows[-1]["artifacts"] = list(artifacts)
        print(json.dumps(rows[-1]))
    return rows


def row_errors(row):
    if not isinstance(row, dict):
        return ["not an object"]
    errors = []
    for key, kind in FIELDS.items():
        value = row.get(key)
        if kind is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind) and not isinstance(value, bool)
        if not ok:
            errors.append(f"{key} is {value!r}, not {kind.__name__}")
        elif kind is not str and not (math.isfinite(value) and value >= 0):
            errors.append(f"{key} is {value!r}, not finite and non-negative")
    if not errors:
        if row["cores"] < 1:
            errors.append("cores is below 1")
        if row["build"] not in BUILDS:
            errors.append(f"build is {row['build']!r}, not one of {BUILDS}")
        if not row["base_commit"]:
            errors.append("base_commit is empty")
        artifacts = row.get("artifacts", [])
        if not (isinstance(artifacts, list)
                and all(isinstance(a, str) and a in ARTIFACTS for a in artifacts)
                and len(set(artifacts)) == len(artifacts)):
            errors.append(f"artifacts is {artifacts!r}, not distinct names from {sorted(ARTIFACTS)}")
    return errors


def check():
    rows = json.loads(TRAJECTORY.read_text())
    if not isinstance(rows, list):
        sys.exit(f"error: {TRAJECTORY.name} is not a JSON array")
    for i, row in enumerate(rows):
        errors = row_errors(row)
        if errors:
            sys.exit(f"error: {TRAJECTORY.name} row {i}: {'; '.join(errors)}")
    print(f"{TRAJECTORY.name}: {len(rows)} rows")


def write(rows):
    TRAJECTORY.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser("append", help="measure one build and append its rows")
    add.add_argument("--hbr", required=True, type=Path, help="the hbr binary to time")
    add.add_argument("--source", required=True, help="the checkout it was built from")
    add.add_argument("--pr", required=True, type=int)
    add.add_argument("--build", required=True, choices=BUILDS)
    add.add_argument("--base-commit", required=True)
    sub.add_parser("check", help="validate the file's structure")
    args = parser.parse_args()
    if args.command == "check":
        check()
        return
    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    rows += measure(args)
    for row in rows:
        if row_errors(row):
            sys.exit(f"error: would write a bad row: {row}")
    write(rows)


if __name__ == "__main__":
    main()
