#!/usr/bin/env python3
"""Tests for the crowd-hour benchmark: its parsers, the percentile rule, run hygiene,
the metric set against BENCHMARK.json, and a smoke run of every workload
at a tiny size.

    python3 perfbench/test_run.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SLO = ('{"generated":693287,"delivered":680503,"duplicates":0,"expired":0,"dropped_dead":0,'
       '"in_flight":12784,"retries":23137,"handovers":11849,"requeued":0,"migrations":0,'
       '"lte_handovers":0,"delivery_ratio":1.000000,"false_dead_seconds":24.159}\n')

RENDER = """── d2d-framework ──
layer-3 messages : 3430123
RRC connections  : 426134
system energy    : 436585867 µAh
heartbeats       : 680503 delivered, 0 expired, 0 duplicates
relay   dev#0    :    82 collected,    76 credits,     30069 µAh
"""

METRICS = {
    "counters": {
        "hbr_d2d_link_setup_total": 27042,
        'hbr_d2d_transfer_total{result="lost"}': 395,
        'hbr_d2d_transfer_total{result="ok"}': 140557,
        "hbr_delivery_handover_total": 65,
        'hbr_delivery_retry_total{reason="feedback-timeout"}': 11573,
        'hbr_delivery_retry_total{reason="transfer-failed"}': 395,
        'hbr_fallback_total{cause="no-relay"}': 181857,
        'hbr_flush_total{reason="capacity"}': 7864,
        'hbr_flush_total{reason="expiration"}': 611,
        'hbr_flush_total{reason="period"}': 24387,
        "hbr_rrc_establish_total": 211375,
    },
    "gauges": {"hbr_fleet_forwards": 140952.0, "hbr_delivery_ratio": 196.0},
    "histograms": {"hbr_relay_batch_size": {"bounds": [0.0], "counts": [1, 2],
                                            "count": 32862, "sum": 124577.0}},
}


class Parsers(unittest.TestCase):
    def test_slo(self):
        slo = run.parse_slo(SLO)
        self.assertEqual(slo["generated"], 693287)
        self.assertEqual(slo["false_dead_seconds"], 24.159)
        self.assertEqual(slo["delivery_ratio"], 1.0)
        with self.assertRaises(ValueError):
            run.parse_slo('{"generated": 1}')

    def test_render_header(self):
        self.assertEqual(run.parse_render(RENDER), {"l3": 3430123, "energy_uah": 436585867.0})
        with self.assertRaises(ValueError):
            run.parse_render("RRC connections  : 3\n")

    def test_metrics_json(self):
        counts = run.work_counts(METRICS)
        self.assertEqual(counts["match.forwards"], 140952.0)
        self.assertAlmostEqual(counts["match.yield"], 140952 / (140952 + 181857))
        self.assertAlmostEqual(counts["d2d.transfer_ok_frac"], 140557 / (140557 + 395))
        self.assertEqual(counts["delivery.retries"], 11573 + 395)
        self.assertEqual(counts["scheduler.flushes.expiration"], 611)
        self.assertAlmostEqual(counts["scheduler.batch_mean"], 124577 / 32862)
        # An empty snapshot reads zero, not a division error.
        self.assertEqual(run.work_counts({})["match.yield"], 0.0)


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(9999), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([3.0], 99), 3.0)

    def test_summary_names(self):
        out = run.summarize("x_ns", [float(v) for v in range(2000)])
        self.assertEqual(set(out), {"x_ns.p50", "x_ns.p99", "x_ns.n"})
        self.assertEqual(out["x_ns.n"], 2000.0)
        self.assertEqual(set(run.summarize("y", [1.0] * 30)), {"y.p50", "y.n"})


class MetricSet(unittest.TestCase):
    def setUp(self):
        self.e2e, self.layers = run.load_metric_specs()

    def test_end_to_end_names(self):
        shape = run.WORKLOADS["city-hour"]
        child = run.Child(0, False, 5.0, 9.0, 230.0, "", "")
        rep = run.Rep(child=child, artifact_bytes=270000, slo=run.parse_slo(SLO),
                      render=run.parse_render(RENDER))
        metrics = run.end_to_end(shape, [rep], [0.06, 0.07, 0.08])
        self.assertEqual(set(metrics), {m["name"] for m in self.e2e})
        self.assertEqual(metrics["setup_s"], 0.07)
        self.assertEqual(metrics["phone_sim_s_per_s"], shape.phones * 3600 / 5.0)
        self.assertAlmostEqual(metrics["live_seen_frac"], 1 - 24.159 / (shape.phones * 3600))
        self.assertTrue(all(v != 0 for v in metrics.values()))

    def test_per_layer_names(self):
        names = {m["name"] for m in self.layers}
        values = {n: 1.0 for n in names if n.split(".")[0] in
                  ("crowd", "fleet", "obs", "migration") and not n.startswith("crowd.cell_step")}
        values["traced_wall_s"] = 6.0
        samples = {n[:-4]: [1.0] * 2000 for n in names if n.endswith(".p50")}
        probe_out = {"values": values, "samples": samples, "metrics": METRICS}
        child = run.Child(0, False, 5.0, 9.0, 230.0, "", "")
        rep = run.Rep(child=child, slo=run.parse_slo(SLO))
        metrics = run.per_layer(probe_out, [rep])
        self.assertEqual(names - set(metrics), set())
        self.assertAlmostEqual(metrics["trace_overhead_frac"], 0.2)

    def test_workloads_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertIn("setup_s", {m["name"] for m in self.e2e})

    def test_hbr_args(self):
        args = run.hbr_args("hbr", run.WORKLOADS["churn-hour"], 7)
        self.assertEqual(args[1:7], ["crowd", "--mode", "d2d", "--shards", "2", "--hours"])
        self.assertIn(run.CI_FAULTS, args)
        self.assertEqual(args[-4:], ["--checkpoint-dir", "ckpt", "--checkpoint-every", "1"])
        observed = run.hbr_args("hbr", run.WORKLOADS["observed-hour"], 7)
        for flag in ("--metrics-out", "--events-out", "--spans-out"):
            self.assertIn(flag, observed)

    def test_scaling_keeps_density(self):
        full = run.WORKLOADS["city-hour"]
        small = full.scaled(0.01)
        self.assertEqual((small.phones, small.relays), (full.phones // 100, full.relays // 100))
        self.assertAlmostEqual(small.phones / small.area ** 2, full.phones / full.area ** 2,
                               places=3)

    def test_every_workload_has_a_p99_cell_step(self):
        # 8 epochs of at least 125 cells: 1 000 cell steps.
        for shape in run.WORKLOADS.values():
            cells = math.ceil(shape.area / 100.0) ** 2
            self.assertEqual(run.tail_percentile(8 * cells), 99.0)


class Hygiene(unittest.TestCase):
    def test_overdue_child_is_killed(self):
        with tempfile.TemporaryDirectory() as tmp:
            child = run.run_child(["sleep", "30"], tmp, time.monotonic() + 0.2, Path(tmp) / "log")
        self.assertTrue(child.killed)
        self.assertLess(child.wall_s, 10.0)
        rep = run.Rep(child=child)
        run.check_rep(rep, run.WORKLOADS["city-hour"], Path(tmp))
        self.assertFalse(rep.ok)

    def test_child_environment_is_pinned(self):
        with mock.patch.dict(os.environ, {"HBR_CHECK_INVARIANTS": "1", "RAYON_NUM_THREADS": "8",
                                          "HBR_THREADS": "8"}):
            env = run.child_env()
        self.assertEqual((env["HBR_CHECK_INVARIANTS"], env["RAYON_NUM_THREADS"],
                          env["HBR_THREADS"]), ("0", "2", "2"))


class Smoke(unittest.TestCase):
    """Every workload end to end at 2 % of its size, untraced and traced."""

    def test_all_workloads_tiny(self):
        with tempfile.TemporaryDirectory() as tmp:
            rows = Path(tmp) / "rows.jsonl"
            for workload in run.WORKLOADS:
                for trace in ("0", "1"):
                    done = subprocess.run(
                        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                         "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "0.02",
                         "--rows", str(rows)],
                        capture_output=True, text=True, timeout=600, env=dict(os.environ))
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
            written = [json.loads(line) for line in rows.read_text().splitlines()]
            self.assertEqual(len(written), 6)
            for row in written:
                for key in ("nproc", "commit", "rustc", "shards", "shape"):
                    self.assertIn(key, row)


if __name__ == "__main__":
    unittest.main()
