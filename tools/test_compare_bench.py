"""Unit tests for compare_bench.py (standard library only).

Pins the comparison rules a baseline refresh relies on: retiring a metric
name needs a schema bump, a schema bump needs a refreshed baseline, and
--require-identical exempts only wall-clock fields and the env echo.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import compare_bench

# The counter the retirement cases drop from a candidate report.
DROPPED = "engine.alloc.event.slabs"


def report(schema_version: int = 2) -> dict:
    """A minimal well-formed one-row bench report."""
    return {
        "schema": compare_bench.SCHEMA,
        "schemaVersion": schema_version,
        "bench": "fig13_overall",
        "environment": {
            "gitSha": "0123456789ab",
            "env": {"REPRO_BROADCASTS": "20"},
        },
        "results": [{
            "label": "1x1/flooding",
            "scheme": "flooding",
            "seed": 42,
            "re": 0.95,
            "srb": 0,
            "latencySeconds": 0.0875,
            "hellosPerHostPerSecond": 0,
            "broadcasts": 20,
            "offeredBroadcasts": 20,
            "framesTransmitted": 1901,
            "framesDelivered": 12686,
            "framesCorrupted": 170240,
            "simulatedSeconds": 31.48,
            "wallSeconds": 0.0405,
            "framesPerWallSecond": 46953.4,
            "metrics": {
                "counters": {
                    "sim.scheduler.executed": 107069,
                    "engine.alloc.event.slabs": 1,
                    "traffic.offered": 20,
                },
                "gauges": {"sim.scheduler.queue_depth_hw": 174},
                "histograms": {},
                "profile": {"run": {"seconds": 0.04}},
            },
        }],
    }


class CompareBenchTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="compare_bench_test_")
        self.dir = Path(self._tmp.name)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, name: str, doc: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def pair(self, base: dict, cand: dict) -> tuple[Path, Path]:
        return self.write("base.json", base), self.write("cand.json", cand)

    def reports(self, base: dict, cand: dict) -> compare_bench.Comparison:
        return compare_bench.compare_reports(*self.pair(base, cand), 0.20)

    def identical(self, base: dict, cand: dict) -> compare_bench.Comparison:
        return compare_bench.compare_identical(*self.pair(base, cand))

    def test_equal_reports_are_comparable(self) -> None:
        cmp = self.reports(report(), report())
        self.assertEqual(cmp.errors, [])
        self.assertEqual(cmp.warnings, [])

    def test_metric_missing_without_schema_bump_is_an_error(self) -> None:
        cand = report()
        del cand["results"][0]["metrics"]["counters"][DROPPED]
        cmp = self.reports(report(), cand)
        self.assertEqual(len(cmp.errors), 1)
        self.assertIn("retired", cmp.errors[0])
        self.assertIn(DROPPED, cmp.errors[0])

    def test_schema_version_mismatch_is_an_error(self) -> None:
        cmp = self.reports(report(schema_version=1), report(schema_version=2))
        self.assertEqual(len(cmp.errors), 1)
        self.assertIn("schemaVersion mismatch", cmp.errors[0])

    def test_schema_mismatch_fails_the_exit_status(self) -> None:
        base, cand = self.pair(report(schema_version=1), report())
        with contextlib.redirect_stdout(io.StringIO()):
            status = compare_bench.main([str(base), str(cand)])
        self.assertEqual(status, 1)

    def test_require_identical_fails_on_any_counter_difference(self) -> None:
        # No counter family is exempt, whether or not the comparison
        # tracks its drift against baselines.
        for name in ("engine.alloc.event.slabs", "sim.scheduler.executed",
                     "traffic.offered"):
            with self.subTest(counter=name):
                cand = report()
                cand["results"][0]["metrics"]["counters"][name] += 1
                cmp = self.identical(report(), cand)
                self.assertEqual(len(cmp.errors), 1)
                self.assertIn(name, cmp.errors[0])

    def test_require_identical_fails_on_a_dropped_counter(self) -> None:
        cand = report()
        del cand["results"][0]["metrics"]["counters"][DROPPED]
        cmp = self.identical(report(), cand)
        self.assertEqual(len(cmp.errors), 1)
        self.assertIn("only in baseline", cmp.errors[0])

    def test_require_identical_ignores_wall_clock_and_env_echo(self) -> None:
        cand = report()
        row = cand["results"][0]
        row["wallSeconds"] = 9.0
        row["framesPerWallSecond"] = 1.0
        row["metrics"]["profile"] = {"run": {"seconds": 9.0}}
        cand["environment"]["env"] = {"REPRO_BROADCASTS": "20",
                                      "MANET_CKPT_AT": "50%"}
        cmp = self.identical(report(), cand)
        self.assertEqual(cmp.errors, [])

    def test_require_identical_still_checks_the_schema_version(self) -> None:
        cmp = self.identical(report(schema_version=1), report())
        self.assertEqual(len(cmp.errors), 1)
        self.assertIn("schemaVersion", cmp.errors[0])


if __name__ == "__main__":
    unittest.main()
