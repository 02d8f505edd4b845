"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import statistics
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import benchlib  # noqa: E402
import compare  # noqa: E402


def scenario(label, **overrides):
    s = {"label": label, "re": 0.975, "srb": 0.4125, "latency_s": 0.0375,
         "tx": 120, "delivered": 900, "corrupted": 33}
    s.update(overrides)
    return s


class PercentileRule(unittest.TestCase):
    def test_reported_with_ten_samples_beyond(self):
        value, n = benchlib.percentile_with_support(range(1, 101), 90)
        self.assertEqual((value, n), (90, 100))

    def test_withheld_with_fewer_than_ten_beyond(self):
        value, n = benchlib.percentile_with_support(range(1, 51), 90)
        self.assertIsNone(value)
        self.assertEqual(n, 50)

    def test_ties_do_not_count_as_beyond(self):
        # Twenty equal top samples: none lies strictly above the p90.
        values = list(range(80)) + [1000] * 20
        self.assertIsNone(benchlib.percentile_with_support(values, 90)[0])

    def test_median_of_few_samples(self):
        self.assertEqual(
            benchlib.percentile_with_support([3, 1, 2], 50, min_beyond=1),
            (2, 3))

    def test_empty(self):
        self.assertEqual(benchlib.percentile_with_support([], 90), (None, 0))


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(benchlib.relative_spread(values),
                               (q3 - q1) / q2)

    def test_single_value(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(benchlib.relative_spread([4.0]), 0.0)

    def test_empty_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.quartiles([])


class MetricNames(unittest.TestCase):
    def test_valid(self):
        for name in ("re", "setup_s", "geom.probe.uncovered_fraction_us.k1",
                     "9lives", "a-b", "x" * 64):
            self.assertTrue(benchlib.valid_metric_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "ms%", "x" * 65,
                     "é", None, 3):
            self.assertFalse(benchlib.valid_metric_name(name), repr(name))

    def test_every_declared_name_is_valid(self):
        names = (list(benchlib.WORKLOADS) + list(benchlib.END_TO_END)
                 + list(benchlib.PER_LAYER))
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))


class Digest(unittest.TestCase):
    def test_stable_for_equal_outputs(self):
        a = [scenario("1x1/AC"), scenario("3x3/AC", tx=7)]
        b = json.loads(json.dumps(a))  # through perfbench_sim's JSON round trip
        self.assertEqual(benchlib.output_digest(a), benchlib.output_digest(b))

    def test_integral_float_printing_does_not_matter(self):
        # perfbench_sim prints 1.0 as "1", which json reads back as an int.
        self.assertEqual(benchlib.output_digest([scenario("x", re=1)]),
                         benchlib.output_digest([scenario("x", re=1.0)]))

    def test_one_ulp_changes_it(self):
        import math
        moved = scenario("x", latency_s=math.nextafter(0.0375, 1.0))
        self.assertNotEqual(benchlib.output_digest([scenario("x")]),
                            benchlib.output_digest([moved]))

    def test_order_and_labels_matter(self):
        a, b = scenario("a"), scenario("b", tx=1)
        self.assertNotEqual(benchlib.output_digest([a, b]),
                            benchlib.output_digest([b, a]))
        self.assertNotEqual(benchlib.output_digest([scenario("a")]),
                            benchlib.output_digest([scenario("c")]))

    def test_summarize_flags_a_diverging_pass(self):
        def lines(traced_re):
            out = []
            for p, traced in ((0, False), (1, True)):
                s = scenario("x", re=traced_re if traced else 0.975)
                s.update(kind="scenario", **{"pass": p}, traced=traced,
                         ok=True, why="", build_ns=1, begin_ns=1, run_ns=5,
                         collect_ns=1, r_over_e=0, broadcasts=20)
                out.append(s)
                out.append({"kind": "pass", "pass": p, "traced": traced,
                            "run_ns": 5, "setup_ns": 2, "cpu_ns": 9,
                            "broadcasts": 20})
            out.append({"kind": "end", "peak_rss_kb": 2048})
            return out
        same = benchlib.summarize(lines(0.975), trace=False)
        self.assertTrue(same["correct"])
        self.assertEqual(same["metrics"]["peak_rss_mb"], (2.0, "MB"))
        moved = benchlib.summarize(lines(0.976), trace=False)
        self.assertFalse(moved["correct"])
        self.assertEqual(moved["failed"], 1)
        self.assertIn("differs from pass 0", moved["failures"][0])


class Environment(unittest.TestCase):
    def test_refuses_simulator_knobs_by_name(self):
        env = {"PATH": "/bin", "MANET_SHARDS": "4", "REPRO_SEED": "3",
               "HOME": "/"}
        self.assertEqual(benchlib.refused_environment(env),
                         ["MANET_SHARDS", "REPRO_SEED"])

    def test_accepts_clean_environment(self):
        self.assertEqual(benchlib.refused_environment(
            {"PATH": "/bin", "CARGO_TARGET_DIR": ".bench_build",
             "XMANET_FOO": "1"}), [])


class Seeds(unittest.TestCase):
    def test_aliases(self):
        self.assertEqual(benchlib.parse_seed("default"), benchlib.DEFAULT_SEED)
        self.assertEqual(benchlib.parse_seed("heldout"), benchlib.HELDOUT_SEED)
        self.assertNotEqual(benchlib.DEFAULT_SEED, benchlib.HELDOUT_SEED)
        self.assertEqual(benchlib.parse_seed("17"), 17)
        with self.assertRaises(ValueError):
            benchlib.parse_seed("-1")


class Verdicts(unittest.TestCase):
    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(compare.verdict(base, base, "higher", 0.1), "same")
        self.assertEqual(
            compare.verdict(base, [x * 0.8 for x in base], "higher", 0.1),
            "worse")
        self.assertEqual(
            compare.verdict(base, [x * 1.05 for x in base], "higher", 0.1),
            "better")
        self.assertEqual(
            compare.verdict(base, [x * 0.8 for x in base], "lower", 0.1),
            "better")
        noisy = [50.0, 150.0, 100.0, 80.0, 120.0]
        self.assertEqual(compare.verdict(base, noisy, "higher", 0.1),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
