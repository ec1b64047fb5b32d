"""Tests for the benchmark's metric maths and its BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They build and run nothing.
"""

import json
import math
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402
import run  # noqa: E402


class PercentileRuleTest(unittest.TestCase):

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertFalse(benchmath.reportable(99, 90))
        self.assertTrue(benchmath.reportable(100, 90))
        self.assertEqual(benchmath.samples_beyond(100, 90), 10)

    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(benchmath.reportable(999, 99))
        self.assertTrue(benchmath.reportable(1000, 99))

    def test_median_needs_twenty_samples(self):
        self.assertFalse(benchmath.reportable(19, 50))
        self.assertTrue(benchmath.reportable(20, 50))

    def test_percentile_refuses_thin_tails(self):
        with self.assertRaises(ValueError):
            benchmath.percentile(list(range(99)), 90)
        with self.assertRaises(ValueError):
            benchmath.percentile([], 50)

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        self.assertAlmostEqual(benchmath.percentile(values, 50), 50.5)
        self.assertAlmostEqual(benchmath.percentile(values, 90), 90.1)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        spread = benchmath.quartile_spread(values)
        self.assertGreater(spread, 0.0)
        self.assertLess(spread, 0.1)
        self.assertEqual(benchmath.quartile_spread([5.0] * 10), 0.0)


class NamingTest(unittest.TestCase):

    def test_metric_names(self):
        for good in ("setup_s", "core.api.release_us_p99", "9lives", "a-b.c_d",
                     "x" * 64):
            self.assertTrue(benchmath.valid_metric_name(good), good)
        for bad in ("", "_setup", ".x", "a b", "cell/ms", "x" * 65, "é",
                    None, 3):
            self.assertFalse(benchmath.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "vm-h/s", "MiB"):
            self.assertTrue(benchmath.valid_unit(good), good)
        for bad in ("", "per second", "u" * 17, "ms;"):
            self.assertFalse(benchmath.valid_unit(bad), bad)


class DigestTest(unittest.TestCase):
    RECORDS = [{"cost_per_vm_hour": 0.0161927, "revocations": 3509,
                "unavailability_pct": 0.0097, "vm_hours": 1103874.7}]

    def test_stable_value(self):
        # Pinned: a change here silently invalidates every recorded digest.
        self.assertEqual(benchmath.outcome_digest(self.RECORDS),
                         "47cc0b165dbd134a")

    def test_key_order_does_not_matter(self):
        reordered = [dict(reversed(list(self.RECORDS[0].items())))]
        self.assertEqual(benchmath.outcome_digest(reordered),
                         benchmath.outcome_digest(self.RECORDS))

    def test_every_bit_matters(self):
        nudged = [dict(self.RECORDS[0])]
        nudged[0]["vm_hours"] = math.nextafter(nudged[0]["vm_hours"], math.inf)
        self.assertNotEqual(benchmath.outcome_digest(nudged),
                            benchmath.outcome_digest(self.RECORDS))

    def test_int_and_float_differ(self):
        self.assertNotEqual(benchmath.outcome_digest([{"a": 1}]),
                            benchmath.outcome_digest([{"a": 1.0}]))

    def test_record_order_matters(self):
        a, b = {"a": 1}, {"a": 2}
        self.assertNotEqual(benchmath.outcome_digest([a, b]),
                            benchmath.outcome_digest([b, a]))


class FailedFractionTest(unittest.TestCase):

    def test_counting(self):
        self.assertEqual(benchmath.failed_fraction(40, 0), 0.0)
        self.assertEqual(benchmath.failed_fraction(40, 10), 0.25)
        self.assertEqual(benchmath.failed_fraction(3, 3), 1.0)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(benchmath.failed_fraction(0, 0), 1.0)

    def test_impossible_counts_are_refused(self):
        with self.assertRaises(ValueError):
            benchmath.failed_fraction(5, 6)
        with self.assertRaises(ValueError):
            benchmath.failed_fraction(5, -1)

    def test_runner_checks_accumulate(self):
        checks = run.Checks(attempted=10, failed=1, failures=["bench: x"])
        checks.expect(True, "fine")
        checks.expect(False, "broken")
        self.assertEqual((checks.attempted, checks.failed), (12, 2))
        self.assertEqual(checks.failures, ["bench: x", "broken"])
        self.assertAlmostEqual(
            benchmath.failed_fraction(checks.attempted, checks.failed), 2 / 12)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json names exactly what run.py reports."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_metrics_match_the_runner(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_names_units_and_bounds(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(benchmath.valid_metric_name(metric["name"]), metric)
            self.assertTrue(benchmath.valid_unit(metric["unit"]), metric)
            self.assertIn(metric["better"], ("higher", "lower"))
        for metric in self.spec["end_to_end"]:
            self.assertGreater(metric["bound"], 0.0)
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
