"""Tests for the steadiness helper's statistics.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import steady  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [12.0, 10.0, 11.0, 15.0, 9.0, 13.0, 10.5, 11.5, 14.0, 12.5]
        q1, med, q3 = steady.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_spread_is_iqr_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(steady.spread(values), (q3 - q1) / 10.0)

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(steady.spread([5.0] * 10), 0.0)

    def test_spread_with_zero_median_is_zero(self):
        self.assertEqual(steady.spread([0.0, 0.0, 0.0, 1.0]), 0.0)

    def test_max_min_ratio(self):
        self.assertAlmostEqual(steady.max_min_ratio([2.0, 3.0, 2.2]), 1.5)
        self.assertEqual(steady.max_min_ratio([0.0, 1.0]), float("inf"))


class WorseningTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(steady.worsening(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(steady.worsening(100.0, 90.0, "lower"), -0.10)

    def test_higher_is_better(self):
        self.assertAlmostEqual(steady.worsening(100.0, 90.0, "higher"), 0.10)

    def test_zero_base(self):
        self.assertEqual(steady.worsening(0.0, 5.0, "lower"), 0.0)


if __name__ == "__main__":
    unittest.main()
