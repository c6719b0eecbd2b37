"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        used, value = stats.tail_percentile(values, 0.99)
        self.assertEqual((used, value), (0.99, 990))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_lowers_percentile_when_samples_are_short(self):
        values = list(range(1, 500))  # 499 samples: p99 has 4 beyond it
        used, value = stats.tail_percentile(values, 0.99)
        self.assertEqual(value, 489)
        self.assertAlmostEqual(used, 489 / 499)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_median_rank(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 22)), 0.5), (11 / 21, 11))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(10)), 0.5)

    def test_unsorted_input(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        used, value = stats.tail_percentile(values, 0.5)
        self.assertEqual(value, 3.0)
        self.assertEqual(used, 13 / 25)


class RoundMinima(unittest.TestCase):
    def test_complete_rounds_only(self):
        values = [3, 1, 2, 5, 6, 4, 0]  # the trailing partial round is dropped
        self.assertEqual(stats.round_minima(values), [1, 5])

    def test_fewer_values_than_a_round(self):
        self.assertEqual(stats.round_minima([2.0, 1.0]), [1])

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.round_minima([])


class Quartiles(unittest.TestCase):
    def test_median_of_odd_and_even(self):
        self.assertEqual(stats.quartiles([3, 1, 2])[1], 2)
        self.assertEqual(stats.quartiles([4, 1, 3, 2])[1], 2.5)

    def test_quartiles_match_statistics_module(self):
        values = [0.9, 1.3, 1.0, 1.1, 1.2, 0.95, 1.05, 1.4, 1.15, 1.25]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))

    def test_single_value(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))


class SelfTimes(unittest.TestCase):
    def test_nested(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 30), 2: (1, 15, 20), 3: (0, 50, 60)}
        self.assertEqual(stats.self_times(spans), {0: 70, 1: 15, 2: 5, 3: 10})

    def test_overlapping_children_subtract_once(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 50), 2: (0, 40, 60), 3: (0, 45, 55)}
        self_ns = stats.self_times(spans)
        self.assertEqual(self_ns[0], 50)  # children cover 10..60
        self.assertEqual((self_ns[1], self_ns[2], self_ns[3]), (40, 20, 10))

    def test_children_past_the_parent_are_clipped(self):
        spans = {0: (-1, 10, 100), 1: (0, 0, 20), 2: (0, 90, 120)}
        self.assertEqual(stats.self_times(spans)[0], 70)

    def test_roots_and_unknown_parents(self):
        spans = {0: (-1, 0, 10), 1: (7, 0, 4)}
        self.assertEqual(stats.self_times(spans), {0: 10, 1: 4})


class Ratio(unittest.TestCase):
    def test_zero_base(self):
        self.assertEqual(stats.ratio(0, 0), 0.0)
        self.assertEqual(stats.ratio(5, 0), 0.0)

    def test_plain(self):
        self.assertEqual(stats.ratio(75, 300), 0.25)


if __name__ == "__main__":
    unittest.main()
