"""The tail-percentile rule: a percentile is reported with its sample count
and refused when fewer than 10 samples lie beyond it."""

import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_p99_of_1000_is_rank_990_with_its_count(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), (990, 1000))

    def test_p99_refused_with_fewer_than_10_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(999)), 99)

    def test_p90_needs_100_samples(self):
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), (90, 100))
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(99)), 90)

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(stats.percentile(values[::-1], 90), stats.percentile(values, 90))

    def test_median_needs_only_one_sample(self):
        self.assertEqual(stats.percentile([3.0], 50), (3.0, 1))
        self.assertEqual(stats.percentile([1.0, 2.0, 10.0, 11.0], 50), (6.0, 4))
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile([], 50)

    def test_highest_percentile(self):
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertIsNone(stats.highest_percentile(19))

    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([10.0] * 10), 0.0)
        spread = stats.quartile_spread([9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 9.5, 10.5, 10.0])
        self.assertGreater(spread, 0.0)
        self.assertLess(spread, 0.1)


if __name__ == "__main__":
    unittest.main()
