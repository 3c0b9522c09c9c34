"""Unit tests for the pure helpers of perfbench/run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import run


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)

    def test_single_value_and_zero_median(self):
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(run.spread([2.0, 2.0, 2.0]), 0.0)
        self.assertEqual(run.spread([0.0, 0.0, 0.0]), float("inf"))


class Verdict(unittest.TestCase):
    base = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}  # IQR 0.02, median 1.01

    def test_improved_needs_nine_of_ten_wins_and_gap_beyond_iqr(self):
        new = {s: v - 0.1 for s, v in self.base.items()}
        self.assertEqual(run.verdict(self.base, new, "lower", 0.1), ("improved", 10, 10))
        # Same medians but only 8 wins: not improved.
        new = dict(new)
        new[0], new[1] = 2.0, 2.0
        self.assertNotEqual(run.verdict(self.base, new, "lower", 0.5)[0], "improved")

    def test_ties_count_for_neither_side(self):
        new = dict(self.base)
        v, wins, pairs = run.verdict(self.base, new, "lower", 0.1)
        self.assertEqual((v, wins, pairs), ("unchanged", 0, 10))

    def test_gap_within_iqr_is_not_a_gain(self):
        new = {s: v - 0.005 for s, v in self.base.items()}
        self.assertEqual(run.verdict(self.base, new, "lower", 0.1)[0], "unchanged")

    def test_fewer_than_ten_pairs_never_improves(self):
        base = {s: 1.0 for s in range(5)}
        new = {s: 0.5 for s in range(5)}
        self.assertEqual(run.verdict(base, new, "lower", 0.1)[0], "unresolved")

    def test_worse_beyond_bound_and_direction(self):
        new = {s: v * 1.2 for s, v in self.base.items()}
        self.assertEqual(run.verdict(self.base, new, "lower", 0.1)[0], "worse")
        # For a higher-is-better metric the same move is a gain.
        self.assertEqual(run.verdict(self.base, new, "higher", 0.1)[0], "improved")

    def test_wide_base_spread_is_unresolved(self):
        base = {s: [1.0, 2.0, 3.0][s % 3] for s in range(10)}
        new = {s: v * 1.05 for s, v in base.items()}
        self.assertEqual(run.verdict(base, new, "lower", 0.1)[0], "unresolved")


class Fingerprint(unittest.TestCase):
    cpuinfo = (
        "processor\t: 0\n"
        "model name\t: Intel(R) Xeon(R) Platinum 8488C\n"
        "flags\t\t: fpu sse2 avx2 f16c avx512f avx512fp16\n"
        "\n"
        "processor\t: 1\n"
        "model name\t: Intel(R) Xeon(R) Platinum 8488C\n"
        "flags\t\t: fpu sse2\n"
    )

    def test_cpu_model_and_simd_flags_of_first_processor(self):
        fp = run.parse_cpuinfo(self.cpuinfo)
        self.assertEqual(fp["cpu_model"], "Intel(R) Xeon(R) Platinum 8488C")
        self.assertEqual(
            fp["simd"], {"avx2": True, "avx512f": True, "f16c": True, "avx512fp16": True}
        )

    def test_missing_fields(self):
        fp = run.parse_cpuinfo("processor\t: 0\nflags\t: sse2 avx2\n")
        self.assertEqual(fp["cpu_model"], "unknown")
        self.assertEqual(fp["simd"]["avx2"], True)
        self.assertEqual(fp["simd"]["avx512fp16"], False)

    def test_rustc_version(self):
        self.assertEqual(run.parse_rustc_version("rustc 1.80.0 (051478957 2024-07-21)"), "1.80.0")
        self.assertEqual(run.parse_rustc_version(""), "unknown")
        self.assertEqual(run.parse_rustc_version("error: no rustc"), "unknown")


if __name__ == "__main__":
    unittest.main()
