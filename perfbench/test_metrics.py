"""Self-tests of the benchmark's own arithmetic on fixed inputs.

    python3 perfbench/run.py --self-test
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True

import metrics  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.9), 90)
        self.assertEqual(metrics.percentile([7.0], 0.5), 7.0)
        self.assertEqual(metrics.percentile([1, 2, 3], 0.5), 2)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 0.5), 2)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(metrics.tail_percentile(list(range(1, 101)), 0.9), 90)
        self.assertEqual(metrics.tail_percentile(list(range(1, 151)), 0.9), 135)
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(1, 100)), 0.9)  # 9 beyond
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(1, 50)), 0.9)

    def test_rejects_empty_and_bad_quantiles(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 0.0)


class Speed(unittest.TestCase):
    def test_slowdown_is_the_median_kernel_time_over_the_reference(self):
        ref = metrics.KERNEL_REF_MS
        at_s = [2.0, 0.4, 0.1, 0.9]  # in any order
        kernel_ms = [ref, 2 * ref, ref, 3 * ref]
        self.assertEqual(metrics.slowdowns(at_s, kernel_ms, [0.0], [1.0]), [2.0])

    def test_short_intervals_borrow_the_samples_around_them(self):
        ref = metrics.KERNEL_REF_MS
        at_s = [1.4, 1.6, 2.0, 2.6]
        kernel_ms = [ref, ref, 3 * ref, 9 * ref]
        # [1.9, 2.1] is judged by [1.5, 2.5]: the samples at 1.6 and 2.0.
        self.assertEqual(metrics.slowdowns(at_s, kernel_ms, [1.9], [2.1]), [2.0])

    def test_an_interval_without_samples_is_refused(self):
        with self.assertRaises(ValueError):
            metrics.slowdowns([0.5], [1.0], [5.0], [6.0])
        with self.assertRaises(ValueError):
            metrics.slowdowns([0.5], [1.0, 2.0], [0.0], [1.0])


class Aggregates(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1.0, 4.0]), 2.0, places=12)
        self.assertAlmostEqual(metrics.geomean([2.0, 2.0, 2.0]), 2.0, places=12)
        self.assertAlmostEqual(metrics.geomean([1.5, 3.0, 0.5]),
                               math.pow(2.25, 1 / 3), places=12)
        with self.assertRaises(ValueError):
            metrics.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            metrics.geomean([])

    def test_geomean_is_order_independent_to_the_bit(self):
        values = [1.1 + i / 7 for i in range(200)]
        self.assertEqual(metrics.geomean(values), metrics.geomean(values[::-1]))

    def test_failed_frac(self):
        self.assertEqual(metrics.failed_frac(0, 150), 0.0)
        self.assertEqual(metrics.failed_frac(3, 150), 0.02)
        self.assertEqual(metrics.failed_frac(150, 150), 1.0)
        for failed, attempted in ((1, 0), (-1, 5), (6, 5)):
            with self.assertRaises(ValueError):
                metrics.failed_frac(failed, attempted)

    def test_busy_frac(self):
        # Four threads, 100 ms of wall, 300 ms of summed point time.
        self.assertEqual(metrics.busy_frac(300.0, 4, 100.0), 0.75)
        self.assertEqual(metrics.busy_frac(100.0, 1, 100.0), 1.0)
        with self.assertRaises(ValueError):
            metrics.busy_frac(1.0, 0, 100.0)
        with self.assertRaises(ValueError):
            metrics.busy_frac(1.0, 4, 0.0)


def raw_run():
    """A two-pass untraced run of 60 points each. The CPUs run at the
    reference speed during the set-ups and the first pass, and at half of
    it during the second."""
    ref = metrics.KERNEL_REF_MS
    return {
        "workload": "matrix50", "threads": 1,
        "setup_s": [0.3, 0.1, 0.2],
        "setup_begin_s": [0.0, 0.3, 0.4], "setup_end_s": [0.3, 0.4, 0.6],
        "pass_points": [60, 60], "pass_wall_s": [2.0, 3.0], "pass_cpu_s": [1.8, 3.0],
        "pass_begin_s": [1.0, 3.0], "pass_end_s": [3.0, 6.0],
        "speed_at_s": [0.2, 0.6, 1.2, 2.0, 2.8, 3.5, 4.5, 5.5],
        "speed_kernel_ms": [ref] * 5 + [2 * ref] * 3,
        "point_ms": [float(i) for i in range(1, 121)],
        "speedups": [1.0, 4.0], "attempted": 120, "failed": 6,
        "peak_rss_kb": 2048,
    }


class EndToEnd(unittest.TestCase):
    def test_metrics_of_a_fixed_run(self):
        m = metrics.e2e_metrics(raw_run())
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["points_per_s"], 35.0)  # median of 60/2 and 60/(3/2)
        # The second pass's samples 61..120 count as 30.5..60.
        self.assertEqual(m["point_ms_p50"], 40.0)
        self.assertEqual(m["point_ms_p90"], 56.0)
        self.assertEqual(m["cpu_ms_per_point"], 27.5)  # median of 30 and 25
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["wcet_speedup_geomean"], 2.0, places=12)
        self.assertAlmostEqual(m["passed_frac"], 0.95, places=12)

    def test_too_few_points_for_p90_is_refused(self):
        raw = raw_run()
        raw["point_ms"] = raw["point_ms"][:99]
        raw["pass_points"] = [50, 49]
        with self.assertRaises(ValueError):
            metrics.e2e_metrics(raw)


class Layers(unittest.TestCase):
    def test_per_pass_normalization_and_shares(self):
        raw = {
            "workload": "matrix50", "threads": 1, "traced_passes": 2,
            "traced_s": 11.0, "untraced_s": 10.0, "walked_units": 400,
            "spans": {
                "walk/sched.branch_and_bound": {"calls": 400, "ms": 900.0},
                "walk/sched.branch_and_bound?label=branch_and_bound":
                    {"calls": 300, "ms": 0},
                "walk/sched.annealed": {"calls": 400, "ms": 60.0},
                "walk/htg.expand": {"calls": 300, "ms": 40.0},
                "walk/sim.step": {"calls": 1200, "ms": 20.0},
            },
            "counters": {"pool.busy_ms": 9000.0, "pool.wall_ms": 10000.0,
                         "cache.schedule.hits": 6.0, "cache.schedule.misses": 2.0},
        }
        m = metrics.layer_metrics(raw)
        self.assertEqual(m["sched.branch_and_bound.calls"], 200)
        self.assertEqual(m["sched.branch_and_bound.exact"], 150)
        self.assertEqual(m["sched.branch_and_bound.exact_frac"], 0.75)
        self.assertEqual(m["sim.step.ms"], 10.0)
        self.assertEqual(m["toolchain.walk_ms"], 500.0)
        self.assertEqual(m["share.sched_search"], 0.96)
        self.assertEqual(m["point.traced_ms"], 510.0)
        self.assertEqual(m["cache.schedule.hit_rate"], 0.75)
        self.assertEqual(m["pool.busy_frac"], 0.9)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1, places=12)
        self.assertEqual(m["walk.units"], 200)


if __name__ == "__main__":
    unittest.main()
