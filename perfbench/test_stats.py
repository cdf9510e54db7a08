"""Unit tests for the benchmark's percentile selection, failure counting and
span accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from metrics import e2e_metrics, named_metrics, self_times
from stats import count_failures, percentile, summarize, tail_percentile


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_is_a_sample(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(percentile(xs, 50), 3.0)
        self.assertEqual(percentile(xs, 0), 1.0)
        self.assertEqual(percentile(xs, 100), 5.0)
        self.assertEqual(percentile(xs, 99), 5.0)

    def test_clamped_to_min_and_max(self):
        xs = [0.3, 0.1, 0.2]
        for p in (0, 0.01, 50, 99.99, 100):
            self.assertGreaterEqual(percentile(xs, p), min(xs))
            self.assertLessEqual(percentile(xs, p), max(xs))

    def test_no_bucket_edges(self):
        # A power-of-two histogram reports 65.536 ms for holds in (20, 40] ms;
        # raw samples can only report one of the holds.
        holds = [20.5 + 19 * i / 999 for i in range(1000)]
        self.assertLessEqual(percentile(holds, 99), 40.0)
        self.assertIn(percentile(holds, 99), holds)

    def test_whole_ranks_do_not_round_up(self):
        xs = list(range(1, 201))  # 200 samples
        self.assertEqual(percentile(xs, 95), 190)
        self.assertEqual(percentile(list(range(1, 101)), 90), 90)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)
        with self.assertRaises(ValueError):
            percentile([1.0], -1)


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertAlmostEqual(tail_percentile(200), 95.0)
        self.assertAlmostEqual(tail_percentile(100), 90.0)
        self.assertAlmostEqual(tail_percentile(1000), 99.0)
        for n in (11, 20, 40, 100, 200, 601, 5000):
            xs = list(range(n))
            tail = percentile(xs, tail_percentile(n))
            self.assertEqual(sum(1 for x in xs if x > tail), 10, n)

    def test_few_samples_fall_back_to_max(self):
        self.assertEqual(tail_percentile(10), 100.0)
        self.assertEqual(summarize([3.0, 1.0, 2.0])["tail"], 3.0)

    def test_summary_carries_count(self):
        s = summarize([float(i) for i in range(100)])
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["p50"], 49.0)
        self.assertEqual(s["tail"], 89.0)
        self.assertAlmostEqual(s["tail_pct"], 90.0)
        self.assertEqual(summarize([])["n"], 0)


def _raw(op_ok, failures=(), op_ms=None, workload="ha_failover"):
    samples = op_ms if op_ms is not None else [1.0] * len(op_ok)
    return {
        "workload": workload,
        "setup_s": [0.2, 0.1, 0.3],
        "round_peak_rss_mb": [10.0],
        "timed_s": 2.0,
        "sim_ms": 400.0,
        "op_ok": list(op_ok),
        "failures": list(failures),
        "samples": {"op_cpu_ms": samples, "recovery_ms": samples},
        "values": {"timed_cpu_s": 4.0},
    }


class FailureCountTest(unittest.TestCase):
    def test_counts_failed_operations(self):
        self.assertEqual(count_failures([True, False, True, False], ["x"]), (4, 2))
        self.assertEqual(count_failures([True] * 5, []), (5, 0))

    def test_unattributed_check_failure_still_fails(self):
        self.assertEqual(count_failures([True, True], ["digest mismatch"]), (2, 1))
        self.assertEqual(count_failures([], ["no operations ran"]), (1, 1))

    def test_failed_ratio(self):
        named = named_metrics(_raw([True, False, False, True], ["two kills"]))
        self.assertAlmostEqual(named["failed_ratio"]["value"], 0.5)
        self.assertEqual(named["failed_ratio"]["n"], 4)

    def test_failed_operations_stay_in_samples(self):
        # The slow operations are the failed ones; dropping them would hide
        # exactly the cases a regression makes.
        ok = [True] * 5 + [False] * 20
        op_ms = [1.0] * 5 + [100.0] * 20
        e2e = e2e_metrics(_raw(ok, ["twenty kills"], op_ms))
        self.assertEqual(e2e["op_cpu_ms_p50"], 100.0)
        self.assertEqual(e2e["op_cpu_ms_tail"], 100.0)
        named = named_metrics(_raw(ok, ["twenty kills"], op_ms))
        self.assertEqual(named["recovery_ms_p50"]["value"], 100.0)
        self.assertEqual(named["recovery_ms_p50"]["n"], 25)


class SelfTimeTest(unittest.TestCase):
    def span(self, id_, parent, layer, t0, t1, phase="timed"):
        return {"id": id_, "parent": parent, "layer": layer, "t0_ms": t0,
                "t1_ms": t1, "phase": phase}

    def test_children_on_parallel_threads_count_once(self):
        spans = [
            self.span(1, 0, "ckpt", 0.0, 10.0),
            self.span(2, 1, "snap", 2.0, 5.0),
            self.span(3, 1, "snap", 3.0, 6.0),  # overlaps its sibling
            self.span(4, 0, "ckpt", 20.0, 21.0),
            self.span(5, 0, "repo", 30.0, 40.0, phase="check"),
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs["ckpt"], 10.0 - 4.0 + 1.0)
        self.assertAlmostEqual(selfs["snap"], 6.0)
        self.assertNotIn("repo", selfs)


if __name__ == "__main__":
    unittest.main()
