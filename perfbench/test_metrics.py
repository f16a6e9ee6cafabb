"""Tests of the benchmark's own helpers (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


def raw_result(**overrides):
    """A minimal raw result as the measuring binary writes it: 1000 ops
    over 2 s, so four windows of 250 ops. Window k holds the latencies
    4j + k + 1 (j < 250), so together they are 1..1000 ms."""
    raw = {
        "op_ms": [float(4 * j + k + 1) for k in range(4) for j in range(250)],
        "op_end_s": [(i + 0.5) * 0.002 for i in range(1000)],
        "traced_op_ms": [float(i) for i in range(1, 101)],
        "setup_s": [0.3, 0.1, 0.2],
        "wall_s": 2.0,
        "attempted": 1100,
        "failed": 0,
        "peak_rss_mb": 30.0,
        "energy_mj_per_op": 1.5,
        "quality": 0.7,
        "named_quality": {"recon_iou": 0.02},
        "checks": [{"name": "replay", "ok": True, "detail": ""}],
        "layers": {"lidar.reconstruct_us": 30000.0, "unattributed_us": 20000.0},
        "self_layers": ["lidar.reconstruct_us", "unattributed_us"],
    }
    raw.update(overrides)
    return raw


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 50), 2)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(metrics.percentile([7], 99), 7)
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 1), 1)

    def test_exact_rank_is_not_rounded_up(self):
        # 0.99 * 1000 is 990 up to float error; the rank must stay 990.
        values = list(range(1, 1001))
        self.assertEqual(metrics.percentile(values, 99), 990)

    def test_ten_samples_beyond_p99(self):
        self.assertEqual(
            metrics.percentile(list(range(1000)), 99, min_beyond=10), 989)
        with self.assertRaises(ValueError):
            metrics.percentile(list(range(999)), 99, min_beyond=10)
        # The median of a small run is always resolved.
        self.assertEqual(metrics.percentile([3, 1, 2], 50, min_beyond=1), 2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            metrics.percentile([1.0], 101)


class FailedFrac(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(metrics.failed_frac(1000, 0), 0.0)
        self.assertEqual(metrics.failed_frac(1000, 10), 0.01)
        self.assertEqual(metrics.failed_frac(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                metrics.failed_frac(attempted, failed)

    def test_throughput_counts_completed_ops_only(self):
        ok = metrics.end_to_end(raw_result())
        half = metrics.end_to_end(raw_result(failed=550))
        # 250 ops per window; window 0's span starts at the run's start.
        self.assertAlmostEqual(ok["ops_per_s"], 250 / 0.499)
        self.assertAlmostEqual(half["ops_per_s"], 125 / 0.499)

    def test_result_carries_counts(self):
        res = metrics.result(raw_result(failed=3), metrics.load_spec(), False)
        self.assertEqual((res["attempted"], res["failed"]), (1100, 3))
        with self.assertRaises(ValueError):
            metrics.result(raw_result(failed=2000), metrics.load_spec(), False)


class Windows(unittest.TestCase):
    def test_slow_stretch_does_not_move_latency_or_throughput(self):
        # 4 s of back-to-back ops: 2 ms each, then 3 ms from 1.5 s to 3.5 s.
        ops, ends, t = [], [], 0.0
        while t < 4.0 - 1e-9:
            ms = 3.0 if 1.5 <= t < 3.5 else 2.0
            t += ms / 1000.0
            ops.append(ms)
            ends.append(t)
        raw = raw_result(op_ms=ops, op_end_s=ends, wall_s=t,
                         attempted=len(ops))
        values = metrics.end_to_end(raw)
        self.assertEqual(values["op_p50_ms"], 2.0)
        self.assertAlmostEqual(values["ops_per_s"], 500.0, delta=2.0)
        # The same ops without the slow stretch read the same.
        fast = raw_result(op_ms=[2.0] * 2000,
                          op_end_s=[(i + 1) * 0.002 for i in range(2000)],
                          wall_s=4.0, attempted=2000)
        self.assertEqual(metrics.end_to_end(fast)["op_p50_ms"], 2.0)

    def test_partial_and_sparse_windows_are_left_out(self):
        # 1.2 s: two whole windows, and 0.2 s past them that does not count.
        raw = raw_result(op_ms=[5.0] * 20 + [9.0] * 20 + [1.0] * 20,
                         op_end_s=[0.01 * i for i in range(20)]
                         + [0.5 + 0.01 * i for i in range(20)]
                         + [1.0 + 0.01 * i for i in range(20)],
                         wall_s=1.2, attempted=60)
        self.assertEqual([len(ops) for ops, _ in metrics.windows(raw)], [20, 20])
        self.assertEqual(metrics.end_to_end(raw)["op_p50_ms"], 5.0)
        # Too few ops in every window: the whole run is the window.
        few = raw_result(op_ms=[4.0, 2.0, 3.0], op_end_s=[0.1, 0.6, 1.1],
                         wall_s=1.5, attempted=3)
        self.assertEqual(metrics.windows(few), [([4.0, 2.0, 3.0], 1.5)])
        self.assertEqual(metrics.end_to_end(few)["op_p50_ms"], 3.0)
        self.assertAlmostEqual(metrics.end_to_end(few)["ops_per_s"], 2.0)

    def test_end_times_must_match_latencies(self):
        with self.assertRaises(ValueError):
            metrics.windows(raw_result(op_end_s=[0.1]))


class NamesAndUnits(unittest.TestCase):
    def setUp(self):
        self.spec = metrics.load_spec()

    def test_tables_match_benchmark_json(self):
        self.assertEqual(
            metrics.END_TO_END_UNITS,
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]})
        self.assertEqual(
            metrics.PER_LAYER_UNITS,
            {m["name"]: m["unit"] for m in self.spec["per_layer"]})

    def test_untraced_run_prints_every_end_to_end_metric(self):
        res = metrics.result(raw_result(), self.spec, False)
        self.assertEqual(
            {n: m["unit"] for n, m in res["metrics"].items()},
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]})
        self.assertTrue(res["correct"])
        self.assertEqual(res["metrics"]["setup_s"]["value"], 0.2)
        # The best window's median: rank 125 of window 0's 250 ops.
        self.assertEqual(res["metrics"]["op_p50_ms"]["value"], 497.0)
        # The p99 is over the whole run.
        self.assertEqual(metrics.tail_ms(raw_result()), 990.0)
        with self.assertRaises(ValueError):
            metrics.tail_ms(raw_result(op_ms=[1.0] * 999))

    def test_traced_run_prints_every_per_layer_metric(self):
        res = metrics.result(raw_result(), self.spec, True)
        self.assertEqual(
            {n: m["unit"] for n, m in res["metrics"].items()},
            {m["name"]: m["unit"] for m in self.spec["per_layer"]})
        values = {n: m["value"] for n, m in res["metrics"].items()}
        self.assertEqual(values["monitor.trust_us"], 0.0)  # not exercised
        self.assertEqual(values["recon_iou"], 0.02)
        # Self layers sum to 50 ms against a traced p50 of 50 ms.
        self.assertEqual(values["trace.traced_op_p50_ms"], 50.0)
        self.assertAlmostEqual(values["trace.reconcile_error"], 0.0)
        self.assertEqual(values["trace.overhead_ms"], 50.0 - 500.0)

    def test_unreconciled_layers_are_not_correct(self):
        raw = raw_result(layers={"lidar.reconstruct_us": 10000.0,
                                 "unattributed_us": 0.0})
        self.assertFalse(metrics.result(raw, self.spec, True)["correct"])

    def test_failed_check_is_not_correct(self):
        raw = raw_result(checks=[{"name": "replay", "ok": False, "detail": ""}])
        self.assertFalse(metrics.result(raw, self.spec, False)["correct"])

    def test_unknown_layer_is_rejected(self):
        raw = raw_result(layers={"lidar.mystery_us": 1.0})
        with self.assertRaises(KeyError):
            metrics.per_layer(raw)

    def test_unit_drift_is_rejected(self):
        spec = metrics.load_spec()
        spec["end_to_end"][0]["unit"] = "s"
        with self.assertRaises(ValueError):
            metrics.result(raw_result(), spec, False)


if __name__ == "__main__":
    unittest.main()
