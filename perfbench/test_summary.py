"""Unit tests of the benchmark's summary logic.

    python3 perfbench/test_summary.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import summary  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(summary.median([3, 1, 2]), 2)
        self.assertEqual(summary.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            summary.median([])

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(summary.samples_beyond(1000, 0.99), 10)
        self.assertEqual(summary.tail_percentile(list(range(1, 1001)), 0.99), 990)
        self.assertIsNone(summary.tail_percentile(list(range(1, 1000)), 0.99))

    def test_p90_needs_a_hundred(self):
        self.assertEqual(summary.tail_percentile(list(range(100)), 0.9), 89)
        self.assertIsNone(summary.tail_percentile(list(range(99)), 0.9))
        self.assertIsNone(summary.tail_percentile([], 0.9))

    def test_nearest_rank_ignores_order(self):
        samples = list(range(2000, 0, -1))
        self.assertEqual(summary.tail_percentile(samples, 0.99), 1980)

    def test_highest_reportable(self):
        self.assertEqual(summary.highest_reportable(10000), 0.999)
        self.assertEqual(summary.highest_reportable(1000), 0.99)
        self.assertEqual(summary.highest_reportable(500), 0.95)
        self.assertEqual(summary.highest_reportable(100), 0.9)
        self.assertIsNone(summary.highest_reportable(39))

    def test_describe_states_count_and_falls_back(self):
        text = summary.describe([float(x) for x in range(1, 201)], "us")
        self.assertIn("n=200", text)
        self.assertIn("p95=190", text)
        self.assertNotIn("p99", text)
        self.assertEqual(summary.describe([5.0], "s"), "p50=5 s (n=1)")
        self.assertEqual(summary.describe([], "s"), "no samples")


class RatioTest(unittest.TestCase):
    def test_ratio_with_zero_base(self):
        self.assertEqual(summary.ratio(5, 0), 0.0)
        self.assertEqual(summary.ratio(1, 4), 0.25)

    def test_format_ratio_prints_its_base(self):
        self.assertEqual(summary.format_ratio(1650000, 20000000, "net.messages.tx"),
                         "0.0825 (1.65e+06 / 2e+07 net.messages.tx)")
        self.assertEqual(summary.format_ratio(0, 0, "pairs"), "0 (0 / 0 pairs)")


class FailFracTest(unittest.TestCase):
    def test_sums_over_passes(self):
        passes = [{"attempted": 10, "failed": 0}, {"attempted": 30, "failed": 2}]
        self.assertEqual(summary.fail_frac(passes), (40, 2, 0.05))

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(summary.fail_frac([{"attempted": 0, "failed": 0}]), (1, 1, 1.0))


def fake_pass(traced, wall, epochs, rpc=()):
    return {
        "traced": traced, "setup_s": [0.5, 0.4, 0.6], "wall_s": wall, "epoch_s": epochs,
        "pairs": 100, "precision": 1.0, "recall": 0.9, "detect_rate": 1.0,
        "attempted": 3, "failed": 0, "errors": [], "rpc_us": list(rpc),
        "rpc_lateness_ms": [0.0] * len(rpc), "methods": {},
        "counts": {"net.messages.tx": 1000.0, "mempool.admits.pending": 40.0,
                   "mempool.admits.future": 5.0, "mempool.replacements": 5.0,
                   "sim.events_processed": 2000.0},
        "digest": "0", "layer": {},
        "span_self_s": {"exec.run_sharded_campaign": 2.0} if traced else {},
    }


class MetricTablesTest(unittest.TestCase):
    def test_end_to_end(self):
        passes = [fake_pass(False, 2.0, [1.0], range(1000)),
                  fake_pass(False, 4.0, [3.0], range(1000))]
        table = run.end_to_end(passes, 30.0)
        self.assertEqual(set(table), set(run.END_TO_END))
        self.assertEqual(table["setup_s"][0], 0.5)
        self.assertEqual(table["wall_s"][0], 3.0)
        self.assertEqual(table["pairs_per_s"][0], 37.5)
        self.assertEqual(table["rpc_us.p90"][0], 899)

    def test_p90_unreportable_on_few_samples(self):
        table = run.end_to_end([fake_pass(False, 2.0, [1.0], range(99))], 30.0)
        self.assertIsNone(table["rpc_us.p90"][0])

    def test_per_layer(self):
        passes = [fake_pass(False, 2.0, [1.0]), fake_pass(True, 2.2, [1.0])]
        table = run.per_layer(passes)
        self.assertEqual(set(table), set(run.PER_LAYER))
        self.assertEqual(table["exec.campaign_s"][0], 2.0)
        self.assertAlmostEqual(table["p2p.us_per_delivery"][0], 2000.0)
        self.assertAlmostEqual(table["p2p.useful_delivery_ratio"][0], 0.05)
        self.assertAlmostEqual(table["sim.ns_per_event"][0], 1e6)
        self.assertAlmostEqual(table["obs.trace_overhead_frac"][0], 0.1)

    def test_epoch_growth(self):
        self.assertEqual(run.growth([1.0] * 6 + [2.0] * 3), 2.0)
        self.assertEqual(run.growth([1.0] * 5), 0.0)

    def test_benchmark_json_lists_the_printed_metrics(self):
        path = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark directory")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        # discover is run by hand only (README, "Workloads").
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in run.WORKLOADS if w != "discover"])


if __name__ == "__main__":
    unittest.main()
