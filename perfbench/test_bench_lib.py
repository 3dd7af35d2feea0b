"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The digest test runs cloudiq_bench --selftest and is skipped until
cloudiq_bench has been built (python3 perfbench/run.py --selftest builds it).
"""

import json
import os
import subprocess
import unittest

import bench_lib
import run

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(bench_lib.highest_supported_percentile(19))
        self.assertEqual(bench_lib.highest_supported_percentile(20), 50.0)
        self.assertEqual(bench_lib.highest_supported_percentile(99), 50.0)
        self.assertEqual(bench_lib.highest_supported_percentile(100), 90.0)
        self.assertEqual(bench_lib.highest_supported_percentile(199), 90.0)
        self.assertEqual(bench_lib.highest_supported_percentile(200), 95.0)
        self.assertEqual(bench_lib.highest_supported_percentile(999), 95.0)
        self.assertEqual(bench_lib.highest_supported_percentile(1000), 99.0)
        self.assertEqual(bench_lib.highest_supported_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(bench_lib.percentile(values, 50), 50.5)
        self.assertAlmostEqual(bench_lib.percentile(values, 95), 95.05)
        self.assertEqual(bench_lib.percentile([3.0], 95), 3.0)
        self.assertEqual(bench_lib.median([4, 1, 3, 2]), 2.5)


class SelfTimeTest(unittest.TestCase):
    def span(self, start, end, parent=-1, name="s"):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "deltas": []}

    def test_self_time_subtracts_direct_children_only(self):
        spans = [self.span(0, 100),          # 0: root
                 self.span(10, 40, 0),       # 1: child
                 self.span(20, 30, 1),       # 2: grandchild
                 self.span(50, 70, 0)]       # 3: child
        self.assertEqual(bench_lib.self_times(spans), [50, 20, 10, 20])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [self.span(0, 100),
                 self.span(10, 50, 0),
                 self.span(30, 60, 0),   # overlaps the first child
                 self.span(90, 120, 0)]  # runs past the parent's end
        self.assertEqual(bench_lib.self_times(spans)[0], 100 - 50 - 10)

    def test_span_table_sums_per_name(self):
        spans = [self.span(0, 4_000_000, name="op"),
                 self.span(0, 1_000_000, 0, name="txn.Commit"),
                 self.span(4_000_000, 6_000_000, name="op")]
        table = bench_lib.span_table(spans)
        self.assertEqual(table["op"]["count"], 2)
        self.assertAlmostEqual(table["op"]["total_ms"], 6.0)
        self.assertAlmostEqual(table["op"]["self_ms"], 5.0)
        self.assertAlmostEqual(table["txn.Commit"]["self_ms"], 1.0)


class AggregationTest(unittest.TestCase):
    def test_load_rows_per_s_is_median_of_per_round_rates(self):
        loads = [{"rows": 1000, "host_s": 1.0},   # 1000 rows/s
                 {"rows": 1000, "host_s": 0.5},   # 2000 rows/s
                 {"rows": 3000, "host_s": 1.0}]   # 3000 rows/s
        # Not total rows / total seconds (2500), not the mean (2000).
        self.assertEqual(bench_lib.load_rows_per_s(loads), 2000)
        self.assertEqual(bench_lib.load_rows_per_s(loads[:2]), 1500)
        with self.assertRaises(ValueError):
            bench_lib.load_rows_per_s([])


class ReferenceSpeedTest(unittest.TestCase):
    def test_each_interval_scaled_by_its_bracketing_checkpoints(self):
        # Kernel at 2 ms (nominal), then 4 ms: the machine halved its speed.
        checkpoints = [[2.0, 2.0], [2.0, 2.0], [4.0, 4.0, 4.0]]
        scaled = bench_lib.at_reference_speed([10.0, [6.0, 12.0]],
                                              checkpoints, 2.0)
        self.assertAlmostEqual(scaled[0], 10.0)
        # Median of the second interval's two checkpoints: 4 ms.
        self.assertEqual(scaled[1], [3.0, 6.0])

    def test_checkpoint_count_must_bracket_every_interval(self):
        with self.assertRaises(ValueError):
            bench_lib.at_reference_speed([1.0, 2.0], [[1.0], [1.0]], 1.0)


class StallSumTest(unittest.TestCase):
    def test_recorded_fixture_sums_to_sim_seconds(self):
        with open(os.path.join(HERE, "fixtures", "stall_rows.json")) as f:
            fixture = json.load(f)
        rows = fixture["rows"]
        self.assertGreater(len(rows), 20)
        self.assertTrue(any(r[2] > 0 for r in rows),
                        "fixture should exercise background charges")
        self.assertEqual(bench_lib.stall_sum_mismatches(rows), [])

    def test_mismatch_is_reported(self):
        good = [1, 100, 5, 60, 45, 0, 0, 0, 0, 0, 0, 0]
        bad = [2, 100, 0, 60, 45, 0, 0, 0, 0, 0, 0, 0]
        self.assertEqual(bench_lib.stall_sum_mismatches([good, bad]), [bad])


class DigestTest(unittest.TestCase):
    def test_digest_comparison(self):
        recorded = {"Q1": "aa", "Q2": "bb"}
        seen = {"Q1": {"sim1": ["aa"], "native4": ["aa"]},
                "Q2": {"sim1": ["bb"], "native4": ["bb", "cc"]}}
        checks, failures = bench_lib.digest_mismatches(seen, recorded)
        self.assertEqual(checks, 4)
        self.assertEqual(len(failures), 1)
        checks, failures = bench_lib.digest_mismatches({}, recorded)
        self.assertEqual((checks, len(failures)), (2, 2))

    def test_recorded_digests_cover_every_variant_and_query(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            digests = json.load(f)
        self.assertEqual(sorted(digests["variants"]),
                         [str(v) for v in range(8)])
        for queries in digests["variants"].values():
            self.assertEqual(sorted(queries),
                             sorted("Q%d" % q for q in range(1, 23)))

    @unittest.skipUnless(os.path.exists(run.BENCH_BIN), "cloudiq_bench not built")
    def test_digest_stable_across_batch_boundaries(self):
        result = subprocess.run([run.BENCH_BIN, "--selftest"],
                                capture_output=True, text=True, timeout=120)
        self.assertEqual(result.returncode, 0, result.stdout)


class BenchmarkJsonTest(unittest.TestCase):
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

    @unittest.skipUnless(os.path.exists(path), "no BENCHMARK.json")
    def test_metric_lists_match(self):
        with open(self.path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
