"""Tests for the benchmark's own code (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run


def synthetic_report(windows=250):
    """A driver report shaped like a sim workload's, with made-up values."""
    window_s = [0.01 + 0.0001 * i for i in range(windows)]

    def sim_pass(traced):
        p = {
            "seconds": 5.0, "units": 5, "sub_seeds": 5,
            "fingerprint": "00000000000000ff",
            "window_s": window_s, "allocate_s": [0.0] + window_s[1:],
            "allocate_setup_s": [0.001] * windows,
            "quality": {"rejected": 10, "attempted": 40, "cost": 300.0,
                        "accepted": 120, "honest_welfare": 0.9},
        }
        if traced:
            p.update({
                "overhead_s": [0.001] * windows,
                "tabu_ctor_s": [0.002] * windows,
                "counts": {"evaluations": 96, "full_rebuilds": 90,
                           "delta_moves": 500, "rebases": 3,
                           "repair_walks": 100, "unrepairable": 25,
                           "moves_tried": 4000, "moves_accepted": 4100,
                           "shard_prerejections": 8,
                           "rebalance_placements": 6, "max_shard_vms": 300,
                           "min_shard_vms": 200, "retries": 4,
                           "evictions": 2, "admission_deferrals": 7},
                "cpu_s": {"tournament": 0.1, "variation": 0.2,
                          "repair": 0.4, "evaluate": 0.3, "selection": 0.05},
                "io": {"append_s": 0.25, "json_bytes": 1000.0,
                       "binary_bytes": 150.0, "peak_buffer_bytes": 90.0},
            })
        return p

    return {"workload": "steady256", "seed": 1, "threads": 4,
            "hardware_threads": 4, "setup_s": [0.3, 0.1, 0.2],
            "generate_s": [0.01, 0.02, 0.03], "peak_rss_mb": 12.5,
            "attempted": windows, "failed": 0, "failures": [],
            "passes": {"untraced": sim_pass(False),
                       "traced": sim_pass(True)}}


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_beyond_p95_needs_200(self):
        self.assertIsNone(run.tail_percentile(list(range(199)), 95))
        samples = list(range(200))
        value = run.tail_percentile(samples, 95)
        self.assertEqual(value, 189)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_median_rank_also_needs_ten_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(19)), 50))
        self.assertEqual(run.tail_percentile(list(range(20)), 50), 9)

    def test_order_does_not_matter(self):
        samples = list(range(300))
        self.assertEqual(run.tail_percentile(samples[::-1], 95),
                         run.tail_percentile(samples, 95))

    def test_short_series_falls_back_to_max(self):
        self.assertEqual(run.p95_or_max([3.0, 1.0, 2.0]), (3.0, "max"))
        self.assertEqual(run.p95_or_max(list(range(200))), (189, "p95"))


class RejectionRateTest(unittest.TestCase):
    def test_rate_and_base(self):
        self.assertEqual(run.rejection_rate(10, 40), (0.25, "10/40"))
        self.assertEqual(run.rejection_rate(0, 1600), (0.0, "0/1600"))

    def test_base_must_be_positive_and_cover_rejections(self):
        with self.assertRaises(run.BenchError):
            run.rejection_rate(0, 0)
        with self.assertRaises(run.BenchError):
            run.rejection_rate(41, 40)

    def test_acceptance_is_the_complement_over_arrivals(self):
        notes = []
        metrics = run.build_metrics(synthetic_report(), False, notes)
        self.assertEqual(metrics["acceptance_rate"]["value"], 0.75)
        self.assertIn("rejection_rate = 10/40 = 0.250000", notes)


class MetricNameTest(unittest.TestCase):
    def test_accepts_letters_digits_and_separators(self):
        for name in ("setup_s", "tabu.us_per_move", "a-b_c.1", "9lives",
                     "x" * 64):
            self.assertEqual(run.validate_name(name), name)

    def test_rejects_everything_else(self):
        for name in ("", ".hidden", "_x", "a b", "a/b", "x" * 65, "café",
                     "p95%"):
            with self.assertRaises(run.BenchError, msg=name):
                run.validate_name(name)

    def test_declared_metrics_match_what_is_reported(self):
        spec = run.load_spec()
        report = synthetic_report()
        run.check_metric_set(run.build_metrics(report, False, []),
                             spec["end_to_end"])
        run.check_metric_set(run.build_metrics(report, True, []),
                             spec["per_layer"])

    def test_metric_set_mismatch_is_an_error(self):
        spec = run.load_spec()
        metrics = run.build_metrics(synthetic_report(), False, [])
        del metrics["setup_s"]
        with self.assertRaises(run.BenchError):
            run.check_metric_set(metrics, spec["end_to_end"])


class OutputTest(unittest.TestCase):
    def test_round_trip_through_stdout(self):
        metrics = run.build_metrics(synthetic_report(), True, [])
        stdout = "workload steady256\nfingerprint x\n" + run.result_line(
            True, 250, 0, metrics) + "\n"
        result = run.parse_result_line(stdout)
        self.assertEqual(result, {"correct": True, "attempted": 250,
                                  "failed": 0, "metrics": metrics})

    def test_rejects_malformed_results(self):
        good = json.loads(run.result_line(True, 1, 0, {}))
        for broken in (
                {k: v for k, v in good.items() if k != "failed"},
                dict(good, attempted=0),
                dict(good, attempted=True),
                dict(good, correct="yes"),
                dict(good, metrics={"bad name": {"value": 1, "unit": "s"}}),
                dict(good, metrics={"x": {"value": "1", "unit": "s"}})):
            with self.assertRaises(run.BenchError, msg=broken):
                run.parse_result_line(json.dumps(broken))

    def test_window_p95_reports_how_it_was_taken(self):
        notes = []
        run.build_metrics(synthetic_report(windows=50), False, notes)
        self.assertIn("window_s_p95 = max of 50 window samples", notes)


class LayoutTest(unittest.TestCase):
    def test_benchmark_json_names_this_command(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
