#!/usr/bin/env python3
"""Tests compare.py's verdicts on synthetic result files.

    python3 lccs_bench/compare_test.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

SEEDS = range(1, 11)


def write_runs(directory, workload, metrics_per_seed):
    """One result file per seed; metrics_per_seed(seed) -> {name: value}."""
    for seed in SEEDS:
        run_dir = Path(directory) / f"seed{seed}"
        run_dir.mkdir(parents=True)
        metrics = {
            name: {"value": value, "unit": "ms", "better": "lower",
                   "kind": "end_to_end", "samples": 1000}
            for name, value in metrics_per_seed(seed).items()
        }
        metrics["qps"] = {"value": 1000.0 + seed, "unit": "queries/s",
                          "better": "higher", "kind": "end_to_end",
                          "samples": 1000}
        run = {"workload": workload, "seed": seed, "generator_valid": True,
               "metrics": metrics}
        (run_dir / f"{workload}.result.json").write_text(json.dumps(run))


class VerdictTest(unittest.TestCase):
    def test_improved_needs_pair_majority_and_more_than_spread(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        change = [p - 1.0 for p in parent]
        pairs = list(zip(parent, change))
        self.assertEqual(compare.verdict(parent, change, "lower", 0.2, pairs),
                         "improved")

    def test_small_consistent_gain_within_spread_is_unchanged(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        change = [p - 0.01 for p in parent]
        pairs = list(zip(parent, change))
        self.assertEqual(compare.verdict(parent, change, "lower", 0.2, pairs),
                         "unchanged")

    def test_regressed_beyond_bound(self):
        parent = [100.0 + i for i in range(10)]
        change = [p * 0.8 for p in parent]  # 20% less throughput
        pairs = list(zip(parent, change))
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1, pairs),
                         "regressed")

    def test_loss_within_bound_is_unchanged(self):
        parent = [100.0 + i for i in range(10)]
        change = [p * 0.97 for p in parent]
        pairs = list(zip(parent, change))
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1, pairs),
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0,
                  100.0]
        change = [v * 1.02 for v in reversed(parent)]
        pairs = list(zip(parent, change))
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1, pairs),
                         "unresolved")

    def test_wide_spread_but_every_change_run_better_is_improved(self):
        parent = [100.0 + 20 * i for i in range(10)]
        change = [p - 1000.0 for p in parent]
        pairs = list(zip(parent, change))
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1, pairs),
                         "improved")

    def test_metric_without_bound_uses_pair_rule_both_ways(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        worse = [p + 1.0 for p in parent]
        self.assertEqual(compare.verdict(parent, worse, "lower", None,
                                         list(zip(parent, worse))),
                         "regressed")
        mixed = [p + (2.0 if i < 7 else -0.5) for i, p in enumerate(parent)]
        self.assertEqual(compare.verdict(parent, mixed, "lower", None,
                                         list(zip(parent, mixed))),
                         "unresolved")

    def test_ties_count_for_neither(self):
        self.assertEqual(compare.wins_and_losses([(1, 1), (1, 2), (2, 1)],
                                                 "higher"), (1, 1))


class EndToEndTest(unittest.TestCase):
    def test_directories_are_compared_per_workload_and_metric(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = Path(tmp) / "parent", Path(tmp) / "change"
            write_runs(parent, "read_sweep",
                       lambda s: {"query_p50_ms": 5.0 + 0.01 * s})
            write_runs(change, "read_sweep",
                       lambda s: {"query_p50_ms": 4.0 + 0.01 * s})
            rows = compare.compare(compare.load_runs(parent),
                                   compare.load_runs(change),
                                   {"query_p50_ms": 0.1, "qps": 0.1})
            verdicts = {name: v for _, name, _, _, v in rows}
            self.assertEqual(verdicts, {"query_p50_ms": "improved",
                                        "qps": "unchanged"})
            stats = next(s for _, name, _, s, _ in rows
                         if name == "query_p50_ms")
            self.assertEqual(stats["wins"], "10/10")


if __name__ == "__main__":
    unittest.main()
