#!/usr/bin/env python3
"""Compares repeated lccs_bench runs of two commits, metric by metric.

    python3 lccs_bench/compare.py PARENT_DIR CHANGE_DIR [--per-layer]

Each directory holds repeated runs: every <workload>.result.json below it
(written by lccs_bench into its --out directory) is one run. Runs pair up
by seed (or, when the two sides share no seed, in seed order). For each
workload and metric this prints both sides' median and quartiles, the
change's win fraction over the pairs, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (for a metric without a
              bound: it loses 9/10 of the pairs by more than the spread);
  unchanged   neither;
  unresolved  the run-to-run spread is wider than the bound (or, without a
              bound, the medians differ by more than the spread without a
              9/10 majority), unless every change run beats every parent
              run or loses to every one.

Runs whose open-loop generator ran late (generator_valid false) are left
out. Exits 1 when a metric with a bound regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIR_RULE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def wins_and_losses(pairs, better):
    """Pairs the change wins and loses; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return (sum(1 for p, c in pairs if sign * (c - p) > 0),
            sum(1 for p, c in pairs if sign * (c - p) < 0))


def verdict(parent, change, better, bound, pairs):
    """Verdict for one (workload, metric): parent/change are run values,
    pairs are (parent, change) values of runs with the same seed."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)  # > 0: the change is better
    p_lo, p_hi = quartiles(parent)
    c_lo, c_hi = quartiles(change)
    spread = p_hi - p_lo
    wins, losses = wins_and_losses(pairs, better)
    enough = len(pairs) > 0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)

    if bound is not None:
        def rel(lo, hi, med):
            if med == 0:
                return 0.0 if hi == lo else float("inf")
            return (hi - lo) / abs(med)
        if max(rel(p_lo, p_hi, p_med), rel(c_lo, c_hi, c_med)) > bound:
            if all_better:
                return "improved"
            if all_worse:
                return "regressed"
            return "unresolved"
        if -gain > bound * abs(p_med):
            return "regressed"
    if enough and wins >= PAIR_RULE * len(pairs) and gain > spread:
        return "improved"
    if bound is None:
        if enough and losses >= PAIR_RULE * len(pairs) and -gain > spread:
            return "regressed"
        if abs(gain) > spread:
            return "unresolved"
    return "unchanged"


def load_runs(directory):
    """{workload: [run dict]} from every *.result.json below `directory`."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.result.json")):
        run = json.loads(path.read_text())
        if not run.get("generator_valid", True):
            print(f"skipping {path}: generator ran late", file=sys.stderr)
            continue
        runs.setdefault(run["workload"], []).append(run)
    return runs


def load_bounds(benchmark_path):
    if not benchmark_path.is_file():
        return {}
    spec = json.loads(benchmark_path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def values(runs, name):
    """All values of one metric, and one value per seed for pairing."""
    found = [(r["seed"], r["metrics"][name]["value"]) for r in runs
             if name in r["metrics"] and r["metrics"][name]["value"] is not None]
    return [v for _, v in found], dict(found)


def compare(parent_runs, change_runs, bounds, per_layer=False):
    """Rows of (workload, metric, unit, stats dict, verdict)."""
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        kinds = {"end_to_end", "diagnostic"} | ({"per_layer"} if per_layer else set())
        names = []
        for run in p_runs:
            for name, m in run["metrics"].items():
                if m["kind"] in kinds and name not in names:
                    names.append(name)
        for name in names:
            parent, p_seed = values(p_runs, name)
            change, c_seed = values(c_runs, name)
            if not parent or not change:
                continue
            meta = next(r["metrics"][name] for r in p_runs if name in r["metrics"])
            shared = sorted(set(p_seed) & set(c_seed))
            pairs = ([(p_seed[s], c_seed[s]) for s in shared] if shared else
                     list(zip([p_seed[s] for s in sorted(p_seed)],
                              [c_seed[s] for s in sorted(c_seed)])))
            wins, _ = wins_and_losses(pairs, meta["better"])
            stats = {
                "parent": (statistics.median(parent),) + quartiles(parent),
                "change": (statistics.median(change),) + quartiles(change),
                "wins": f"{wins}/{len(pairs)}",
            }
            rows.append((workload, name, meta["unit"], stats,
                         verdict(parent, change, meta["better"],
                                 bounds.get(name), pairs)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    parser.add_argument("--per-layer", action="store_true",
                        help="also compare per-layer metrics (no bounds)")
    args = parser.parse_args()

    bounds = load_bounds(Path(args.benchmark))
    rows = compare(load_runs(args.parent_dir), load_runs(args.change_dir),
                   bounds, args.per_layer)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2

    def fmt(stats):
        return f"{stats[0]:.5g} [{stats[1]:.5g}, {stats[2]:.5g}]"

    print(f"{'workload':16} {'metric':36} {'unit':10} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>6}  verdict")
    for workload, name, unit, s, v in rows:
        print(f"{workload:16} {name:36} {unit:10} {fmt(s['parent']):>34} "
              f"{fmt(s['change']):>34} {s['wins']:>6}  {v}")
    return 1 if any(v == "regressed" and name in bounds
                    for _, name, _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
