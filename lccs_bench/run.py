#!/usr/bin/env python3
"""Builds lccs_bench from this checkout, runs one workload, checks its output.

    python3 lccs_bench/run.py --workload read_saturated --seed 1 \
        --seconds 15 --trace 0 [--out DIR] [--smoke]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root: CMake tree in cmake/, cached data sets and ground truth in
cache/, results and traces in out/ unless --out says otherwise. Build logs
go to stderr; stdout carries the benchmark's report, whose last line is the
JSON result. Its metric names are checked against BENCHMARK.json before it
is printed. Exits non-zero, without a result line, when the build, the run
or that check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(cmake_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no lccs sources (src/) in this checkout", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "lccs_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace, single_workload):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    expected = expected_metrics(trace) if single_workload else None
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    root = build_dir()
    if not build(root / "cmake"):
        return 2
    cmd = [str(root / "cmake" / "lccs_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--out", args.out or str(root / "out"),
           "--cache", str(root / "cache")]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group: lccs_bench forks one child per workload, and a
    # timeout must stop those too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: lccs_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    problem = None
    try:
        problem = check_result(lines[-1], args.trace == 1,
                               args.workload != "all")
    except (ValueError, KeyError) as err:
        problem = f"last line is not a JSON result: {err}"
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
