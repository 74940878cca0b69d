#!/usr/bin/env bash
# Quick check of the serving benchmark: all four workloads at n = 5000 with
# 1 s phases and every correctness check, untraced and traced, then the
# compare.py verdict tests. Results go to $1 (default: a temporary
# directory, removed afterwards).
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
if [[ $# -ge 1 ]]; then
  out="$1"
else
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi

python3 "$here/run.py" --smoke --workload all --trace 0 --out "$out/untraced"
python3 "$here/run.py" --smoke --workload all --trace 1 --out "$out/traced"
python3 "$here/compare_test.py"
