#!/usr/bin/env bash
# Runs each benchmark workload briefly, untraced and traced, and checks the
# result line each run prints last: strict JSON (NaN and Infinity are not
# JSON), the output checker's verdict true, no failed command, and every
# metric BENCHMARK.json declares, the end-to-end ones in the untraced run
# and the per-layer ones in the traced run.  Run from the root of a
# checkout:
#
#     bash .github/bench-smoke.sh [WORK_DIR]
#
# WORK_DIR, which keeps the result lines, defaults to a fresh temporary
# directory.
set -euo pipefail

work="${1:-$(mktemp -d)}"
mkdir -p "$work"

for w in corpus6k sweep_qar; do
  for trace in 0 1; do
    result="$work/bench_${w}_trace$trace.json"
    python3 bench/run.py --workload "$w" --seed 1 --seconds 5 --trace "$trace" | tail -n 1 > "$result"
    python3 - "$result" "$w" "$trace" <<'PY'
import json
import sys

path, workload, trace = sys.argv[1:]


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


with open(path, encoding="utf-8") as f:
    result = json.load(f, parse_constant=reject)
with open("BENCHMARK.json", encoding="utf-8") as f:
    declared = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
if result["correct"] is not True or result["failed"] != 0 or missing:
    sys.exit(f"{workload} --trace {trace}: correct {result['correct']!r}, "
             f"failed {result['failed']!r}, missing metrics {missing}")
print(f"{workload} --trace {trace}: correct, {len(declared)} metrics")
PY
  done
done
