"""Run every workload untraced and traced, then print every metric by name.

    python3 bench/report.py [--seeds 1,2,3] [--seconds S] [--workloads a,b]

The defaults are the workloads and ``run_seconds`` of ``BENCHMARK.json``.
For each seed, each workload runs once with ``--trace 0`` and once with
``--trace 1`` (``bench/run.py``), in forward order for odd repetitions and
reverse order for even ones.  Timings are printed as median [q1, q3] over
every command timed, with the sample count; each ratio is printed with its
numerator and denominator.  Exit status is 1 if any run was incorrect or
two runs of one seed produced different items.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, LAYER_UNITS, RATIOS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    out: dict = {"exit": proc.returncode}
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        out.update(obj if "provenance" in obj or "detail" in obj else {"result": obj})
    return out


def fmt(x: float) -> str:
    return f"{x:.4g}"


def pooled(runs: list[dict], name: str) -> list[float]:
    return [x for r in runs for x in r.get("detail", {}).get(name, {}).get("samples", [])]


def print_metric(name: str, unit: str, values: list[float], what: str) -> None:
    if not values:
        print(f"  {name:30s} {unit:9s} (not measured)")
        return
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"[{fmt(q1)}, {fmt(q3)}]"
    else:
        spread = "[-]"
    print(f"  {name:30s} {unit:9s} {fmt(med):>10s} {spread:24s} n={len(values)} {what}")


def report(workload: str, plain: list[dict], traced: list[dict]) -> bool:
    print(f"\n== {workload}: {WORKLOADS[workload].shape}")
    ok = True
    for r in plain + traced:
        p = r.get("provenance", {})
        if not r.get("result", {}).get("correct"):
            ok = False
            print(f"  INCORRECT run seed={p.get('seed')} trace={p.get('trace')}: "
                  f"{r.get('problems')} exit={r['exit']}")
    if plain + traced:
        p = (plain + traced)[0].get("provenance", {})
        print(f"  revision {p.get('git_revision')} source {str(p.get('source_sha256'))[:12]} "
              f"versions {p.get('versions')} nproc {p.get('nproc')}")
    for r in plain + traced:
        p = r.get("provenance", {})
        print(f"  run seed={p.get('seed')} trace={p.get('trace')} commands={p.get('commands')} "
              f"BLAS threads {p.get('blas_threads')} items {p.get('items_sha256')}"
              + (f" known defects {r['known_defects']}" if r.get("known_defects") else ""))
    by_seed: dict[int, set] = {}
    for r in plain + traced:
        p = r.get("provenance", {})
        by_seed.setdefault(p.get("seed"), set()).update(p.get("items_sha256", []))
    for seed, digests in by_seed.items():
        if len(digests) > 1:
            ok = False
            print(f"  NONDETERMINISTIC items for seed {seed}: {sorted(digests)}")
    missing = sorted({m for r in traced for m in r.get("provenance", {})
                      .get("missing_targets", [])})
    if missing:
        print(f"  missing trace targets (skipped): {missing}")

    print("  end to end (untraced; per command)")
    for name, unit in END_TO_END_UNITS.items():
        print_metric(name, unit, pooled(plain, name), "commands")
    fractions = pooled(plain, "failed_fraction")
    if fractions:
        print(f"  {'failed_fraction':30s} {'fraction':9s} {fmt(statistics.median(fractions)):>10s}"
              f" = failed items / items attempted, median of {len(fractions)} runs")
    failed = sum(r.get("result", {}).get("failed", 0) for r in plain + traced)
    attempted = sum(r.get("result", {}).get("attempted", 0) for r in plain + traced)
    print(f"  {'failed commands':30s} {'count':9s} {failed:>10d} of {attempted} attempted")

    print("  per layer (traced --jobs 1 command; times are self times)")
    for name, unit in LAYER_UNITS.items():
        print_metric(name, unit, pooled(traced, name), "traced commands")
    print("  ratios (median numerator / median denominator)")
    for name, (num, den, base) in RATIOS.items():
        n, d = pooled(traced, num), pooled(traced, den)
        if n and d and statistics.median(d):
            print(f"  {name:30s} = {base} = {fmt(statistics.median(n))} / "
                  f"{fmt(statistics.median(d))} = "
                  f"{fmt(statistics.median(n) / statistics.median(d))}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]),
                        help=f"any of {', '.join(WORKLOADS)}")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    runs: dict[str, dict[int, list[dict]]] = {w: {0: [], 1: []} for w in names}
    for rep, seed in enumerate(seeds):
        order = names if rep % 2 == 0 else names[::-1]
        for w in order:
            for trace in (0, 1):
                print(f"running {w} seed={seed} trace={trace}", file=sys.stderr)
                runs[w][trace].append(run_once(w, seed, args.seconds, trace))
    ok = all([report(w, runs[w][0], runs[w][1]) for w in names])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
