"""Benchmark of the ``advmatch`` command line, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``advmatch`` is imported from its
``src/`` directory, so nothing has to be installed.  The seed makes the
workload's corpus (``bench/gen.py``) and is the program's seed, so the same
seed gives the same inputs and, by the program's contract, the same items.

Every command runs in a fresh process (``bench/cli_proc.py``), with BLAS and
OpenMP capped at one thread, so that jobs x threads <= nproc on two cores.  The first command
of a run is not timed: it warms the page cache and hands its items to the
output checker (``bench/check.py``).  Then commands repeat until
``--seconds`` is used up and each metric is reported as the median.

* ``--trace 0`` runs the workload's command as a user would and reports the
  end-to-end metrics of ``BENCHMARK.json``.
* ``--trace 1`` repeats a cycle of three commands, untraced at ``--jobs 1``,
  untraced at ``--jobs 2`` and traced at ``--jobs 1``, and reports the
  per-layer metrics: the traced command's layer self times and counts, the
  jobs speedup, and the tracing overhead.  The spans of the last traced
  command go to ``.bench_work/trace_<workload>_seed<seed>.json``.

Every command's output must have the same SHA-256 within the run, across
job counts and across earlier runs of the same source tree and inputs
(kept in ``.bench_work/digests.json``); otherwise the run is incorrect.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` where
``attempted`` and ``failed`` count commands; the lines before it give
provenance, every metric with its quartiles and sample count, and
``failed_fraction``, the share of items that break a check, which
``bench/report.py`` prints with the rest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_items, corpus_golds
from workloads import ROUNDS, SWEEP_GRID, WORKLOADS, Workload, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_CALLS = 3
# One BLAS/OpenMP thread per process.  With a second thread at --jobs 1,
# OpenBLAS spin-waits after each small product (3 s of CPU per sweep
# command), the command's time then depends on both cores, and the jobs
# speedup compares runs with different thread counts.
BLAS_THREADS = "1"
# a run, its commands included, must end within 180 s
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# Every per-layer metric the traced run produces; BENCHMARK.json lists the
# ones that are measured on every workload.
LAYER_UNITS = {
    "corpus.parse_s": "s", "corpus.split_s": "s", "corpus.records": "count",
    "corpus.bytes": "bytes",
    "bucketing.build_s": "s", "bucketing.kmeans_s": "s",
    "bucketing.buckets": "count", "bucketing.size_p50": "records",
    "bucketing.size_max": "records",
    "remap.table_s": "s", "remap.get_calls": "count", "remap.get_s": "s",
    "remap.fallback_pairs": "count", "remap.fallback_fraction": "fraction",
    "remap.fallback_s": "s",
    "scoring.score_s": "s", "scoring.calls": "count", "scoring.pairs": "count",
    "scoring.rel_floor_fraction": "fraction",
    "assignment.solve_s": "s", "assignment.lsa_s": "s",
    "assignment.feasibility_s": "s", "assignment.lexicalize_s": "s",
    "assignment.solves": "count", "assignment.objective": "logprob",
    "matcher.rounds_s": "s", "matcher.eff_sim_s": "s", "matcher.weights_s": "s",
    "matcher.forbidden_fraction": "fraction", "matcher.export_s": "s",
    "matcher.write_s": "s", "matcher.items": "count",
    "matcher.output_bytes": "bytes", "cli.write_s": "s",
    "pipeline.match_s": "s", "pipeline.bucket_s": "s",
    "pipeline.bucket_p50_s": "s", "pipeline.bucket_p90_s": "s",
    "pipeline.jobs_speedup": "x", "pipeline.worker_peak_rss_mb": "MB",
    "pipeline.retained_matrix_mb": "MB",
    "diagnostics.sweep_points": "count", "diagnostics.sweep_s": "s",
    "diagnostics.attack_s": "s",
    "trace.coverage": "fraction", "trace.overhead": "x",
}

# ratio -> (numerator, denominator, what it measures); each is the ratio of
# the two medians, and the detail line keeps both so reports give the base
RATIOS = {
    "remap.fallback_fraction": ("remap.fallback_pairs", "scoring.pairs",
                                "pairs scored through the fallback / pairs scored"),
    "scoring.rel_floor_fraction": ("scoring.rel_floor_entries", "scoring.pairs",
                                   "relevance entries at eps / pairs scored"),
    "matcher.forbidden_fraction": ("matcher.forbidden_entries",
                                   "matcher.weight_entries",
                                   "forbidden weights / weights built"),
    "pipeline.jobs_speedup": ("wall_jobs1_s", "wall_jobs2_s",
                              "wall_s at --jobs 1 / wall_s at --jobs 2, untraced"),
    "trace.overhead": ("wall_traced_s", "wall_jobs1_s",
                       "traced wall_s / untraced wall_s, both --jobs 1"),
    "trace.coverage": ("trace.layer_self_s", "trace.match_span_s",
                       "layer self time / pipeline.match span"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, bad arguments)."""


@dataclass
class Call:
    jobs: int
    mode: str
    wall_s: float
    cpu_s: float
    exit: int
    child: dict = field(default_factory=dict)
    digest: str = ""
    stderr: str = ""


@dataclass
class Context:
    workload: Workload
    seed: int
    work: Path
    corpus_path: Path
    config_path: Path
    nproc: int
    deadline: float
    calls: list[Call] = field(default_factory=list)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_call(ctx: Context, jobs: int, mode: str) -> Call:
    """One ``advmatch`` command in a fresh process; mode as in cli_proc.py."""
    index = len(ctx.calls)
    out = ctx.work / f"out{index}"
    result_path = ctx.work / f"result{index}.json"
    trace_path = WORK / f"trace_{ctx.workload.name}_seed{ctx.seed}.json"
    child_mode = str(trace_path) if mode == "trace" else mode
    argv = ctx.workload.argv(ctx.corpus_path, ctx.config_path, out, jobs)
    env = dict(os.environ, OMP_NUM_THREADS=BLAS_THREADS,
               OPENBLAS_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(BENCH / "cli_proc.py"), str(result_path),
           child_mode, "--", *argv]
    log_path = ctx.work / f"log{index}.txt"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log_path, "wb") as log:
        start = time.monotonic()
        env["BENCH_SPAWNED"] = repr(start)
        proc = subprocess.Popen(cmd, env=env, cwd=ctx.work, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, ctx.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = -1
        finally:
            wall = time.monotonic() - start
            # the command's own worker pool shares its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    child = {}
    if code == 0 and result_path.exists():
        child = json.loads(result_path.read_text(encoding="utf-8"))
        wall -= child["post_s"]
    call = Call(jobs=jobs, mode=mode, wall_s=wall, cpu_s=cpu, exit=code, child=child,
                stderr=log_path.read_text(encoding="utf-8", errors="replace")[-2000:])
    if code == 0:
        call.digest = output_digest(ctx.workload, out)
    ctx.calls.append(call)
    return call


def output_digest(workload: Workload, out: Path) -> str:
    h = hashlib.sha256(out.read_bytes())
    if workload.command == "sweep":
        h.update(Path(str(out) + ".csv").read_bytes())
    return h.hexdigest()


def check_sweep_table(out: Path) -> bool:
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    try:
        values = [[float(x) for x in row.split("\t")] for row in rows]
    except ValueError:
        return False
    return ([v[0] for v in values] == list(SWEEP_GRID)
            and all(len(v) == 4 and 0.0 <= v[1] <= 1.0 for v in values))


def tree_digest() -> str:
    """SHA-256 of the program's sources: one value per commit."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stored_digests(key: str, digests: dict[str, str]) -> list[str]:
    """Compare with what earlier runs of this tree and seed produced."""
    path = WORK / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{kind} digest {value[:12]} differs from an earlier run's "
                f"{store[key][kind][:12]}"
                for kind, value in digests.items()
                if kind in store.get(key, {}) and store[key][kind] != value]
    store.setdefault(key, {}).update(
        {k: v for k, v in digests.items() if k not in store.get(key, {})})
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(ctx: Context, seconds: float, cycle: list[tuple[int, str]]) -> None:
    """Repeat the cycle of (jobs, mode) commands until ``seconds`` is used up."""
    start = time.monotonic()
    durations: list[float] = []
    rounds = 0
    while True:
        cycle_start = time.monotonic()
        for jobs, mode in cycle:
            if run_call(ctx, jobs, mode).exit != 0:
                return
        durations.append(time.monotonic() - cycle_start)
        rounds += 1
        elapsed = time.monotonic() - start
        min_rounds = MIN_CALLS if len(cycle) == 1 else 1
        if rounds >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return


def end_to_end(ctx: Context, timed: list[Call], items: int) -> dict[str, list[float]]:
    return {
        "wall_s": [c.wall_s for c in timed],
        "items_per_s": [items / c.wall_s for c in timed],
        "cpu_s": [c.cpu_s for c in timed],
        "peak_rss_mb": [c.child["peak_rss_mb"] for c in timed],
        "setup_s": [c.child["setup_s"] for c in timed],
    }


def per_layer(ctx: Context, corpus_size: int) -> tuple[dict[str, list[float]], list[str]]:
    traced = [c for c in ctx.calls if c.mode == "trace"]
    plain2 = [c for c in ctx.calls if c.mode == "-" and c.jobs == 2]
    samples: dict[str, list[float]] = {
        "wall_jobs1_s": [c.wall_s for c in ctx.calls if c.mode == "-" and c.jobs == 1],
        "wall_jobs2_s": [c.wall_s for c in plain2],
        "wall_traced_s": [c.wall_s for c in traced],
        "pipeline.worker_peak_rss_mb": [c.child["worker_peak_rss_mb"] for c in plain2],
        "corpus.bytes": [corpus_size],
    }
    # a layer the command never entered (k-means on qa) has no span: 0
    names = set(LAYER_UNITS).union(*(c.child["layers"] for c in traced))
    for name in names - set(samples) - set(RATIOS):
        samples[name] = [float(c.child["layers"].get(name, 0.0)) for c in traced]
    for name, (num, den, _) in RATIOS.items():
        # left out when a layer's counts are missing
        if samples.get(num) and samples.get(den):
            bottom = statistics.median(samples[den])
            samples[name] = [statistics.median(samples[num]) / bottom if bottom else 0.0]
    missing = sorted({m for c in traced for m in c.child.get("missing", [])})
    return samples, missing


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "advmatch" / "__init__.py").is_file():
        raise BenchError(f"no advmatch sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        corpus_path, config_path, corpus = write_inputs(workload, args.seed, work)
        ctx = Context(workload, args.seed, work, corpus_path, config_path, nproc(),
                      deadline)
        return measure_and_check(ctx, args, spec, corpus)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def items_digest(call: Call) -> str:
    lines = [line for items in call.child.get("match_items", []) for line in items]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def measure_and_check(ctx: Context, args, spec: dict, corpus: bytes) -> dict:
    workload = ctx.workload
    golds = corpus_golds(corpus)
    expected = len(golds) * workload.grid_points
    problems: list[str] = []
    known: list[str] = []

    warm = run_call(ctx, workload.jobs, "capture")
    if warm.exit == 0:
        src = Path(warm.child["advmatch_file"]).resolve()
        if ROOT / "src" not in src.parents:
            raise BenchError(f"advmatch was imported from {src}, not from {ROOT}")
        if args.trace:
            measure(ctx, args.seconds, [(1, "-"), (2, "-"), (1, "trace")])
        else:
            measure(ctx, args.seconds, [(workload.jobs, "-")])

    ok = [c for c in ctx.calls if c.exit == 0]
    failed_items = expected * (len(ctx.calls) - len(ok))
    for c in ctx.calls:
        if c.exit != 0:
            problems.append(f"command at --jobs {c.jobs} ({c.mode}) exited {c.exit}: "
                            + c.stderr.strip()[-500:])
    if warm.exit == 0:
        # A sweep writes no items, so its items are taken from each
        # run_match call.  Every later command must reproduce these bytes,
        # so it carries the same failures.
        item_sets = warm.child.get("match_items", [])
        if workload.command == "match":
            item_sets = [(ctx.work / "out0").read_text(encoding="utf-8").splitlines()]
        elif len(item_sets) != workload.grid_points:
            problems.append(f"captured {len(item_sets)} sets of sweep items, "
                            f"expected {workload.grid_points}")
        checks = [check_items(items, golds, ROUNDS) for items in item_sets]
        failed_items += sum(r.failed for r in checks) * len(ok)
        problems += ["output check: " + r.summary() for r in checks
                     if r.broken_guarantees]
        known = [r.summary() for r in checks if r.failed and not r.broken_guarantees]
        if workload.command == "sweep" and not check_sweep_table(ctx.work / "out0"):
            problems.append("sweep table does not list the grid with accuracies in [0, 1]")

    outputs = {c.digest for c in ok}
    items = {items_digest(c) for c in ok if "match_items" in c.child}
    if len(outputs) > 1 or len(items) > 1:
        problems.append("outputs differ between commands of one run: " + ", ".join(
            f"jobs {c.jobs} {c.mode} {c.digest[:12]}" for c in ok))
    tree = tree_digest()
    if ok and len(outputs) == 1 and len(items) == 1:
        inputs = hashlib.sha256(corpus + ctx.config_path.read_bytes()).hexdigest()
        problems += stored_digests(f"{tree}/{workload.name}/{inputs}",
                                   {"output": outputs.pop(), "items": items.pop()})

    samples: dict[str, list[float]] = {}
    missing: list[str] = []
    timed = ok[1:]
    if timed and len(ok) == len(ctx.calls):
        if args.trace:
            samples, missing = per_layer(ctx, len(corpus))
        else:
            samples = end_to_end(ctx, timed, expected)
    # failed_fraction counts items, the known defect included.  The result
    # line counts commands: one fails when it exits non-zero, and every
    # command fails when the outputs break a guarantee or are not identical.
    samples["failed_fraction"] = [failed_items / (expected * len(ctx.calls))]
    exited = sum(1 for c in ctx.calls if c.exit != 0)
    # each exited command made one problem; any other problem is the outputs'
    failed = len(ctx.calls) if len(problems) > exited else exited
    print(json.dumps({"provenance": {
        "workload": workload.name, "seed": ctx.seed, "trace": args.trace,
        "git_revision": git_revision(), "source_sha256": tree,
        "versions": warm.child.get("versions", {}), "nproc": ctx.nproc,
        "blas_threads": {f"jobs{j}": int(BLAS_THREADS)
                         for j in sorted({c.jobs for c in ctx.calls})},
        "commands": len(ctx.calls), "output_sha256": sorted({c.digest for c in ok}),
        "items_sha256": sorted({items_digest(c) for c in ok if "match_items" in c.child}),
        "missing_targets": missing}}))
    units = dict(LAYER_UNITS if args.trace else END_TO_END_UNITS,
                 failed_fraction="fraction")
    detail = {k: dict(quartiles(v), unit=units.get(k, "s" if k.endswith("_s") else "count"),
                      samples=v)
              for k, v in sorted(samples.items())}
    print(json.dumps({"detail": detail, "problems": problems, "known_defects": known}))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {k: {"value": detail[k]["median"], "unit": detail[k]["unit"]}
               for k in names if k in detail}
    return {"correct": not problems, "attempted": len(ctx.calls), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its command and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
