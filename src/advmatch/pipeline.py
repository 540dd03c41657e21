"""End-to-end orchestration: corpus in, adversarially matched MCQ items out.

Stages: fold split -> per-fold bucketing -> per-bucket tag remapping,
scoring, matching rounds, and choice export.  Buckets are independent, so
they can be processed by a worker pool; results are keyed by bucket id and
assembled in sorted order, which makes the output byte-identical for any
degree of parallelism.

The pool receives the planned buckets once, when each worker starts, and
then each bucket by its index.  A worker sends back only the bucket's items
and the scores of its matched pairs; the score matrices stay in the worker.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .bucketing import Bucket, build_buckets
from .corpus import FoldPlan, Record, split_folds
from .matcher import MatchConfig, MCQItem, export_mcq, run_rounds
from .remap import CandidateTable
from .scoring import ExternalMatrixStore, ScorerSpec, score_bucket


class PipelineError(ValueError):
    """Raised for corpus/config combinations the pipeline cannot run."""


@dataclass(frozen=True)
class BucketResult:
    """One bucket's items and the scores of its matched pairs.

    ``matched`` holds ``(relevance, similarity)`` for every (query,
    distractor) pair, queries in member order and each query's distractors
    in round order.  The score matrices are not kept: ``score_bucket`` on
    ``bucket.members`` (or ``advmatch score``) recomputes them.
    """

    bucket: Bucket
    items: tuple[MCQItem, ...]
    matched: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class RunResult:
    mode: str
    config: MatchConfig
    fold_plan: FoldPlan
    buckets: tuple[BucketResult, ...]

    @property
    def items(self) -> list[MCQItem]:
        out: list[MCQItem] = []
        for br in self.buckets:
            out.extend(br.items)
        return out


def resolve_mode(records: Sequence[Record], config: MatchConfig) -> str:
    if config.mode is not None:
        return config.mode
    modes = {r.task_mode for r in records}
    if len(modes) != 1:
        raise PipelineError(
            f"corpus mixes task modes {sorted(modes)}; pass an explicit mode")
    return modes.pop()


def plan_buckets(records: Sequence[Record], config: MatchConfig,
                 mode: str) -> tuple[FoldPlan, list[Bucket]]:
    """Split records into folds, then each fold into buckets, in fold order."""
    plan = split_folds(records, config.n_folds, config.seed)
    by_fold: dict[int, list[Record]] = {}
    for r in records:
        by_fold.setdefault(plan.fold_of(r), []).append(r)
    buckets: list[Bucket] = []
    for fold in sorted(by_fold):
        buckets.extend(build_buckets(
            by_fold[fold], mode, config.target_size, config.seed,
            n_distractors=config.rounds, fold=fold))
    return plan, buckets


def _process_bucket(args) -> tuple[tuple[MCQItem, ...], tuple[tuple[float, float], ...]]:
    """Match one bucket; return its items and ``BucketResult.matched``."""
    bucket, config, rel_spec, sim_spec, store = args
    members = bucket.members
    candidates = CandidateTable(members, config.p_reuse, config.seed)
    rel, sim = score_bucket(members, rel_spec, sim_spec, store)
    dsets = run_rounds(members, rel, sim, config, candidates)
    items = export_mcq(dsets, members, config.seed, fold=bucket.fold,
                       bucket_id=bucket.bucket_id)
    index = {r.id: pos for pos, r in enumerate(members)}
    matched = []
    for dset in dsets:
        i = index[dset.query_id]
        for d in dset.distractors:
            j = index[d.source_id]
            matched.append((float(rel.values[i, j]), float(sim.values[i, j])))
    return tuple(items), tuple(matched)


# The planned tasks of the run a pool worker serves, set once per worker.
_worker_tasks: list = []


def _init_worker(tasks: list) -> None:
    global _worker_tasks
    _worker_tasks = tasks


def _run_task(index: int):
    return _process_bucket(_worker_tasks[index])


def run_match(records: Sequence[Record], config: MatchConfig,
              rel_spec: ScorerSpec | None = None,
              sim_spec: ScorerSpec | None = None,
              jobs: int = 1) -> RunResult:
    """Run the full matching pipeline over a corpus.

    External score matrices are referenced by path inside the specs,
    indexed once by their headers, and resolved per bucket by record-id
    match, so they must have been computed on the same remapped candidates
    this pipeline produces.  Each bucket reads only its own files.
    """
    if not records:
        raise PipelineError("corpus is empty")
    if jobs < 1:
        raise PipelineError(f"jobs must be >= 1, got {jobs}")
    rel_spec = rel_spec or ScorerSpec("overlap", eps=config.eps)
    sim_spec = sim_spec or ScorerSpec("overlap", eps=config.eps)
    mode = resolve_mode(records, config)

    plan, buckets = plan_buckets(records, config, mode)
    store_paths = [s.path for s in (rel_spec, sim_spec)
                   if s.kind == "external_matrix" and s.path]
    store = ExternalMatrixStore(store_paths) if store_paths else None
    tasks = [(b, config, rel_spec, sim_spec, store) for b in buckets]
    if jobs > 1 and len(tasks) > 1:
        # fork inherits the tasks; spawn and forkserver pickle them once
        # per worker, not once per bucket
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_init_worker,
                                 initargs=(tasks,)) as pool:
            outputs = list(pool.map(_run_task, range(len(tasks))))
    else:
        outputs = [_process_bucket(t) for t in tasks]

    results = [BucketResult(b, items, matched)
               for b, (items, matched) in zip(buckets, outputs)]
    results.sort(key=lambda br: (br.bucket.fold, br.bucket.bucket_id))
    return RunResult(mode=mode, config=config, fold_plan=plan,
                     buckets=tuple(results))


# -- manifests ---------------------------------------------------------------


DIGEST_CHUNK = 1 << 20


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path) -> str:
    """``digest_bytes`` of a file's content, read in DIGEST_CHUNK pieces."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(DIGEST_CHUNK):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class PipelineManifest:
    """Reproducibility sidecar: config snapshot, content digests, timings."""

    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"config": self.config, "inputs": self.inputs,
             "outputs": self.outputs, "timings": self.timings},
            ensure_ascii=False, indent=2, sort_keys=True) + "\n"


class StageTimer:
    def __init__(self, manifest: PipelineManifest, name: str):
        self._manifest = manifest
        self._name = name

    def __enter__(self):
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self._manifest.timings[self._name] = time.monotonic() - self._start
        return False
