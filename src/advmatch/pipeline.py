"""End-to-end orchestration: corpus in, adversarially matched MCQ items out.

Stages: fold split -> per-fold bucketing -> per-bucket tag remapping,
scoring, matching rounds, and choice export.  Buckets are independent, so
they can be processed by a worker pool; results are keyed by bucket id and
assembled in sorted order, which makes the output byte-identical for any
degree of parallelism.
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
from .matcher import DistractorSet, MatchConfig, MCQItem, export_mcq, run_rounds
from .remap import CandidateTable
from .scoring import ExternalMatrixStore, ScoreMatrix, ScorerSpec, score_bucket


class PipelineError(ValueError):
    """Raised for corpus/config combinations the pipeline cannot run."""


@dataclass(frozen=True)
class BucketResult:
    """Everything one bucket produced; matrices kept for diagnostics."""

    bucket: Bucket
    relevance: ScoreMatrix
    similarity: ScoreMatrix
    distractor_sets: tuple[DistractorSet, ...]
    items: tuple[MCQItem, ...]


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


def _process_bucket(args) -> BucketResult:
    bucket, config, rel_spec, sim_spec, store_paths = args
    store = ExternalMatrixStore(store_paths) if store_paths else None
    members = bucket.members
    candidates = CandidateTable(members, config.p_reuse, config.seed)
    rel, sim = score_bucket(members, rel_spec, sim_spec, store)
    dsets = run_rounds(members, rel, sim, config, candidates)
    items = export_mcq(dsets, members, config.seed, fold=bucket.fold,
                       bucket_id=bucket.bucket_id)
    return BucketResult(bucket, rel, sim, tuple(dsets), tuple(items))


def run_match(records: Sequence[Record], config: MatchConfig,
              rel_spec: ScorerSpec | None = None,
              sim_spec: ScorerSpec | None = None,
              jobs: int = 1) -> RunResult:
    """Run the full matching pipeline over a corpus.

    External score matrices are referenced by path inside the specs and
    resolved per bucket by record-id match, so they must have been computed
    on the same remapped candidates this pipeline produces.
    """
    if not records:
        raise PipelineError("corpus is empty")
    rel_spec = rel_spec or ScorerSpec("overlap", eps=config.eps)
    sim_spec = sim_spec or ScorerSpec("overlap", eps=config.eps)
    mode = resolve_mode(records, config)

    plan, buckets = plan_buckets(records, config, mode)
    store_paths = [s.path for s in (rel_spec, sim_spec)
                   if s.kind == "external_matrix" and s.path]
    tasks = [(b, config, rel_spec, sim_spec, store_paths) for b in buckets]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_process_bucket, tasks))
    else:
        results = [_process_bucket(t) for t in tasks]

    results.sort(key=lambda br: (br.bucket.fold, br.bucket.bucket_id))
    return RunResult(mode=mode, config=config, fold_plan=plan,
                     buckets=tuple(results))


# -- manifests ---------------------------------------------------------------


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
