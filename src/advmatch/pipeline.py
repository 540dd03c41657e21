"""End-to-end orchestration: corpus in, adversarially matched MCQ items out.

Stages: fold split -> per-fold bucketing -> per-bucket tag remapping,
scoring, matching rounds, and choice export.  Buckets are independent, so
they can be processed by a worker pool; results are keyed by bucket id and
assembled in sorted order, which makes the output byte-identical for any
degree of parallelism.

The pool receives the planned buckets once, when each worker starts, and
then each bucket by its index.  A worker sends back the bucket's finished
JSONL text, the scores of its matched pairs and, when the run has an
attacker, how many of its items the attacker answers; no item object and
no score matrix leaves the worker.  The parent writes the texts out bucket
by bucket, in order.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .bucketing import Bucket, build_buckets
from .corpus import (FoldPlan, Record, Token, parse_token_stream, split_folds,
                     tokens_to_text)
from .matcher import (DistractorSet, MatchConfig, MCQItem, export_mcq, parse_items,
                      run_rounds)
from .remap import CandidateTable
from .scoring import ExternalMatrixStore, ScorerSpec, score_bucket


class PipelineError(ValueError):
    """Raised for corpus/config combinations the pipeline cannot run."""


# A relevance scorer standing in for the machine solving the items.
Attacker = Callable[[Sequence[Token], Sequence[Token]], float]


# What an attacker sees of one item: query, choices and the gold's position.
Question = tuple[Sequence[Token], Sequence[Sequence[Token]], int]


def attack_hits(questions: Iterable[Question], attacker: Attacker) -> int:
    """Number of questions whose strict argmax choice under ``attacker`` is gold.

    Ties never count as hits: a scorer with no opinion must score zero,
    not chance.
    """
    hits = 0
    for query, choices, gold_index in questions:
        scores = [attacker(query, choice) for choice in choices]
        top = max(scores)
        if scores.count(top) == 1 and scores.index(top) == gold_index:
            hits += 1
    return hits


def _questions(dsets: Sequence[DistractorSet],
               members: Sequence[Record]) -> Iterable[Question]:
    """Each set's question, gold first, read back from the texts its item holds."""
    by_id = {r.id: r for r in members}
    for dset in dsets:
        record = by_id[dset.query_id]
        choices = [parse_token_stream(tokens_to_text(record.gold))]
        choices += [parse_token_stream(d.text) for d in dset.distractors]
        yield parse_token_stream(tokens_to_text(record.query)), choices, 0


@dataclass(frozen=True)
class BucketResult:
    """One bucket's serialized items and the scores of its matched pairs.

    ``text`` is ``write_items`` of the bucket's items, one per member;
    ``items`` parses it back on each access.  ``matched`` holds
    ``(relevance, similarity)`` for every (query, distractor) pair, queries
    in member order and each query's distractors in round order.  The
    score matrices are not kept: ``score_bucket`` on ``bucket.members`` (or
    ``advmatch score``) recomputes them.  ``attack_hits`` is the function's
    count for the run's attacker, or None when the run had no attacker.
    """

    bucket: Bucket
    text: str
    matched: tuple[tuple[float, float], ...]
    attack_hits: int | None = None

    @property
    def items(self) -> list[MCQItem]:
        return parse_items(self.text.split("\n"))


@dataclass(frozen=True)
class RunResult:
    mode: str
    config: MatchConfig
    fold_plan: FoldPlan
    buckets: tuple[BucketResult, ...]

    @property
    def text(self) -> str:
        """The JSONL of every item, buckets in (fold, bucket id) order."""
        return "".join(br.text for br in self.buckets)

    @property
    def item_count(self) -> int:
        """One item per bucket member, counted without parsing ``text``."""
        return sum(len(br.bucket.members) for br in self.buckets)

    @property
    def items(self) -> list[MCQItem]:
        """Every item, parsed back from ``text`` on each access."""
        return parse_items(self.text.split("\n"))


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


def _process_bucket(args) -> tuple[str, tuple[tuple[float, float], ...], int | None]:
    """Match one bucket; return ``BucketResult``'s text, matched and attack_hits."""
    bucket, config, rel_spec, sim_spec, store, attacker = args
    members = bucket.members
    candidates = CandidateTable(members, config.p_reuse, config.seed)
    rel, sim = score_bucket(members, rel_spec, sim_spec, store)
    dsets = run_rounds(members, rel, sim, config, candidates)
    lines = export_mcq(dsets, members, config.seed, fold=bucket.fold,
                       bucket_id=bucket.bucket_id)
    index = {r.id: pos for pos, r in enumerate(members)}
    matched = []
    for dset in dsets:
        i = index[dset.query_id]
        for d in dset.distractors:
            j = index[d.source_id]
            matched.append((float(rel.values[i, j]), float(sim.values[i, j])))
    hits = None if attacker is None else attack_hits(_questions(dsets, members),
                                                       attacker)
    return "".join(lines), tuple(matched), hits


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
              jobs: int = 1, attacker: Attacker | None = None) -> RunResult:
    """Run the full matching pipeline over a corpus.

    External score matrices are referenced by path inside the specs,
    indexed once by their headers, and resolved per bucket by record-id
    match, so they must have been computed on the same remapped candidates
    this pipeline produces.  Each bucket reads only its own files.

    With an ``attacker``, each bucket also counts its ``attack_hits`` where
    it is matched.  Under the spawn and forkserver start methods the
    attacker is pickled, so it must be a module-level function or a
    ``functools.partial`` of one, not a lambda.
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
    tasks = [(b, config, rel_spec, sim_spec, store, attacker) for b in buckets]
    if jobs > 1 and len(tasks) > 1:
        # fork inherits the tasks; spawn and forkserver pickle them once
        # per worker, not once per bucket
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_init_worker,
                                 initargs=(tasks,)) as pool:
            outputs = list(pool.map(_run_task, range(len(tasks))))
    else:
        outputs = [_process_bucket(t) for t in tasks]

    results = [BucketResult(b, *output) for b, output in zip(buckets, outputs)]
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
