"""End-to-end orchestration: corpus in, adversarially matched MCQ items out.

Stages: fold split -> per-fold bucketing -> per-bucket tag remapping,
scoring, matching rounds, and choice export.  Buckets are independent, so
they can be processed by a worker pool.  ``plan_buckets`` puts them in
(fold, bucket id) order and their results are taken in that order, as
each one is ready, which makes the output byte-identical for any degree
of parallelism.

Inside a worker the K matching rounds stay one ``(K, n)`` array of member
indices, from the solver to the item lines and the matched scores.

The pool receives the planned buckets once, when each worker starts, and
then each bucket by its index.  A worker also sets the OpenBLAS numpy has
loaded to one thread as it starts, so that N workers run N BLAS threads
rather than N times one per CPU.  A run that matches its buckets in the
calling process (``--jobs 1``, or one bucket) holds that process at one
thread while it does, then gives back the count it had, also when it
raises; ``advmatch score`` scores its buckets under the same
``_one_blas_thread``.  The parent of a pool keeps its count: it runs no
BLAS product while the workers match, and a thread-count call after a
fork restarts OpenBLAS's threads, which then spin.  A worker sends back the bucket's
finished JSONL text, the scores of its matched pairs and how many of its items the
attacker (the overlap relevance scorer at the run's one eps,
``MatchConfig.eps``) answers; no item object and no score matrix leaves
the worker.  ``run_match`` hands each bucket's text to its ``write``
callable as soon as the buckets before it are done, so ``advmatch match``
holds only the texts of buckets that finished ahead of the one it waits
for, not the run's.

This module only orchestrates: the command line, its config and the
manifest ``advmatch match`` writes live in ``cli``.
"""

from __future__ import annotations

import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .bucketing import Bucket, build_buckets
from .corpus import FoldPlan, Record, split_folds
from .matcher import MatchConfig, MCQItem, export_mcq, parse_items, run_rounds
from .remap import CandidateTable
from .scoring import ScorerSpec, external_store, relevance_values, score_bucket


class PipelineError(ValueError):
    """Raised for corpus/config combinations the pipeline cannot run."""


@dataclass(frozen=True)
class BucketResult:
    """One bucket's serialized items and the scores of its matched pairs.

    ``text`` is ``write_items`` of the bucket's items, one per member, and
    ``parse_items`` reads them back; it is empty when the run handed the
    text to a ``write`` callable instead.  ``matched`` is a ``(K * n, 2)``
    float64 array of ``(relevance, similarity)`` for every (query,
    distractor) pair, queries in member order and each query's distractors
    in round order.  The
    score matrices are not kept: ``score_bucket`` on ``bucket.members`` (or
    ``advmatch score``) recomputes them.  ``attack_hits`` counts the items
    whose gold the attacker, overlap relevance at the run's eps, scores
    strictly above every distractor.
    """

    bucket: Bucket
    text: str
    matched: np.ndarray
    attack_hits: int


@dataclass(frozen=True)
class RunResult:
    """A run's fold plan and one ``BucketResult`` per bucket.

    Buckets are in (fold, bucket id) order.  ``text`` and ``items`` are
    empty for a run that handed its texts to a ``write`` callable.
    """

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
    """The config's mode, else the one mode of every record; an empty corpus
    is refused first."""
    if not records:
        raise PipelineError("corpus is empty")
    if config.mode is not None:
        return config.mode
    modes = {r.task_mode for r in records}
    if len(modes) != 1:
        raise PipelineError(
            f"corpus mixes task modes {sorted(modes)}; pass an explicit mode")
    return modes.pop()


def plan_buckets(records: Sequence[Record],
                 config: MatchConfig) -> tuple[FoldPlan, list[Bucket]]:
    """Split records into folds, then each fold into buckets, in fold order.

    The buckets take :func:`resolve_mode`'s mode, whose error comes first.
    Raises :class:`PipelineError` naming the first ten repeated record ids.
    """
    mode = resolve_mode(records, config)
    repeated = [rid for rid, c in Counter(r.id for r in records).items() if c > 1]
    if repeated:
        raise PipelineError(f"{len(repeated)} record id(s) occur more than once: "
                            f"{', '.join(map(repr, repeated[:10]))}")
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


def _process_bucket(args) -> tuple[str, np.ndarray, int]:
    """Match one bucket; return ``BucketResult``'s text, matched and attack_hits.

    ``args`` is ``(bucket, config, rel_spec, sim_spec, store)``.  Row i of
    ``mappings.T`` holds record i's distractors in round order.  Row i of a
    relevance matrix scores every choice of record i's item as remapped
    onto record i, gold on the diagonal: the attacker reads it.
    """
    bucket, config, rel_spec, sim_spec, store = args
    members = bucket.members
    candidates = CandidateTable(members, config.p_reuse, config.seed)
    rel, sim = (m.values for m in score_bucket(members, config, rel_spec, sim_spec,
                                               store))
    mappings, texts = run_rounds(members, rel, sim, config, candidates)
    lines = export_mcq(members, mappings, texts, config.seed, fold=bucket.fold,
                       bucket_id=bucket.bucket_id)
    cols = mappings.T
    rows = np.arange(len(members))[:, None]
    matched = np.column_stack((rel[rows, cols].ravel(), sim[rows, cols].ravel()))
    att = (rel if rel_spec.kind == "overlap"
           else relevance_values(members, ScorerSpec("overlap"), config.eps, None))
    hits = int((np.diag(att) > att[rows, cols].max(axis=1)).sum())
    return "".join(lines), matched, hits


# The planned tasks of the run a pool worker serves, set once per worker.
_worker_tasks: list = []

# OpenBLAS's thread-count getter and setter under the names numpy's wheels
# export them: numpy >= 2, numpy 1.2x, then a build without the symbol suffix
_BLAS_THREADS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


def _blas_threads():
    """The thread-count ``(getter, setter)`` of the OpenBLAS numpy has loaded,
    or None.

    They are looked up through numpy's compiled core, whose dependencies
    hold the BLAS numpy links; another BLAS, or none, has no such symbols,
    and a pair is used only where both of its symbols exist.
    """
    import ctypes  # numpy has imported it already

    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules.get("numpy.core._multiarray_umath"))
    if core is None:
        return None
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for names in _BLAS_THREADS:
        pair = [getattr(lib, name, None) for name in names]
        if None not in pair:
            return tuple(pair)
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with numpy's OpenBLAS at one thread, then give it back
    the count it had, also when the block raises."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_threads = blas
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _init_worker(tasks: list) -> None:
    global _worker_tasks
    _worker_tasks = tasks
    # --jobs N runs N workers of one BLAS thread each, not N x (one per CPU)
    blas = _blas_threads()
    if blas is not None:
        blas[1](1)


def _run_task(index: int):
    return _process_bucket(_worker_tasks[index])


def _outputs(tasks: list, jobs: int) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each task's ``_process_bucket`` output, in task order, as it is ready.

    Tasks matched in this process run at one BLAS thread.  Closing the
    iterator early cancels the tasks no worker has started.
    """
    if jobs > 1 and len(tasks) > 1:
        # fork inherits the tasks; spawn and forkserver pickle them once
        # per worker, not once per bucket
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_init_worker,
                                 initargs=(tasks,)) as pool:
            yield from pool.map(_run_task, range(len(tasks)))
    else:
        with _one_blas_thread():
            yield from map(_process_bucket, tasks)


def run_match(records: Sequence[Record], config: MatchConfig,
              rel_spec: ScorerSpec | None = None,
              sim_spec: ScorerSpec | None = None,
              jobs: int = 1,
              write: Callable[[str], object] | None = None) -> RunResult:
    """Run the full matching pipeline over a corpus.

    Buckets are taken in (fold, bucket id) order, each as soon as it and
    every bucket before it are matched.  With ``write``, each bucket's
    JSONL text is passed to it then and not kept, so the texts' memory is
    bounded by a bucket, not by the corpus, and the result's texts are
    empty; without it, each text stays on its ``BucketResult``.  The
    ``write`` calls concatenate to the ``text`` of the same run without
    ``write``.  If a bucket fails, or ``write`` raises, the buckets no
    worker has started are cancelled and the error propagates; what was
    written stays written.

    External score matrices are referenced by path inside the specs,
    indexed once by their headers, and resolved per bucket by record-id
    match, so they must have been computed on the same remapped candidates
    this pipeline produces.  Each bucket reads only its own files.

    Every scorer floors its scores at ``config.eps``.  Each bucket also
    counts its ``attack_hits`` where it is matched: from the relevance
    matrix it already holds when ``rel_spec`` is overlap, the attacker's
    own scorer, and else from the attacker's matrix scored beside it, so
    overlap relevance is never scored twice for one bucket.
    """
    if jobs < 1:
        raise PipelineError(f"jobs must be >= 1, got {jobs}")
    rel_spec = rel_spec or ScorerSpec("overlap")
    sim_spec = sim_spec or ScorerSpec("overlap")
    plan, buckets = plan_buckets(records, config)
    store = external_store(rel_spec, sim_spec)
    tasks = [(b, config, rel_spec, sim_spec, store) for b in buckets]
    results = []
    with closing(_outputs(tasks, jobs)) as outputs:
        for bucket, (text, matched, hits) in zip(buckets, outputs):
            if write is not None:
                write(text)
                text = ""
            results.append(BucketResult(bucket, text, matched, hits))
    return RunResult(fold_plan=plan, buckets=tuple(results))
