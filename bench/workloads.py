"""The benchmark's workloads: a corpus shape, a config and one CLI command each.

Sizes are set so that one command takes a few seconds on a 2-core machine,
which lets one run time several commands and report their median.
Each workload stresses layers that another leaves idle:

* ``corpus6k``: 6600 ``qa`` records in 11 folds at ``--jobs 2``, with two
  question types and two pronoun classes, 20 records per source and 2%
  stock (duplicate) golds: about 44 buckets of 150.  Parse, bucketing,
  per-bucket overhead, ``remap.get``, export, worker scheduling and the
  matrices retained by the result dominate; assignment is small.  Half of
  the tags name non-person objects, so the relevance fallback fires.
  Buckets stay above 64 records: at 64 or fewer the solver's exact
  tie-break runs per-row certificate solves, which would dominate instead.
* ``sweep_qar``: ``advmatch sweep`` over three lambdas on 2000 ``qar``
  records with embeddings (``n_folds=2``, ``target_size=320``) at
  ``--jobs 2``: k-means bucketing into 8 buckets of about 250,
  embedding-cosine similarity, and 24 scorings plus 72 mid-size solves,
  with the results of every grid point sent back from the workers.  Gold
  tags name only people, so the relevance fallback never fires.  The
  embeddings form two far-apart groups, so k-means splits every pronoun
  class of a fold in two halves and the bucket sizes, which set the cost
  of the solves, do not change with the seed.
* ``bucket800``: one 800-record ``qa`` bucket (``n_folds=1``, all "why"
  questions, pronoun-neutral golds).  Tags name objects from 80 classes,
  so most remapped slots miss on the target and take the relevance
  fallback, and half of all relevance entries sit at the eps floor, which
  makes the assignment tie-bound.  Parse, bucketing and parallelism are
  near zero.  ``bench/report.py --workloads bucket800`` runs it.

``BENCHMARK.json`` lists the two ``--jobs 2`` workloads only.  On a shared
2-vCPU host, a command that keeps one vCPU busy runs 20-40% slower or
faster from one minute to the next, with whatever the host runs beside it
(the import alone swings as much), and medians of 56-second runs of the
sweep at ``--jobs 1`` spread by 26% between seeds, past the 25% bound.  At
``--jobs 2`` both vCPUs are busy and the same runs spread by 3-7%.  A
single bucket cannot use a second worker, so ``bucket800`` stays out; the
traced run still times every workload at ``--jobs 1`` as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from gen import QTYPES, CorpusShape, corpus_bytes

ROUNDS = 3
SWEEP_GRID = (1.0, 0.1, 0.01)


def _mix(**weights: float) -> tuple[float, ...]:
    return tuple(weights.get(q, 0.0) for q in QTYPES)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    command: str  # "match" or "sweep"
    jobs: int
    n_folds: int
    target_size: int
    similarity: str

    def config(self, seed: int) -> dict:
        return {"seed": seed, "rounds": ROUNDS, "n_folds": self.n_folds,
                "target_size": self.target_size, "mode": self.shape.mode,
                "relevance_scorer": {"kind": "overlap"},
                "similarity_scorer": {"kind": self.similarity}}

    def argv(self, corpus: Path, config: Path, out: Path, jobs: int) -> list[str]:
        """Arguments of the ``advmatch`` command line for this workload."""
        args = [self.command, str(corpus), "--config", str(config),
                "--out", str(out), "--jobs", str(jobs)]
        if self.command == "sweep":
            args += ["--grid", ",".join(str(x) for x in SWEEP_GRID)]
        return args

    @property
    def grid_points(self) -> int:
        return len(SWEEP_GRID) if self.command == "sweep" else 1


WORKLOADS = {w.name: w for w in (
    Workload("bucket800",
             CorpusShape(n=800, nonperson_tag_rate=0.7, records_per_source=50),
             command="match", jobs=1, n_folds=1, target_size=3000,
             similarity="overlap"),
    Workload("corpus6k",
             CorpusShape(n=6600, nonperson_tag_rate=0.5, dup_gold_rate=0.02,
                         pronoun_mix=(0.5, 0.5, 0.0),
                         qtype_mix=_mix(explanation=0.5, other=0.5)),
             command="match", jobs=2, n_folds=11, target_size=3000,
             similarity="overlap"),
    Workload("sweep_qar",
             CorpusShape(n=2000, mode="qar", nonperson_tag_rate=0.0,
                         pronoun_mix=(0.5, 0.5, 0.0), embed_dim=16,
                         qtype_mix=_mix(explanation=0.5, activity=0.25,
                                        mental=0.25)),
             command="sweep", jobs=2, n_folds=2, target_size=320,
             similarity="embedding_cosine"),
)}


def write_inputs(workload: Workload, seed: int, workdir: Path) -> tuple[Path, Path, bytes]:
    """Write the workload's corpus and config; return their paths and the corpus."""
    corpus = corpus_bytes(workload.shape, seed)
    corpus_path = workdir / "corpus.jsonl"
    config_path = workdir / "config.json"
    corpus_path.write_bytes(corpus)
    config_path.write_text(json.dumps(workload.config(seed)), encoding="utf-8")
    return corpus_path, config_path, corpus
