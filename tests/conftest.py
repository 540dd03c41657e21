"""Shared synthetic corpus builders for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import advmatch
from advmatch.corpus import Record, parse_token_stream


def make_record(i: int, source_key: str, query: str, gold: str,
                objects: tuple[str, ...] = ("person", "person"),
                embedding=None, mode: str = "qa") -> Record:
    return Record(
        id=f"r{i:04d}",
        source_key=source_key,
        query=parse_token_stream(query),
        gold=parse_token_stream(gold),
        objects=objects,
        embedding=tuple(float(x) for x in embedding) if embedding is not None else None,
        task_mode=mode,
    )


def simple_bucket_corpus(n: int, seed: int = 0, n_sources: int = 1,
                         mode: str = "qa") -> list[Record]:
    """n records that land in one bucket: all 'why' queries, neutral golds.

    Every query/gold pair gets distinct content words so choice texts are
    unique and overlap scores vary.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        qa = int(rng.integers(20))
        qb = int(rng.integers(20))
        ga = int(rng.integers(20))
        records.append(make_record(
            i, f"src{i % n_sources}",
            query=f"why is [person:1] holding item{qa} item{qb} q{i} ?",
            gold=f"[person:2] carries item{ga} thing{i} .",
            embedding=rng.normal(size=8),
            mode=mode,
        ))
    return records


def trend_corpus(n: int, seed: int, topics: int = 6) -> list[Record]:
    """Corpus where the tradeoff knob visibly moves attacker accuracy.

    Queries and golds share topic vocabulary, so low-lambda matching finds
    same-topic distractors that rival the gold under the overlap scorer,
    while high-lambda matching (driven by embedding dissimilarity) walks
    across topics where relevance is weak.  Two globally shared words keep
    cross-topic relevance off the clamp floor.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        topic = int(rng.integers(topics))
        tw = [f"t{topic}w{k}" for k in range(6)]
        q_words = " ".join(rng.permutation(tw)[:3])
        g_words = " ".join(rng.permutation(tw)[:2])
        cue = f"q{i}cue"
        gold_cue = f"{cue} " if rng.random() < 0.7 else ""
        emb = np.zeros(8)
        emb[topic % 8] = 2.0
        emb += rng.normal(0.0, 0.35, size=8)
        records.append(make_record(
            i, f"src{i % 4}",
            query=f"why is [person:1] near scene view {q_words} {cue} ?",
            gold=f"[person:2] keeps scene {g_words} {gold_cue}g{i}x .",
            embedding=emb,
        ))
    return records


def multi_fold_corpus(n_keys: int = 44, per_key: int = 3, seed: int = 0) -> list[Record]:
    """Corpus spread over many source keys for fold-integrity checks."""
    rng = np.random.default_rng(seed)
    records = []
    i = 0
    for k in range(n_keys):
        for _ in range(per_key):
            a = int(rng.integers(12))
            records.append(make_record(
                i, f"movie{k:03d}",
                query=f"why is [person:1] lifting item{a} q{i} ?",
                gold=f"[person:2] wants item{a} piece{i} .",
                embedding=rng.normal(size=6),
            ))
            i += 1
    return records


@pytest.fixture
def tiny_records() -> list[Record]:
    return simple_bucket_corpus(8, seed=3)


def blas_env() -> dict:
    """This environment without a thread setting, with advmatch importable."""
    src = str(Path(advmatch.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
