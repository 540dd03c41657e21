"""Pinned output digests: any change to substream derivation, remapping,
choice shuffling or the tie-break shows up here as a different SHA-256.

The corpora are built in-test from a fixed generator seed.  The ``qa``
corpus repeats gold texts so that tied columns exist, and the test checks
that the tie-break does move rows on it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from advmatch import assignment
from advmatch.diagnostics import format_sweep_table, lambda_sweep
from advmatch.matcher import MatchConfig, write_items
from advmatch.pipeline import run_match
from advmatch.scoring import ScorerSpec

from conftest import make_record

CLASSES = ("person", "dog", "cup", "car", "chair", "horse")
WORDS = tuple(f"w{k}" for k in range(30))
# A small pool of gold templates, so many records share a gold text.
GOLDS = (
    "no .",
    "yes , [person:1] is happy .",
    "[dog:2] is sleeping on the [chair:3] .",
    "because [person:1] wants the [cup:2] .",
    "the [car:1] is parked near [horse:2] .",
    "[person:1] is waiting for [person:2] .",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tie_corpus(n: int, seed: int) -> list:
    """qa records with non-person tags and duplicated gold texts."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        objects = tuple(CLASSES[int(c)] for c in rng.integers(len(CLASSES), size=4))
        words = " ".join(WORDS[int(w)] for w in rng.integers(len(WORDS), size=3))
        if rng.random() < 0.5:
            gold = GOLDS[int(rng.integers(len(GOLDS)))]
            # keep tags consistent with this record's objects
            tokens = []
            for piece in gold.split():
                if piece.startswith("["):
                    idx = int(piece[1:-1].split(":")[1])
                    tokens.append(f"[{objects[idx - 1]}:{idx}]")
                else:
                    tokens.append(piece)
            gold = " ".join(tokens)
        else:
            gold = f"[{objects[1]}:2] likes {words} ."
        records.append(make_record(
            i, f"src{i % 8}",
            query=f"why is [{objects[0]}:1] near {words} q{i} ?",
            gold=gold, objects=objects, embedding=rng.normal(size=6)))
    return records


def _qar_corpus(n: int, seed: int) -> list:
    """qar records with embeddings in two far-apart groups."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        objects = ("person", CLASSES[1 + i % 5], "person")
        a, b, c = (WORDS[int(w)] for w in rng.integers(len(WORDS), size=3))
        emb = rng.normal(size=6)
        emb[0] += 8.0 * (i % 2)
        records.append(make_record(
            i, f"movie{i % 6}",
            query=f"why is [person:1] holding the {a} {b} q{i} ?",
            gold=f"[person:3] gave [{objects[1]}:2] a {b} {c} r{i} .",
            objects=objects, embedding=emb, mode="qar"))
    return records


def test_qa_items_with_ties_are_pinned(monkeypatch):
    moved = []
    lexicalize = assignment._lexicalize

    def counting(cost, mapping, *rest):
        result = lexicalize(cost, mapping, *rest)
        moved.append(int((result != mapping).sum()))
        return result

    monkeypatch.setattr(assignment, "_lexicalize", counting)
    records = _tie_corpus(360, seed=41)
    config = MatchConfig(seed=13, n_folds=2, target_size=400)
    result = run_match(records, config, jobs=1)
    assert sum(moved) > 0, "the corpus no longer exercises the tie-break"
    assert _sha(write_items(result.items)) == (
        "eb31ee671f2c5263020cb387258a6549031a4ed443abf5b188116fdd28c7a671")


def test_qar_items_and_sweep_table_are_pinned():
    records = _qar_corpus(300, seed=43)
    config = MatchConfig(seed=17, n_folds=2, target_size=200)
    sim_spec = ScorerSpec("embedding_cosine")
    result = run_match(records, config, sim_spec=sim_spec, jobs=1)
    assert _sha(write_items(result.items)) == (
        "8dfd63c8a935b376880dcf35abe5900722be5dae1715031139440d57b6d84fcf")
    rows = lambda_sweep(records, [0.5, 0.05, 0.005], config,
                        sim_spec=sim_spec, jobs=1)
    assert _sha(format_sweep_table(rows)) == (
        "5bc398da2238fde54d056afb2bda7f73f3caceeb9041bb31e29be9277cb8e2cf")
