"""Slow, obviously correct references that the tests hold the library to.

* ``brute_force_lap`` enumerates every permutation, where
  ``assignment.solve_lap_max`` solves on an integer grid;
* ``strong_components`` is scipy's ``connected_components``, where
  ``assignment._strong_components`` runs its own Tarjan search;
* ``sparse_intersections`` counts shared words with a scipy sparse
  product, where ``scoring._intersections`` multiplies dense arrays;
* ``relevance_overlap`` and ``similarity_cosine`` score one pair at a
  time, where ``scoring.score_bucket`` scores a bucket as arrays;
* ``machine_accuracy`` scores parsed items choice by choice, where a
  bucket's worker counts ``attack_hits`` from its relevance matrix;
* ``GoldTexts`` serves each response's gold unremapped, as a stand-in
  for ``remap.CandidateTable`` where the texts do not matter;
* ``question_type_ngrams`` builds every n-gram of a question, where
  ``bucketing.question_type`` tests one-word patterns against the word set
  and builds n-grams only when a longer pattern's first word occurs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from advmatch.assignment import Assignment, AssignmentError, WeightMatrix
from advmatch.bucketing import QUESTION_TYPE_PATTERNS
from advmatch.corpus import Record, Token, tokens_to_text
from advmatch.diagnostics import DiagnosticsError
from advmatch.matcher import DEFAULT_EPS, MCQItem
from advmatch.scoring import ScoringError, content

BRUTE_FORCE_MAX = 10


def brute_force_lap(w: WeightMatrix) -> Assignment:
    """Exhaustive oracle: enumerate every permutation, same tie-break.

    Permutations are generated in lexicographic order and only strictly
    better totals win, so the first of any co-optimal set (the
    lexicographically smallest mapping) is returned.  Totals are float sums
    of the given weights, so ties are exact only for weights whose sums are
    exact, such as the solver's quantized ones; on those the oracle returns
    the solver's mapping.  Capped at n <= BRUTE_FORCE_MAX; work is
    chunked so peak memory stays modest even at the cap (10! rows).
    """
    n = len(w.values)
    if n > BRUTE_FORCE_MAX:
        raise AssignmentError(f"oracle size cap is n <= {BRUTE_FORCE_MAX}, got {n}")
    rows = np.arange(n)
    stream = itertools.permutations(range(n))
    chunk_size = 200_000
    remaining = math.factorial(n)
    best_total = -np.inf
    best_mapping: np.ndarray | None = None
    while remaining:
        take = min(chunk_size, remaining)
        perms = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(stream, take)), dtype=np.int8,
            count=take * n).reshape(take, n)
        remaining -= take
        totals = w.values[rows, perms].sum(axis=1)
        totals[w.forbidden[rows, perms].any(axis=1)] = -np.inf
        top = int(np.argmax(totals))
        if totals[top] > best_total:
            best_total = float(totals[top])
            best_mapping = perms[top].astype(np.int64)
    if best_mapping is None or best_total == -np.inf:
        raise AssignmentError("no perfect matching avoids the forbidden entries")
    return Assignment(mapping=tuple(int(c) for c in best_mapping),
                      total_weight=float(w.values[rows, best_mapping].sum()))


def strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Strong-component labels of the digraph ``src[e] -> dst[e]``."""
    graph = csr_matrix((np.ones(len(src), dtype=np.bool_), (src, dst)), shape=(n, n))
    return connected_components(graph, directed=True, connection="strong")[1]


def sparse_intersections(row_contents: Sequence[frozenset[str]],
                         col_contents: Sequence[frozenset[str]]) -> np.ndarray:
    """``len(row & col)`` for every pair, as a sparse-by-dense product."""
    vocab = {w: k for k, w in enumerate(sorted(set().union(*row_contents, *col_contents)))}
    indptr = np.cumsum([0, *map(len, row_contents)])
    indices = np.array([vocab[w] for c in row_contents for w in sorted(c)], dtype=np.int32)
    rows = csr_matrix((np.ones(len(indices)), indices, indptr),
                      shape=(len(row_contents), len(vocab)))
    cols = np.zeros((len(vocab), len(col_contents)))
    for j, c in enumerate(col_contents):
        cols[[vocab[w] for w in c], j] = 1.0
    return rows @ cols


def clamp_prob(p: float, eps: float = DEFAULT_EPS) -> float:
    """Pull a probability into [eps, 1-eps] so its logarithms stay finite."""
    if not 0.0 < eps < 0.5:
        raise ScoringError(f"eps must be in (0, 0.5), got {eps}")
    if not (-1e-9 <= p <= 1.0 + 1e-9):
        raise ScoringError(f"not a probability: {p}")
    return min(max(p, eps), 1.0 - eps)


def _overlap_score(a: frozenset[str], b: frozenset[str]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def relevance_overlap(query: Sequence[Token], response: Sequence[Token],
                      eps: float = DEFAULT_EPS) -> float:
    """Cosine-style content overlap between a query and a response.

    Words are lowercased and stopword-filtered; tags count as their class
    label.  Returns ``|Q & R| / sqrt(|Q| * |R|)`` clamped to [eps, 1-eps].
    """
    if not query or not response:
        raise ScoringError("relevance_overlap requires non-empty token sequences")
    return clamp_prob(_overlap_score(content(query), content(response)), eps)


def similarity_cosine(u: Sequence[float], v: Sequence[float],
                      eps: float = DEFAULT_EPS) -> float:
    """Cosine of two vectors rescaled from [-1, 1] to a clamped probability."""
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    if ua.shape != va.shape or ua.ndim != 1:
        raise ScoringError("vectors must be 1-d and the same length")
    nu = float(np.linalg.norm(ua))
    nv = float(np.linalg.norm(va))
    if nu == 0.0 or nv == 0.0:
        raise ScoringError("zero vector has no direction")
    cos = min(1.0, max(-1.0, float(np.dot(ua, va)) / (nu * nv)))
    return clamp_prob((cos + 1.0) / 2.0, eps)


def machine_accuracy(items: Sequence[MCQItem], scorer: Callable[..., float]) -> float:
    """Fraction of items where the scorer's strict argmax choice is gold.

    Ties never count as correct: a scorer with no opinion must score zero,
    not chance.
    """
    if not items:
        raise DiagnosticsError("machine_accuracy needs at least one item")
    hits = 0
    for item in items:
        scores = [scorer(item.query, choice) for choice in item.choices]
        top = max(scores)
        if scores.count(top) == 1 and scores.index(top) == item.gold_index:
            hits += 1
    return hits / len(items)


class GoldTexts:
    """A candidate table that serves each response's gold text unremapped."""

    def __init__(self, bucket: Sequence[Record]):
        self.golds = [tokens_to_text(r.gold) for r in bucket]

    def get(self, pairs) -> list[str]:
        return [self.golds[j] for _, j in pairs]


def question_type_ngrams(question: Sequence[Token]) -> str:
    """First question-type group with a pattern among the question's n-grams."""
    # Tags break word adjacency, so multi-word patterns cannot span them.
    words = [t.text if t.kind == "word" else None for t in question]
    lengths = {len(pat) for _, pats in QUESTION_TYPE_PATTERNS for pat in pats}
    grams = {tuple(words[start:start + k]) for k in lengths
             for start in range(len(words) - k + 1)}
    for name, patterns in QUESTION_TYPE_PATTERNS:
        if not grams.isdisjoint(patterns):
            return name
    return "other"
