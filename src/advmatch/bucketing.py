"""Partition fold records into matching buckets.

Responses are first separated by pronoun class so that matching never
pairs a female-pronoun gold with male-pronoun distractors (such items
would collapse into gender identification).  Within a pronoun class,
question-answering corpora split further by question type and
justification corpora by k-means clusters over record embeddings.
Oversized groups are chunked to the target size; undersized groups are
merged into their largest sibling so every bucket can supply a full
distractor set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Record, Token
from .seeding import derive_rng

FEMALE_PRONOUNS = frozenset({"she", "her", "hers", "herself"})
MALE_PRONOUNS = frozenset({"he", "him", "his", "himself"})

# Question-type rules, scanned in this order; first group with a match wins.
QUESTION_TYPE_PATTERNS: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...] = (
    ("explanation", (("why",), ("how", "come"), ("how", "does"))),
    ("activity", (("doing",), ("looking",), ("event",), ("playing",), ("preparing",))),
    ("temporal", (("happened",), ("before",), ("after",), ("earlier",), ("later",), ("next",))),
    ("mental", (("feeling",), ("thinking",), ("saying",), ("love",), ("upset",), ("angry",))),
    ("role", (("relation",), ("occupation",), ("strangers",), ("married",))),
    ("scene", (("where",), ("time",), ("near",))),
    ("hypothetical", (("if",), ("would",), ("could",), ("chance",), ("might",), ("may",))),
)

QUESTION_TYPES = tuple(name for name, _ in QUESTION_TYPE_PATTERNS) + ("other",)
_PATTERN_LENGTHS = sorted({len(pat) for _, pats in QUESTION_TYPE_PATTERNS
                           for pat in pats})

KMEANS_MAX_ITER = 100
# Elements of the row x center x dimension temporary that one block of the
# k-means distance computation may allocate (8 bytes each).
KMEANS_BLOCK = 1 << 16


class BucketingError(ValueError):
    """Raised for folds or parameters that cannot form valid buckets."""


def pronoun_class(response: Sequence[Token]) -> str:
    """female / male / neutral by the response's pronouns; both present -> neutral."""
    words = {t.text for t in response if t.kind == "word"}
    has_f = bool(words & FEMALE_PRONOUNS)
    has_m = bool(words & MALE_PRONOUNS)
    if has_f and not has_m:
        return "female"
    if has_m and not has_f:
        return "male"
    return "neutral"


def question_type(question: Sequence[Token]) -> str:
    """First question-type group whose pattern occurs in the question."""
    # Tags break word adjacency, so multi-word patterns cannot span them.
    words = [t.text if t.kind == "word" else None for t in question]
    grams = {tuple(words[start:start + k]) for k in _PATTERN_LENGTHS
             for start in range(len(words) - k + 1)}
    for name, patterns in QUESTION_TYPE_PATTERNS:
        if not grams.isdisjoint(patterns):
            return name
    return "other"


def squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``((x[:, None] - centers[None]) ** 2).sum(axis=2)``, over blocks of rows.

    Every block evaluates that same expression on its rows, so the result
    is bit-identical, while the temporary stays at about KMEANS_BLOCK
    elements instead of n x k x d.
    """
    k, d = centers.shape
    step = max(1, KMEANS_BLOCK // max(1, k * d))
    d2 = np.empty((x.shape[0], k))
    for start in range(0, x.shape[0], step):
        rows = x[start:start + step, None, :]
        d2[start:start + step] = ((rows - centers[None, :, :]) ** 2).sum(axis=2)
    return d2


def cluster_embeddings(vectors: Sequence[Sequence[float]], k: int,
                       seed: int) -> np.ndarray:
    """Seeded deterministic k-means labels (farthest-point init, cap 100 iters)."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.size == 0:
        raise BucketingError("cannot cluster an empty set of vectors")
    if x.ndim != 2:
        raise BucketingError("vectors must all have the same length")
    n = x.shape[0]
    if k < 1 or k > n:
        raise BucketingError(f"k must be in [1, {n}], got {k}")

    rng = derive_rng(seed, "kmeans-init")
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    dist = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        centers[c] = x[int(np.argmax(dist))]
        dist = np.minimum(dist, ((x - centers[c]) ** 2).sum(axis=1))

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = squared_distances(x, centers)
        new_labels = np.argmin(d2, axis=1)
        # Re-seat empty clusters on the currently worst-fit points.
        for c in range(k):
            if not (new_labels == c).any():
                worst = int(np.argmax(d2[np.arange(n), new_labels]))
                new_labels[worst] = c
                d2[worst, :] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)
    return labels


@dataclass(frozen=True)
class BucketKey:
    """Pronoun class plus either a question type (qa) or a cluster id (qar)."""

    pronoun: str
    qtype: str | None = None
    cluster: int | None = None

    def __post_init__(self) -> None:
        if (self.qtype is None) == (self.cluster is None):
            raise BucketingError("exactly one of qtype/cluster must be set")

    @property
    def label(self) -> str:
        sub = self.qtype if self.qtype is not None else f"c{self.cluster}"
        return f"{self.pronoun}/{sub}"


@dataclass(frozen=True)
class Bucket:
    """One matching unit: records of a single fold sharing a bucket key."""

    fold: int
    key: BucketKey
    chunk: int
    members: tuple[Record, ...]

    @property
    def bucket_id(self) -> str:
        return f"f{self.fold}:{self.key.label}:{self.chunk}"


def _chunk_sizes(size: int, target: int) -> list[int]:
    pieces = math.ceil(size / target)
    base, extra = divmod(size, pieces)
    return [base + 1] * extra + [base] * (pieces - extra)


def build_buckets(records: Sequence[Record], mode: str, target_size: int,
                  seed: int, n_distractors: int = 3, fold: int = 0) -> list[Bucket]:
    """Bucket one fold's records for matching.

    Deterministic given (records, mode, target_size, seed): members are
    sorted by id before any seeded step, so input order is irrelevant.
    Groups above ``target_size`` split into balanced seeded chunks; groups
    below ``n_distractors + 1`` merge into the largest sibling bucket of
    the same pronoun class (or the largest bucket overall if the pronoun
    class has no sibling).
    """
    min_size = n_distractors + 1
    if target_size < min_size:
        raise BucketingError(
            f"target_size must be at least n_distractors + 1 = {min_size}")
    if len(records) < min_size:
        raise BucketingError(
            f"fold has {len(records)} records; need at least {min_size}")
    if mode not in ("qa", "qar"):
        raise BucketingError(f"mode must be 'qa' or 'qar', got {mode!r}")

    ordered = sorted(records, key=lambda r: r.id)
    by_pronoun: dict[str, list[Record]] = {}
    for r in ordered:
        by_pronoun.setdefault(pronoun_class(r.gold), []).append(r)

    groups: dict[BucketKey, list[Record]] = {}
    for pronoun in sorted(by_pronoun):
        members = by_pronoun[pronoun]
        if mode == "qa":
            for r in members:
                key = BucketKey(pronoun, qtype=question_type(r.query))
                groups.setdefault(key, []).append(r)
        else:
            missing = [r.id for r in members if r.embedding is None]
            if missing:
                raise BucketingError(
                    "qar bucketing clusters embeddings; missing for records: "
                    + ", ".join(missing))
            k = math.ceil(len(members) / target_size)
            labels = cluster_embeddings([r.embedding for r in members], k,
                                        derive_rng(seed, "cluster", fold, pronoun)
                                        .integers(2 ** 63))
            for r, lab in zip(members, labels):
                key = BucketKey(pronoun, cluster=int(lab))
                groups.setdefault(key, []).append(r)

    buckets: list[Bucket] = []
    for key in sorted(groups, key=lambda k: k.label):
        members = groups[key]
        if len(members) <= target_size:
            buckets.append(Bucket(fold, key, 0, tuple(members)))
            continue
        rng = derive_rng(seed, "chunks", fold, key.label)
        order = rng.permutation(len(members))
        start = 0
        for chunk, size in enumerate(_chunk_sizes(len(members), target_size)):
            picked = sorted(order[start:start + size])
            buckets.append(Bucket(
                fold, key, chunk, tuple(members[int(p)] for p in picked)))
            start += size

    return _merge_small(buckets, min_size)


def _merge_small(buckets: list[Bucket], min_size: int) -> list[Bucket]:
    work = list(buckets)
    while len(work) > 1:
        small = min((b for b in work if len(b.members) < min_size),
                    key=lambda b: (len(b.members), b.bucket_id), default=None)
        if small is None:
            break
        work.remove(small)
        same = [b for b in work if b.key.pronoun == small.key.pronoun]
        pool = same if same else work
        target = max(pool, key=lambda b: (len(b.members), b.bucket_id))
        merged = Bucket(target.fold, target.key, target.chunk,
                        tuple(sorted(target.members + small.members,
                                     key=lambda r: r.id)))
        work[work.index(target)] = merged
    if any(len(b.members) < min_size for b in work):
        raise BucketingError(
            f"fold cannot form a bucket of at least {min_size} records")
    return sorted(work, key=lambda b: b.bucket_id)
