"""Scorer contract, built-in text/vector scorers, and score-matrix persistence.

Two square matrices drive matching over a bucket of n records:

* relevance: ``rel[i][j]`` is the probability that candidate response j
  (remapped for query i) answers query i,
* similarity: ``sim[i][j]`` is the probability that responses i and j mean
  the same thing (symmetric, unit diagonal).

Neural scorers live outside this artifact; they plug in through the
``external_matrix`` scorer kind and the file format below.  The built-in
scorers (content-word overlap, embedding cosine) are deliberately simple,
deterministic stand-ins so the pipeline is exercisable end to end.

Score-matrix files carry a one-line JSON header ``{role, n, dtype,
layout, ids}`` followed by n*n little-endian float32 values (row-major),
the one body format; a body that reads as text is refused.

Scores are checked where they enter: :func:`read_score_matrix` checks
outside data, once.  :func:`score_bucket` floors every matrix at the run's
one ``MatchConfig.eps``, clipping into [eps, 1 - eps], folds a directed
external similarity into a symmetric one, and gives the similarity a 1.0
diagonal, so nothing re-checks a bucket's matrices.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Record, Token
from .matcher import MatchConfig

ROLE_RELEVANCE = "relevance"
ROLE_SIMILARITY = "similarity"
_ROLES = (ROLE_RELEVANCE, ROLE_SIMILARITY)

SCORER_KINDS = ("overlap", "embedding_cosine", "external_matrix")

# Fixed function-word list; shipped with the artifact so content() is
# identical in every environment.
STOPWORDS = frozenset("""
    a about above after again against all am an and any are as at be because
    been before being below between both but by did do does doing down during
    each few for from further had has have having he her here hers herself him
    himself his how i if in into is it its itself just me more most my myself
    no nor not now of off on once only or other our ours ourselves out over own
    s same she should so some such t than that the their theirs them themselves
    then there these they this those through to too under until up very was we
    were what when which while who whom why will with you your yours yourself
    yourselves
""".split())


class ScoringError(ValueError):
    """Raised for invalid probabilities, shapes, or unusable scorer specs."""


def _words_and_slots(tokens: Sequence[Token]) -> tuple[set[str], set[str]]:
    """Non-stopword words and tag classes of a token stream, apart."""
    words, slots = set(), set()
    for t in tokens:
        if t.kind == "tag":
            slots.add(t.tag_class)
        elif t.text not in STOPWORDS:
            words.add(t.text)
    return words, slots


def content(tokens: Sequence[Token]) -> frozenset[str]:
    """Content signature of a token stream: non-stopword words plus tag classes."""
    words, slots = _words_and_slots(tokens)
    return frozenset(words | slots)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """One bucket's pairwise probabilities, unchecked (see module docstring).
    Relevance rows index queries; similarity rows index responses."""

    values: np.ndarray


@dataclass(frozen=True)
class ScorerSpec:
    """Which scorer backs a role: built-in overlap/cosine or an external file.
    Every scorer floors its scores at the run's ``MatchConfig.eps``."""

    kind: str
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCORER_KINDS:
            raise ScoringError(f"unknown scorer kind {self.kind!r}")
        if self.kind == "external_matrix" and not self.path:
            raise ScoringError("external_matrix scorer needs a path")
        if self.kind != "external_matrix" and self.path is not None:
            raise ScoringError(f"{self.kind} scorer takes no path, got {self.path!r}")


def _indicator(sets: Sequence[Iterable[str]], column: Mapping[str, int]) -> np.ndarray:
    """A 0/1 matrix with one row per set: row r holds a 1 in column
    ``column[x]`` for each x of ``sets[r]`` that ``column`` has."""
    m = len(column)
    out = np.zeros((len(sets), m))
    out.reshape(-1)[[r * m + column[x] for r, xs in enumerate(sets)
                     for x in xs if x in column]] = 1.0
    return out


def _intersections(row_contents: Sequence[AbstractSet[str]],
                   col_contents: Sequence[AbstractSet[str]]) -> np.ndarray:
    """``len(row & col)`` for every pair.

    Row incidence times column incidence, both 0/1 matrices over the words
    the two sides share (no other word can be counted); the products are
    small integer counts, so float64 holds them exactly.  When both sides
    are the same sequence, its incidence matrix is built once.
    """
    shared = set().union(*row_contents)
    if col_contents is not row_contents:
        shared &= set().union(*col_contents)
    vocab = {w: k for k, w in enumerate(shared)}
    rows = _indicator(row_contents, vocab)
    cols = rows if col_contents is row_contents else _indicator(col_contents, vocab)
    return np.dot(rows, cols.T)


def _cosine(inter: np.ndarray, row_sizes: np.ndarray,
            col_sizes: np.ndarray) -> np.ndarray:
    """``inter / sqrt(row_size * col_size)`` computed in place of ``inter``,
    bit-identical per pair to that formula in Python floats; 0 where a side
    is empty.  ``col_sizes`` holds one size per column or one per entry.
    """
    denom = row_sizes[:, None] * col_sizes
    np.sqrt(denom, out=denom)
    denom[denom == 0.0] = 1.0
    return np.divide(inter, denom, out=inter)


def _sizes(contents: Sequence[AbstractSet[str]]) -> np.ndarray:
    return np.array([len(c) for c in contents], dtype=np.float64)


def _remapped_overlap(bucket: Sequence[Record]) -> np.ndarray:
    """Overlap of query i with gold j remapped onto record i, for all pairs.

    A class-c slot of gold j remapped onto record i contributes c when i has
    a c object, else ``person`` when i has a person, else the spelled-out
    word c (nothing when c is a stopword).  That depends on i's object
    classes alone, never on the random draw, so the counts are the word
    overlap plus products of record x slot-class indicator matrices.
    """
    queries = [content(r.query) for r in bucket]
    words, slots = zip(*(_words_and_slots(r.gold) for r in bucket))
    classes = sorted(set().union(*slots))
    column = {c: k for k, c in enumerate(classes)}
    has = _indicator([r.objects for r in bucket], column)
    slot = _indicator(slots, column)
    person = np.array(["person" in r.objects for r in bucket])
    # class c kept as itself on target i: i has a c, or i has no person and
    # the spelled-out c is not a stopword
    kept = np.maximum(has, np.outer(~person, [c not in STOPWORDS for c in classes]))
    # slot classes of j that are not already words of j
    fresh = _indicator([s - w for s, w in zip(slots, words)], column)
    asked = _indicator(queries, column)
    # one "person" where i has a person, some slot class of j is missing on
    # i, and "person" is neither a word nor a slot class of j
    # np.dot, not @: numpy's matmul leaves BLAS when there is one class
    lone = np.dot(has, slot.T) < slot.sum(axis=1)
    lone &= person[:, None]
    lone &= np.array(["person" not in (w | s) for w, s in zip(words, slots)])

    inter = _intersections(queries, words)
    inter += np.dot(asked * kept, fresh.T)
    inter += lone & np.array(["person" in q for q in queries])[:, None]
    size = np.dot(kept, fresh.T)
    size += lone
    size += _sizes(words)
    return _cosine(inter, _sizes(queries), size)


def _embedding_cosine(bucket: Sequence[Record]) -> np.ndarray:
    """``(cos + 1) / 2`` of every pair of the records' embeddings."""
    missing = [r.id for r in bucket if r.embedding is None]
    if missing:
        raise ScoringError(
            "embedding_cosine scorer needs embeddings; missing for records: "
            + ", ".join(missing))
    first = bucket[0]
    ragged = [r for r in bucket if len(r.embedding) != len(first.embedding)]
    if ragged:
        raise ScoringError(
            f"record {ragged[0].id}: embedding length {len(ragged[0].embedding)} "
            f"differs from length {len(first.embedding)} of record {first.id}")
    emb = np.asarray([r.embedding for r in bucket], dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    zero = [bucket[i].id for i in np.nonzero(norms[:, 0] == 0.0)[0]]
    if zero:
        raise ScoringError("zero-norm embeddings for records: " + ", ".join(zero))
    unit = emb / norms
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    return (cos + 1.0) / 2.0


def relevance_values(bucket: Sequence[Record], spec: ScorerSpec, eps: float,
                     store: "ExternalMatrixStore | None") -> np.ndarray:
    """The relevance half of :func:`score_bucket`, floored at ``eps``, as a
    bare array; ``store`` is needed only for an external spec."""
    if spec.kind == "overlap":
        vals = _remapped_overlap(bucket)
    elif spec.kind == "embedding_cosine":
        vals = _embedding_cosine(bucket)
    else:
        vals = store.for_bucket(ROLE_RELEVANCE, tuple(r.id for r in bucket))
    return np.clip(vals, eps, 1.0 - eps)


def _similarity_values(bucket: Sequence[Record], spec: ScorerSpec, eps: float,
                       store: "ExternalMatrixStore | None") -> np.ndarray:
    if spec.kind == "overlap":
        golds = [content(r.gold) for r in bucket]
        sizes = _sizes(golds)
        vals = _cosine(_intersections(golds, golds), sizes, sizes)
    elif spec.kind == "embedding_cosine":
        vals = _embedding_cosine(bucket)
    else:
        # the one fold of a directed similarity: read_score_matrix has
        # checked its values
        directed = store.for_bucket(ROLE_SIMILARITY, tuple(r.id for r in bucket))
        vals = np.maximum(directed, directed.T)
    vals = np.clip(vals, eps, 1.0 - eps)
    np.fill_diagonal(vals, 1.0)
    return vals


def score_bucket(bucket: Sequence[Record], config: MatchConfig,
                 rel_spec: ScorerSpec, sim_spec: ScorerSpec,
                 matrix_store: "ExternalMatrixStore | None" = None,
                 ) -> tuple[ScoreMatrix, ScoreMatrix]:
    """All-pairs relevance and similarity matrices for one bucket.

    ``rel[i][j]`` scores query i against response j with its tags remapped
    onto record i's objects, as ``remap.CandidateTable.get([(i, j)])``
    serves it; the overlap scorer's value does not depend on the remapping's
    random draws, so no candidate table is needed.  Similarity always
    compares the original gold responses.  Both matrices lie in [eps,
    1 - eps] at ``config.eps``, but for the similarity's diagonal, which is
    1.0, and the similarity is symmetric; nothing re-checks that.  Without
    ``matrix_store``, the external specs' files are indexed for this call
    alone (see :func:`external_store`).  Pure and deterministic: repeated
    calls on the same inputs are bit-identical.
    """
    if not bucket:
        raise ScoringError("bucket is empty")
    if matrix_store is None:
        matrix_store = external_store(rel_spec, sim_spec)
    rel = relevance_values(bucket, rel_spec, config.eps, matrix_store)
    sim = _similarity_values(bucket, sim_spec, config.eps, matrix_store)
    return ScoreMatrix(rel), ScoreMatrix(sim)


# -- persistence -----------------------------------------------------------


def write_score_matrix(path: str | os.PathLike, role: str,
                       values: np.ndarray, ids: Sequence[str]) -> None:
    """Write a score matrix file: the header line, then the float32 payload."""
    if role not in _ROLES:
        raise ScoringError(f"role must be one of {_ROLES}, got {role!r}")
    vals = np.asarray(values, dtype=np.float64)
    n = vals.shape[0]
    if vals.shape != (n, n):
        raise ScoringError(f"matrix must be square, got shape {vals.shape}")
    if len(ids) != n:
        raise ScoringError(f"got {len(ids)} ids for an {n}x{n} matrix")
    header = json.dumps(
        {"role": role, "n": n, "dtype": "float32", "layout": "row-major",
         "ids": list(ids)},
        ensure_ascii=False, separators=(",", ":"))
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + b"\n")
        f.write(np.ascontiguousarray(vals, dtype="<f4").tobytes())


def _read_header(f: IO[bytes], path: Path) -> tuple[str, list[str]]:
    """The role and record ids of the score-matrix file open at its start."""
    line = f.readline()
    if not line.endswith(b"\n"):
        raise ScoringError(f"{path}: missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScoringError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict):
        raise ScoringError(f"{path}: header is not a JSON object")
    for key in ("role", "n", "dtype", "layout", "ids"):
        if key not in header:
            raise ScoringError(f"{path}: header missing field {key!r}")
    role, n, ids = header["role"], header["n"], header["ids"]
    if role not in _ROLES:
        raise ScoringError(f"{path}: unknown role {role!r}")
    if header["dtype"] != "float32" or header["layout"] != "row-major":
        raise ScoringError(f"{path}: unsupported dtype/layout")
    if not isinstance(ids, list) or type(n) is not int or n != len(ids):
        raise ScoringError(f"{path}: header n={n!r} must be the length of a "
                           "list of ids")
    bad = [x for x in ids if not isinstance(x, str)]
    if bad:
        raise ScoringError(f"{path}: header ids must be strings, got {bad[0]!r}")
    return role, ids


def read_score_matrix(path: str | os.PathLike) -> tuple[str, np.ndarray, list[str]]:
    """Read a score-matrix file; returns (role, float64 values, record ids).

    The body must be the 4*n*n bytes of the float32 values.  A body made
    only of digits, signs, ``.``, ``e``/``E``, tabs, spaces and line ends
    is text and is refused even at that length, where its bytes would
    decode to values below 3e-4.  Values are returned as stored (float32
    precision); any that is not finite or lies outside [0, 1] raises
    :class:`ScoringError`.  :meth:`ExternalMatrixStore.for_bucket` checks
    which bucket a file belongs to, by its record ids.
    """
    path = Path(path)
    with open(path, "rb") as f:
        role, ids = _read_header(f, path)
        body = f.read()
    n = len(ids)
    size = 4 * n * n
    if body and not body.translate(None, b"0123456789+-.eE\t \r\n"):
        raise ScoringError(f"{path}: body of {len(body)} bytes is text, "
                           f"not {size} bytes of float32")
    if len(body) != size:
        raise ScoringError(f"{path}: body has {len(body)} bytes, expected {size}")
    vals = np.frombuffer(body, dtype="<f4").reshape(n, n).astype(np.float64)
    if not np.isfinite(vals).all() or (vals < 0.0).any() or (vals > 1.0).any():
        raise ScoringError(f"{path}: values outside [0, 1]")
    return role, vals, ids


def matrix_files(paths: Iterable[str | os.PathLike]) -> list[Path]:
    """The files a list of ``paths`` names, each once: a directory's regular
    files, sorted, not its subdirectories, and any other path as named.  The
    store indexes these and ``advmatch match``'s manifest digests them.  A
    lone path, which would be read as its characters, raises TypeError."""
    if isinstance(paths, (str, os.PathLike)):
        raise TypeError(f"paths must be a list of paths, not the lone path {paths!r}")
    files: list[Path] = []
    for p in map(Path, paths):
        files += sorted(f for f in p.iterdir() if f.is_file()) if p.is_dir() else [p]
    return list(dict.fromkeys(files))


class ExternalMatrixStore:
    """Index of score-matrix files keyed by (role, record-id tuple).

    ``paths`` is a list of files or directories, listed by :func:`matrix_files`.
    Two files holding the same role for the same record ids raise
    :class:`ScoringError` naming both.  Only the header lines are read up
    front: a file's values are read when :meth:`for_bucket` asks for them,
    so a run holds the matrices of the buckets it is scoring, not the
    corpus's.  Looking a bucket up by its member ids also catches
    provenance mismatches.
    """

    def __init__(self, paths: Iterable[str | os.PathLike]):
        self._files: dict[tuple[str, tuple[str, ...]], Path] = {}
        for f in matrix_files(paths):
            with open(f, "rb") as stream:
                role, ids = _read_header(stream, f)
            key = (role, tuple(ids))
            seen = self._files.setdefault(key, f)
            if seen != f and not seen.samefile(f):
                raise ScoringError(
                    f"{seen} and {f} both hold the {role} matrix of the same "
                    f"{len(ids)} record ids")

    def for_bucket(self, role: str, ids: tuple[str, ...]) -> np.ndarray:
        try:
            path = self._files[(role, ids)]
        except KeyError:
            sizes = sorted({len(k[1]) for k in self._files if k[0] == role})
            raise ScoringError(
                f"no external {role} matrix matches bucket of {len(ids)} records "
                f"(ids {ids[0]}..{ids[-1]}); found {role} matrices have sizes {sizes}"
            ) from None
        return read_score_matrix(path)[1]


def external_store(*specs: ScorerSpec) -> ExternalMatrixStore | None:
    """One store over every external matrix path among ``specs``, or None.

    Build it once per run and pass it to every :func:`score_bucket` call:
    without one, each call builds its own and indexes the files again.
    """
    paths = [s.path for s in specs if s.kind == "external_matrix"]
    return ExternalMatrixStore(paths) if paths else None
