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
layout, ids}`` followed by n*n little-endian float32 values (row-major).
The reader also takes a TSV body for n <= 1000, one row per line, from
scorers outside this program; a body that parses as TSV is read as TSV.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, AbstractSet, Iterable, Sequence

import numpy as np

from .corpus import Record, Token

DEFAULT_EPS = 1e-6

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


def content(tokens: Sequence[Token]) -> frozenset[str]:
    """Content signature of a token stream: non-stopword words plus tag classes."""
    out = set()
    for t in tokens:
        if t.kind == "tag":
            out.add(t.tag_class)
        elif t.text not in STOPWORDS:
            out.add(t.text)
    return frozenset(out)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Dense pairwise probabilities over one bucket, tagged with a role.

    Relevance rows index queries; similarity rows index responses.
    Similarity matrices are symmetric with an exact unit diagonal.
    """

    role: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ScoringError(f"role must be one of {_ROLES}, got {self.role!r}")
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ScoringError(f"score matrix must be square, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ScoringError("score matrix has non-finite entries")
        if (v < 0.0).any() or (v > 1.0).any():
            raise ScoringError("score matrix has entries outside [0, 1]")
        if self.role == ROLE_SIMILARITY:
            if not np.array_equal(v, v.T):
                raise ScoringError("similarity matrix must be symmetric")
            if not (np.diag(v) == 1.0).all():
                raise ScoringError("similarity diagonal must be exactly 1.0")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class ScorerSpec:
    """Which scorer backs a role: built-in overlap/cosine or an external file."""

    kind: str
    eps: float = DEFAULT_EPS
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCORER_KINDS:
            raise ScoringError(f"unknown scorer kind {self.kind!r}")
        if not 0.0 < self.eps < 0.5:
            raise ScoringError(f"eps must be in (0, 0.5), got {self.eps}")
        if self.kind == "external_matrix" and not self.path:
            raise ScoringError("external_matrix scorer needs a path")
        if self.kind != "external_matrix" and self.path is not None:
            raise ScoringError(f"{self.kind} scorer takes no path, got {self.path!r}")


def symmetrize_entailment(directed: np.ndarray | Sequence[Sequence[float]],
                          eps: float = DEFAULT_EPS) -> ScoreMatrix:
    """Fold a directed entailment matrix into a symmetric similarity matrix.

    ``out[i][j] = max(directed[i][j], directed[j][i])`` for i != j (then
    clamped); the diagonal is forced to exactly 1.0.
    """
    d = np.asarray(directed, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ScoringError(f"directed matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all() or (d < 0.0).any() or (d > 1.0).any():
        raise ScoringError("directed entailment entries must be probabilities")
    out = np.maximum(d, d.T)
    out = np.clip(out, eps, 1.0 - eps)
    np.fill_diagonal(out, 1.0)
    return ScoreMatrix(ROLE_SIMILARITY, out)


def _intersections(row_contents: Sequence[AbstractSet[str]],
                   col_contents: Sequence[AbstractSet[str]]) -> np.ndarray:
    """``len(row & col)`` for every pair.

    Sparse row incidence times dense column incidence, both over the words
    the two sides share (no other word can be counted).
    """
    from scipy.sparse import csr_matrix

    shared = set().union(*row_contents) & set().union(*col_contents)
    vocab = {w: k for k, w in enumerate(shared)}
    hits = [c & shared for c in row_contents]
    indptr = np.cumsum([0, *map(len, hits)])
    indices = np.fromiter(map(vocab.__getitem__, chain.from_iterable(hits)),
                          dtype=np.int32, count=indptr[-1])
    rows = csr_matrix((np.ones(len(indices)), indices, indptr),
                      shape=(len(row_contents), len(vocab)))
    n = len(col_contents)
    cols = np.zeros((len(vocab), n))
    cols.reshape(-1)[[vocab[w] * n + j for j, c in enumerate(col_contents)
                      for w in c & shared]] = 1.0
    return rows @ cols


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


def _overlap_matrix(row_contents: Sequence[frozenset[str]],
                    col_contents: Sequence[frozenset[str]]) -> np.ndarray:
    """All-pairs ``|a & b| / sqrt(|a| * |b|)``, bit-identical per pair."""
    return _cosine(_intersections(row_contents, col_contents),
                   _sizes(row_contents), _sizes(col_contents))


def _words_and_slots(tokens: Sequence[Token]) -> tuple[set[str], set[str]]:
    """Non-stopword words and tag classes of a token stream, apart."""
    words, slots = set(), set()
    for t in tokens:
        if t.kind == "tag":
            slots.add(t.tag_class)
        elif t.text not in STOPWORDS:
            words.add(t.text)
    return words, slots


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
    m = len(classes)

    def indicator(sets: Iterable[Iterable[str]]) -> np.ndarray:
        out = np.zeros((len(bucket), m))
        out.reshape(-1)[[row * m + column[c] for row, labels in enumerate(sets)
                         for c in labels if c in column]] = 1.0
        return out

    has = indicator(r.objects for r in bucket)
    slot = indicator(slots)
    person = np.array(["person" in r.objects for r in bucket])
    # class c kept as itself on target i: i has a c, or i has no person and
    # the spelled-out c is not a stopword
    kept = np.maximum(has, np.outer(~person, [c not in STOPWORDS for c in classes]))
    # slot classes of j that are not already words of j
    fresh = indicator(s - w for s, w in zip(slots, words))
    asked = indicator(queries)
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


def relevance_values(bucket: Sequence[Record], spec: ScorerSpec,
                     store: "ExternalMatrixStore | None") -> np.ndarray:
    """The relevance half of :func:`score_bucket`, as a bare array."""
    if spec.kind == "overlap":
        vals = _remapped_overlap(bucket)
    elif spec.kind == "embedding_cosine":
        vals = _cosine_matrix(_embedding_matrix(bucket))
    else:
        vals = _external_values(ROLE_RELEVANCE, bucket, spec, store)
    return np.clip(vals, spec.eps, 1.0 - spec.eps)


def _similarity_values(bucket: Sequence[Record], spec: ScorerSpec,
                       store: "ExternalMatrixStore | None") -> np.ndarray:
    if spec.kind == "overlap":
        golds = [content(r.gold) for r in bucket]
        vals = _overlap_matrix(golds, golds)
    elif spec.kind == "embedding_cosine":
        vals = _cosine_matrix(_embedding_matrix(bucket))
    else:
        directed = _external_values(ROLE_SIMILARITY, bucket, spec, store)
        return symmetrize_entailment(directed, spec.eps).values
    vals = np.clip(vals, spec.eps, 1.0 - spec.eps)
    np.fill_diagonal(vals, 1.0)
    return vals


def _embedding_matrix(bucket: Sequence[Record]) -> np.ndarray:
    missing = [r.id for r in bucket if r.embedding is None]
    if missing:
        raise ScoringError(
            "embedding_cosine scorer needs embeddings; missing for records: "
            + ", ".join(missing))
    emb = np.asarray([r.embedding for r in bucket], dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1)
    zero = [bucket[i].id for i in np.nonzero(norms == 0.0)[0]]
    if zero:
        raise ScoringError("zero-norm embeddings for records: " + ", ".join(zero))
    return emb


def _cosine_matrix(emb: np.ndarray) -> np.ndarray:
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    return (cos + 1.0) / 2.0


def _external_values(role: str, bucket: Sequence[Record], spec: ScorerSpec,
                     store: "ExternalMatrixStore | None") -> np.ndarray:
    if store is None:
        store = ExternalMatrixStore(spec.path)
    ids = tuple(r.id for r in bucket)
    return store.for_bucket(role, ids)


def score_bucket(bucket: Sequence[Record], rel_spec: ScorerSpec,
                 sim_spec: ScorerSpec,
                 matrix_store: "ExternalMatrixStore | None" = None,
                 ) -> tuple[ScoreMatrix, ScoreMatrix]:
    """All-pairs relevance and similarity matrices for one bucket.

    ``rel[i][j]`` scores query i against response j with its tags remapped
    onto record i's objects, as ``remap.CandidateTable.get([(i, j)])``
    serves it; the overlap scorer's value does not depend on the remapping's
    random draws, so no candidate table is needed.  Similarity always
    compares the original gold responses.  Pure and deterministic: repeated
    calls on the same inputs are bit-identical.
    """
    if not bucket:
        raise ScoringError("bucket is empty")
    rel = relevance_values(bucket, rel_spec, matrix_store)
    sim = _similarity_values(bucket, sim_spec, matrix_store)
    return ScoreMatrix(ROLE_RELEVANCE, rel), ScoreMatrix(ROLE_SIMILARITY, sim)


# -- persistence -----------------------------------------------------------

TSV_MAX_N = 1000


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
    for key in ("role", "n", "dtype", "layout", "ids"):
        if key not in header:
            raise ScoringError(f"{path}: header missing field {key!r}")
    role, n, ids = header["role"], int(header["n"]), [str(x) for x in header["ids"]]
    if role not in _ROLES:
        raise ScoringError(f"{path}: unknown role {role!r}")
    if header["dtype"] != "float32" or header["layout"] != "row-major":
        raise ScoringError(f"{path}: unsupported dtype/layout")
    if len(ids) != n:
        raise ScoringError(f"{path}: header has {len(ids)} ids for n={n}")
    return role, ids


def _read_tsv(body: bytes, n: int, path: Path) -> np.ndarray:
    """The n x n values of a TSV body, at float32 precision."""
    if n > TSV_MAX_N:
        raise ScoringError(f"{path}: TSV body only accepted for n <= {TSV_MAX_N}")
    try:
        rows = [[float(c) for c in ln.split("\t")]
                for ln in body.decode("utf-8").splitlines() if ln.strip()]
    except ValueError as exc:  # not UTF-8, or a cell that is not a number
        raise ScoringError(f"{path}: body is neither {4 * n * n} float32 bytes "
                           f"nor TSV ({exc})") from None
    if len(rows) != n:
        raise ScoringError(f"{path}: expected {n} TSV rows, got {len(rows)}")
    for row in rows:
        if len(row) != n:
            raise ScoringError(f"{path}: TSV row has {len(row)} cells, expected {n}")
    return np.asarray(rows, dtype="<f4").reshape(n, n).astype(np.float64)


def read_score_matrix(path: str | os.PathLike) -> tuple[str, np.ndarray, list[str]]:
    """Read a score-matrix file; returns (role, float64 values, record ids).

    A body that reads as n lines of n tab-separated numbers is TSV, even
    when it happens to be 4*n*n bytes long; any other body of that length
    is the float32 payload.  Values are returned as stored (float32
    precision); validation against a bucket happens at use time in
    :func:`score_bucket`.
    """
    path = Path(path)
    with open(path, "rb") as f:
        role, ids = _read_header(f, path)
        body = f.read()
    n = len(ids)
    try:
        vals = _read_tsv(body, n, path)
    except ScoringError:
        if len(body) != 4 * n * n:
            raise
        vals = np.frombuffer(body, dtype="<f4").reshape(n, n).astype(np.float64)
    if not np.isfinite(vals).all() or (vals < 0.0).any() or (vals > 1.0).any():
        raise ScoringError(f"{path}: values outside [0, 1]")
    return role, vals, ids


class ExternalMatrixStore:
    """Index of score-matrix files keyed by (role, record-id tuple).

    ``paths`` may name files or directories; directories are scanned
    non-recursively and a file reached twice is indexed once.  Two files
    holding the same role for the same record ids raise
    :class:`ScoringError` naming both.  Only the header lines are read up
    front: a file's values are read when :meth:`for_bucket` asks for them,
    so a run holds the matrices of the buckets it is scoring, not the
    corpus's.  Looking a bucket up by its member ids also catches
    provenance mismatches.
    """

    def __init__(self, paths: str | os.PathLike | Iterable[str | os.PathLike]):
        if isinstance(paths, (str, os.PathLike)):
            paths = [paths]
        self._files: dict[tuple[str, tuple[str, ...]], Path] = {}
        for p in dict.fromkeys(map(Path, paths)):
            for f in sorted(p.iterdir()) if p.is_dir() else [p]:
                if f.is_dir():
                    continue
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
    without one, each call indexes its spec's files again.
    """
    paths = [s.path for s in specs if s.kind == "external_matrix" and s.path]
    return ExternalMatrixStore(paths) if paths else None
