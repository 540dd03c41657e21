"""Core matching engine: assign every query its distractors by repeated
maximum-weight bipartite matching over a relevance/similarity tradeoff.

The weight of giving response j to query i is

    W[i][j] = log(rel[i][j]) + lambda * log(1 - sim_eff(i, j))

where a larger lambda favors distractors that are dissimilar to the gold
response over distractors that are maximally relevant.  One matching round
hands each query exactly one new distractor; across K rounds every
response is recycled as a distractor exactly K times and never for its own
query.  Diversity across rounds comes from replacing the similarity term
with the maximum similarity against everything already assigned to the
query (the gold response included, which is what makes round one the plain
formula above).

``run_rounds`` returns the rounds as a ``(K, n)`` index array plus their
texts, all from one ``CandidateTable.get`` call.  ``export_mcq`` writes them out as one JSONL
item line per query: it quotes each text, id and query once and writes a
line with one format operation over those JSON strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .assignment import AssignmentError, WeightMatrix, solve_lap_max
from .corpus import TASK_MODES, Record, Token, parse_token_stream, tokens_to_text
from .seeding import Substreams, scope_key

LAMBDA_DEFAULTS = {"qa": 0.1, "qar": 0.01}
DEFAULT_EPS = 1e-6


class MatchingError(ValueError):
    """Raised when matching preconditions fail or a round is infeasible."""


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for one matching run; the seed is mandatory for reproducibility."""

    seed: int
    lambda_: float | None = None  # None -> mode default (qa 0.1, qar 0.01)
    rounds: int = 3
    eps: float = DEFAULT_EPS
    p_reuse: float = 0.5
    n_folds: int = 11
    target_size: int = 3000
    mode: str | None = None  # None -> taken from the corpus
    holdout_folds: tuple[int, ...] | None = None  # None -> two highest folds

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise MatchingError(f"rounds must be >= 1, got {self.rounds}")
        if self.lambda_ is not None and not 0 < self.lambda_ < math.inf:
            raise MatchingError(f"lambda must be finite and > 0, got {self.lambda_}")
        if not 0.0 < self.eps < 0.5:
            raise MatchingError(f"eps must be in (0, 0.5), got {self.eps}")
        if not 0.0 <= self.p_reuse <= 1.0:
            raise MatchingError(f"p_reuse must be in [0, 1], got {self.p_reuse}")
        if self.n_folds < 1:
            raise MatchingError(f"n_folds must be >= 1, got {self.n_folds}")
        if self.target_size < self.rounds + 1:
            raise MatchingError(
                f"target_size must be at least rounds + 1 = {self.rounds + 1}")
        if self.mode is not None and self.mode not in TASK_MODES:
            raise MatchingError(
                f"mode must be {' or '.join(map(repr, TASK_MODES))}, got {self.mode!r}")
        if self.holdout_folds is not None:
            bad = [f for f in self.holdout_folds if not 0 <= f < self.n_folds]
            if bad:
                raise MatchingError(f"holdout folds {bad} outside 0..{self.n_folds - 1}")

    def resolved_lambda(self, mode: str) -> float:
        if self.lambda_ is not None:
            return self.lambda_
        return LAMBDA_DEFAULTS[mode]

    def resolved_holdout(self) -> tuple[int, ...]:
        """Folds reserved for validation/testing; defaults to the two highest."""
        if self.holdout_folds is not None:
            return self.holdout_folds
        n = min(2, self.n_folds)
        return tuple(range(self.n_folds - n, self.n_folds))

    def with_lambda(self, lambda_: float) -> "MatchConfig":
        return replace(self, lambda_=lambda_)


def weight_matrix(log_rel: np.ndarray, eff_sim: np.ndarray,
                  lambda_: float) -> WeightMatrix:
    """Tradeoff weights with self-pairs and saturated pairs forbidden.

    ``log_rel`` is ``np.log(rel)``, which does not change across rounds.
    A forbidden entry keeps whatever the formula gives it (-inf on a
    saturated pair): the solver reads only allowed entries.
    """
    if log_rel.shape != eff_sim.shape:
        raise MatchingError(
            f"shape mismatch: relevance {log_rel.shape} vs similarity {eff_sim.shape}")
    forbidden = eff_sim >= 1.0
    np.fill_diagonal(forbidden, True)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = log_rel + lambda_ * np.log1p(-eff_sim)
    return WeightMatrix(values=values, forbidden=forbidden)


def run_rounds(bucket: Sequence[Record], rel: np.ndarray, sim: np.ndarray,
               config: MatchConfig, candidates) -> tuple[np.ndarray, list[str]]:
    """K matching rounds over one bucket; returns ``(mappings, texts)``.

    ``mappings`` is a ``(K, n)`` intp array: ``mappings[t, i]`` is the
    index of the response served to query ``i`` in round ``t + 1``.
    ``texts[t * n + i]`` is that distractor's text, round-major.

    ``rel`` and ``sim`` are the bucket's ``(n, n)`` score arrays.
    ``candidates`` is a ``remap.CandidateTable`` or anything with
    ``get(pairs)``: given an ``(m, 2)`` array of ``(query, response)``
    index pairs, it returns the distractor text of each, in order.  It is
    called once per bucket, after the last round, with every round's pairs
    in round order, so a table can decode all of the bucket's substreams in
    one batch.
    """
    n = len(bucket)
    k = config.rounds
    if n < k + 1:
        raise MatchingError(f"bucket of {n} records cannot support {k} rounds")
    if rel.shape != (n, n) or sim.shape != (n, n):
        raise MatchingError("score matrices must match the bucket size")
    if rel.min() <= 0.0:
        raise MatchingError("relevance entries must be positive (clamp first)")
    mode = config.mode or bucket[0].task_mode
    lam = config.resolved_lambda(mode)

    # eff[i][j]: the largest sim[a][j] over a = i and every response
    # assigned to i so far; an assigned response meets the unit diagonal,
    # so its pair saturates at 1.0 and is forbidden from then on
    eff = sim.copy()
    log_rel = np.log(rel)
    rows = np.arange(n)
    mappings = np.empty((k, n), dtype=np.intp)
    duals = None  # each round's solve starts from the last round's duals
    for t in range(1, k + 1):
        try:
            result = solve_lap_max(weight_matrix(log_rel, eff, lam), duals)
        except AssignmentError as exc:
            raise MatchingError(f"round {t}: {exc}") from exc
        duals = result.duals
        mapping = mappings[t - 1]
        mapping[:] = result.mapping
        bad = np.flatnonzero((mapping == rows) | (mappings[:t - 1] == mapping).any(axis=0))
        if bad.size:
            i = int(bad[0])
            raise MatchingError(
                f"round {t}: invalid assignment {bucket[i].id} -> "
                f"{bucket[mapping[i]].id} (self or repeat)")
        np.maximum(eff, sim[mapping], out=eff)

    pairs = np.stack((np.tile(rows, k), mappings.ravel()), axis=1)
    return mappings, candidates.get(pairs)


@dataclass(frozen=True)
class Provenance:
    kind: str  # "gold" | "distractor"
    source_id: str | None = None
    round_index: int | None = None


@dataclass(frozen=True)
class MCQItem:
    """One exported problem: a query with one gold and K distractor choices."""

    def __post_init__(self) -> None:
        gold_positions = [k for k, p in enumerate(self.provenance) if p.kind == "gold"]
        if gold_positions != [self.gold_index]:
            raise MatchingError(
                f"item {self.id}: gold_index {self.gold_index} inconsistent with "
                f"provenance {gold_positions}")

    id: str
    query: tuple[Token, ...]
    choices: tuple[tuple[Token, ...], ...]
    gold_index: int
    provenance: tuple[Provenance, ...]
    task_mode: str
    fold: int | None = None
    bucket_id: str | None = None


# compact json.dumps; it writes an int as repr does
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
# what _encode returns for a str
_quote = json.encoder.encode_basestring


_GOLD = '{"kind":"gold"}'


def _item_lines(ids: Sequence[str], fold: str, bucket_id: str, modes: Sequence[str],
                queries: Sequence[str], choices: Sequence[Sequence[str]],
                gold_index: Sequence[int], provenance: Sequence[Sequence[str]],
                ) -> list[str]:
    """Items' JSONL lines: compact ``json.dumps`` with ``ensure_ascii=False``.

    Every argument is JSON text already, one entry per item but for the
    run's ``fold`` and ``bucket_id``.  Per item, ``choices`` and
    ``provenance`` hold its choices in served order, and a provenance is
    ``_GOLD`` or a distractor's ``{"kind":"distractor",...}`` object."""
    head = f',"fold":{fold},"bucket":{bucket_id},"task_mode":'
    return [f'{{"id":{i}{head}{m},"query":{q},"choices":[{",".join(c)}]'
            f',"gold_index":{g},"provenance":[{",".join(p)}]}}\n'
            for i, m, q, c, g, p in zip(ids, modes, queries, choices, gold_index,
                                        provenance)]


def _distractor(source: str, round_index: str) -> str:
    return f'{{"kind":"distractor","source":{source},"round":{round_index}}}'


def export_mcq(bucket: Sequence[Record], mappings: np.ndarray, texts: Sequence[str],
               seed: int, fold: int | None = None, bucket_id: str | None = None,
               ) -> list[str]:
    """Shuffle gold + distractors into choices; one JSONL item line per query.

    ``mappings`` and ``texts`` are what :func:`run_rounds` returns for the
    bucket; the lines come in member order.  Each line ends in a newline
    and is written with the same JSON text as :func:`write_items`, so
    ``"".join`` of the lines is ``write_items`` of the items and
    ``parse_items`` reads them back.  Each text, id and query is quoted
    once, and each line is one format operation over those strings.  A
    query's choice order is ``derive_rng(seed, "shuffle",
    query_id).permutation(K + 1)`` over (gold, distractors in round order);
    the orders of all queries are decoded in one batch.
    """
    k, n = mappings.shape
    if n != len(bucket) or len(texts) != k * n:
        raise MatchingError(f"{k} rounds of {n} queries do not fit a bucket of "
                            f"{len(bucket)} records and {len(texts)} texts")
    key = scope_key(seed, "shuffle") + "\x1f"
    orders = Substreams([key + str(r.id) for r in bucket]).permutation(k + 1)
    ids = [_quote(r.id) for r in bucket]
    rounds = list(map(repr, range(1, k + 1)))
    # choice t of query i, before shuffling, at [i, t]
    choices = np.array([_quote(tokens_to_text(r.gold)) for r in bucket]
                       + list(map(_quote, texts)), dtype=object).reshape(k + 1, n).T
    provenance = np.array([_GOLD] * n + [
        _distractor(ids[j], rounds[t]) for t, mapping in enumerate(mappings.tolist())
        for j in mapping], dtype=object).reshape(k + 1, n).T
    rows = np.arange(n)[:, None]
    modes = {mode: _quote(mode) for mode in {r.task_mode for r in bucket}}
    return _item_lines(
        ids, _encode(fold), _encode(bucket_id), [modes[r.task_mode] for r in bucket],
        [_quote(tokens_to_text(r.query)) for r in bucket], choices[rows, orders].tolist(),
        orders.argmin(axis=1).tolist(), provenance[rows, orders].tolist())


def _item_from_json(obj: dict) -> MCQItem:
    prov = []
    for p in obj["provenance"]:
        if p["kind"] == "gold":
            prov.append(Provenance("gold"))
        else:
            prov.append(Provenance("distractor", p["source"], p["round"]))
    return MCQItem(
        id=obj["id"],
        query=parse_token_stream(obj["query"]),
        choices=tuple(parse_token_stream(c) for c in obj["choices"]),
        gold_index=obj["gold_index"],
        provenance=tuple(prov),
        task_mode=obj["task_mode"],
        fold=obj["fold"],
        bucket_id=obj["bucket"],
    )


# what export_mcq writes in an item field, and in a provenance entry's, as
# a test and its wording; a bool is no integer
_ITEM_FIELDS = (
    ("id", lambda v: type(v) is str, "a string"),
    ("fold", lambda v: v is None or type(v) is int, "an integer or null"),
    ("bucket", lambda v: v is None or type(v) is str, "a string or null"),
    ("task_mode", lambda v: v in TASK_MODES, " or ".join(map(repr, TASK_MODES))),
    ("gold_index", lambda v: type(v) is int, "an integer"),
)
_PROVENANCE_FIELDS = (
    ("kind", lambda v: v in ("gold", "distractor"), "'gold' or 'distractor'"),
    ("source", lambda v: type(v) is str, "a string"),
    ("round", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
)


def _field_problem(obj: dict) -> str | None:
    """What an item's fields hold that export_mcq never writes, or None."""
    for key, test, name in _ITEM_FIELDS:
        if key in obj and not test(obj[key]):
            return f"field {key!r} must be {name}, got {obj[key]!r}"
    prov, choices = obj.get("provenance"), obj.get("choices")
    if not (isinstance(prov, list) and isinstance(choices, list)):
        return None
    if len(prov) != len(choices):
        return (f"field 'provenance' has {len(prov)} entries for "
                f"{len(choices)} choices")
    for k, entry in enumerate(prov):
        for key, test, name in _PROVENANCE_FIELDS:
            if isinstance(entry, dict) and key in entry and not test(entry[key]):
                return (f"field 'provenance' entry {k}: {key!r} must be {name}, "
                        f"got {entry[key]!r}")
    return None


def parse_items(stream: IO[str] | IO[bytes] | Iterable[str | bytes]) -> list[MCQItem]:
    """Read MCQ items back from their JSONL serialization.

    It reads only what :func:`export_mcq` writes: every field present, each
    field and provenance entry field of the kind ``_ITEM_FIELDS`` and
    ``_PROVENANCE_FIELDS`` name, and one provenance entry per choice.  A
    line that is not such an item raises :class:`MatchingError` naming the
    line and, for a missing or mistyped field, the field.
    """
    items = []
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MatchingError(f"line {lineno}: not valid UTF-8 ({exc})") from None
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MatchingError(f"line {lineno}: malformed item JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise MatchingError(
                f"line {lineno}: item must be a JSON object, got {type(obj).__name__}")
        problem = _field_problem(obj)
        if problem is not None:
            raise MatchingError(f"line {lineno}: {problem}")
        try:
            items.append(_item_from_json(obj))
        except KeyError as exc:
            raise MatchingError(f"line {lineno}: item has no {exc.args[0]!r} field") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise MatchingError(f"line {lineno}: malformed item ({exc})") from exc
    return items


def write_items(items: Iterable[MCQItem]) -> str:
    """The JSONL of the items, one line each, as :func:`export_mcq` writes it."""
    lines = []
    for it in items:
        prov = [_GOLD if p.kind == "gold" else _distractor(
            _encode(p.source_id), _encode(p.round_index)) for p in it.provenance]
        lines += _item_lines(
            [_encode(it.id)], _encode(it.fold), _encode(it.bucket_id),
            [_encode(it.task_mode)], [_quote(tokens_to_text(it.query))],
            [[_quote(tokens_to_text(c)) for c in it.choices]], [it.gold_index], [prov])
    return "".join(lines)
