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
texts, and ``export_mcq`` writes them out as one JSONL item line per query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .assignment import AssignmentError, WeightMatrix, solve_lap_max
from .corpus import Record, Token, parse_token_stream, tokens_to_text
from .scoring import DEFAULT_EPS
from .seeding import Substreams

LAMBDA_DEFAULTS = {"qa": 0.1, "qar": 0.01}


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
        if self.mode is not None and self.mode not in LAMBDA_DEFAULTS:
            raise MatchingError(f"mode must be 'qa' or 'qar', got {self.mode!r}")
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


def weight_matrix(rel: np.ndarray, eff_sim: np.ndarray, lambda_: float) -> WeightMatrix:
    """Tradeoff weights with self-pairs and saturated pairs forbidden."""
    if rel.shape != eff_sim.shape:
        raise MatchingError(
            f"shape mismatch: relevance {rel.shape} vs similarity {eff_sim.shape}")
    if (rel <= 0.0).any():
        raise MatchingError("relevance entries must be positive (clamp first)")
    forbidden = eff_sim >= 1.0
    np.fill_diagonal(forbidden, True)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.log(rel) + lambda_ * np.log1p(-eff_sim)
    values[forbidden] = 0.0
    return WeightMatrix(values=values, forbidden=forbidden)


def run_rounds(bucket: Sequence[Record], rel: np.ndarray, sim: np.ndarray,
               config: MatchConfig, candidates) -> tuple[np.ndarray, list[str]]:
    """K matching rounds over one bucket; returns ``(mappings, texts)``.

    ``mappings`` is a ``(K, n)`` intp array: ``mappings[t, i]`` is the
    index of the response served to query ``i`` in round ``t + 1``.
    ``texts[t * n + i]`` is that distractor's text, round-major.

    ``rel`` and ``sim`` are the bucket's ``(n, n)`` score arrays.
    ``candidates`` is a ``remap.CandidateTable`` or anything with
    ``get(pairs)``: given ``(query, response)`` index pairs, it returns the
    distractor text of each, in order.  It is called once per bucket, after
    the last round, with every round's pairs in round order, so a table can
    decode all of the bucket's substreams in one batch.
    """
    n = len(bucket)
    k = config.rounds
    if n < k + 1:
        raise MatchingError(f"bucket of {n} records cannot support {k} rounds")
    if rel.shape != (n, n) or sim.shape != (n, n):
        raise MatchingError("score matrices must match the bucket size")
    mode = config.mode or bucket[0].task_mode
    lam = config.resolved_lambda(mode)

    # eff[i][j]: the largest sim[a][j] over a = i and every response
    # assigned to i so far; an assigned response meets the unit diagonal,
    # so its pair saturates at 1.0 and is forbidden from then on
    eff = sim.copy()
    rows = np.arange(n)
    mappings = np.empty((k, n), dtype=np.intp)
    for t in range(1, k + 1):
        try:
            result = solve_lap_max(weight_matrix(rel, eff, lam))
        except AssignmentError as exc:
            raise MatchingError(f"round {t}: {exc}") from exc
        mapping = mappings[t - 1]
        mapping[:] = result.mapping
        bad = np.flatnonzero((mapping == rows) | (mappings[:t - 1] == mapping).any(axis=0))
        if bad.size:
            i = int(bad[0])
            raise MatchingError(
                f"round {t}: invalid assignment {bucket[i].id} -> "
                f"{bucket[mapping[i]].id} (self or repeat)")
        np.maximum(eff, sim[mapping], out=eff)

    pairs = [(i, j) for mapping in mappings.tolist() for i, j in enumerate(mapping)]
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


_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _json_value(value) -> str:
    """json.dumps of one string or scalar; an int skips the encoder's setup."""
    return repr(value) if type(value) is int else _encode(value)


def _item_line(item_id, fold, bucket_id, task_mode, query: str,
               choices: Sequence[str], gold_index: int,
               provenance: Sequence[tuple | None]) -> str:
    """One item's JSONL line: compact ``json.dumps`` with ``ensure_ascii=False``.

    Per choice in served order, ``provenance`` is None for the gold, else
    the distractor's ``(source id, round)``."""
    prov = ",".join(
        '{"kind":"gold"}' if p is None else
        f'{{"kind":"distractor","source":{_json_value(p[0])}'
        f',"round":{_json_value(p[1])}}}'
        for p in provenance)
    return (f'{{"id":{_json_value(item_id)},"fold":{_json_value(fold)}'
            f',"bucket":{_json_value(bucket_id)},"task_mode":{_json_value(task_mode)}'
            f',"query":{_json_value(query)}'
            f',"choices":[{",".join(map(_json_value, choices))}]'
            f',"gold_index":{_json_value(gold_index)},"provenance":[{prov}]}}\n')


def export_mcq(bucket: Sequence[Record], mappings: np.ndarray, texts: Sequence[str],
               seed: int, fold: int | None = None, bucket_id: str | None = None,
               ) -> list[str]:
    """Shuffle gold + distractors into choices; one JSONL item line per query.

    ``mappings`` and ``texts`` are what :func:`run_rounds` returns for the
    bucket; the lines come in member order.  Each line ends in a newline
    and is written straight from the texts by the same encoder as
    :func:`write_items`, so ``"".join`` of the lines is ``write_items`` of
    the items and ``parse_items`` reads them back.  A query's choice order
    is ``derive_rng(seed, "shuffle", query_id).permutation(K + 1)`` over
    (gold, distractors in round order); the orders of all queries are
    decoded in one batch.
    """
    k, n = mappings.shape
    if n != len(bucket) or len(texts) != k * n:
        raise MatchingError(f"{k} rounds of {n} queries do not fit a bucket of "
                            f"{len(bucket)} records and {len(texts)} texts")
    orders = Substreams(seed, [("shuffle", r.id) for r in bucket]).permutation(k + 1)
    lines = []
    for i, (record, cols, order) in enumerate(zip(bucket, mappings.T.tolist(),
                                                  orders.tolist())):
        choices = [tokens_to_text(record.gold), *texts[i::n]]
        prov = [None, *((bucket[j].id, t) for t, j in enumerate(cols, start=1))]
        lines.append(_item_line(
            record.id, fold, bucket_id, record.task_mode, tokens_to_text(record.query),
            [choices[p] for p in order], order.index(0), [prov[p] for p in order]))
    return lines


def _item_from_json(obj: dict) -> MCQItem:
    prov = []
    for p in obj["provenance"]:
        if p["kind"] == "gold":
            prov.append(Provenance("gold"))
        else:
            prov.append(Provenance("distractor", p["source"], p["round"]))
    return MCQItem(
        id=str(obj["id"]),
        query=parse_token_stream(obj["query"]),
        choices=tuple(parse_token_stream(c) for c in obj["choices"]),
        gold_index=int(obj["gold_index"]),
        provenance=tuple(prov),
        task_mode=obj.get("task_mode", "qa"),
        fold=obj.get("fold"),
        bucket_id=obj.get("bucket"),
    )


def parse_items(stream: IO[str] | IO[bytes] | Iterable[str | bytes]) -> list[MCQItem]:
    """Read MCQ items back from their JSONL serialization.

    A line that is not an item raises :class:`MatchingError` naming the line
    and, for a missing field, the field.
    """
    items = []
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
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
        try:
            items.append(_item_from_json(obj))
        except KeyError as exc:
            raise MatchingError(f"line {lineno}: item has no {exc.args[0]!r} field") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise MatchingError(f"line {lineno}: malformed item ({exc})") from exc
    return items


def write_items(items: Iterable[MCQItem]) -> str:
    """The JSONL of the items, one line each, as :func:`export_mcq` writes it."""
    return "".join(
        _item_line(it.id, it.fold, it.bucket_id, it.task_mode, tokens_to_text(it.query),
                   [tokens_to_text(c) for c in it.choices], it.gold_index,
                   [None if p.kind == "gold" else (p.source_id, p.round_index)
                    for p in it.provenance])
        for it in items)
