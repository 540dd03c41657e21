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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .assignment import AssignmentError, WeightMatrix, solve_lap_max
from .corpus import Record, Token, parse_token_stream, tokens_to_text
from .scoring import DEFAULT_EPS, ScoreMatrix
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


def effective_similarity(sim: ScoreMatrix | np.ndarray,
                         assigned: Mapping[int, set[int]] | Sequence[set[int]],
                         ) -> np.ndarray:
    """Per-pair similarity against the gold response and everything assigned.

    ``eff[i][j] = max(sim[a][j] for a in {i} | assigned[i])``; with nothing
    assigned this is just ``sim`` itself.  Already-assigned responses hit
    the unit diagonal and come out as exactly 1.0, which downstream turns
    into a forbidden pair.  The rows are folded in one ``np.maximum`` per
    assignment depth: the d-th assigned response of every row at once.
    """
    values = sim.values if isinstance(sim, ScoreMatrix) else np.asarray(sim)
    eff = values.copy()
    items = assigned.items() if isinstance(assigned, Mapping) else enumerate(assigned)
    extra = [(i, sorted(cols)) for i, cols in items if cols]
    depth = 0
    while extra:
        rows = [i for i, _ in extra]
        cols = [c[depth] for _, c in extra]
        eff[rows] = np.maximum(eff[rows], values[cols])
        depth += 1
        extra = [(i, c) for i, c in extra if len(c) > depth]
    return eff


def weight_matrix(rel: ScoreMatrix | np.ndarray, eff_sim: np.ndarray,
                  lambda_: float) -> WeightMatrix:
    """Tradeoff weights with self-pairs and saturated pairs forbidden."""
    rel_values = rel.values if isinstance(rel, ScoreMatrix) else np.asarray(rel)
    eff = np.asarray(eff_sim, dtype=np.float64)
    if rel_values.shape != eff.shape:
        raise MatchingError(
            f"shape mismatch: relevance {rel_values.shape} vs similarity {eff.shape}")
    if (rel_values <= 0.0).any():
        raise MatchingError("relevance entries must be positive (clamp first)")
    forbidden = eff >= 1.0
    np.fill_diagonal(forbidden, True)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.log(rel_values) + lambda_ * np.log1p(-eff)
    values[forbidden] = 0.0
    return WeightMatrix(values=values, forbidden=forbidden)


@dataclass(frozen=True)
class Distractor:
    source_id: str
    text: str  # the remapped response, as ``tokens_to_text`` writes it
    round_index: int


@dataclass(frozen=True)
class DistractorSet:
    """The K wrong answers matched to one query, in round order."""

    query_id: str
    distractors: tuple[Distractor, ...]


def run_rounds(bucket: Sequence[Record], rel: ScoreMatrix | np.ndarray,
               sim: ScoreMatrix | np.ndarray, config: MatchConfig,
               candidates=None) -> list[DistractorSet]:
    """K matching rounds over one bucket; returns one DistractorSet per record.

    ``candidates`` is a ``remap.CandidateTable`` or anything with
    ``get(pairs)``: given a round's ``(query, response)`` index pairs, it
    returns the distractor text of each, in order.  It is called once per
    round, so a table can decode the round's substreams in one batch.
    Without it the raw gold responses are used.
    """
    n = len(bucket)
    k = config.rounds
    if n < k + 1:
        raise MatchingError(f"bucket of {n} records cannot support {k} rounds")
    rel_values = rel.values if isinstance(rel, ScoreMatrix) else np.asarray(rel)
    sim_values = sim.values if isinstance(sim, ScoreMatrix) else np.asarray(sim)
    if rel_values.shape != (n, n) or sim_values.shape != (n, n):
        raise MatchingError("score matrices must match the bucket size")
    mode = config.mode or bucket[0].task_mode
    lam = config.resolved_lambda(mode)

    assigned: list[set[int]] = [set() for _ in range(n)]
    picks: list[list[Distractor]] = [[] for _ in range(n)]
    for t in range(1, k + 1):
        eff = effective_similarity(sim_values, assigned)
        try:
            result = solve_lap_max(weight_matrix(rel_values, eff, lam))
        except AssignmentError as exc:
            raise MatchingError(f"round {t}: {exc}") from exc
        pairs = list(enumerate(result.mapping))
        for i, j in pairs:
            if j == i or j in assigned[i]:
                raise MatchingError(
                    f"round {t}: invalid assignment {i} -> {j} (self or repeat)")
        texts = (candidates.get(pairs) if candidates is not None
                 else [tokens_to_text(bucket[j].gold) for _, j in pairs])
        for (i, j), text in zip(pairs, texts):
            picks[i].append(Distractor(bucket[j].id, text, t))
            assigned[i].add(j)

    sets = []
    for i, row in enumerate(picks):
        sources = [d.source_id for d in row]
        if bucket[i].id in sources or len(set(sources)) != len(sources):
            raise MatchingError(f"distractor invariants violated for {bucket[i].id}")
        sets.append(DistractorSet(query_id=bucket[i].id, distractors=tuple(row)))
    return sets


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


# json.dumps of one string or scalar, as it appears inside an item line
_json_value = json.JSONEncoder(ensure_ascii=False).encode
_GOLD_PROVENANCE = '{"kind":"gold"}'


def export_mcq(distractor_sets: Sequence[DistractorSet], bucket: Sequence[Record],
               seed: int, fold: int | None = None, bucket_id: str | None = None,
               ) -> list[str]:
    """Shuffle gold + distractors into choices; one JSONL item line per query.

    Each line ends in a newline and is the ``item_to_json`` line of the
    item, written straight from the texts, so ``"".join`` of the lines is
    ``write_items`` of the items and ``parse_items`` reads them back.  A
    query's choice order is ``derive_rng(seed, "shuffle",
    query_id).permutation(K + 1)`` over (gold, distractors in round
    order); the orders of all queries are decoded in one batch.
    """
    by_id = {r.id: r for r in bucket}
    streams = Substreams(seed, [("shuffle", d.query_id) for d in distractor_sets])
    sizes = [len(d.distractors) + 1 for d in distractor_sets]
    orders: list = [None] * len(sizes)
    for size in set(sizes):
        rows = [k for k, n in enumerate(sizes) if n == size]
        for row, order in zip(rows, streams.permutation(size, rows).tolist()):
            orders[row] = order
    place = (f',"fold":{_json_value(fold)},"bucket":{_json_value(bucket_id)}'
             ',"task_mode":')
    lines = []
    for dset, order in zip(distractor_sets, orders):
        record = by_id[dset.query_id]
        choices = [_json_value(tokens_to_text(record.gold))]
        prov = [_GOLD_PROVENANCE]
        for d in dset.distractors:
            choices.append(_json_value(d.text))
            prov.append(f'{{"kind":"distractor","source":{_json_value(d.source_id)}'
                        f',"round":{d.round_index}}}')
        lines.append(
            f'{{"id":{_json_value(record.id)}{place}{_json_value(record.task_mode)}'
            f',"query":{_json_value(tokens_to_text(record.query))}'
            f',"choices":[{",".join([choices[p] for p in order])}]'
            f',"gold_index":{order.index(0)}'
            f',"provenance":[{",".join([prov[p] for p in order])}]}}\n')
    return lines


def item_to_json(item: MCQItem) -> str:
    prov = []
    for p in item.provenance:
        if p.kind == "gold":
            prov.append({"kind": "gold"})
        else:
            prov.append({"kind": "distractor", "source": p.source_id,
                         "round": p.round_index})
    obj = {
        "id": item.id,
        "fold": item.fold,
        "bucket": item.bucket_id,
        "task_mode": item.task_mode,
        "query": tokens_to_text(item.query),
        "choices": [tokens_to_text(c) for c in item.choices],
        "gold_index": item.gold_index,
        "provenance": prov,
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


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
    return "".join(item_to_json(it) + "\n" for it in items)
