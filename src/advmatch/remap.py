"""Remap the tags of candidate responses onto each target query's objects.

A response written for one scene rarely references objects that exist in
another.  Before a response can serve as a candidate for a different
query, each of its detection tags is replaced with a tag from the target
record: with probability ``p_reuse`` a class-matching tag already
mentioned in the target's query or gold response, otherwise a uniform
class-matching tag from the target's full object list.  When a class has
no candidates the chain falls back to the other pool, then to any person
tag, and finally to spelling out the class ("the <class>") so remapping
never fails.

Every (query, candidate) pair draws from its own RNG substream keyed by
the two record ids, so results do not depend on evaluation order or on
how pairs are batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Record, Token
from .seeding import Substreams


class RemapError(ValueError):
    """Raised when remapping inputs are structurally unusable."""


@dataclass(frozen=True)
class _TagPools:
    """Class-indexed draw pools for one target record."""

    mentioned: dict[str, tuple[int, ...]]  # class -> tag indices in query+gold
    objects: dict[str, tuple[int, ...]]    # class -> all tag indices
    persons: tuple[int, ...]

    @classmethod
    def for_record(cls, record: Record) -> "_TagPools":
        objects: dict[str, list[int]] = {}
        for idx, label in enumerate(record.objects, start=1):
            objects.setdefault(label, []).append(idx)
        seen: set[int] = set()
        for t in (*record.query, *record.gold):
            if t.is_tag:
                seen.add(t.tag_index)
        mentioned: dict[str, list[int]] = {}
        for idx in sorted(seen):
            mentioned.setdefault(record.objects[idx - 1], []).append(idx)
        return cls(
            mentioned={k: tuple(v) for k, v in mentioned.items()},
            objects={k: tuple(v) for k, v in objects.items()},
            persons=tuple(objects.get("person", ())),
        )


def _remap_with_pools(response: Sequence[Token], record: Record,
                      pools: _TagPools, p_reuse: float,
                      rng: np.random.Generator) -> tuple[Token, ...]:
    out: list[Token] = []
    for t in response:
        if not t.is_tag:
            out.append(t)
            continue
        cls = t.tag_class
        mentioned = pools.mentioned.get(cls, ())
        allobjs = pools.objects.get(cls, ())
        first, second = ((mentioned, allobjs) if rng.random() < p_reuse
                         else (allobjs, mentioned))
        pool = first or second or pools.persons
        if pool:
            idx = pool[int(rng.integers(len(pool)))]
            out.append(Token.tag(record.objects[idx - 1], idx))
        else:
            out.append(Token.word("the"))
            out.append(Token.word(cls))
    return tuple(out)


def remap_tags(response: Sequence[Token], target: Record, p_reuse: float,
               rng: np.random.Generator) -> tuple[Token, ...]:
    """Remap a response's tags onto the target record's objects.

    Each tag draws independently; the fallback chain is total, so this
    never fails.  A response without tags returns unchanged without
    consuming randomness.
    """
    if not 0.0 <= p_reuse <= 1.0:
        raise RemapError(f"p_reuse must be in [0, 1], got {p_reuse}")
    if not any(t.is_tag for t in response):
        return tuple(response)
    pools = _TagPools.for_record(target)
    return _remap_with_pools(response, target, pools, p_reuse, rng)


class CandidateTable:
    """Lazy n x n table of responses remapped per target query.

    ``get(pairs)`` materializes response j remapped for query i for every
    ``(i, j)`` it is given; nothing is cached, so memory stays O(n).  Each
    pair draws from its own substream keyed by the two record ids, and the
    substreams of one call are derived in one batch
    (:class:`~advmatch.seeding.Substreams`).  A pair's text does not
    depend on which other pairs share the call.  A self pair gives the
    record's own gold.
    """

    def __init__(self, records: Sequence[Record], p_reuse: float, seed: int):
        if not 0.0 <= p_reuse <= 1.0:
            raise RemapError(f"p_reuse must be in [0, 1], got {p_reuse}")
        self._records = list(records)
        self._p_reuse = p_reuse
        self._seed = seed
        self._pools = [_TagPools.for_record(r) for r in self._records]

    def get(self, pairs: Sequence[tuple[int, int]]) -> list[tuple[Token, ...]]:
        """Response j remapped for query i, for each ``(i, j)`` in order."""
        records = self._records
        out = [records[j].gold for _, j in pairs]
        drawn = [k for k, (i, j) in enumerate(pairs) if i != j]
        streams = Substreams(self._seed, [
            ("remap", records[pairs[k][0]].id, records[pairs[k][1]].id)
            for k in drawn])
        for s, k in enumerate(drawn):
            i, j = pairs[k]
            out[k] = _remap_with_pools(records[j].gold, records[i],
                                       self._pools[i], self._p_reuse,
                                       streams.load(s))
        return out
