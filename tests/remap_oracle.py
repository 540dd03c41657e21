"""The tag remapping of one pair, one ``Generator`` call per draw.

This is the reference that ``CandidateTable.get`` must equal: it walks a
response's tags in order and draws each from the pair's own generator,
where the table decodes the draws of many pairs at once as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from advmatch.corpus import Record, Token
from advmatch.remap import RemapError


@dataclass(frozen=True)
class TagPools:
    """Class-indexed draw pools for one target record."""

    mentioned: dict[str, tuple[int, ...]]  # class -> tag indices in query+gold
    objects: dict[str, tuple[int, ...]]    # class -> all tag indices
    persons: tuple[int, ...]

    @classmethod
    def for_record(cls, record: Record) -> "TagPools":
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
    pools = TagPools.for_record(target)
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
            out.append(Token.tag(target.objects[idx - 1], idx))
        else:
            out.append(Token.word("the"))
            out.append(Token.word(cls))
    return tuple(out)
