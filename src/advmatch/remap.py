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

Each tag slot draws ``random()`` to pick the pool order, then, from a pool
of more than one tag, ``integers(len(pool))`` to pick the tag.  Every
(query, candidate) pair draws from its own RNG substream keyed by the two
record ids, so results do not depend on evaluation order or on how pairs
are batched.  :class:`CandidateTable` keeps its bucket's pools as flat
arrays and decodes the draws of all pairs of a call together, slot by
slot (:class:`~advmatch.seeding.Substreams`); its results are text.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Record
from .seeding import Substreams


class RemapError(ValueError):
    """Raised when remapping inputs are structurally unusable."""


class CandidateTable:
    """Lazy n x n table of responses remapped per target query.

    ``get(pairs)`` gives the text of response j remapped for query i for
    every ``(i, j)`` it is given; nothing is cached, so memory stays O(n)
    plus one pool offset per (record, class).  Each pair draws from its own
    substream keyed by the two record ids, the substreams of one call are
    derived and decoded in one batch, and a pair's text does not depend on
    which other pairs share the call.  A self pair, and a response without
    tags, gives the response's own gold text.
    """

    def __init__(self, records: Sequence[Record], p_reuse: float, seed: int):
        if not 0.0 <= p_reuse <= 1.0:
            raise RemapError(f"p_reuse must be in [0, 1], got {p_reuse}")
        self._records = records = list(records)
        self._p_reuse = p_reuse
        self._seed = seed
        classes: dict[str, int] = {}
        # every tag text a slot can take: each record's objects, then each
        # class spelled out
        strings: list[str] = []
        tag_base = []
        # (records, classes, tag indices) of the tags in each kind of pool
        mentioned_pools: tuple[list[int], ...] = ([], [], [])
        object_pools: tuple[list[int], ...] = ([], [], [])
        slot_class: list[int] = []
        slot_start = [0]
        self._texts = []  # token texts of each gold; slots are filled per pair
        self._slots = []  # positions of each gold's tags
        for i, r in enumerate(records):
            labels = [classes.setdefault(label, len(classes)) for label in r.objects]
            tag_base.append(len(strings))
            strings += [f"[{label}:{idx}]" for idx, label in enumerate(r.objects, 1)]
            slots = [k for k, t in enumerate(r.gold) if t.kind == "tag"]
            mentioned = sorted({t.tag_index for t in r.query if t.kind == "tag"}
                               | {r.gold[k].tag_index for k in slots})
            for (rec, cls, idx), pool in ((mentioned_pools, mentioned),
                                          (object_pools, range(1, len(labels) + 1))):
                rec += [i] * len(pool)
                cls += [labels[k - 1] for k in pool]
                idx += pool
            slot_class += [classes.setdefault(r.gold[k].tag_class, len(classes))
                           for k in slots]
            slot_start.append(len(slot_class))
            self._texts.append([t.to_text() for t in r.gold])
            self._slots.append(slots)
        self._gold_text = [" ".join(texts) for texts in self._texts]
        self._fallback_base = len(strings)
        strings += [f"the {label.lower()}" for label in classes]
        self._strings = np.array(strings, dtype=object)
        self._tag_base = np.array(tag_base, dtype=np.intp)
        self._slot_class = np.array(slot_class, dtype=np.intp)
        self._slot_start = np.array(slot_start, dtype=np.intp)
        self._n_slots = np.diff(self._slot_start)

        # pools as runs of one flat index array, sorted by (record, class);
        # key = record * n_classes + class, and a trailing 0 keeps every
        # start a valid position
        n_classes = self._n_classes = len(classes)
        starts, flat = [], []
        offset = 0
        for rec, cls, idx in (mentioned_pools, object_pools):
            key = np.array(rec, dtype=np.intp) * n_classes + np.array(cls, dtype=np.intp)
            counts = np.bincount(key, minlength=len(records) * n_classes)
            starts.append(offset + np.concatenate(([0], np.cumsum(counts))))
            flat.append(np.array(idx, dtype=np.intp)[np.argsort(key, kind="stable")])
            offset += len(key)
        self._ment_start, self._obj_start = starts
        self._pool_idx = np.concatenate([*flat, np.zeros(1, dtype=np.intp)])
        person = classes.get("person")
        person_key = np.arange(len(records)) * n_classes + (person or 0)
        self._person_start = self._obj_start[person_key]
        self._person_len = (np.zeros(len(records), dtype=np.intp) if person is None
                            else self._obj_start[person_key + 1] - self._person_start)

    def get(self, pairs: Sequence[tuple[int, int]]) -> list[str]:
        """Text of response j remapped for query i, for each ``(i, j)`` in order."""
        records = self._records
        out = [self._gold_text[j] for _, j in pairs]
        n_slots = self._n_slots
        drawn = [k for k, (i, j) in enumerate(pairs) if i != j and n_slots[j]]
        if not drawn:
            return out
        streams = Substreams(self._seed, [
            ("remap", records[pairs[k][0]].id, records[pairs[k][1]].id)
            for k in drawn])
        target = np.array([pairs[k][0] for k in drawn], dtype=np.intp)
        source = np.array([pairs[k][1] for k in drawn], dtype=np.intp)
        counts = n_slots[source]
        codes = np.zeros((len(drawn), int(counts.max())), dtype=np.intp)
        for s in range(codes.shape[1]):
            rows = np.flatnonzero(counts > s)
            i = target[rows]
            cls = self._slot_class[self._slot_start[source[rows]] + s]
            key = i * self._n_classes + cls
            reuse = streams.random(rows) < self._p_reuse
            m_start, o_start = self._ment_start[key], self._obj_start[key]
            m_len = self._ment_start[key + 1] - m_start
            o_len = self._obj_start[key + 1] - o_start
            # the first non-empty pool of (mentioned, objects) in the drawn
            # order, then the other one, then the persons
            start = np.where(reuse, m_start, o_start)
            length = np.where(reuse, m_len, o_len)
            other_start = np.where(reuse, o_start, m_start)
            other_len = np.where(reuse, o_len, m_len)
            empty = length == 0
            start[empty], length[empty] = other_start[empty], other_len[empty]
            empty = length == 0
            start[empty] = self._person_start[i[empty]]
            length[empty] = self._person_len[i[empty]]
            found = length > 0
            start[found] += streams.integers(length[found], rows[found])
            codes[rows, s] = np.where(
                found, self._tag_base[i] + self._pool_idx[start] - 1,
                self._fallback_base + cls)
        for k, j, tags in zip(drawn, source.tolist(), self._strings[codes].tolist()):
            texts = self._texts[j].copy()
            for pos, tag in zip(self._slots[j], tags):
                texts[pos] = tag
            out[k] = " ".join(texts)
        return out
