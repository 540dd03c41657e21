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
are batched.

:class:`CandidateTable` builds its bucket's pools from the flattened
objects and gold tags of all its records at once, as one flat array of
object indices: a drawn index serves that object's own ``[class:index]``
string, and a slot with no pool serves its class spelled out.  It turns
each gold into a ``%``-format template whose conversions are its tag
slots.  ``get`` derives the substreams of all the pairs it is given from
their key strings in one batch (:class:`~advmatch.seeding.Substreams`),
decodes the draws of every tag slot of those pairs together, slot by
slot, then fills each pair's template with its drawn tags, one ``%``
operation per pair in one loop over the pairs; its results are text.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import Record
from .seeding import Substreams, scope_key


class RemapError(ValueError):
    """Raised when remapping inputs are structurally unusable."""


def _first_nonempty(*runs: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per entry, the first of the ``(start, length)`` runs whose length is not 0."""
    start, length = runs[-1]
    for run_start, run_len in reversed(runs[:-1]):
        start = np.where(run_len > 0, run_start, start)
        length = np.where(run_len > 0, run_len, length)
    return start, length


class CandidateTable:
    """Lazy n x n table of responses remapped per target query.

    ``get(pairs)`` gives the text of response j remapped for query i for
    every ``(i, j)`` it is given; nothing is cached, so memory stays O(n)
    plus two pool offsets per (record, class).  Each pair draws from its own
    substream keyed by the two record ids, the substreams of one call are
    derived and decoded in one batch, and a pair's text does not depend on
    which other pairs share the call.  A self pair, and a response without
    tags, gives the response's own gold text.
    """

    def __init__(self, records: Sequence[Record], p_reuse: float, seed: int):
        if not 0.0 <= p_reuse <= 1.0:
            raise RemapError(f"p_reuse must be in [0, 1], got {p_reuse}")
        records = list(records)
        n = len(records)
        self._p_reuse = p_reuse
        self._ids = [r.id for r in records]
        self._key = scope_key(seed, "remap") + "\x1f"
        golds = [r.gold for r in records]
        self._gold_text = [" ".join([t.display for t in g]) for g in golds]
        # a gold's tags become the conversions of its template
        self._templates = [" ".join([t.pattern for t in g]) for g in golds]
        slot_tags = [[t for t in g if t.kind == "tag"] for g in golds]
        slots = list(chain.from_iterable(slot_tags))
        self._n_slots = np.array(list(map(len, slot_tags)), dtype=np.intp)
        self._slot_start = np.concatenate(([0], np.cumsum(self._n_slots)))

        # every object of the bucket, record by record: its record and
        # class, and where each record's objects start
        n_objects = np.array([len(r.objects) for r in records], dtype=np.intp)
        labels = list(chain.from_iterable(r.objects for r in records))
        classes = {c: k for k, c in enumerate(dict.fromkeys(
            chain(labels, (t.tag_class for t in slots))))}
        n_classes = self._n_classes = len(classes)
        obj_class = np.array([classes[c] for c in labels], dtype=np.intp)
        obj_rec = np.repeat(np.arange(n), n_objects)
        obj_base = np.concatenate(([0], np.cumsum(n_objects)))
        self._slot_class = np.array([classes[t.tag_class] for t in slots], dtype=np.intp)

        # the tags each record mentions, in its query or gold
        query_tags = [[t.tag_index for t in r.query if t.kind == "tag"] for r in records]
        ment_rec = np.concatenate((np.repeat(np.arange(n), list(map(len, query_tags))),
                                   np.repeat(np.arange(n), self._n_slots)))
        ment_idx = np.array([*chain.from_iterable(query_tags),
                             *(t.tag_index for t in slots)], dtype=np.intp)
        # records built in code skip validate_record; 0 would wrap
        outside = (ment_idx < 1) | (ment_idx > n_objects[ment_rec])
        if outside.any():
            r = records[int(ment_rec[outside].min())]
            bad = [t.display for t in (*r.query, *r.gold) if t.kind == "tag"
                   and not 1 <= t.tag_index <= len(r.objects)]
            raise RemapError(f"record {r.id}: tag {bad[0]} is outside its "
                             f"{len(r.objects)} objects")

        # the served strings: each object's own tag, in object order, then
        # each class spelled out
        self._strings = np.array(
            [f"[{label}:{k}]" for r in records for k, label in enumerate(r.objects, 1)]
            + [f"the {label.lower()}" for label in classes], dtype=object)
        self._fallback_base = len(labels)

        # the pools: one run of object indices per key, sorted by key; key =
        # record * n_classes + class for the tags a record mentions, and
        # that plus n * n_classes for all its objects.  _run_start[key] is
        # where its run starts, and key 2 * n * n_classes has none.
        obj_key = obj_rec * n_classes + obj_class
        objects = np.argsort(obj_key, kind="stable")
        is_mentioned = np.zeros(len(labels), dtype=bool)
        is_mentioned[obj_base[ment_rec] + ment_idx - 1] = True
        mentioned = objects[is_mentioned[objects]]
        self._objects_offset = n * n_classes
        keys = np.concatenate((obj_key[mentioned], obj_key[objects] + n * n_classes))
        self._run_start = np.concatenate(
            ([0], np.cumsum(np.bincount(keys, minlength=2 * n * n_classes + 1))))
        self._pool = np.concatenate((mentioned, objects))
        person = classes.get("person")
        self._person_key = (np.full(n, 2 * n * n_classes) if person is None
                            else np.arange(n) * n_classes + person + n * n_classes)

    def get(self, pairs) -> list[str]:
        """Text of response j remapped for query i, for each ``(i, j)`` in order.

        ``pairs`` is a sequence of ``(i, j)`` or an ``(m, 2)`` integer array.
        """
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        target, source = pairs[:, 0], pairs[:, 1]
        out = [self._gold_text[j] for j in source.tolist()]
        counts = np.where(target == source, 0, self._n_slots[source])
        drawn = np.flatnonzero(counts)
        if not drawn.size:
            return out
        target, source, counts = target[drawn], source[drawn], counts[drawn]
        ids, key = self._ids, self._key
        streams = Substreams([f"{key}{ids[i]}\x1f{ids[j]}" for i, j in
                                        zip(target.tolist(), source.tolist())])

        # one cell per tag slot of a drawn pair, pair-major
        first = np.cumsum(counts) - counts
        pair = np.repeat(np.arange(len(drawn)), counts)
        slot = np.arange(len(pair)) - first[pair]
        cls = self._slot_class[self._slot_start[source[pair]] + slot]
        i = target[pair]
        key = i * self._n_classes + cls
        # the (start, length) runs of the mentioned pool, the objects pool
        # and the persons; the pool a slot draws from is the first non-empty
        # one of (mentioned, objects, persons) when random() < p_reuse, else
        # of (objects, mentioned, persons), and none spells the class out
        run = np.concatenate((key, key + self._objects_offset, self._person_key[i]))
        start = self._run_start[run]
        mentioned, objects, persons = zip(start.reshape(3, -1),
                                          (self._run_start[run + 1] - start).reshape(3, -1))
        reuse_start, reuse_len = _first_nonempty(mentioned, objects, persons)
        fresh_start, fresh_len = _first_nonempty(objects, mentioned, persons)

        pick = np.empty(len(pair), dtype=np.intp)
        for s in range(int(counts.max())):
            rows = np.flatnonzero(counts > s)
            at = first[rows] + s
            reuse = streams.random(rows) < self._p_reuse
            length = np.where(reuse, reuse_len[at], fresh_len[at])
            start = np.where(reuse, reuse_start[at], fresh_start[at])
            # a pool of one tag, or none, draws nothing
            start += streams.integers(np.maximum(length, 1), rows)
            pick[at] = np.where(length > 0, start, -1)
        codes = self._fallback_base + cls
        found = pick >= 0
        codes[found] = self._pool[pick[found]]

        tags = self._strings[codes].tolist()
        for k, j, at, count in zip(drawn.tolist(), source.tolist(), first.tolist(),
                                   counts.tolist()):
            out[k] = self._templates[j] % tuple(tags[at:at + count])
        return out
