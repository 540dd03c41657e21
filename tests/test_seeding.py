"""Batched substreams equal numpy's own seeding, draw for draw."""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from advmatch.seeding import Substreams, derive_rng, derive_seed, pcg64_states

scope_parts = st.one_of(st.text(max_size=8), st.integers(-10 ** 6, 10 ** 6))
scopes = st.lists(st.tuples(scope_parts, scope_parts), min_size=0, max_size=12)


def _draws(rng: np.random.Generator) -> list:
    # int32 draws use half of a 64-bit output and buffer the other half,
    # so a stale buffer after loading a new state would show here
    return [rng.random(), int(rng.integers(7)), rng.permutation(5).tolist(),
            rng.integers(0, 10, size=3, dtype=np.int32).tolist(),
            int(rng.integers(2 ** 40)), rng.random()]


def _words(seed: int) -> np.ndarray:
    return np.frombuffer(seed.to_bytes(16, "little"), dtype="<u4")


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([0, -1, -(2 ** 70)]),
                 st.integers(-(2 ** 64), 2 ** 64)), scopes)
def test_batch_equals_default_rng(root, keys):
    streams = Substreams(root, keys)
    for k, scope in enumerate(keys):
        want = _draws(np.random.default_rng(derive_seed(root, *scope)))
        assert _draws(streams.load(k)) == want
    # loading again restarts the stream, in any order
    for k in reversed(range(len(keys))):
        scope = keys[k]
        want = _draws(np.random.default_rng(derive_seed(root, *scope)))
        assert _draws(streams.load(k)) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(-(2 ** 40), 2 ** 40), st.tuples(scope_parts, scope_parts))
def test_derive_rng_equals_default_rng(root, scope):
    want = _draws(np.random.default_rng(derive_seed(root, *scope)))
    assert _draws(derive_rng(root, *scope)) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0, 1, 2 ** 32, 2 ** 64 + 5,
                                           2 ** 96, 2 ** 128 - 1]),
                          st.integers(0, 2 ** 128 - 1)), min_size=1, max_size=8))
def test_states_equal_pcg64_seeding(seeds):
    # seeds with leading zero words have fewer SeedSequence entropy words
    halves = pcg64_states(np.stack([_words(s) for s in seeds]))
    rows = zip(*(half.tolist() for half in halves))
    for seed, (s_hi, s_lo, i_hi, i_lo) in zip(seeds, rows):
        want = np.random.PCG64(seed).state["state"]
        assert ((s_hi << 64) | s_lo, (i_hi << 64) | i_lo) == (want["state"], want["inc"])


def test_derived_generators_are_independent():
    a = derive_rng(3, "x")
    b = derive_rng(3, "x")
    first = a.random()
    assert b.random() == first
    assert a.random() == b.random()


def test_seed_keys_are_pinned():
    # the key format (root and scope parts joined by 0x1f, SHA-256, first
    # 16 bytes little-endian) decides every substream
    assert derive_seed(7, "shuffle", "r0001") == 81643888604532075129532165580501617021
    assert derive_seed(-3, "remap", "a", "ü", 5) == 272524790668364651325360734505610897714
    assert derive_seed(0) == 161399493873144522885570032272082201695


# -- batched decoders ----------------------------------------------------------


def _generators(root, n):
    return [np.random.default_rng(derive_seed(root, "row", k)) for k in range(n)]


def _rows(data, n):
    """Distinct rows in random order, any number of them."""
    order = data.draw(st.permutations(range(n)))
    return order[:data.draw(st.integers(0, n))]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 12), st.data())
def test_random_equals_generator(root, n, data):
    streams = Substreams(root, [("row", k) for k in range(n)])
    gens = _generators(root, n)
    for _ in range(3):
        rows = _rows(data, n)
        assert streams.random(rows).tolist() == [gens[k].random() for k in rows]


# 2**31 + 1 rejects about half of its first draws, 2**32 - 1 almost none
bounds = st.one_of(st.sampled_from([1, 2, 3, 2 ** 31 + 1, 2 ** 32 - 1]),
                   st.integers(1, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 10), st.data())
def test_integers_equal_generator(root, n, data):
    streams = Substreams(root, [("row", k) for k in range(n)])
    gens = _generators(root, n)
    for _ in range(4):
        rows = _rows(data, n)
        bound = [data.draw(bounds) for _ in rows]
        got = streams.integers(bound, rows).tolist()
        assert got == [int(gens[k].integers(b)) for k, b in zip(rows, bound)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.lists(st.sampled_from(["random", 7, 1]),
                                         min_size=1, max_size=8))
def test_half_carries_from_one_slot_to_the_next(root, ops):
    # a 32-bit draw keeps the upper half of its word for the next one;
    # random() and integers(1) in between leave that half alone
    streams = Substreams(root, [("row", k) for k in range(4)])
    gens = _generators(root, 4)
    for op in ops:
        if op == "random":
            assert streams.random().tolist() == [g.random() for g in gens]
        else:
            assert streams.integers(op).tolist() == [int(g.integers(op)) for g in gens]
    # load hands the buffered half on, and drawing from it leaves the row
    for k, g in enumerate(gens):
        want = copy.deepcopy(g).integers(2 ** 20)
        assert int(streams.load(k).integers(2 ** 20)) == int(want)
    assert streams.integers(5).tolist() == [int(g.integers(5)) for g in gens]


@settings(max_examples=30, deadline=None)
@given(st.integers(-(2 ** 40), 2 ** 40), st.integers(2, 8), st.integers(1, 60))
def test_permutation_equals_generator(root, k, n):
    streams = Substreams(root, [("row", j) for j in range(n)])
    gens = _generators(root, n)
    for size in (k, k, 2):
        got = streams.permutation(size).tolist()
        assert got == [g.permutation(size).tolist() for g in gens]
