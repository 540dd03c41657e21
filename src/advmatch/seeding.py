"""Deterministic RNG substreams derived from a root seed plus string scope keys.

Every stochastic step in the pipeline (fold shuffles, chunk shuffles, tag
remapping, choice shuffling) draws from its own substream keyed by what it
is for, never from a shared sequential stream.  This makes results
independent of evaluation order and safe to parallelize.

A substream is the stream of ``np.random.default_rng(derive_seed(root,
*scope))``.  Building that generator costs about 25 us, most of it in
``SeedSequence``, so :class:`Substreams` derives the starting states of
many keys in one vectorized pass (:func:`pcg64_states`, which reproduces
numpy's ``SeedSequence`` and ``PCG64`` seeding) and loads them one at a
time into a single reused generator.  :func:`derive_rng` goes through the
same seed-to-state step.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np


def _key_digest(root: int, scope: Iterable[object]) -> bytes:
    key = "\x1f".join([str(int(root)), *map(str, scope)])
    return hashlib.sha256(key.encode("utf-8")).digest()[:16]


def derive_seed(root: int, *scope: object) -> int:
    """Collapse (root seed, scope keys) into a stable 128-bit integer seed.

    Uses SHA-256 rather than hash() so streams are reproducible across
    processes and interpreter versions.
    """
    return int.from_bytes(_key_digest(root, scope), "little")


# numpy's SeedSequence constants (bit_generator.pyx), pool size 4.
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """The ``(state, inc)`` that ``np.random.PCG64(seed)`` starts from.

    ``words`` holds one seed per row as four little-endian uint32 words
    (seeds below 2**128).  The ``SeedSequence`` entropy pool hash and its
    ``generate_state(4, uint64)`` run vectorized over the rows; the two
    LCG steps of PCG64's seeding run on Python ints.  An entropy word of
    zero and a missing one hash alike, so padding to four words keeps
    seeds with leading zero words exact.
    """
    words = np.asarray(words, dtype=np.uint32).reshape(-1, 4)
    hash_a = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A
        value = value * hash_a
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    with np.errstate(over="ignore"):
        pool = [hashmix(words[:, k]) for k in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        hash_b = _INIT_B
        out = []
        for k in range(8):
            value = pool[k % 4] ^ hash_b
            hash_b = hash_b * _MULT_B
            value = value * hash_b
            out.append(value ^ (value >> _XSHIFT))
    seeds = np.stack(out, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


class Substreams:
    """The substreams of many scope keys under one root, derived in one batch.

    ``load(k)`` puts the starting state of ``scopes[k]`` into a generator
    that this object reuses for every key and returns it; its draws equal
    those of ``derive_rng(root, *scopes[k])``.  The next ``load`` resets
    that same generator, so finish drawing from one key before loading
    another.
    """

    def __init__(self, root: int, scopes: Sequence[Sequence[object]]):
        digests = b"".join(_key_digest(root, scope) for scope in scopes)
        self._states = pcg64_states(np.frombuffer(digests, dtype="<u4"))
        self._bitgen = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bitgen)

    def load(self, k: int) -> np.random.Generator:
        state, inc = self._states[k]
        self._bitgen.state = {"bit_generator": "PCG64",
                              "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}
        return self._rng


def derive_rng(root: int, *scope: object) -> np.random.Generator:
    """A fresh Generator seeded from the (root, scope) substream key."""
    return Substreams(root, [scope]).load(0)
