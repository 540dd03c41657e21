"""Deterministic RNG substreams derived from a root seed plus string scope keys.

Every stochastic step in the pipeline (fold shuffles, chunk shuffles, tag
remapping, choice shuffling) draws from its own substream keyed by what it
is for, never from a shared sequential stream.  This makes results
independent of evaluation order and safe to parallelize.

A substream is the stream of ``np.random.default_rng(derive_seed(root,
*scope))``, whose seed is the SHA-256 of the key string
:func:`scope_key` writes.  Building that generator costs about 25 us,
most of it in ``SeedSequence``, so :class:`Substreams` hashes one key
string per row, which its callers write straight from the record ids,
derives the starting states of all of them in one vectorized pass
(:func:`pcg64_states`, which reproduces numpy's ``SeedSequence`` and
``PCG64`` seeding) and then steps all of them together as arrays: the
128-bit PCG64 state of each key is kept as two uint64 halves, advanced
by the LCG and turned into raw 64-bit words by the XSL-RR output, as
``PCG64.random_raw`` does.  The three draws the
pipeline needs are decoded from those words exactly as numpy's
``Generator`` decodes them, so every key's draws equal its own
generator's, draw for draw:

* ``random()``: the top 53 bits of one word, times 2**-53;
* ``integers(n)``: nothing drawn for n == 1; otherwise Lemire's
  multiply-and-reject method on 32-bit halves;
* ``permutation(k)``: Fisher-Yates, each swap index drawn by masked
  rejection on 32-bit halves.

A 32-bit draw takes the lower half of a new word and keeps the upper half
for the next 32-bit draw of the same key, as numpy's ``PCG64`` does; a
64-bit draw leaves that buffered half alone.  :func:`derive_rng` is the
substream's own ``Generator``, for the few keys drawn from one at a time.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np


def scope_key(root: int, *scope: object) -> str:
    """The key string of a substream: the root and the scope parts, as text,
    joined by 0x1f.  Its SHA-256 decides the substream."""
    return "\x1f".join((str(int(root)), *map(str, scope)))


def derive_seed(root: int, *scope: object) -> int:
    """Collapse (root seed, scope keys) into a stable 128-bit integer seed.

    Uses SHA-256 rather than hash() so streams are reproducible across
    processes and interpreter versions.
    """
    digest = hashlib.sha256(scope_key(root, *scope).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


# numpy's SeedSequence constants (bit_generator.pyx), pool size 4.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's default 128-bit LCG multiplier, as uint64 halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**t`` modulo 2**32 for t < count: the hash constant
    each successive ``hashmix`` (or output word) of a SeedSequence uses."""
    return [init * pow(mult, t, 1 << 32) % (1 << 32) for t in range(count)]


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# 4 hashmix calls fill the pool, 12 mix it, and 8 output words follow.
# Columns, to broadcast over a row of seeds per pool word.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 17)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 9)
_FILL_XOR, _FILL_MUL = _column(_HASH_A[:4]), _column(_HASH_A[1:5])
_OUT_XOR, _OUT_MUL = _column(_HASH_B[:8]), _column(_HASH_B[1:9])


def _mix_consts(offset: int) -> np.ndarray:
    """Per source pool word, the hash constant (offset 0: the xor, 1: the
    multiplier) of its hashmix into each of the three others, as columns;
    its own row is unused."""
    table = np.zeros((4, 4, 1), dtype=np.uint32)
    for src in range(4):
        first = 4 + 3 * src + offset
        table[src, [d for d in range(4) if d != src], 0] = _HASH_A[first:first + 3]
    return table


_MIX_XOR, _MIX_MUL = _mix_consts(0), _mix_consts(1)
_ONE = np.uint64(1)
_LO32 = np.uint64(0xFFFFFFFF)
_U11, _U32, _U58, _U63, _U64 = (np.uint64(b) for b in (11, 32, 58, 63, 64))
_TWO32 = np.uint64(1 << 32)


def _mulhi(a: np.ndarray, b) -> np.ndarray:
    """Upper 64 bits of the 128-bit products ``a * b`` (uint64)."""
    a0, a1 = a & _LO32, a >> _U32
    b0, b1 = b & _LO32, b >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U32) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """``state * mult + inc`` modulo 2**128, on uint64 halves."""
    new_hi = _mulhi(lo, _MULT_LO) + hi * _MULT_LO + lo * _MULT_HI
    prod_lo = lo * _MULT_LO
    new_lo = prod_lo + inc_lo
    carry = (new_lo < prod_lo).astype(np.uint64)
    return new_hi + inc_hi + carry, new_lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output: the halves' xor rotated right by the top 6 state bits."""
    rot = hi >> _U58
    x = hi ^ lo
    return (x >> rot) | (x << ((_U64 - rot) & _U63))


def pcg64_states(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``(state, inc)`` that ``np.random.PCG64(seed)`` starts from.

    ``words`` holds one seed per row as four little-endian uint32 words
    (seeds below 2**128).  The ``SeedSequence`` entropy pool hash, its
    ``generate_state(4, uint64)`` and the two LCG steps of PCG64's seeding
    all run vectorized over the rows; the hashes that do not depend on
    each other also run together, as columns.  Returns the uint64 arrays
    ``(state_hi, state_lo, inc_hi, inc_lo)``, one entry per row.  An
    entropy word of zero and a missing one hash alike, so padding to four
    words keeps seeds with leading zero words exact.
    """
    # one row per pool word, one column per seed
    pool = np.asarray(words, dtype=np.uint32).reshape(-1, 4).T

    def hashed(value: np.ndarray) -> np.ndarray:
        return value ^ (value >> _XSHIFT)

    with np.errstate(over="ignore"):
        pool = hashed((pool ^ _FILL_XOR) * _FILL_MUL)
        # a source word mixes into the three others and does not change
        # while it does, so its three hashes and mixes run at once
        for src in range(4):
            mix = hashed((pool[src] ^ _MIX_XOR[src]) * _MIX_MUL[src])
            mixed = hashed(_MIX_MULT_L * pool - _MIX_MULT_R * mix)
            mixed[src] = pool[src]
            pool = mixed
        value = hashed((np.concatenate((pool, pool)) ^ _OUT_XOR) * _OUT_MUL)
    seeds = np.ascontiguousarray(value.T).view("<u8").astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = seeds.T
    # PCG64 seeding: inc = initseq << 1 | 1, then state = 0 stepped,
    # plus initstate, stepped again
    inc_hi = (i_hi << _ONE) | (i_lo >> _U63)
    inc_lo = (i_lo << _ONE) | _ONE
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo).astype(np.uint64)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


class Substreams:
    """The substreams of many key strings, stepped as arrays.

    Row ``k`` is the stream of the key string ``keys[k]``: for
    ``keys[k] = scope_key(root, *scope)``, that of ``derive_rng(root,
    *scope)``.
    :meth:`random`, :meth:`integers` and :meth:`permutation` make one draw
    on each of the given rows (all rows by default), equal to the same
    ``Generator`` call on that row's stream; rows not given do not move.
    ``rows`` must not repeat a row.
    """

    def __init__(self, keys: Iterable[str]):
        sha256 = hashlib.sha256
        digests = b"".join([sha256(key.encode("utf-8")).digest() for key in keys])
        # a seed is the first 16 of the digest's 32 bytes
        words = np.frombuffer(digests, dtype="<u4").reshape(-1, 8)[:, :4]
        self._hi, self._lo, self._inc_hi, self._inc_lo = pcg64_states(words)
        self._half = np.zeros(len(words), dtype=np.uint64)
        self._has_half = np.zeros(len(words), dtype=bool)

    def _rows(self, rows) -> np.ndarray:
        if rows is None:
            return np.arange(len(self._hi))
        return np.asarray(rows, dtype=np.intp)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        hi, lo = _lcg_step(self._hi[rows], self._lo[rows],
                           self._inc_hi[rows], self._inc_lo[rows])
        self._hi[rows] = hi
        self._lo[rows] = lo
        return _xsl_rr(hi, lo)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """The buffered upper half where a row has one, else a new lower half."""
        had = self._has_half[rows]
        out = self._half[rows]
        fresh = rows[~had]
        word = self._next64(fresh)
        out[~had] = word & _LO32
        self._half[fresh] = word >> _U32
        self._has_half[rows] = ~had
        return out

    def random(self, rows=None) -> np.ndarray:
        """``Generator.random()`` on each row: float64 in [0, 1)."""
        word = self._next64(self._rows(rows))
        return (word >> _U11).astype(np.float64) * (1.0 / 9007199254740992.0)

    def integers(self, n, rows=None) -> np.ndarray:
        """``Generator.integers(n)`` on each row, for ``1 <= n < 2**32``.

        ``n`` is one bound for every row or one per row.
        """
        rows = self._rows(rows)
        n = np.broadcast_to(np.asarray(n, dtype=np.uint64), rows.shape)
        out = np.zeros(len(rows), dtype=np.int64)
        pending = np.flatnonzero(n > _ONE)  # n == 1 draws nothing
        bound = n[pending]
        # Lemire: a product whose low half falls below 2**32 mod n is biased
        threshold = (_TWO32 - bound) % bound
        while pending.size:
            prod = self._next32(rows[pending]) * bound
            keep = (prod & _LO32) >= threshold
            out[pending[keep]] = prod[keep] >> _U32
            pending, bound, threshold = (pending[~keep], bound[~keep],
                                         threshold[~keep])
        return out

    def permutation(self, k: int, rows=None) -> np.ndarray:
        """``Generator.permutation(k)`` on each row, one row of the result each."""
        rows = self._rows(rows)
        out = np.tile(np.arange(k, dtype=np.int64), (len(rows), 1))
        at = np.arange(len(rows))
        for i in range(k - 1, 0, -1):
            # random_interval(i): the low bits under the smallest mask >= i,
            # redrawn while they exceed i
            mask = (1 << i.bit_length()) - 1
            j = (self._next32(rows) & np.uint64(mask)).astype(np.intp)
            pending = np.flatnonzero(j > i)
            while pending.size:
                value = (self._next32(rows[pending]) & np.uint64(mask)).astype(np.intp)
                j[pending] = value
                pending = pending[value > i]
            out[at, i], out[at, j] = out[at, j], out[at, i]
        return out


def derive_rng(root: int, *scope: object) -> np.random.Generator:
    """A fresh Generator seeded from the (root, scope) substream key."""
    return np.random.default_rng(derive_seed(root, *scope))
