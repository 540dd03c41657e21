"""Deterministic RNG substreams derived from a root seed plus string scope keys.

Every stochastic step in the pipeline (fold shuffles, chunk shuffles, tag
remapping, choice shuffling) draws from its own substream keyed by what it
is for, never from a shared sequential stream.  This makes results
independent of evaluation order and safe to parallelize.

A substream is the stream of ``np.random.default_rng(derive_seed(root,
*scope))``.  Building that generator costs about 25 us, most of it in
``SeedSequence``, so :class:`Substreams` derives the starting states of
many keys in one vectorized pass (:func:`pcg64_states`, which reproduces
numpy's ``SeedSequence`` and ``PCG64`` seeding) and then steps all of
them together as arrays: the 128-bit PCG64 state of each key is kept as
two uint64 halves, advanced by the LCG and turned into raw 64-bit words
by the XSL-RR output, as ``PCG64.random_raw`` does.  The three draws the
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
64-bit draw leaves that buffered half alone.  :func:`derive_rng` loads a
single key into an ordinary ``Generator``.
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
# PCG64's default 128-bit LCG multiplier, as uint64 halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
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
    all run vectorized over the rows.  Returns the uint64 arrays
    ``(state_hi, state_lo, inc_hi, inc_lo)``, one entry per row.  An
    entropy word of zero and a missing one hash alike, so padding to four
    words keeps seeds with leading zero words exact.
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
    """The substreams of many scope keys under one root, stepped as arrays.

    Row ``k`` is the stream of ``derive_rng(root, *scopes[k])``.
    :meth:`random`, :meth:`integers` and :meth:`permutation` make one draw
    on each of the given rows (all rows by default), equal to the same
    ``Generator`` call on that row's stream; rows not given do not move.
    ``rows`` must not repeat a row.  :meth:`load` returns a ``Generator``
    at a row's current position; drawing from it does not move the row.
    """

    def __init__(self, root: int, scopes: Sequence[Sequence[object]]):
        digests = b"".join(_key_digest(root, scope) for scope in scopes)
        self._hi, self._lo, self._inc_hi, self._inc_lo = pcg64_states(
            np.frombuffer(digests, dtype="<u4"))
        self._half = np.zeros(len(scopes), dtype=np.uint64)
        self._has_half = np.zeros(len(scopes), dtype=bool)
        self._rng: np.random.Generator | None = None

    def load(self, k: int) -> np.random.Generator:
        """A generator at row ``k``'s position, reused by every ``load``.

        The next ``load`` resets that same generator, so finish drawing
        from one row before loading another.
        """
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(0))
        state = (int(self._hi[k]) << 64) | int(self._lo[k])
        inc = (int(self._inc_hi[k]) << 64) | int(self._inc_lo[k])
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": int(self._has_half[k]), "uinteger": int(self._half[k])}
        return self._rng

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
        for i in range(k - 1, 0, -1):
            # random_interval(i): the low bits under the smallest mask >= i,
            # redrawn while they exceed i
            mask = np.uint64((1 << i.bit_length()) - 1)
            j = np.empty(len(rows), dtype=np.int64)
            pending = np.arange(len(rows))
            while pending.size:
                value = self._next32(rows[pending]) & mask
                keep = value <= np.uint64(i)
                j[pending[keep]] = value[keep]
                pending = pending[~keep]
            at = np.arange(len(rows))
            out[at, i], out[at, j] = out[at, j], out[at, i]
        return out


def derive_rng(root: int, *scope: object) -> np.random.Generator:
    """A fresh Generator seeded from the (root, scope) substream key."""
    return Substreams(root, [scope]).load(0)
