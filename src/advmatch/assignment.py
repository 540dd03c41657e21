"""Maximum-weight linear assignment with forbidden pairs, plus a brute-force oracle.

The solver delegates the heavy lifting to scipy's shortest-augmenting-path
implementation and layers three guarantees on top:

* forbidden entries are handled as an explicit mask, never as a large
  negative float, and infeasibility is detected exactly by a
  maximum-cardinality matching on the allowed mask before solving;
* the reported total is always the plain sum of the selected original
  entries;
* ties between co-optimal assignments are broken toward the
  lexicographically smallest mapping.  The tie-break is enforced exactly
  for n <= LEX_EXACT_MAX via per-row optimality certificates; above that a
  pairwise-swap canonicalization pass is applied (full certificates would
  need O(n^2) sub-solves, which is not worth it at bucket scale where
  real-valued weights make exact ties a measure-zero event).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# Largest n for which lexicographic tie-breaking is certified exactly.
LEX_EXACT_MAX = 64

BRUTE_FORCE_MAX = 10


class AssignmentError(ValueError):
    """Raised for infeasible matrices or misuse of the solver contract."""


class _ForbiddenType:
    """Sentinel for pairs that must never be assigned (conceptually -inf)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FORBIDDEN"


FORBIDDEN = _ForbiddenType()


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Square weight matrix with an explicit forbidden mask.

    Checked invariant: every row and every column keeps at least one
    allowed entry (necessary for a perfect matching; the full Hall
    condition is verified by the solver).
    """

    values: np.ndarray
    forbidden: np.ndarray

    def __post_init__(self) -> None:
        v, f = self.values, self.forbidden
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise AssignmentError(f"weight matrix must be square, got shape {v.shape}")
        if f.shape != v.shape or f.dtype != np.bool_:
            raise AssignmentError("forbidden mask must be a boolean array matching values")
        if not np.isfinite(v[~f]).all():
            raise AssignmentError("allowed weights must be finite")
        bad_rows = np.nonzero(f.all(axis=1))[0]
        if bad_rows.size:
            raise AssignmentError(f"row {bad_rows[0]} has no allowed entries")
        bad_cols = np.nonzero(f.all(axis=0))[0]
        if bad_cols.size:
            raise AssignmentError(f"column {bad_cols[0]} has no allowed entries")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @classmethod
    def from_rows(cls, rows) -> "WeightMatrix":
        """Build from nested lists whose entries may be the FORBIDDEN sentinel."""
        n = len(rows)
        values = np.zeros((n, n), dtype=np.float64)
        mask = np.zeros((n, n), dtype=np.bool_)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise AssignmentError(f"row {i} has {len(row)} entries, expected {n}")
            for j, x in enumerate(row):
                if x is FORBIDDEN:
                    mask[i, j] = True
                else:
                    values[i, j] = float(x)
        return cls(values=values, forbidden=mask)


@dataclass(frozen=True)
class Assignment:
    """A perfect matching: mapping[i] is the column assigned to row i."""

    mapping: tuple[int, ...]
    total_weight: float


def _total(values: np.ndarray, mapping: np.ndarray) -> float:
    return float(values[np.arange(len(mapping)), mapping].sum())


def _is_feasible(forbidden: np.ndarray) -> bool:
    # Degree shortcut: if every row and column keeps more than n/2 allowed
    # entries, Hall's condition holds automatically and the (comparatively
    # costly) matching check can be skipped.
    n = forbidden.shape[0]
    if (forbidden.sum(axis=1).max() < n / 2
            and forbidden.sum(axis=0).max() < n / 2):
        return True
    match = maximum_bipartite_matching(csr_matrix(~forbidden), perm_type="column")
    return bool((match != -1).all())


def _solve_masked(values: np.ndarray, forbidden: np.ndarray) -> np.ndarray | None:
    """One scipy solve over allowed entries; None when no perfect matching."""
    if forbidden.any() and not _is_feasible(forbidden):
        return None
    allowed_vals = values[~forbidden]
    vmax = float(allowed_vals.max())
    vmin = float(allowed_vals.min())
    n = values.shape[0]
    big = (vmax - vmin) * n + 1.0
    if not math.isfinite(big):
        raise AssignmentError("weight range too large to solve")
    cost = vmax - values
    cost[forbidden] = big
    mapping = linear_sum_assignment(cost)[1]
    if forbidden[np.arange(n), mapping].any():
        raise AssignmentError("internal error: solver selected a forbidden entry")
    return mapping


def _swap_accept(values: np.ndarray, forbidden: np.ndarray, current: np.ndarray,
                 total: float, i: int, j: int, pos: np.ndarray) -> bool:
    """Try moving column j to row i via a two-row swap that keeps the total."""
    r = int(pos[j])
    old = int(current[i])
    if forbidden[i, j] or forbidden[r, old]:
        return False
    cand = current.copy()
    cand[i], cand[r] = j, old
    if _total(values, cand) != total:
        return False
    current[i], current[r] = j, old
    pos[j], pos[old] = i, r
    return True


def _certify_accept(values: np.ndarray, forbidden: np.ndarray, current: np.ndarray,
                    total: float, i: int, j: int, pos: np.ndarray) -> bool:
    """Check via a sub-solve whether fixing row i to column j stays optimal."""
    n = len(current)
    if i + 1 >= n:
        return False
    rest_rows = np.arange(i + 1, n)
    rest_cols = np.array([c for c in current[i:] if c != j], dtype=np.int64)
    sub_map = _solve_masked(values[np.ix_(rest_rows, rest_cols)],
                            forbidden[np.ix_(rest_rows, rest_cols)])
    if sub_map is None:
        return False
    cand = current.copy()
    cand[i] = j
    cand[i + 1:] = rest_cols[sub_map]
    if _total(values, cand) != total:
        return False
    current[:] = cand
    pos[current] = np.arange(n)
    return True


def _lexicalize_exact(values: np.ndarray, forbidden: np.ndarray,
                      current: np.ndarray, total: float, pos: np.ndarray) -> None:
    for i in range(len(current)):
        for j in range(int(current[i])):
            if forbidden[i, j] or pos[j] <= i:
                continue
            if _swap_accept(values, forbidden, current, total, i, j, pos):
                break
            if _certify_accept(values, forbidden, current, total, i, j, pos):
                break


def _swap_screen(values: np.ndarray, forbidden: np.ndarray, current: np.ndarray,
                 pos: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """ok[a, b]: moving column cols[b] to row rows[a] is a swap candidate.

    A candidate is a smaller column whose holder is a later row, with both
    swapped entries allowed and a total change of exactly zero as the
    four-term delta computes it.
    """
    r = rows[:, None]
    cur = current[r]
    holders = pos[cols]
    delta = (values[r, cols] + values[holders, cur]
             - values[r, cur] - values[holders, cols])
    ok = (delta == 0.0) & (cols < cur) & (holders > r)
    a, b = np.nonzero(ok)  # the mask is read only where the rest holds
    ok[a, b] = ~forbidden[rows[a], cols[b]] & ~forbidden[holders[b], cur[a, 0]]
    return ok


def _lexicalize_swaps(values: np.ndarray, forbidden: np.ndarray,
                      current: np.ndarray, total: float, pos: np.ndarray) -> None:
    # Rows in order, each taking its smallest zero-delta swap candidate
    # until none is left.  One screen over all rows finds the candidates,
    # in eight row blocks so that its temporaries stay within about one n x n
    # float64 matrix; an accepted swap moves two columns between row i and
    # a later row r, so only rows i and r and those two columns are
    # screened again.  Each candidate is verified against the exact
    # recomputed total before adoption.
    n = len(current)
    every = np.arange(n)
    ok = np.empty((n, n), dtype=np.bool_)
    step = -(-n // 8)
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, n, step):
            rows = every[start:start + step]
            ok[rows] = _swap_screen(values, forbidden, current, pos, rows, every)
        # rows that may hold a candidate; a row is rechecked when reached
        flagged = ok.any(axis=1)
        i = -1
        while True:
            ahead = np.flatnonzero(flagged[i + 1:])
            if not ahead.size:
                return
            i += 1 + int(ahead[0])
            accepted = True
            while accepted:
                accepted = False
                for j in np.flatnonzero(ok[i]).tolist():
                    r, old = int(pos[j]), int(current[i])
                    if _swap_accept(values, forbidden, current, total, i, j, pos):
                        accepted = True
                        touched = np.array([i, r])
                        ok[touched] = _swap_screen(values, forbidden, current, pos,
                                                   touched, every)
                        moved = np.array([j, old])
                        ok[i + 1:, moved] = _swap_screen(values, forbidden, current,
                                                         pos, every[i + 1:], moved)
                        flagged[i + 1:] |= ok[i + 1:, moved].any(axis=1)
                        flagged[r] = True
                        break


def _lexicalize(values: np.ndarray, forbidden: np.ndarray, mapping: np.ndarray,
                total: float) -> np.ndarray:
    """Canonicalize an optimal mapping toward the lexicographically smallest one.

    Row by row, tries allowed smaller columns, accepting a move only when
    the full recomputed total is unchanged.  For n <= LEX_EXACT_MAX every
    candidate is certified with a sub-solve, which makes the result exactly
    the lexicographically smallest co-optimal mapping; above that only
    total-preserving two-row swaps are applied.
    """
    n = len(mapping)
    current = mapping.copy()
    pos = np.empty(n, dtype=np.int64)
    pos[current] = np.arange(n)
    if n <= LEX_EXACT_MAX:
        _lexicalize_exact(values, forbidden, current, total, pos)
    else:
        _lexicalize_swaps(values, forbidden, current, total, pos)
    return current


def solve_lap_max(w: WeightMatrix) -> Assignment:
    """Maximum-total-weight assignment avoiding all forbidden entries.

    Raises :class:`AssignmentError` when no perfect matching exists.  Among
    co-optimal assignments the lexicographically smallest mapping is
    returned (exactly for n <= LEX_EXACT_MAX, see module docstring).
    """
    mapping = _solve_masked(w.values, w.forbidden)
    if mapping is None:
        raise AssignmentError("no perfect matching avoids the forbidden entries")
    total = _total(w.values, mapping)
    mapping = _lexicalize(w.values, w.forbidden, mapping, total)
    return Assignment(mapping=tuple(int(c) for c in mapping),
                      total_weight=_total(w.values, mapping))


def brute_force_lap(w: WeightMatrix) -> Assignment:
    """Exhaustive oracle: enumerate every permutation, same tie-break.

    Permutations are generated in lexicographic order and only strictly
    better totals win, so the first of any co-optimal set (the
    lexicographically smallest mapping) is returned.  Totals are reduced
    with the same row-wise summation the solver uses, keeping tie
    comparisons bit-consistent.  Capped at n <= BRUTE_FORCE_MAX; work is
    chunked so peak memory stays modest even at the cap (10! rows).
    """
    n = w.n
    if n > BRUTE_FORCE_MAX:
        raise AssignmentError(f"oracle size cap is n <= {BRUTE_FORCE_MAX}, got {n}")
    rows = np.arange(n)
    stream = itertools.permutations(range(n))
    chunk_size = 200_000
    remaining = math.factorial(n)
    best_total = -np.inf
    best_mapping: np.ndarray | None = None
    while remaining:
        take = min(chunk_size, remaining)
        perms = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(stream, take)), dtype=np.int8,
            count=take * n).reshape(take, n)
        remaining -= take
        totals = w.values[rows, perms].sum(axis=1)
        totals[w.forbidden[rows, perms].any(axis=1)] = -np.inf
        top = int(np.argmax(totals))
        if totals[top] > best_total:
            best_total = float(totals[top])
            best_mapping = perms[top].astype(np.int64)
    if best_mapping is None or best_total == -np.inf:
        raise AssignmentError("no perfect matching avoids the forbidden entries")
    return Assignment(mapping=tuple(int(c) for c in best_mapping),
                      total_weight=_total(w.values, best_mapping))
