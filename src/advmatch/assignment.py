"""Maximum-weight linear assignment with forbidden pairs.

The solver returns the lexicographically smallest of the maximum-total
mappings of an integer grid copy of the weights, whichever optimum scipy's
shortest-augmenting-path solver happens to find:

* the allowed weights are quantized to ``Q = rint(W * 2**s)``, with ``s``
  chosen from n and max|W| so that n * max|Q| <= 2**50.  Every sum,
  potential and reduced cost below is then an integer computed exactly in
  float64, so co-optimality is decided exactly on the Q grid;
* forbidden entries are an explicit mask, handed to scipy as +inf costs;
  scipy raises exactly when no perfect matching avoids them;
* the costs are column-reduced before scipy sees them: each column's
  smallest allowed cost is subtracted, as in the initialisation of Jonker
  and Volgenant's solver.  That moves every perfect matching's total by the
  same constant, so the optimal mappings stay the same, and the costs stay
  integers that never grow;
* from the solver's optimum, dual potentials are recovered by Bellman-Ford.
  The tight edges that lie on an alternating cycle are exactly the edges of
  the optimal mappings, and the lexicographically smallest perfect matching
  among them is built row by row;
* the reported total is always the plain sum of the selected original
  entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# n * max|Q| <= 2**GRID_BITS keeps every cost, potential and reduced cost an
# integer below 2**52 in magnitude, so float64 holds each one exactly
GRID_BITS = 50


class AssignmentError(ValueError):
    """Raised for infeasible matrices or misuse of the solver contract."""


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


@dataclass(frozen=True)
class Assignment:
    """A perfect matching: mapping[i] is the column assigned to row i."""

    mapping: tuple[int, ...]
    total_weight: float


def _quantize(values: np.ndarray, forbidden: np.ndarray) -> np.ndarray:
    """Q = rint(W * 2**s) over the allowed entries (forbidden ones are 0).

    n < 2**n.bit_length() and max|W| < 2**e, so s = GRID_BITS - both
    exponents gives n * max|Q| <= 2**GRID_BITS.  ``ldexp`` applies s without
    forming 2**s, which would overflow for tiny weights.
    """
    q = np.where(forbidden, 0.0, values)
    top = float(np.abs(q).max())
    if top == 0.0:
        return q
    s = GRID_BITS - values.shape[0].bit_length() - int(np.frexp(top)[1])
    return np.rint(np.ldexp(q, s, out=q), out=q)


def _grid_cost(values: np.ndarray, forbidden: np.ndarray) -> np.ndarray:
    """The solver's integer costs, with +inf on forbidden entries.

    max(Q) - Q less each column's smallest allowed entry is each column's
    largest allowed Q minus Q.  Every column keeps an allowed entry, so the
    reduced costs of each column are finite, >= 0 and 0 somewhere.
    """
    q = _quantize(values, forbidden)
    q[forbidden] = -np.inf
    return np.subtract(q.max(axis=0), q, out=q)


def _optimal_edges(cost: np.ndarray, mapping: np.ndarray) -> np.ndarray:
    """allowed[r, c]: row r takes column c in some minimum-cost mapping.

    ``cost`` holds integer costs with +inf on forbidden entries, and
    ``mapping`` is a minimum-cost perfect matching of it.  Row r may take
    column c from its holder s at extra cost cost[r, c] - cost[r, m(r)], an
    edge r -> s of the row graph.  The shortest distances d <= 0 over that
    graph are dual potentials, and the edge is tight when its extra cost is
    d[s] - d[r].  Every optimal mapping uses tight edges only, and a tight
    edge is in one exactly when its two rows share a strong component of
    the tight graph.
    """
    n = len(mapping)
    rows = np.arange(n)
    pos = np.empty(n, dtype=np.int64)
    pos[mapping] = rows
    own = cost[rows, mapping]
    # Bellman-Ford from a virtual source, relaxing only the rows whose
    # distance moved in the last pass; n passes without settling mean a
    # negative cycle, that is a mapping that was not optimal
    dist = np.zeros(n)
    moved = rows
    for _ in range(n):
        reach = cost[moved]
        reach += (dist - own)[moved, None]
        reach = reach.min(axis=0)[mapping]
        moved = np.flatnonzero(reach < dist)
        if not moved.size:
            break
        dist[moved] = reach[moved]
    else:
        raise AssignmentError("internal error: the solver's mapping is not optimal")
    tight = cost + (dist - own)[:, None] == dist[pos]
    src, col = np.nonzero(tight)
    _, label = connected_components(
        csr_matrix((np.ones(len(src), dtype=np.bool_), (src, pos[col])), shape=(n, n)),
        directed=True, connection="strong")
    cut = label[src] != label[pos[col]]
    tight[src[cut], col[cut]] = False
    return tight


def _lexicalize(cost: np.ndarray, mapping: np.ndarray) -> np.ndarray:
    """The lexicographically smallest minimum-cost mapping, from any one.

    Row by row, a row takes the smallest column of its optimal edges that
    the later rows can give up along a chain of such edges, found by one
    reverse search.  Only rows with such a column below their own are
    visited.
    """
    allowed = _optimal_edges(cost, mapping)
    n = len(mapping)
    rows = np.arange(n)
    current = mapping.copy()
    pos = np.empty(n, dtype=np.int64)
    pos[current] = rows
    flagged = (allowed & (rows[None, :] < current[:, None])).any(axis=1)
    i = -1
    while True:
        ahead = np.flatnonzero(flagged[i + 1:])
        if not ahead.size:
            return current
        i += 1 + int(ahead[0])
        old = int(current[i])
        cands = np.flatnonzero(allowed[i, :old])
        cands = cands[pos[cands] > i]
        if not cands.size:
            continue
        # Reverse search from column `old`: a later row that may take a
        # freed column frees its own.  Row i may take every freed column;
        # stop once the smallest candidate is freed.
        freed = np.zeros(n, dtype=np.bool_)
        freed[old] = True
        parent = np.empty(n, dtype=np.int64)  # column a freed row moves to
        movable = rows > i
        layer = np.array([old])
        while layer.size and not freed[cands[0]]:
            takes = allowed[:, layer] & movable[:, None]
            movers = np.flatnonzero(takes.any(axis=1))
            parent[movers] = layer[takes[movers].argmax(axis=1)]
            movable[movers] = False
            layer = current[movers]
            freed[layer] = True
        hits = cands[freed[cands]]
        if not hits.size:
            continue
        # rotate: row i takes the best column, its holder takes the column
        # it was freed by, and so on back to `old`
        col = int(hits[0])
        r = int(pos[col])
        current[i], pos[col] = col, i
        path = []
        while col != old:
            col, nxt = int(parent[r]), int(pos[parent[r]])
            current[r], pos[col] = col, r
            path.append(r)
            r = nxt
        path = np.array(path)
        flagged[path] = (allowed[path] & (rows[None, :] < current[path, None])).any(axis=1)


def solve_lap_max(w: WeightMatrix) -> Assignment:
    """Maximum-total-weight assignment avoiding all forbidden entries.

    Raises :class:`AssignmentError` when no perfect matching exists.  The
    mapping is the lexicographically smallest of the maximum-total mappings
    of the quantized weights (see module docstring).
    """
    if w.n == 0:
        return Assignment(mapping=(), total_weight=0.0)
    cost = _grid_cost(w.values, w.forbidden)
    try:
        mapping = linear_sum_assignment(cost)[1]
    except ValueError as exc:  # scipy: "cost matrix is infeasible"
        raise AssignmentError("no perfect matching avoids the forbidden entries") from exc
    mapping = _lexicalize(cost, mapping)
    return Assignment(mapping=tuple(int(c) for c in mapping),
                      total_weight=float(w.values[np.arange(w.n), mapping].sum()))
