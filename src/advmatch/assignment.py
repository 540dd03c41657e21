"""Maximum-weight linear assignment with forbidden pairs.

The solver returns the lexicographically smallest of the maximum-total
mappings of an integer grid copy of the weights, whichever optimum scipy's
shortest-augmenting-path solver happens to find:

* the allowed weights are quantized to ``Q = rint(W * 2**s)``, with ``s``
  chosen from n and max|W| so that n * max|Q| <= 2**50.  Every sum,
  potential and reduced cost below is then an integer computed exactly in
  float64, so co-optimality is decided exactly on the Q grid;
* forbidden entries are an explicit mask, handed to scipy as +inf costs;
  their values are never read (:func:`_quantize` zeroes them);
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

A solve may start from the previous solve's row potentials, in the weights'
own units (``Assignment.duals``, which ``matcher.run_rounds`` hands from
one round to the next).  scipy then sees the grid costs less those
potentials, scaled to this grid by ``2**s`` and floored, and column-reduced
again.  Only the row potentials carry over: the column reduction subtracts,
for those rows, the best column potentials there are, whatever the old ones
were.  Row and column constants move every perfect matching's total by the
same amount, so scipy's optimal mappings are the cold costs' optimal
mappings, only nearer the start of its search when the weights changed
little.  Bellman-Ford and the tie-break still run on the cold costs, so the
mapping is the same as from a cold solve.  The warm costs are integers >= 0;
where their largest allowed entry would break ``n * max <= 2**GRID_BITS``,
the cold costs are handed to scipy instead.

:func:`solve_lap_max` checks each :class:`WeightMatrix` it solves, and no
copy of the weights is made to do so.

scipy's ``linear_sum_assignment`` is the one scipy routine used.  It is
loaded from its compiled module alone (:func:`_load_lsap`), so that no
command pays for ``scipy.optimize``'s package init.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec
from typing import Callable

import numpy as np


def _load_lsap() -> Callable:
    """scipy's ``linear_sum_assignment``, without importing ``scipy.optimize``.

    ``scipy.optimize/__init__.py`` also loads scipy.linalg, scipy.sparse and
    the array-API shims, which take most of a command's start-up time and
    memory.  Where the solver is a compiled module of its own
    (``scipy/optimize/_lsap``, an extension module on recent scipy), that
    module is loaded directly and registered under its own name, so a later
    ``import scipy.optimize`` reuses it and exports the same function.  On
    any other layout the public import is used.
    """
    import scipy

    name = "scipy.optimize._lsap"
    spec = PathFinder.find_spec(
        name, [os.path.join(p, "optimize") for p in scipy.__path__])
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        from scipy.optimize import linear_sum_assignment as public
        return public
    module = sys.modules.get(name)
    if module is None:
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.linear_sum_assignment


linear_sum_assignment = _load_lsap()

# n * max|Q| <= 2**GRID_BITS keeps every cost, potential and reduced cost an
# integer below 2**52 in magnitude, so float64 holds each one exactly
GRID_BITS = 50


class AssignmentError(ValueError):
    """Raised for infeasible matrices or misuse of the solver contract."""


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Square weights and a boolean forbidden mask, checked by
    :func:`solve_lap_max`, their one reader."""

    values: np.ndarray
    forbidden: np.ndarray


@dataclass(frozen=True)
class Assignment:
    """A perfect matching: mapping[i] is the column assigned to row i.

    ``duals`` (None from a 0x0 matrix), the row potentials of an optimal
    dual in the weights' units, can start the next solve of the same rows;
    it takes no part in equality.
    """

    mapping: tuple[int, ...]
    total_weight: float
    duals: np.ndarray | None = field(default=None, compare=False, repr=False)


def _quantize(values: np.ndarray, forbidden: np.ndarray) -> tuple[np.ndarray, int]:
    """``(Q, s)``: Q = rint(W * 2**s) over the allowed entries (forbidden
    ones are 0), and s, which is 0 when every allowed weight is.

    n < 2**n.bit_length() and max|W| < 2**e, so s = GRID_BITS - both
    exponents gives n * max|Q| <= 2**GRID_BITS.  ``ldexp`` applies s without
    forming 2**s, which would overflow for tiny weights.  A max|W| that is
    not finite raises :class:`AssignmentError`.
    """
    q = np.where(forbidden, 0.0, values)
    top = float(np.abs(q).max())
    if not np.isfinite(top):
        raise AssignmentError("allowed weights must be finite")
    if top == 0.0:
        return q, 0
    s = GRID_BITS - values.shape[0].bit_length() - int(np.frexp(top)[1])
    return np.rint(np.ldexp(q, s, out=q), out=q), s


def _grid_cost(values: np.ndarray, forbidden: np.ndarray) -> tuple[np.ndarray, int]:
    """The solver's integer costs, with +inf on forbidden entries, and the
    grid's s.

    max(Q) - Q less each column's smallest allowed entry is each column's
    largest allowed Q minus Q.  Every column keeps an allowed entry, so the
    reduced costs of each column are finite, >= 0 and 0 somewhere.
    """
    q, s = _quantize(values, forbidden)
    q[forbidden] = -np.inf
    return np.subtract(q.max(axis=0), q, out=q), s


def _warm_cost(cost: np.ndarray, scale: int, forbidden: np.ndarray,
               start: np.ndarray) -> np.ndarray:
    """``cost`` less the row potentials ``start`` scaled to this grid, then
    column-reduced; ``cost`` itself where that breaks the grid's bound.

    The scaled potentials are floored and clipped to [0, 2**GRID_BITS]
    (any row constants keep the optimal mappings), so every step is exact
    integer arithmetic in float64.
    """
    with np.errstate(over="ignore"):
        shift = np.ldexp(start, scale)
    np.clip(np.floor(shift, out=shift), 0.0, 2.0 ** GRID_BITS, out=shift)
    warm = cost - shift[:, None]
    warm -= warm.min(axis=0)
    # forbidden entries stay +inf: the bound holds when no other entry
    # passes it
    over = np.count_nonzero(warm > 2 ** GRID_BITS // cost.shape[0])
    return warm if over == np.count_nonzero(forbidden) else cost


def _strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Label the nodes 0..n-1 of a digraph by strong component.

    The edges are ``src[e] -> dst[e]`` with ``src`` sorted ascending.  Two
    nodes get the same label exactly when each reaches the other.  Tarjan's
    (1972) search, iterative: ``low[v]`` is the earliest node still on the
    stack that v's subtree reaches, and v roots a component when that is v.
    """
    starts = np.searchsorted(src, np.arange(n + 1)).tolist()
    heads = dst.tolist()
    order = [-1] * n  # visiting order, -1 before the visit
    low = [0] * n
    label = [-1] * n  # -1 while visited nodes sit on the stack
    stack: list[int] = []
    visited = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [[root, starts[root]]]  # each node and its next edge
        while path:
            top = path[-1]
            v, e = top
            if e < starts[v + 1]:
                top[1] = e + 1
                w = heads[e]
                if order[w] < 0:
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append([w, starts[w]])
                elif label[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
                continue
            path.pop()
            if path and low[v] < low[path[-1][0]]:
                low[path[-1][0]] = low[v]
            if low[v] == order[v]:
                while True:
                    w = stack.pop()
                    label[w] = v
                    if w == v:
                        break
    return np.array(label, dtype=np.int64)


def _optimal_edges(cost: np.ndarray, mapping: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(rows, cols, potential)``: the edges r -> c such that row r takes
    column c in some minimum-cost mapping, in row-major order, and the row
    potentials of an optimal dual.

    ``cost`` holds integer costs with +inf on forbidden entries, and
    ``mapping`` is a minimum-cost perfect matching of it.  Row r may take
    column c from its holder s at extra cost cost[r, c] - cost[r, m(r)], an
    edge r -> s of the row graph.  The shortest distances d <= 0 over that
    graph are dual potentials, and the edge is tight when its extra cost is
    d[s] - d[r].  Every optimal mapping uses tight edges only, and a tight
    edge is in one exactly when its two rows share a strong component of
    the tight graph.  The row potentials of that dual are ``own - d`` (the
    column potentials are ``d`` of each column's holder).
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
    dst = pos[col]
    label = _strong_components(n, src, dst)
    keep = label[src] == label[dst]
    return src[keep], col[keep], own - dist


def _lexicalize(cost: np.ndarray, mapping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographically smallest minimum-cost mapping, from any one,
    and :func:`_optimal_edges`' row potentials.

    Row by row, a row takes the smallest column of its optimal edges that
    the later rows can give up along a chain of such edges, found by one
    reverse search over the edge lists.  Only rows with such a column below
    their own are visited.
    """
    edge_row, edge_col, potential = _optimal_edges(cost, mapping)
    n = len(mapping)
    row_start = np.searchsorted(edge_row, np.arange(n + 1))
    # a row is flagged while its smallest optimal column is below its own
    # (each row has one: its own column)
    flagged = (edge_col[row_start[:-1]] < mapping).tolist()
    if not any(flagged):
        return mapping.copy(), potential
    # each row's optimal columns and each column's optimal rows, ascending
    row_start = row_start.tolist()
    cols_of = edge_col.tolist()
    by_col = np.argsort(edge_col, kind="stable")
    col_start = np.searchsorted(edge_col[by_col], np.arange(n + 1)).tolist()
    rows_of = edge_row[by_col].tolist()
    current = mapping.tolist()
    pos = [0] * n
    for r, c in enumerate(current):
        pos[c] = r
    for i in range(n):
        if not flagged[i]:
            continue
        old = current[i]
        cands = [c for c in cols_of[row_start[i]:row_start[i + 1]]
                 if c < old and pos[c] > i]
        if not cands:
            continue
        # Reverse search from column `old`: a later row that may take a
        # freed column frees its own.  Row i may take every freed column;
        # stop once the smallest candidate is freed.
        parent = {}  # column a freed row moves to
        freed = {old}
        layer = [old]
        while layer and cands[0] not in freed:
            nxt = []
            for c in layer:
                for r in rows_of[col_start[c]:col_start[c + 1]]:
                    if r > i and r not in parent:
                        parent[r] = c
                        nxt.append(current[r])
            freed.update(nxt)
            layer = nxt
        col = next((c for c in cands if c in freed), None)
        if col is None:
            continue
        # rotate: row i takes the best column, its holder takes the column
        # it was freed by, and so on back to `old`
        r = pos[col]
        current[i], pos[col] = col, i
        while col != old:
            col, nxt_r = parent[r], pos[parent[r]]
            current[r], pos[col] = col, r
            flagged[r] = cols_of[row_start[r]] < col
            r = nxt_r
    return np.array(current, dtype=np.int64), potential


def solve_lap_max(w: WeightMatrix, start: np.ndarray | None = None) -> Assignment:
    """Maximum-total-weight assignment avoiding all forbidden entries.

    Raises :class:`AssignmentError` when ``w`` is not square, its mask is
    not a boolean array of its shape, a row or column has no allowed entry
    (necessary for a perfect matching), an allowed weight is not finite, or
    no perfect matching exists.  The mapping is the lexicographically
    smallest of the maximum-total mappings of the quantized weights (see
    module docstring), with or without ``start``, the ``duals`` of an
    earlier solve of the same rows.
    """
    values, forbidden = w.values, w.forbidden
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise AssignmentError(f"weight matrix must be square, got shape {values.shape}")
    if forbidden.shape != values.shape or forbidden.dtype != np.bool_:
        raise AssignmentError("forbidden mask must be a boolean array matching values")
    n = len(values)
    if n == 0:
        return Assignment(mapping=(), total_weight=0.0)
    for axis, name in ((1, "row"), (0, "column")):
        closed = np.flatnonzero(forbidden.all(axis=axis))
        if closed.size:
            raise AssignmentError(f"{name} {closed[0]} has no allowed entries")
    cost, scale = _grid_cost(values, forbidden)
    try:
        mapping = linear_sum_assignment(
            cost if start is None else _warm_cost(cost, scale, forbidden, start))[1]
    except ValueError as exc:  # scipy: "cost matrix is infeasible"
        raise AssignmentError("no perfect matching avoids the forbidden entries") from exc
    mapping, potential = _lexicalize(cost, mapping)
    return Assignment(mapping=tuple(int(c) for c in mapping),
                      total_weight=float(values[np.arange(n), mapping].sum()),
                      duals=np.ldexp(potential, -scale))
