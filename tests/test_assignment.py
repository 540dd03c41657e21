"""Solver/oracle agreement, tie-breaking, forbidden-pair handling, and how
scipy's assignment kernel is loaded."""

from __future__ import annotations

import os
import subprocess
import sys
from importlib.machinery import ExtensionFileLoader, PathFinder
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import advmatch
from advmatch import assignment
from advmatch.assignment import (GRID_BITS, Assignment, AssignmentError, Duals,
                                 WeightMatrix, _grid_cost, _lexicalize,
                                 _quantize, _strong_components, solve_lap_max)
from advmatch.corpus import serialize_records

from conftest import multi_fold_corpus
from oracles import brute_force_lap, strong_components


def dense(rows):
    """The weight matrix of nested lists, with None on each forbidden pair."""
    n = len(rows)
    values = np.array(rows, dtype=np.float64).reshape(n, n)
    forbidden = np.isnan(values)
    values[forbidden] = 0.0
    return WeightMatrix(values=values, forbidden=forbidden)


def random_matrix(rng, n, forbid_p=0.0):
    """Random weights; feasibility guaranteed by keeping one permutation open."""
    values = rng.uniform(-1, 1, size=(n, n))
    forbidden = rng.random((n, n)) < forbid_p
    safe = rng.permutation(n)
    forbidden[np.arange(n), safe] = False
    return WeightMatrix(values=values, forbidden=forbidden)


def _has_perfect_matching(forbidden):
    match = maximum_bipartite_matching(csr_matrix(~forbidden), perm_type="column")
    return bool((match != -1).all())


class TestExamples:
    def test_dominant_diagonal(self):
        a = solve_lap_max(dense([[1, 0], [0, 1]]))
        assert a.mapping == (0, 1)
        assert a.total_weight == 2.0

    def test_only_feasible_matching(self):
        a = solve_lap_max(dense([[None, 1], [1, None]]))
        assert a.mapping == (1, 0)
        assert a.total_weight == 2.0

    def test_brute_single_cell(self):
        a = brute_force_lap(dense([[5]]))
        assert a.mapping == (0,)
        assert a.total_weight == 5.0

    def test_all_zero_tie_break_is_identity(self):
        for solver in (solve_lap_max, brute_force_lap):
            a = solver(dense([[0, 0, 0]] * 3))
            assert a.mapping == (0, 1, 2)
            assert a.total_weight == 0.0

    def test_two_by_two_enumeration(self):
        # enumerate by hand: identity = 0.9 + 0.05 = 0.95, swap = 0.1 + 0.8 = 0.9
        w = dense([[0.9, 0.1], [0.8, 0.05]])
        assert 0.9 + 0.05 > 0.1 + 0.8
        for solver in (brute_force_lap, solve_lap_max):
            a = solver(w)
            assert a.mapping == (0, 1)
            assert a.total_weight == 0.9 + 0.05

    def test_empty_matrix(self):
        w = dense([])
        assert solve_lap_max(w) == brute_force_lap(w) == Assignment(
            mapping=(), total_weight=0.0)

    def test_oracle_size_cap(self):
        w = WeightMatrix(values=np.zeros((11, 11)),
                         forbidden=np.zeros((11, 11), dtype=bool))
        with pytest.raises(AssignmentError, match="size cap"):
            brute_force_lap(w)


class TestFeasibility:
    def test_fully_forbidden_row_rejected(self):
        with pytest.raises(AssignmentError, match="row 1"):
            solve_lap_max(dense([[1, 2], [None, None]]))

    def test_fully_forbidden_column_rejected(self):
        with pytest.raises(AssignmentError, match="column 0"):
            solve_lap_max(dense([[None, 1], [None, 1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_allowed_weights_must_be_finite(self, bad):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        forbidden = np.array([[False, True], [True, False]])
        values[0, 0] = bad
        with pytest.raises(AssignmentError, match="allowed weights must be finite"):
            solve_lap_max(WeightMatrix(values=values, forbidden=forbidden))
        # the same weight on a forbidden entry is never read
        values = np.array([[1.0, bad], [3.0, 4.0]])
        a = solve_lap_max(WeightMatrix(values=values, forbidden=forbidden))
        assert a.mapping == (0, 1) and a.total_weight == 5.0

    @pytest.mark.parametrize("values, forbidden, message", [
        (np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), "must be square"),
        (np.zeros(4), np.zeros(4, dtype=bool), "must be square"),
        (np.zeros((2, 2)), np.zeros((2, 2)), "boolean array"),
        (np.zeros((2, 2)), np.zeros((3, 3), dtype=bool), "boolean array"),
    ], ids=["rectangular", "one-dimensional", "float-mask", "mask-shape"])
    def test_malformed_matrix_rejected(self, values, forbidden, message):
        with pytest.raises(AssignmentError, match=message):
            solve_lap_max(WeightMatrix(values=values, forbidden=forbidden))

    def test_no_perfect_matching(self):
        # rows 0 and 1 both need column 0; Hall condition fails
        w = dense([[1, None, None],
                   [1, None, None],
                   [1, 1, 1]])
        with pytest.raises(AssignmentError, match="no perfect matching"):
            solve_lap_max(w)
        with pytest.raises(AssignmentError, match="no perfect matching"):
            brute_force_lap(w)

    def test_mapping_avoids_forbidden(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = random_matrix(rng, 6, forbid_p=0.4)
            a = solve_lap_max(w)
            assert not w.forbidden[np.arange(6), list(a.mapping)].any()
            assert sorted(a.mapping) == list(range(6))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.9))
    def test_raises_exactly_without_a_perfect_matching(self, n, seed, forbid_p):
        rng = np.random.default_rng(seed)
        forbidden = rng.random((n, n)) < forbid_p
        # solve_lap_max rejects empty rows and columns; reopen one entry each
        for i in np.flatnonzero(forbidden.all(axis=1)):
            forbidden[i, rng.integers(n)] = False
        for j in np.flatnonzero(forbidden.all(axis=0)):
            forbidden[rng.integers(n), j] = False
        w = WeightMatrix(values=rng.integers(-3, 4, size=(n, n)).astype(np.float64),
                         forbidden=forbidden)
        if _has_perfect_matching(forbidden):
            a = solve_lap_max(w)
            assert not forbidden[np.arange(n), list(a.mapping)].any()
            assert sorted(a.mapping) == list(range(n))
        else:
            with pytest.raises(AssignmentError, match="no perfect matching"):
                solve_lap_max(w)


class TestOracleAgreement:
    def test_totals_and_mappings_agree(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            w = random_matrix(rng, n, forbid_p=float(rng.random() * 0.4))
            fast = solve_lap_max(w)
            slow = brute_force_lap(w)
            assert fast.total_weight == slow.total_weight
            assert fast.mapping == slow.mapping

    def test_tied_integer_matrices_agree_on_mapping(self):
        # small integer weights force many exact co-optima
        rng = np.random.default_rng(2)
        for trial in range(200):
            n = int(rng.integers(2, 7))
            values = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            w = WeightMatrix(values=values, forbidden=np.zeros((n, n), dtype=bool))
            fast = solve_lap_max(w)
            slow = brute_force_lap(w)
            assert fast.total_weight == slow.total_weight
            assert fast.mapping == slow.mapping


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
           st.integers(-8, 8), st.sampled_from(["row", "column"]))
    def test_row_shift_invariance(self, n, seed, shift_units, axis):
        # one row or one column shifted by c moves every perfect matching's
        # total by c, which is what the solver's column reduction relies
        # on; dyadic values keep the shifted sums exact
        rng = np.random.default_rng(seed)
        values = rng.integers(-64, 64, size=(n, n)) / 16.0
        w = WeightMatrix(values=values, forbidden=np.zeros((n, n), dtype=bool))
        base = solve_lap_max(w)
        c = shift_units / 4.0
        line = int(rng.integers(n))
        shifted_values = values.copy()
        if axis == "row":
            shifted_values[line] += c
        else:
            shifted_values[:, line] += c
        shifted = solve_lap_max(WeightMatrix(values=shifted_values,
                                             forbidden=np.zeros((n, n), dtype=bool)))
        assert shifted.mapping == base.mapping
        assert shifted.total_weight == base.total_weight + c

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_total_is_recomputable_from_mapping(self, n, seed):
        rng = np.random.default_rng(seed)
        w = random_matrix(rng, n, forbid_p=0.2)
        a = solve_lap_max(w)
        assert a.total_weight == float(
            w.values[np.arange(n), list(a.mapping)].sum())

    def test_large_tied_matrix_canonicalizes(self):
        # every mapping of an all-equal matrix is optimal; identity is the
        # lexicographically smallest
        n = 80
        w = WeightMatrix(values=np.zeros((n, n)),
                         forbidden=np.zeros((n, n), dtype=bool))
        a = solve_lap_max(w)
        assert a.mapping == tuple(range(n))


class TestQuantize:
    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_grid_is_finite_and_nonzero_at_extreme_magnitudes(self, scale):
        base = np.array([[1.0, -0.5, 0.25], [0.0, 1.0, -1.0], [0.75, 0.5, 0.125]])
        values = base * scale
        forbidden = np.zeros((3, 3), dtype=bool)
        q, _ = _quantize(values, forbidden)
        top = np.abs(q).max()
        assert np.isfinite(q).all() and (q == np.rint(q)).all()
        assert 0 < top and 3 * top <= 2.0 ** GRID_BITS
        assert np.allclose(q / top, base, rtol=1e-12, atol=0)
        w = WeightMatrix(values=values, forbidden=forbidden)
        assert solve_lap_max(w).mapping == brute_force_lap(w).mapping

    def test_forbidden_entries_do_not_set_the_scale(self):
        values = np.array([[1.0, 1e300], [0.5, 1.0]])
        forbidden = np.array([[False, True], [False, False]])
        q, _ = _quantize(values, forbidden)
        assert q[0, 1] == 0.0 and q[0, 0] == 2 * q[1, 0] > 0


def _solver_inputs(monkeypatch):
    """The cost matrices handed to scipy's solver, in call order."""
    seen = []
    real = assignment.linear_sum_assignment

    def spy(cost):
        seen.append(cost.copy())
        return real(cost)

    monkeypatch.setattr(assignment, "linear_sum_assignment", spy)
    return seen


class TestWarmStart:
    @pytest.mark.parametrize("factor", [4.0, 0.25])
    def test_grid_scale_changes_between_solves(self, monkeypatch, factor):
        # the second solve's weights are the first's, changed in places and
        # rescaled so that its grid has another s; the first solve's
        # potentials are rescaled to it and the mapping is the cold one
        rng = np.random.default_rng(31)
        n = 40
        values, forbidden = _tied_matrix(rng, n, 40, 0.2, unit=0.05)
        first = solve_lap_max(WeightMatrix(values=values, forbidden=forbidden))
        changed = (values + rng.integers(0, 3, size=(n, n)) * 0.05) * factor
        w = WeightMatrix(values=changed, forbidden=forbidden)
        cold = solve_lap_max(w)
        seen = _solver_inputs(monkeypatch)
        warm = solve_lap_max(w, first.duals)
        # larger weights, coarser grid
        assert (warm.duals.scale < first.duals.scale) == (factor > 1)
        assert warm.duals.scale != first.duals.scale
        assert warm == cold
        cost, _ = _grid_cost(changed, forbidden)
        assert not np.array_equal(seen[0], cost), "the cold costs were solved"
        allowed = seen[0][~forbidden]
        assert (allowed >= 0).all() and (allowed == np.rint(allowed)).all()
        assert n * allowed.max() <= 2.0 ** GRID_BITS
        assert np.isinf(seen[0][forbidden]).all()

    @pytest.mark.parametrize("lift", ["one-row", "overflowing"])
    def test_potentials_past_the_bound_leave_the_mapping(self, monkeypatch, lift):
        # one row lifted by 2**GRID_BITS makes the warm costs of the other
        # rows break n * max <= 2**GRID_BITS, so scipy gets the cold costs;
        # potentials pushed past float64's range are clipped, not warned of
        rng = np.random.default_rng(32)
        n = 30
        values, forbidden = _tied_matrix(rng, n, 3, 0.2)
        w = WeightMatrix(values=values, forbidden=forbidden)
        cold = solve_lap_max(w)
        cost, scale = _grid_cost(values, forbidden)
        rows = np.zeros(n)
        rows[0] = 2.0 ** GRID_BITS
        start = Duals(scale, rows) if lift == "one-row" else Duals(scale - 2000, rows)
        seen = _solver_inputs(monkeypatch)
        got = solve_lap_max(w, start)
        assert np.array_equal(seen[0], cost)
        assert got == cold

    def test_duals_are_feasible_and_tight_on_the_mapping(self):
        # with each column's smallest reduced cost as its potential, the row
        # potentials make every reduced cost >= 0 and 0 on the mapping
        rng = np.random.default_rng(33)
        values, forbidden = _tied_matrix(rng, 25, 5, 0.3)
        a = solve_lap_max(WeightMatrix(values=values, forbidden=forbidden))
        cost, scale = _grid_cost(values, forbidden)
        assert a.duals.scale == scale
        reduced = cost - a.duals.rows[:, None]
        reduced -= reduced.min(axis=0)
        rows = np.arange(25)
        assert (reduced[rows, list(a.mapping)] == 0).all()


def _reference_certify_accept(values, forbidden, current, total, i, j, pos):
    """Fix row i to column j and re-solve the later rows from scratch;
    accept when the float total is unchanged (exact on integer weights)."""
    n = len(current)
    if i + 1 >= n:
        return False
    rest_rows = np.arange(i + 1, n)
    rest_cols = np.array([c for c in current[i:] if c != j], dtype=np.int64)
    sub_forbidden = forbidden[np.ix_(rest_rows, rest_cols)]
    if not _has_perfect_matching(sub_forbidden):
        return False
    cost = -values[np.ix_(rest_rows, rest_cols)]
    cost[sub_forbidden] = np.inf
    cand = current.copy()
    cand[i] = j
    cand[i + 1:] = rest_cols[linear_sum_assignment(cost)[1]]
    if float(values[np.arange(n), cand].sum()) != total:
        return False
    current[:] = cand
    pos[current] = np.arange(n)
    return True


def _reference_lexicalize_exact(values, forbidden, mapping):
    """The certificate search: each row in turn takes the smallest column
    for which a sub-solve over the later rows keeps the optimal total."""
    n = len(mapping)
    current = mapping.copy()
    pos = np.empty(n, dtype=np.int64)
    pos[current] = np.arange(n)
    total = float(values[np.arange(n), current].sum())
    for i in range(n):
        for j in range(int(current[i])):
            if forbidden[i, j] or pos[j] <= i:
                continue
            if _reference_certify_accept(values, forbidden, current, total, i, j, pos):
                break
    return current


def _tied_matrix(rng, n, levels, forbid_p, unit=1.0):
    values = rng.integers(0, levels, size=(n, n)) * unit
    forbidden = rng.random((n, n)) < forbid_p
    forbidden[np.arange(n), rng.permutation(n)] = False
    return values, forbidden


class TestExactTieBreak:
    def test_equals_oracle_on_quantized_weights(self):
        # non-dyadic units put rounding on the grid: ties of W need not be
        # ties of Q, and the contract is stated on Q
        rng = np.random.default_rng(3)
        sizes = [int(n) for n in rng.integers(2, 9, size=300)] + [9, 9, 9, 10]
        for n in sizes:
            values, forbidden = _tied_matrix(
                rng, n, int(rng.choice([2, 3, 5])), float(rng.uniform(0, 0.5)),
                unit=float(rng.choice([1.0, 0.1, 1 / 3])))
            q, _ = _quantize(values, forbidden)
            got = solve_lap_max(WeightMatrix(values=values, forbidden=forbidden))
            want = brute_force_lap(WeightMatrix(values=q, forbidden=forbidden))
            assert got.mapping == want.mapping

    @settings(max_examples=12, deadline=None)
    @given(st.integers(65, 120), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([2, 3, 5]), st.floats(0.0, 0.3))
    def test_equals_the_certificate_search(self, n, seed, levels, forbid_p):
        rng = np.random.default_rng(seed)
        values, forbidden = _tied_matrix(rng, n, levels, forbid_p)
        cost, _ = _grid_cost(values, forbidden)
        start = linear_sum_assignment(cost)[1]
        want = _reference_lexicalize_exact(values, forbidden, start)
        assert _lexicalize(cost, start).tolist() == want.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 150), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([2, 3, 5]), st.floats(0.0, 0.5),
           st.sampled_from([1.0, 0.1]))
    def test_independent_of_which_optimum_the_solver_returns(
            self, n, seed, levels, forbid_p, unit):
        # lexicographic order is not relabelling-invariant, but the optimum
        # found on relabelled rows and columns, mapped back, is another
        # start from which the same mapping must come out
        rng = np.random.default_rng(seed)
        values, forbidden = _tied_matrix(rng, n, levels, forbid_p, unit)
        cost, _ = _grid_cost(values, forbidden)
        direct = linear_sum_assignment(cost)[1]
        p, q = rng.permutation(n), rng.permutation(n)
        back = np.empty(n, dtype=np.int64)
        back[p] = q[linear_sum_assignment(cost[np.ix_(p, q)])[1]]
        got = _lexicalize(cost, direct)
        assert got.tolist() == _lexicalize(cost, back).tolist()
        rows = np.arange(n)
        assert cost[rows, got].sum() == cost[rows, direct].sum()

    def test_only_edges_on_a_cycle_are_optimal(self):
        # the reversal mapping is the one optimum: its other zero-cost
        # entries form no cycle of the row graph.  Of the first third of the
        # rows (the heads), each but the last reaches the next head's
        # column; each later row reaches every head's column and every
        # lower later row's.  Without the strong-component filter every
        # tight edge would count as optimal.
        n = 60
        heads = range(n // 3)
        mapping = np.arange(n)[::-1].copy()
        cost = np.ones((n, n))
        cost[np.arange(n), mapping] = 0.0
        for r in heads[:-1]:
            cost[r, mapping[r + 1]] = 0.0
        for r in range(len(heads), n):
            cost[r, mapping[:r]] = 0.0
        assert np.count_nonzero(cost == 0.0) == 1659  # the tight edges
        rows, cols = assignment._optimal_edges(cost, mapping)
        assert rows.tolist() == list(range(n))
        assert cols.tolist() == mapping.tolist()
        assert _lexicalize(cost, mapping).tolist() == mapping.tolist()

    def test_rejects_a_start_that_is_not_optimal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(AssignmentError, match="not optimal"):
            _lexicalize(cost, np.array([1, 0]))


def _partition(label):
    """Each node's smallest fellow member: equal exactly for equal partitions."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def _components_agree(n, edges):
    edges = sorted(edges)
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    got = _strong_components(n, src, dst)
    assert got.shape == (n,)
    assert _partition(got).tolist() == _partition(strong_components(n, src, dst)).tolist()


class TestStrongComponents:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=3 * n))))
    def test_partition_matches_scipy(self, graph):
        # random digraphs, with repeated edges, self-loops and isolated nodes
        _components_agree(*graph)

    @pytest.mark.parametrize("n, edges", [
        (5, []),  # isolated nodes only
        (4, [(i, i) for i in range(4)]),  # self-loops only
        # deep enough that a recursive search would pass Python's limit
        (5000, [(i, (i + 1) % 5000) for i in range(5000)]),  # one long cycle
        (3000, [(i, i + 1) for i in range(2999)] + [(2000, 1000)]),
    ], ids=["isolated", "self-loops", "long-cycle", "chain-with-back-edge"])
    def test_partition_matches_scipy_on(self, n, edges):
        _components_agree(n, edges)


# Imports advmatch and runs a small match at jobs 1 and 2 on the corpus
# file argv[1], then prints which of scipy's heavy subpackages are loaded.
_LEAN_RUN = """
import sys
import advmatch
from advmatch.corpus import parse_records
from advmatch.matcher import MatchConfig

with open(sys.argv[1], "rb") as f:
    records = parse_records(f)
for jobs in (1, 2):
    advmatch.run_match(records, MatchConfig(seed=5, n_folds=3), jobs=jobs)
print(" ".join(m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg")
               if m in sys.modules))
"""


class TestKernelLoad:
    def test_is_scipys_public_function(self):
        import scipy.optimize

        assert assignment.linear_sum_assignment is scipy.optimize.linear_sum_assignment

    def test_falls_back_to_the_public_import(self, monkeypatch):
        import scipy.optimize

        real = PathFinder.find_spec

        def find_spec(name, path=None, target=None):
            return None if name == "scipy.optimize._lsap" else real(name, path, target)

        monkeypatch.setattr(PathFinder, "find_spec", find_spec)
        assert assignment._load_lsap() is scipy.optimize.linear_sum_assignment

    def test_match_leaves_scipy_optimize_unloaded(self, tmp_path):
        import scipy

        spec = PathFinder.find_spec(
            "scipy.optimize._lsap", [os.path.join(p, "optimize") for p in scipy.__path__])
        if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
            pytest.skip(f"scipy {scipy.__version__} has no compiled _lsap module, "
                        "so the solver comes from the scipy.optimize import")
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(multi_fold_corpus(n_keys=24)),
                          encoding="utf-8")
        src = str(Path(advmatch.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _LEAN_RUN, str(corpus)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
