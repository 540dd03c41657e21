"""Solver/oracle agreement, tie-breaking, and forbidden-pair handling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from advmatch.assignment import (GRID_BITS, Assignment, AssignmentError,
                                 WeightMatrix, _grid_cost, _lexicalize,
                                 _quantize, solve_lap_max)

from oracles import brute_force_lap


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
    def test_fully_forbidden_row_rejected_at_construction(self):
        with pytest.raises(AssignmentError, match="row 1"):
            dense([[1, 2], [None, None]])

    def test_fully_forbidden_column_rejected(self):
        with pytest.raises(AssignmentError, match="column 0"):
            dense([[None, 1], [None, 1]])

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
        # WeightMatrix rejects empty rows and columns; reopen one entry each
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
        q = _quantize(values, forbidden)
        top = np.abs(q).max()
        assert np.isfinite(q).all() and (q == np.rint(q)).all()
        assert 0 < top and 3 * top <= 2.0 ** GRID_BITS
        assert np.allclose(q / top, base, rtol=1e-12, atol=0)
        w = WeightMatrix(values=values, forbidden=forbidden)
        assert solve_lap_max(w).mapping == brute_force_lap(w).mapping

    def test_forbidden_entries_do_not_set_the_scale(self):
        values = np.array([[1.0, 1e300], [0.5, 1.0]])
        forbidden = np.array([[False, True], [False, False]])
        q = _quantize(values, forbidden)
        assert q[0, 1] == 0.0 and q[0, 0] == 2 * q[1, 0] > 0


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
            q = _quantize(values, forbidden)
            got = solve_lap_max(WeightMatrix(values=values, forbidden=forbidden))
            want = brute_force_lap(WeightMatrix(values=q, forbidden=forbidden))
            assert got.mapping == want.mapping

    @settings(max_examples=12, deadline=None)
    @given(st.integers(65, 120), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([2, 3, 5]), st.floats(0.0, 0.3))
    def test_equals_the_certificate_search(self, n, seed, levels, forbid_p):
        rng = np.random.default_rng(seed)
        values, forbidden = _tied_matrix(rng, n, levels, forbid_p)
        cost = _grid_cost(values, forbidden)
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
        cost = _grid_cost(values, forbidden)
        direct = linear_sum_assignment(cost)[1]
        p, q = rng.permutation(n), rng.permutation(n)
        back = np.empty(n, dtype=np.int64)
        back[p] = q[linear_sum_assignment(cost[np.ix_(p, q)])[1]]
        got = _lexicalize(cost, direct)
        assert got.tolist() == _lexicalize(cost, back).tolist()
        rows = np.arange(n)
        assert cost[rows, got].sum() == cost[rows, direct].sum()

    def test_rejects_a_start_that_is_not_optimal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(AssignmentError, match="not optimal"):
            _lexicalize(cost, np.array([1, 0]))
