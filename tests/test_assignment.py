"""Solver/oracle agreement, tie-breaking, and forbidden-pair handling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch.assignment import (FORBIDDEN, LEX_EXACT_MAX, AssignmentError,
                                 WeightMatrix, _lexicalize_swaps, _solve_masked,
                                 brute_force_lap, solve_lap_max)


def dense(rows):
    return WeightMatrix.from_rows(rows)


def random_matrix(rng, n, forbid_p=0.0):
    """Random weights; feasibility guaranteed by keeping one permutation open."""
    values = rng.uniform(-1, 1, size=(n, n))
    forbidden = rng.random((n, n)) < forbid_p
    safe = rng.permutation(n)
    forbidden[np.arange(n), safe] = False
    return WeightMatrix(values=values, forbidden=forbidden)


class TestExamples:
    def test_dominant_diagonal(self):
        a = solve_lap_max(dense([[1, 0], [0, 1]]))
        assert a.mapping == (0, 1)
        assert a.total_weight == 2.0

    def test_only_feasible_matching(self):
        a = solve_lap_max(dense([[FORBIDDEN, 1], [1, FORBIDDEN]]))
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

    def test_oracle_size_cap(self):
        w = WeightMatrix(values=np.zeros((11, 11)),
                         forbidden=np.zeros((11, 11), dtype=bool))
        with pytest.raises(AssignmentError, match="size cap"):
            brute_force_lap(w)


class TestFeasibility:
    def test_fully_forbidden_row_rejected_at_construction(self):
        with pytest.raises(AssignmentError, match="row 1"):
            dense([[1, 2], [FORBIDDEN, FORBIDDEN]])

    def test_fully_forbidden_column_rejected(self):
        with pytest.raises(AssignmentError, match="column 0"):
            dense([[FORBIDDEN, 1], [FORBIDDEN, 1]])

    def test_no_perfect_matching(self):
        # rows 0 and 1 both need column 0; Hall condition fails
        w = dense([[1, FORBIDDEN, FORBIDDEN],
                   [1, FORBIDDEN, FORBIDDEN],
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
           st.integers(-8, 8))
    def test_row_shift_invariance(self, n, seed, shift_units):
        # dyadic values keep the shifted sums exact
        rng = np.random.default_rng(seed)
        values = rng.integers(-64, 64, size=(n, n)) / 16.0
        w = WeightMatrix(values=values, forbidden=np.zeros((n, n), dtype=bool))
        base = solve_lap_max(w)
        c = shift_units / 4.0
        row = int(rng.integers(n))
        shifted_values = values.copy()
        shifted_values[row] += c
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

    def test_sentinel_repr(self):
        assert repr(FORBIDDEN) == "FORBIDDEN"

    def test_large_tied_matrix_canonicalizes(self):
        # above the exact-certificate cap the swap sweep still restores
        # identity on an all-equal matrix
        n = 80
        w = WeightMatrix(values=np.zeros((n, n)),
                         forbidden=np.zeros((n, n), dtype=bool))
        a = solve_lap_max(w)
        assert a.mapping == tuple(range(n))


def _reference_swap_accept(values, forbidden, current, total, i, j, pos):
    r = int(pos[j])
    old = int(current[i])
    if forbidden[i, j] or forbidden[r, old]:
        return False
    cand = current.copy()
    cand[i], cand[r] = j, old
    if float(values[np.arange(len(cand)), cand].sum()) != total:
        return False
    current[i], current[r] = j, old
    pos[j], pos[old] = i, r
    return True


def _reference_lexicalize_swaps(values, forbidden, current, total, pos):
    """The per-row scan the swap tie-break is defined by: every row in turn
    rescans its smaller columns after each accepted swap."""
    n = len(current)
    for i in range(n):
        while True:
            ci = int(current[i])
            if ci == 0:
                break
            old = ci
            cols = np.arange(ci)
            holders = pos[cols]
            delta = (values[i, cols] + values[holders, old]
                     - values[i, old] - values[holders, cols])
            ok = ((delta == 0.0) & (holders > i)
                  & ~forbidden[i, cols] & ~forbidden[holders, old])
            accepted = False
            for j in np.nonzero(ok)[0]:
                if _reference_swap_accept(values, forbidden, current, total,
                                          i, int(j), pos):
                    accepted = True
                    break
            if not accepted:
                break


class TestSwapTieBreak:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(LEX_EXACT_MAX + 1, 200), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([2, 3, 5]), st.floats(0.0, 0.3), st.booleans())
    def test_equals_the_per_row_scan(self, n, seed, levels, forbid_p, solved):
        # small-integer weights make zero-delta swaps common
        rng = np.random.default_rng(seed)
        values = rng.integers(0, levels, size=(n, n)).astype(np.float64)
        forbidden = rng.random((n, n)) < forbid_p
        safe = rng.permutation(n)
        forbidden[np.arange(n), safe] = False
        mapping = _solve_masked(values, forbidden) if solved else safe
        total = float(values[np.arange(n), mapping].sum())
        runs = []
        for lexicalize in (_lexicalize_swaps, _reference_lexicalize_swaps):
            current = mapping.copy()
            pos = np.empty(n, dtype=np.int64)
            pos[current] = np.arange(n)
            lexicalize(values, forbidden, current, total, pos)
            runs.append((current, pos))
        (got, got_pos), (want, want_pos) = runs
        assert got.tolist() == want.tolist()
        assert got_pos.tolist() == want_pos.tolist()
