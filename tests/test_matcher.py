"""Tradeoff weights, matching rounds, recycling guarantees, and MCQ export."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch.assignment import brute_force_lap
from advmatch.matcher import (MatchConfig, MatchingError, effective_similarity,
                              export_mcq, parse_items, run_rounds, weight_matrix,
                              write_items)
from advmatch.remap import CandidateTable
from advmatch.scoring import ScorerSpec, score_bucket

from conftest import simple_bucket_corpus

EPS = 1e-6


def random_scores(n, seed):
    rng = np.random.default_rng(seed)
    rel = rng.uniform(EPS, 1 - EPS, size=(n, n))
    sim = rng.uniform(EPS, 1 - EPS, size=(n, n))
    sim = np.minimum(sim, sim.T)
    np.fill_diagonal(sim, 1.0)
    return rel, sim


class TestConfig:
    def test_lambda_defaults_by_mode(self):
        cfg = MatchConfig(seed=0)
        assert cfg.resolved_lambda("qa") == 0.1
        assert cfg.resolved_lambda("qar") == 0.01

    def test_explicit_lambda_wins(self):
        assert MatchConfig(seed=0, lambda_=2.5).resolved_lambda("qa") == 2.5

    def test_validation(self):
        with pytest.raises(MatchingError, match="rounds"):
            MatchConfig(seed=0, rounds=0)
        with pytest.raises(MatchingError, match="lambda"):
            MatchConfig(seed=0, lambda_=0.0)
        with pytest.raises(MatchingError, match="target_size"):
            MatchConfig(seed=0, rounds=5, target_size=5)
        with pytest.raises(MatchingError, match="holdout"):
            MatchConfig(seed=0, n_folds=4, holdout_folds=(4,))

    @pytest.mark.parametrize("lam", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(MatchingError, match="lambda must be finite"):
            MatchConfig(seed=0, lambda_=lam)
        with pytest.raises(MatchingError, match="lambda must be finite"):
            MatchConfig(seed=0).with_lambda(lam)

    def test_holdout_defaults_to_two_highest(self):
        assert MatchConfig(seed=0, n_folds=11).resolved_holdout() == (9, 10)
        assert MatchConfig(seed=0, n_folds=1).resolved_holdout() == (0,)
        explicit = MatchConfig(seed=0, n_folds=11, holdout_folds=(0, 3))
        assert explicit.resolved_holdout() == (0, 3)


class TestEffectiveSimilarity:
    def test_empty_assignment_is_plain_sim(self):
        _, sim = random_scores(5, 0)
        eff = effective_similarity(sim, [set() for _ in range(5)])
        assert np.array_equal(eff, sim)

    def test_assigned_response_saturates(self):
        _, sim = random_scores(4, 1)
        eff = effective_similarity(sim, [{2}, set(), set(), set()])
        assert eff[0, 2] == 1.0  # sim[2][2] dominates the max

    def test_hand_evaluated_max(self):
        sim = np.array([[1.0, 0.5, 0.3],
                        [0.5, 1.0, 0.7],
                        [0.3, 0.7, 1.0]])
        eff = effective_similarity(sim, [{1}, set(), set()])
        # eff(0, 2) = max(sim[0][2]=0.3, sim[1][2]=0.7)
        assert eff[0, 2] == 0.7


class TestWeightMatrix:
    def test_near_zero_when_rel_high_and_sim_low(self):
        lam = 0.7
        rel = np.full((3, 3), 1 - EPS)
        eff = np.full((3, 3), EPS)
        w = weight_matrix(rel, eff, lam)
        off = ~w.forbidden
        assert (np.abs(w.values[off]) <= 2 * EPS * (1 + lam)).all()

    def test_scalar_hand_evaluation(self):
        w = weight_matrix(np.full((2, 2), 0.5), np.full((2, 2), 0.5), 0.1)
        expected = math.log(0.5) + 0.1 * math.log(1 - 0.5)  # = 1.1 * ln(1/2)
        assert w.values[0, 1] == pytest.approx(expected, rel=1e-12)
        assert round(expected, 5) == -0.76246

    def test_diagonal_forbidden(self):
        rel, sim = random_scores(6, 2)
        w = weight_matrix(rel, sim, 0.1)
        assert w.forbidden.diagonal().all()

    def test_saturated_similarity_forbidden(self):
        rel, sim = random_scores(4, 3)
        eff = effective_similarity(sim, [{1}, set(), set(), set()])
        w = weight_matrix(rel, eff, 0.1)
        assert w.forbidden[0, 1]

    def test_shape_mismatch(self):
        with pytest.raises(MatchingError, match="shape"):
            weight_matrix(np.full((2, 2), 0.5), np.full((3, 3), 0.5), 0.1)


class TestRunRounds:
    def test_minimal_bucket_forces_all_golds(self):
        bucket = simple_bucket_corpus(4, seed=4)
        rel, sim = score_bucket(bucket, ScorerSpec("overlap", eps=EPS),
                                ScorerSpec("overlap", eps=EPS))
        sets = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3))
        for i, dset in enumerate(sets):
            others = {r.id for r in bucket} - {bucket[i].id}
            assert {d.source_id for d in dset.distractors} == others

    def test_recycling_exact_on_100(self):
        bucket = simple_bucket_corpus(100, seed=5)
        rel, sim = random_scores(100, 6)
        sets = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3))
        counts = Counter(d.source_id for ds in sets for d in ds.distractors)
        assert set(counts.values()) == {3}
        for ds in sets:
            sources = [d.source_id for d in ds.distractors]
            assert ds.query_id not in sources
            assert len(set(sources)) == 3

    def test_rounds_are_sequentially_disjoint(self):
        bucket = simple_bucket_corpus(12, seed=7)
        rel, sim = random_scores(12, 8)
        sets = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=5))
        for ds in sets:
            assert [d.round_index for d in ds.distractors] == [1, 2, 3, 4, 5]

    def test_bucket_too_small(self):
        bucket = simple_bucket_corpus(3, seed=9)
        rel, sim = random_scores(3, 9)
        with pytest.raises(MatchingError, match="3 records"):
            run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3))

    def test_infeasible_round_is_named(self):
        # the saturated (0, 1) pair restricts columns 0 and 1 to rows 2/3;
        # round 1 consumes both, so round 2 has no home for column 0
        bucket = simple_bucket_corpus(4, seed=10)
        rel, _ = random_scores(4, 10)
        sim = np.full((4, 4), 0.2)
        sim[0, 1] = sim[1, 0] = 1.0
        np.fill_diagonal(sim, 1.0)
        with pytest.raises(MatchingError, match="round 2"):
            run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 14), k=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), lam=st.sampled_from([0.01, 0.1, 1.0]))
    def test_recycling_property(self, n, k, seed, lam):
        # across K rounds every response serves exactly K times, never for
        # its own query and never twice for the same query
        if n < k + 1:
            n = k + 1
        bucket = simple_bucket_corpus(n, seed=seed % 1000)
        rel, sim = random_scores(n, seed)
        cfg = MatchConfig(seed=0, rounds=k, lambda_=lam)
        sets = run_rounds(bucket, rel, sim, cfg)
        counts = Counter(d.source_id for ds in sets for d in ds.distractors)
        assert set(counts.values()) == {k}
        for ds in sets:
            sources = [d.source_id for d in ds.distractors]
            assert ds.query_id not in sources
            assert len(set(sources)) == k

    def test_candidate_table_texts_used(self):
        bucket = simple_bucket_corpus(5, seed=11)
        candidates = CandidateTable(bucket, p_reuse=0.5, seed=3)
        rel, sim = score_bucket(bucket, ScorerSpec("overlap", eps=EPS),
                                ScorerSpec("overlap", eps=EPS))
        sets = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=2),
                          candidates)
        index = {r.id: k for k, r in enumerate(bucket)}
        for i, ds in enumerate(sets):
            for d in ds.distractors:
                assert d.text == candidates.get([(i, index[d.source_id])])[0]


class TestLambdaTradeoff:
    def test_monotone_exchange_on_small_buckets(self):
        rng = np.random.default_rng(12)
        for trial in range(25):
            n = int(rng.integers(4, 9))
            rel = rng.uniform(0.05, 0.95, size=(n, n))
            sim = rng.uniform(0.05, 0.95, size=(n, n))
            sim = np.maximum(sim, sim.T)
            np.fill_diagonal(sim, 1.0)
            sums = {}
            for lam in (0.01, 1.0):
                a = brute_force_lap(weight_matrix(rel, sim, lam))
                rows = np.arange(n)
                cols = np.array(a.mapping)
                sums[lam] = (float(np.log(rel[rows, cols]).sum()),
                             float(np.log1p(-sim[rows, cols]).sum()))
            # higher lambda: more dissimilar (larger sum log(1-sim)),
            # at most as relevant
            assert sums[1.0][1] >= sums[0.01][1]
            assert sums[1.0][0] <= sums[0.01][0]


class TestExport:
    def _sets(self, n=20, seed=13, rounds=3):
        bucket = simple_bucket_corpus(n, seed=seed)
        rel, sim = random_scores(n, seed + 1)
        cfg = MatchConfig(seed=0, rounds=rounds)
        return bucket, run_rounds(bucket, rel, sim, cfg)

    @staticmethod
    def _items(sets, bucket, **kwargs):
        return parse_items(export_mcq(sets, bucket, **kwargs))

    def test_four_choices(self):
        bucket, sets = self._sets()
        items = self._items(sets, bucket, seed=21)
        assert all(len(it.choices) == 4 for it in items)
        assert all(len(it.provenance) == 4 for it in items)

    def test_same_seed_same_gold_indices(self):
        bucket, sets = self._sets()
        a = self._items(sets, bucket, seed=21)
        b = self._items(sets, bucket, seed=21)
        assert [i.gold_index for i in a] == [i.gold_index for i in b]
        assert a == b

    def test_gold_matches_provenance(self):
        bucket, sets = self._sets()
        for item in self._items(sets, bucket, seed=22):
            assert item.provenance[item.gold_index].kind == "gold"
            others = [p for k, p in enumerate(item.provenance) if k != item.gold_index]
            assert all(p.kind == "distractor" for p in others)

    def test_gold_index_uniform_chi_squared(self):
        # 10k items across seeds; chi^2 with 3 dof at p=0.01 is 11.345
        bucket, sets = self._sets(n=100, seed=14)
        counts = Counter()
        for seed in range(100):
            for item in self._items(sets, bucket, seed=seed):
                counts[item.gold_index] += 1
        total = sum(counts.values())
        assert total == 10_000
        expected = total / 4
        chi2 = sum((counts[k] - expected) ** 2 / expected for k in range(4))
        assert chi2 < 11.345

    def test_items_round_trip_jsonl(self):
        bucket, sets = self._sets(n=8, seed=15)
        lines = export_mcq(sets, bucket, seed=9, fold=2, bucket_id="f2:x:0")
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        items = parse_items(lines)
        assert write_items(items) == "".join(lines)
        assert [(it.fold, it.bucket_id) for it in items] == [(2, "f2:x:0")] * 8
