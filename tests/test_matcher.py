"""Tradeoff weights, matching rounds, recycling guarantees, and MCQ export."""

from __future__ import annotations

import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch import matcher
from advmatch.assignment import Assignment
from advmatch.corpus import Record, Token, parse_token_stream, tokens_to_text
from advmatch.matcher import (MatchConfig, MatchingError, export_mcq, parse_items,
                              run_rounds, weight_matrix, write_items)
from advmatch.remap import CandidateTable
from advmatch.scoring import ScorerSpec, score_bucket
from advmatch.seeding import derive_rng

from conftest import simple_bucket_corpus
from oracles import GoldTexts, brute_force_lap

EPS = 1e-6


def random_scores(n, seed):
    rng = np.random.default_rng(seed)
    rel = rng.uniform(EPS, 1 - EPS, size=(n, n))
    sim = rng.uniform(EPS, 1 - EPS, size=(n, n))
    sim = np.minimum(sim, sim.T)
    np.fill_diagonal(sim, 1.0)
    return rel, sim


def effective_similarity(sim, assigned):
    """The reference for the similarity ``run_rounds`` carries across rounds.

    ``eff[i][j] = max(sim[a][j] for a in {i} | assigned[i])``, computed from
    scratch; with nothing assigned this is ``sim`` itself.  An assigned
    response meets the unit diagonal and comes out as exactly 1.0.
    """
    eff = sim.copy()
    for i, cols in enumerate(assigned):
        for a in cols:
            eff[i] = np.maximum(eff[i], sim[a])
    return eff


class _CountingTable:
    """A candidate table that records the pairs of every ``get``."""

    def __init__(self, table):
        self.table = table
        self.calls = []

    def get(self, pairs):
        self.calls.append(np.asarray(pairs).tolist())
        return self.table.get(pairs)


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
        w = weight_matrix(np.log(rel), eff, lam)
        off = ~w.forbidden
        assert (np.abs(w.values[off]) <= 2 * EPS * (1 + lam)).all()

    def test_scalar_hand_evaluation(self):
        w = weight_matrix(np.log(np.full((2, 2), 0.5)), np.full((2, 2), 0.5), 0.1)
        expected = math.log(0.5) + 0.1 * math.log(1 - 0.5)  # = 1.1 * ln(1/2)
        assert w.values[0, 1] == pytest.approx(expected, rel=1e-12)
        assert round(expected, 5) == -0.76246

    def test_diagonal_forbidden(self):
        rel, sim = random_scores(6, 2)
        w = weight_matrix(np.log(rel), sim, 0.1)
        assert w.forbidden.diagonal().all()

    def test_saturated_similarity_forbidden(self):
        rel, sim = random_scores(4, 3)
        eff = effective_similarity(sim, [{1}, set(), set(), set()])
        w = weight_matrix(np.log(rel), eff, 0.1)
        assert w.forbidden[0, 1]

    def test_shape_mismatch(self):
        with pytest.raises(MatchingError, match="shape"):
            weight_matrix(np.log(np.full((2, 2), 0.5)), np.full((3, 3), 0.5), 0.1)


class TestRunRounds:
    def test_minimal_bucket_forces_all_golds(self):
        bucket = simple_bucket_corpus(4, seed=4)
        rel, sim = (m.values for m in score_bucket(
            bucket, MatchConfig(seed=0, eps=EPS), ScorerSpec("overlap"),
            ScorerSpec("overlap")))
        mappings, _ = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3),
                                 GoldTexts(bucket))
        for i, cols in enumerate(mappings.T.tolist()):
            assert set(cols) == set(range(len(bucket))) - {i}

    def test_recycling_exact_on_100(self):
        bucket = simple_bucket_corpus(100, seed=5)
        rel, sim = random_scores(100, 6)
        mappings, _ = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3),
                                 GoldTexts(bucket))
        assert mappings.shape == (3, 100)
        assert set(np.bincount(mappings.ravel(), minlength=100).tolist()) == {3}
        for i, cols in enumerate(mappings.T.tolist()):
            assert i not in cols
            assert len(set(cols)) == 3

    def test_rounds_are_sequentially_disjoint(self):
        bucket = simple_bucket_corpus(12, seed=7)
        rel, sim = random_scores(12, 8)
        mappings, texts = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=5),
                                     GoldTexts(bucket))
        assert mappings.shape == (5, 12)
        items = parse_items(export_mcq(bucket, mappings, texts, seed=0))
        for i, item in enumerate(items):
            picks = sorted((p.round_index, p.source_id)
                           for p in item.provenance if p.kind == "distractor")
            assert picks == [(t + 1, bucket[j].id)
                             for t, j in enumerate(mappings[:, i].tolist())]
            assert [t for t, _ in picks] == [1, 2, 3, 4, 5]

    def test_bucket_too_small(self):
        bucket = simple_bucket_corpus(3, seed=9)
        rel, sim = random_scores(3, 9)
        with pytest.raises(MatchingError, match="3 records"):
            run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3),
                       GoldTexts(bucket))

    def test_infeasible_round_is_named(self):
        # the saturated (0, 1) pair restricts columns 0 and 1 to rows 2/3;
        # round 1 consumes both, so round 2 has no home for column 0
        bucket = simple_bucket_corpus(4, seed=10)
        rel, _ = random_scores(4, 10)
        sim = np.full((4, 4), 0.2)
        sim[0, 1] = sim[1, 0] = 1.0
        np.fill_diagonal(sim, 1.0)
        with pytest.raises(MatchingError, match="round 2"):
            run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3),
                       GoldTexts(bucket))

    def test_invalid_assignment_names_the_records(self, monkeypatch):
        bucket = simple_bucket_corpus(5, seed=18)
        rel, sim = random_scores(5, 18)
        identity = Assignment(mapping=tuple(range(5)), total_weight=0.0)
        monkeypatch.setattr(matcher, "solve_lap_max", lambda w, start=None: identity)
        with pytest.raises(MatchingError,
                           match=r"round 1: invalid assignment r0000 -> r0000"):
            run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3),
                       GoldTexts(bucket))

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
        mappings, _ = run_rounds(bucket, rel, sim, cfg, GoldTexts(bucket))
        assert mappings.shape == (k, n)
        assert set(np.bincount(mappings.ravel(), minlength=n).tolist()) == {k}
        for i, cols in enumerate(mappings.T.tolist()):
            assert i not in cols
            assert len(set(cols)) == k

    def test_candidate_table_texts_used(self):
        bucket = simple_bucket_corpus(5, seed=11)
        candidates = CandidateTable(bucket, p_reuse=0.5, seed=3)
        rel, sim = (m.values for m in score_bucket(
            bucket, MatchConfig(seed=0, eps=EPS), ScorerSpec("overlap"),
            ScorerSpec("overlap")))
        mappings, texts = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=2),
                                     candidates)
        n = len(bucket)
        assert len(texts) == 2 * n
        for t, mapping in enumerate(mappings.tolist()):
            for i, j in enumerate(mapping):
                assert texts[t * n + i] == candidates.get([(i, j)])[0]

    def test_one_get_per_bucket_in_round_order(self):
        n, k = 9, 3
        bucket = simple_bucket_corpus(n, seed=16)
        rel, sim = random_scores(n, 17)
        table = _CountingTable(CandidateTable(bucket, p_reuse=0.5, seed=4))
        mappings, texts = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=k),
                                     table)
        assert len(table.calls) == 1
        # round 1's pairs for rows 0..n-1, then round 2's, and so on
        want = [[i, int(mappings[t, i])] for t in range(k) for i in range(n)]
        assert len(want) == k * n
        assert table.calls[0] == want
        assert texts == table.table.get(want)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 40), k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           lam=st.sampled_from([0.01, 0.1, 1.0]))
    def test_warm_started_rounds_equal_cold_solves(self, n, k, seed, lam):
        # tie-heavy scores: relevance at the eps floor or on a few levels,
        # similarity on a few symmetric levels; each round after the first
        # starts from the last round's duals and must give the mapping a
        # cold solve of the same weights gives
        n = max(n, k + 1)
        rng = np.random.default_rng(seed)
        rel = rng.choice([EPS, EPS, 0.25, 0.5, 1 - EPS], size=(n, n))
        sim = rng.choice([EPS, 0.3, 0.6], size=(n, n))
        sim = np.minimum(sim, sim.T)
        np.fill_diagonal(sim, 1.0)
        bucket = simple_bucket_corpus(n, seed=seed % 1000)
        solves = []
        real = matcher.solve_lap_max

        def spy(w, start=None):
            result = real(w, start)
            solves.append((w, start, result))
            return result

        with mock.patch.object(matcher, "solve_lap_max", spy):
            mappings, _ = run_rounds(bucket, rel, sim,
                                     MatchConfig(seed=0, rounds=k, lambda_=lam),
                                     GoldTexts(bucket))
        assert len(solves) == k
        for t, (w, start, result) in enumerate(solves):
            assert (start is None) == (t == 0)
            if t:
                assert start is solves[t - 1][2].duals
            assert result == real(w)
            assert list(result.mapping) == mappings[t].tolist()

    def test_nonpositive_relevance_rejected(self):
        bucket = simple_bucket_corpus(4, seed=5)
        rel, sim = random_scores(4, 5)
        rel[1, 2] = 0.0
        with pytest.raises(MatchingError, match="positive"):
            run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=3), GoldTexts(bucket))

    def test_carried_similarity_equals_the_reference(self, monkeypatch):
        seen = []
        original = matcher.weight_matrix

        def spy(rel, eff, lam):
            seen.append(eff.copy())  # run_rounds updates eff in place
            return original(rel, eff, lam)

        monkeypatch.setattr(matcher, "weight_matrix", spy)
        for n, k, seed in [(5, 4, 20), (12, 3, 21), (30, 5, 22)]:
            seen.clear()
            bucket = simple_bucket_corpus(n, seed=seed)
            rel, sim = random_scores(n, seed)
            mappings, _ = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=k),
                                     GoldTexts(bucket))
            assigned = [set() for _ in range(n)]
            assert len(seen) == k
            for t, eff in enumerate(seen):
                assert np.array_equal(eff, effective_similarity(sim, assigned))
                for i, j in enumerate(mappings[t].tolist()):
                    assigned[i].add(j)


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
                a = brute_force_lap(weight_matrix(np.log(rel), sim, lam))
                rows = np.arange(n)
                cols = np.array(a.mapping)
                sums[lam] = (float(np.log(rel[rows, cols]).sum()),
                             float(np.log1p(-sim[rows, cols]).sum()))
            # higher lambda: more dissimilar (larger sum log(1-sim)),
            # at most as relevant
            assert sums[1.0][1] >= sums[0.01][1]
            assert sums[1.0][0] <= sums[0.01][0]


class TestExport:
    def _rounds(self, n=20, seed=13, rounds=3):
        bucket = simple_bucket_corpus(n, seed=seed)
        rel, sim = random_scores(n, seed + 1)
        cfg = MatchConfig(seed=0, rounds=rounds)
        return bucket, run_rounds(bucket, rel, sim, cfg, GoldTexts(bucket))

    @staticmethod
    def _items(rounds, bucket, **kwargs):
        mappings, texts = rounds
        return parse_items(export_mcq(bucket, mappings, texts, **kwargs))

    def test_four_choices(self):
        bucket, rounds = self._rounds()
        items = self._items(rounds, bucket, seed=21)
        assert all(len(it.choices) == 4 for it in items)
        assert all(len(it.provenance) == 4 for it in items)

    def test_same_seed_same_gold_indices(self):
        bucket, rounds = self._rounds()
        a = self._items(rounds, bucket, seed=21)
        b = self._items(rounds, bucket, seed=21)
        assert [i.gold_index for i in a] == [i.gold_index for i in b]
        assert a == b

    def test_gold_matches_provenance(self):
        bucket, rounds = self._rounds()
        for item in self._items(rounds, bucket, seed=22):
            assert item.provenance[item.gold_index].kind == "gold"
            others = [p for k, p in enumerate(item.provenance) if k != item.gold_index]
            assert all(p.kind == "distractor" for p in others)

    def test_gold_index_uniform_chi_squared(self):
        # 10k items across seeds; chi^2 with 3 dof at p=0.01 is 11.345
        bucket, rounds = self._rounds(n=100, seed=14)
        counts = Counter()
        for seed in range(100):
            for item in self._items(rounds, bucket, seed=seed):
                counts[item.gold_index] += 1
        total = sum(counts.values())
        assert total == 10_000
        expected = total / 4
        chi2 = sum((counts[k] - expected) ** 2 / expected for k in range(4))
        assert chi2 < 11.345

    def test_choice_order_is_each_querys_shuffle_stream(self):
        bucket, (mappings, texts) = self._rounds(n=8, seed=16)
        n = len(bucket)
        items = self._items((mappings, texts), bucket, seed=5)
        assert [it.id for it in items] == [r.id for r in bucket]
        for i, item in enumerate(items):
            order = derive_rng(5, "shuffle", bucket[i].id).permutation(4).tolist()
            unshuffled = [tokens_to_text(bucket[i].gold), *texts[i::n]]
            assert [tokens_to_text(c) for c in item.choices] == [unshuffled[p] for p in order]

    def test_rounds_that_do_not_fit_the_bucket(self):
        bucket, (mappings, texts) = self._rounds(n=8, seed=17)
        with pytest.raises(MatchingError, match="bucket of 7 records"):
            export_mcq(bucket[:7], mappings, texts, seed=0)
        with pytest.raises(MatchingError, match="23 texts"):
            export_mcq(bucket, mappings, texts[:-1], seed=0)

    def test_items_round_trip_jsonl(self):
        bucket, rounds = self._rounds(n=8, seed=15)
        lines = export_mcq(bucket, *rounds, seed=9, fold=2, bucket_id="f2:x:0")
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        items = parse_items(lines)
        assert write_items(items) == "".join(lines)
        assert [(it.fold, it.bucket_id) for it in items] == [(2, "f2:x:0")] * 8
        # export writes no null round, so parse_items reads none
        line = lines[0].replace('"round":1}', '"round":null}')
        with pytest.raises(MatchingError, match="'round' must be an integer >= 1, got None"):
            parse_items([line])


# quotes, backslashes, controls, a line separator, non-BMP text and format
# characters, plus any character but a surrogate
_chars = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600",
                     "%", "{", "}"]),
    st.characters(exclude_categories=("Cs",)))
_names = st.text(_chars, max_size=6)
# a piece that parses back to one word token of the same text
_words = st.text(_chars, min_size=1, max_size=4).filter(
    lambda w: parse_token_stream(w) == (Token.word(w),))


@st.composite
def _export_bucket(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 6))
    pieces = st.one_of(_words, st.just("[person:1]"))

    def stream(min_size):
        return parse_token_stream(" ".join(draw(st.lists(pieces, min_size=min_size,
                                                           max_size=4))))

    ids = draw(st.lists(_names, min_size=n, max_size=n, unique=True))
    mode = draw(st.sampled_from(["qa", "qar"]))
    records = [Record(id=rid, source_key="m", query=stream(0), gold=stream(1),
                      objects=("person",), task_mode=mode) for rid in ids]
    return records, k


@settings(max_examples=60, deadline=None)
@given(_export_bucket(), st.one_of(st.none(), st.integers(0, 20)),
       st.one_of(st.none(), _names), st.integers(0, 2 ** 32))
def test_item_lines_are_compact_json_and_round_trip(bucket_k, fold, bucket_id, seed):
    bucket, k = bucket_k
    rel, sim = random_scores(len(bucket), seed)
    mappings, texts = run_rounds(bucket, rel, sim, MatchConfig(seed=0, rounds=k),
                                 CandidateTable(bucket, p_reuse=0.5, seed=seed))
    lines = export_mcq(bucket, mappings, texts, seed, fold=fold, bucket_id=bucket_id)
    assert write_items(parse_items(lines)) == "".join(lines)
    # the reference: compact json.dumps of each line's object, whose gold is
    # the record's gold text
    for record, line in zip(bucket, lines):
        obj = json.loads(line)
        assert line == json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
        assert obj["choices"][obj["gold_index"]] == tokens_to_text(record.gold)
