"""Attacker accuracy, frequency-prior probe, and the lambda sweep."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from advmatch.corpus import parse_token_stream as pts
from advmatch.diagnostics import (DiagnosticsError, _matched_means,
                                  canonical_choice_text, format_sweep_csv,
                                  format_sweep_table, frequency_prior_probe,
                                  lambda_sweep)
from advmatch.matcher import MatchConfig, MCQItem, Provenance, parse_items
from advmatch.pipeline import PipelineError, run_match
from advmatch.scoring import ScorerSpec, score_bucket

from conftest import multi_fold_corpus, simple_bucket_corpus, trend_corpus
from oracles import machine_accuracy


def make_item(i, gold_index=0, choice_texts=None, query="why is [person:1] busy ?"):
    texts = choice_texts or [f"choice {i} number {k} ." for k in range(4)]
    prov = [Provenance("distractor", f"src{k}", 1) for k in range(4)]
    prov[gold_index] = Provenance("gold")
    return MCQItem(
        id=f"it{i:04d}", query=pts(query),
        choices=tuple(pts(t) for t in texts),
        gold_index=gold_index, provenance=tuple(prov), task_mode="qa",
        fold=0, bucket_id="f0:b:0")


class TestMachineAccuracy:
    def test_perfectly_separable(self):
        items = [make_item(i, gold_index=i % 4,
                           choice_texts=[("gold text ." if k == i % 4
                                          else f"wrong {i} {k} .")
                                         for k in range(4)])
                 for i in range(20)]

        def scorer(query, choice):
            return 1.0 if "gold" in {t.text for t in choice} else 0.0

        assert machine_accuracy(items, scorer) == 1.0

    def test_constant_scorer_scores_zero(self):
        items = [make_item(i, gold_index=i % 4) for i in range(10)]
        assert machine_accuracy(items, lambda q, c: 0.4) == 0.0

    def test_random_scorer_near_chance(self):
        rng = np.random.default_rng(0)
        items = [make_item(i, gold_index=int(rng.integers(4))) for i in range(10_000)]
        rng2 = np.random.default_rng(1)
        acc = machine_accuracy(items, lambda q, c: float(rng2.random()))
        assert acc == pytest.approx(0.25, abs=0.02)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        items = [make_item(i, gold_index=int(rng.integers(4))) for i in range(300)]

        def base(query, choice):
            return (hash(" ".join(t.text for t in choice)) % 997) / 997

        acc1 = machine_accuracy(items, base)
        acc2 = machine_accuracy(items, lambda q, c: 3.0 * base(q, c) ** 3 + 1.0)
        assert acc1 == acc2

    def test_empty_rejected(self):
        with pytest.raises(DiagnosticsError):
            machine_accuracy([], lambda q, c: 0.0)


class TestFrequencyPriorProbe:
    def test_single_item_is_zero_or_one(self):
        item = make_item(0, gold_index=2)
        assert frequency_prior_probe([item], [item]) in (0.0, 1.0)

    def test_text_probe_on_repeated_golds(self):
        # same four texts everywhere; gold always the same text -> probe nails it
        texts = ["alpha .", "beta .", "gamma .", "delta ."]
        items = []
        for i in range(40):
            order = np.random.default_rng(i).permutation(4)
            shuffled = [texts[int(k)] for k in order]
            items.append(make_item(i, int(np.nonzero(order == 0)[0][0]), shuffled))
        assert frequency_prior_probe(items, items) == 1.0

    def test_ties_predict_first_choice(self):
        # same four texts in every item, each gold exactly once: all rates
        # tie at 1/4, so the probe always predicts index 0
        texts = ["alpha .", "beta .", "gamma .", "delta ."]
        items = [make_item(i, gold_index=i, choice_texts=texts) for i in range(4)]
        assert frequency_prior_probe(items, items) == 0.25

    def test_unseen_texts_rate_zero(self):
        train = [make_item(0, gold_index=2)]
        eval_items = [make_item(9, gold_index=0, choice_texts=[f"new {k} ." for k in range(4)]),
                      make_item(8, gold_index=3, choice_texts=[f"other {k} ." for k in range(4)])]
        # all-zero rates tie; prediction falls on the first choice
        assert frequency_prior_probe(train, eval_items) == 0.5

    def test_canonical_text_collapses_tags(self):
        assert canonical_choice_text(pts("[person:3] lifts [cup:1] .")) == "person lifts cup ."


class TestLambdaSweep:
    def test_single_point_single_row(self):
        records = simple_bucket_corpus(12, seed=1)
        cfg = MatchConfig(seed=5, n_folds=1, target_size=100)
        rows = lambda_sweep(records, [0.1], cfg)
        assert len(rows) == 1
        assert rows[0].lambda_ == 0.1
        assert np.isfinite([rows[0].machine_accuracy,
                            rows[0].mean_gold_distractor_similarity,
                            rows[0].mean_distractor_relevance]).all()

    def test_rows_follow_grid_order(self):
        records = simple_bucket_corpus(10, seed=2)
        cfg = MatchConfig(seed=5, n_folds=1, target_size=100)
        rows = lambda_sweep(records, [1.0, 0.1, 0.01], cfg)
        assert [r.lambda_ for r in rows] == [1.0, 0.1, 0.01]

    def test_similarity_mean_decreases_with_lambda(self):
        records = trend_corpus(80, seed=3)
        cfg = MatchConfig(seed=7, n_folds=1, target_size=500, eps=1e-6)
        rows = lambda_sweep(records, [0.01, 1.0], cfg,
                            sim_spec=None)
        assert rows[1].mean_gold_distractor_similarity <= \
            rows[0].mean_gold_distractor_similarity

    def test_empty_grid_rejected(self):
        with pytest.raises(DiagnosticsError, match="grid"):
            lambda_sweep(simple_bucket_corpus(8, seed=0), [],
                         MatchConfig(seed=1, n_folds=1))

    def test_a_run_error_propagates_unwrapped(self, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("fault")

        monkeypatch.setattr("advmatch.diagnostics.run_match", fault)
        with pytest.raises(ValueError) as exc:
            lambda_sweep(simple_bucket_corpus(8, seed=0), [0.5],
                         MatchConfig(seed=1, n_folds=1))
        assert type(exc.value) is ValueError and str(exc.value) == "fault"

    def test_a_pipeline_error_keeps_its_own_message(self):
        records = simple_bucket_corpus(8, seed=0)
        records[5] = dataclasses.replace(records[5], id=records[2].id)
        with pytest.raises(PipelineError) as exc:
            lambda_sweep(records, [0.5], MatchConfig(seed=1, n_folds=1))
        assert str(exc.value).startswith("1 record id(s) occur more than once")

    def test_sweep_is_pure(self):
        records = simple_bucket_corpus(10, seed=6)
        cfg = MatchConfig(seed=4, n_folds=1, target_size=100)
        assert lambda_sweep(records, [0.5, 0.05], cfg) == \
            lambda_sweep(records, [0.5, 0.05], cfg)

    def test_report_formats(self):
        records = simple_bucket_corpus(8, seed=4)
        cfg = MatchConfig(seed=2, n_folds=1, target_size=100)
        rows = lambda_sweep(records, [0.5], cfg)
        table = format_sweep_table(rows)
        csv_text = format_sweep_csv(rows)
        assert table.splitlines()[0].startswith("lambda\t")
        assert len(table.splitlines()) == 2
        assert csv_text.splitlines()[0] == ("lambda,machine_accuracy,"
                                            "mean_gold_distractor_similarity,"
                                            "mean_distractor_relevance")

    def test_sweep_identical_across_jobs(self):
        records = multi_fold_corpus(n_keys=12, per_key=3, seed=7)
        cfg = MatchConfig(seed=3, n_folds=3, target_size=100)
        serial = lambda_sweep(records, [1.0, 0.01], cfg, jobs=1)
        pooled = lambda_sweep(records, [1.0, 0.01], cfg, jobs=2)
        assert pooled == serial
        assert format_sweep_table(pooled) == format_sweep_table(serial)
        assert format_sweep_csv(pooled) == format_sweep_csv(serial)

    def test_matched_means_equal_score_matrices_at_provenance(self):
        records = multi_fold_corpus(n_keys=12, per_key=3, seed=8)
        cfg = MatchConfig(seed=6, n_folds=3, target_size=100)
        sim_spec = ScorerSpec("embedding_cosine")
        result = run_match(records, cfg, sim_spec=sim_spec)
        rel_spec = ScorerSpec("overlap")
        sim_sum = rel_sum = 0.0
        count = 0
        for br in result.buckets:
            rel, sim = score_bucket(br.bucket.members, cfg, rel_spec, sim_spec)
            index = {r.id: pos for pos, r in enumerate(br.bucket.members)}
            for item in parse_items(br.text.splitlines()):
                i = index[item.id]
                picks = sorted((p for p in item.provenance if p.kind == "distractor"),
                               key=lambda p: p.round_index)
                for p in picks:
                    j = index[p.source_id]
                    sim_sum += float(sim.values[i, j])
                    rel_sum += float(rel.values[i, j])
                    count += 1
        assert count == len(records) * cfg.rounds
        assert _matched_means(result) == (sim_sum / count, rel_sum / count)
