"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from advmatch.assignment import WeightMatrix, solve_lap_max
from advmatch.cli import main
from advmatch.corpus import serialize_records, split_folds
from advmatch.diagnostics import frequency_prior_probe, lambda_sweep
from advmatch.matcher import (MatchConfig, export_mcq, parse_items, run_rounds,
                              weight_matrix)
from advmatch.pipeline import run_match
from advmatch.scoring import ScorerSpec

from conftest import multi_fold_corpus, simple_bucket_corpus, trend_corpus
from oracles import GoldTexts, brute_force_lap


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def _random_weight_matrix(rng, n):
    values = rng.uniform(-10, 10, size=(n, n))
    forbidden = rng.random((n, n)) < float(rng.uniform(0, 0.4))
    safe = rng.permutation(n)  # keep one permutation open -> always feasible
    forbidden[np.arange(n), safe] = False
    return WeightMatrix(values=values, forbidden=forbidden)


def test_criterion_1_solver_oracle_equivalence():
    """1000+ random matrices n <= 8 (with forbidden pairs): exact agreement."""
    rng = np.random.default_rng(20240901)
    start = time.monotonic()
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        w = _random_weight_matrix(rng, n)
        fast = solve_lap_max(w)
        slow = brute_force_lap(w)
        assert fast.total_weight == slow.total_weight
        assert fast.mapping == slow.mapping
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s (budget 10s)"
    _report("criterion 1",
            f"{trials} matrices agree exactly with the oracle in {elapsed:.1f}s")


def test_criterion_2_recycling_and_prior():
    """100-record bucket, K=3: exact recycling; prior probe at 0.25 +/- 0.02."""
    bucket = simple_bucket_corpus(100, seed=11)
    rel_spec = sim_spec = ScorerSpec("overlap")
    from advmatch.remap import CandidateTable
    from advmatch.scoring import score_bucket

    candidates = CandidateTable(bucket, p_reuse=0.5, seed=5)
    config = MatchConfig(seed=5, rounds=3, n_folds=1)
    rel, sim = (m.values for m in score_bucket(bucket, config, rel_spec, sim_spec))
    mappings, texts = run_rounds(bucket, rel, sim, config, candidates)

    assert mappings.shape == (3, 100)
    counts = np.bincount(mappings.ravel(), minlength=100)
    assert set(counts.tolist()) == {3}, "every response must serve exactly 3 times"
    for i, cols in enumerate(mappings.T.tolist()):
        assert i not in cols, "no self-assignments"
        assert len(set(cols)) == 3, "no duplicate distractors per item"

    items = []
    for shuffle_seed in range(50):
        items.extend(parse_items(export_mcq(bucket, mappings, texts, seed=shuffle_seed)))
    assert len(items) >= 5000
    accuracy = frequency_prior_probe(items, items)
    assert abs(accuracy - 0.25) <= 0.02, f"prior probe at {accuracy:.4f}"
    _report("criterion 2",
            f"recycling exact on 100 records; prior probe {accuracy:.4f} "
            f"over {len(items)} items")


def test_criterion_3_weight_formula_fidelity():
    """weight_matrix matches scalar hand-evaluation to 1e-12 relative.

    The scalar leg evaluates ln(1-s) through math.log1p, the accurate way
    to compute that quantity when s approaches the clamp ceiling.
    """
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        rel = rng.uniform(1e-6, 1 - 1e-6, size=(n, n))
        sim = rng.uniform(1e-6, 1 - 1e-6, size=(n, n))
        lam = float(rng.choice([0.01, 0.1, 1.0, 3.7]))
        w = weight_matrix(np.log(rel), sim, lam)
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert w.forbidden[i, j]
                    continue
                hand = math.log(rel[i, j]) + lam * math.log1p(-sim[i, j])
                assert w.values[i, j] == pytest.approx(hand, rel=1e-12)
                checked += 1
    # pinned boundary case: similarity at the clamp ceiling
    w = weight_matrix(np.log(np.full((2, 2), 0.5)), np.full((2, 2), 1.0 - 1e-6), 0.1)
    hand = math.log(0.5) + 0.1 * math.log1p(-(1.0 - 1e-6))
    assert w.values[0, 1] == pytest.approx(hand, rel=1e-12)
    _report("criterion 3", f"{checked} scalar evaluations within 1e-12 relative")


def test_criterion_4_lambda_tradeoff_monotonicity():
    """Exchange-argument inequalities hold exactly on brute-forced matchings."""
    rng = np.random.default_rng(13)
    pairs = ((0.01, 0.1), (0.1, 1.0))
    for trial in range(100):
        n = int(rng.integers(4, 9))
        rel = rng.uniform(0.02, 0.98, size=(n, n))
        sim = rng.uniform(0.02, 0.98, size=(n, n))
        sim = np.maximum(sim, sim.T)
        np.fill_diagonal(sim, 1.0)
        rows = np.arange(n)

        def matched_sums(lam):
            a = brute_force_lap(weight_matrix(np.log(rel), sim, lam))
            cols = np.array(a.mapping)
            return (float(np.log(rel[rows, cols]).sum()),
                    float(np.log1p(-sim[rows, cols]).sum()))

        for lam_low, lam_high in pairs:
            rel_low, dis_low = matched_sums(lam_low)
            rel_high, dis_high = matched_sums(lam_high)
            assert dis_high >= dis_low, (trial, lam_low, lam_high)
            assert rel_high <= rel_low, (trial, lam_low, lam_high)
    _report("criterion 4", "100 buckets x 2 lambda pairs, inequalities exact")


def test_criterion_5_machine_difficulty_trend():
    """Attacker accuracy responds to lambda across 20 seeded corpora."""
    grid = [1.0, 0.1, 0.01]
    by_lambda = {g: [] for g in grid}
    for seed in range(20):
        records = trend_corpus(500, seed=seed)
        config = MatchConfig(seed=1000 + seed, n_folds=1, target_size=2000)
        rows = lambda_sweep(records, grid, config,
                            sim_spec=ScorerSpec("embedding_cosine"))
        for row in rows:
            by_lambda[row.lambda_].append(row.machine_accuracy)
    for low, high in zip(by_lambda[0.01], by_lambda[1.0]):
        assert low <= high + 0.03, "lambda=0.01 must not beat lambda=1.0 by >3%"
    means = [float(np.mean(by_lambda[g])) for g in grid]
    assert means[0] >= means[1] >= means[2], f"aggregate means not monotone: {means}"
    _report("criterion 5",
            "mean attacker accuracy {:.3f} -> {:.3f} -> {:.3f} over grid {}".format(
                *means, grid))


def test_criterion_6_fold_integrity():
    """No source key spans folds; no distractor crosses a fold boundary."""
    records = multi_fold_corpus(n_keys=44, per_key=3, seed=2)
    config = MatchConfig(seed=9, n_folds=11, target_size=500)
    plan = split_folds(records, config.n_folds, config.seed)

    folds_by_key: dict[str, set[int]] = {}
    for r in records:
        folds_by_key.setdefault(r.source_key, set()).add(plan.fold_of(r))
    assert all(len(v) == 1 for v in folds_by_key.values())

    result = run_match(records, config)
    fold_of_record = {r.id: plan.fold_of(r) for r in records}
    checked = 0
    for item in result.items:
        for p in item.provenance:
            if p.kind == "distractor":
                assert fold_of_record[p.source_id] == item.fold
                checked += 1
    assert checked == 3 * len(records)
    _report("criterion 6",
            f"11 folds over 44 keys; {checked} distractor provenances in-fold")


def test_criterion_7_parallel_determinism(tmp_path):
    """cmd_match output is byte-identical for --jobs 1 and --jobs 8."""
    records = multi_fold_corpus(n_keys=44, per_key=3, seed=4)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(records), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 21, "n_folds": 11, "target_size": 500,
                                  "rounds": 3}), encoding="utf-8")
    out1, out8 = tmp_path / "j1.jsonl", tmp_path / "j8.jsonl"
    assert main(["match", str(corpus), "--config", str(config),
                 "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["match", str(corpus), "--config", str(config),
                 "--out", str(out8), "--jobs", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    _report("criterion 7", f"{out1.stat().st_size} bytes identical across --jobs 1/8")


def test_criterion_8_throughput_3000():
    """One 3000-record bucket with precomputed matrices: 3 rounds < 60 s."""
    n = 3000
    rng = np.random.default_rng(3)
    rel = rng.uniform(1e-6, 1 - 1e-6, size=(n, n))
    sim = rng.uniform(1e-6, 0.9, size=(n, n))
    sim = np.minimum(sim, sim.T)
    np.fill_diagonal(sim, 1.0)
    bucket = simple_bucket_corpus(n, seed=8)
    config = MatchConfig(seed=0, rounds=3, n_folds=1)
    start = time.monotonic()
    mappings, _ = run_rounds(bucket, rel, sim, config, GoldTexts(bucket))
    elapsed = time.monotonic() - start
    assert mappings.shape == (3, n)
    counts = np.bincount(mappings.ravel(), minlength=n)
    assert set(counts.tolist()) == {3}
    assert elapsed < 60.0, f"3 rounds over 3000 records took {elapsed:.1f}s"
    _report("criterion 8", f"3000-record bucket, K=3 in {elapsed:.1f}s (< 60s)")
