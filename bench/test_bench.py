"""Tests of the benchmark's own parts: generator, workloads, checker, tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tracer_mod  # noqa: E402
from check import KNOWN_DEFECTS, check_items, corpus_golds  # noqa: E402
from gen import CorpusShape, corpus_bytes  # noqa: E402
from workloads import ROUNDS, WORKLOADS  # noqa: E402

from advmatch import (MatchConfig, ScorerSpec, build_buckets,  # noqa: E402
                      parse_records, run_match, split_folds, write_items)


def _records(shape: CorpusShape, seed: int):
    return parse_records(corpus_bytes(shape, seed).splitlines())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_every_workload_corpus_parses(name, seed):
    shape = WORKLOADS[name].shape
    records = _records(shape, seed)
    assert len(records) == shape.n
    assert {r.task_mode for r in records} == {shape.mode}
    assert all(r.embedding is not None for r in records) == bool(shape.embed_dim)


def test_same_seed_same_bytes_other_seed_other_bytes():
    shape = WORKLOADS["corpus6k"].shape
    assert corpus_bytes(shape, 5) == corpus_bytes(shape, 5)
    assert corpus_bytes(shape, 5) != corpus_bytes(shape, 6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bucket800_is_one_bucket_of_every_record(seed):
    w = WORKLOADS["bucket800"]
    records = _records(w.shape, seed)
    config = w.config(seed)
    plan = split_folds(records, config["n_folds"], seed)
    assert set(plan.assignment.values()) == {0}
    buckets = build_buckets(records, "qa", config["target_size"], seed,
                            n_distractors=ROUNDS)
    assert [len(b.members) for b in buckets] == [w.shape.n]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_qar_buckets_are_halves_of_each_pronoun_class(seed):
    w = WORKLOADS["sweep_qar"]
    records = _records(w.shape, seed)
    plan = split_folds(records, w.n_folds, seed)
    for fold in range(w.n_folds):
        members = [r for r in records if plan.fold_of(r) == fold]
        buckets = build_buckets(members, "qar", w.target_size, seed,
                                n_distractors=ROUNDS, fold=fold)
        by_pronoun = {}
        for b in buckets:
            by_pronoun.setdefault(b.key.pronoun, []).append(len(b.members))
        assert sorted(by_pronoun) == ["female", "neutral"]
        for sizes in by_pronoun.values():
            assert len(sizes) == 2 and abs(sizes[0] - sizes[1]) <= 0.2 * sum(sizes)


def test_sweep_golds_tag_only_people():
    records = _records(WORKLOADS["sweep_qar"].shape, 1)
    assert {t.tag_class for r in records for t in r.gold if t.is_tag} == {"person"}


# -- output checker ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    shape = CorpusShape(n=60, records_per_source=5, pronoun_mix=(1.0, 1.0, 0.0))
    data = corpus_bytes(shape, 3)
    result = run_match(parse_records(data.splitlines()),
                       MatchConfig(seed=3, n_folds=2),
                       ScorerSpec("overlap"), ScorerSpec("overlap"))
    return write_items(result.items).splitlines(), corpus_golds(data)


def _mutate(lines, index, change):
    items = [json.loads(line) for line in lines]
    change(items[index], items)
    return [json.dumps(it) for it in items]


def test_checker_passes_program_output(small_run):
    lines, golds = small_run
    result = check_items(lines, golds, ROUNDS)
    assert result.items == len(golds)
    assert set(r for rs in result.failures.values() for r in rs) <= KNOWN_DEFECTS


def _distractor_pos(item):
    return next(k for k, p in enumerate(item["provenance"]) if p["kind"] == "distractor")


def _set_source(item, items, source):
    item["provenance"][_distractor_pos(item)]["source"] = source


@pytest.mark.parametrize("rule, change", [
    ("choice_count", lambda it, items: it["choices"].pop()),
    ("gold_count", lambda it, items: it.update(gold_index=(it["gold_index"] + 1) % 4)),
    ("gold_text", lambda it, items: it["choices"].__setitem__(it["gold_index"], "x .")),
    ("self_distractor", lambda it, items: _set_source(it, items, it["id"])),
    ("fold_leak", lambda it, items: it.update(fold=it["fold"] + 100)),
    ("bucket_leak", lambda it, items: _set_source(
        it, items, next(o["id"] for o in items if o["bucket"] != it["bucket"]))),
    ("duplicate_choice", lambda it, items: it["choices"].__setitem__(
        _distractor_pos(it), it["choices"][it["gold_index"]].replace(":1]", ":2]"))),
    ("recycling", lambda it, items: _set_source(
        it, items, next(o["id"] for o in items if o["bucket"] == it["bucket"]
                        and o["id"] != it["id"]))),
])
def test_checker_catches_each_rule(small_run, rule, change):
    lines, golds = small_run
    base = check_items(lines, golds, ROUNDS)
    broken = check_items(_mutate(lines, 0, change), golds, ROUNDS)
    caught = {r for rs in broken.failures.values() for r in rs}
    assert rule in caught
    if rule not in KNOWN_DEFECTS:
        assert broken.broken_guarantees > base.broken_guarantees


def test_checker_reports_missing_items(small_run):
    lines, golds = small_run
    result = check_items(lines[1:], golds, ROUNDS)
    assert "missing_item" in result.failures[json.loads(lines[0])["id"]]


# -- tracer --------------------------------------------------------------------


def test_tracer_covers_run_match_and_reports_missing(monkeypatch):
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + (
        ("remap.gone", "advmatch.remap", "CandidateTable.no_such_method"),))
    import advmatch.cli

    shape = replace(WORKLOADS["bucket800"].shape, n=80)
    records = _records(shape, 4)
    t = tracer_mod.Tracer()
    t.install()
    try:
        advmatch.cli.run_match(records, MatchConfig(seed=4, n_folds=1))
    finally:
        t.uninstall()
    assert t.missing == ["advmatch.remap.CandidateTable.no_such_method"]
    layers = t.layers()
    assert layers["scoring.calls"] == 1
    assert layers["assignment.solves"] == ROUNDS
    assert layers["remap.get_calls"] == 80 * ROUNDS
    assert 0.0 < layers["trace.layer_self_s"] <= layers["trace.match_span_s"]
    assert all(s.bucket == "f0:neutral/explanation:0" for s in t.spans
               if s.name == "scoring.score")
    # uninstall restores every original function
    assert not hasattr(advmatch.cli.run_match, "__wrapped__")


def test_self_time_subtracts_children():
    t = tracer_mod.Tracer()
    t.spans = [tracer_mod.Span("a", 0.0, 10.0, -1, None),
               tracer_mod.Span("b", 1.0, 4.0, 0, None),
               tracer_mod.Span("c", 2.0, 3.0, 1, None)]
    assert t.self_times() == [7.0, 2.0, 1.0]


def test_capture_keeps_items_without_other_spans():
    import advmatch.cli

    records = _records(replace(WORKLOADS["bucket800"].shape, n=40), 2)
    t = tracer_mod.Tracer()
    t.install(("pipeline.match",))
    try:
        advmatch.cli.run_match(records, MatchConfig(seed=2, n_folds=1))
    finally:
        t.uninstall()
    assert {s.name for s in t.spans} == {"pipeline.match"}
    assert len(t.match_items) == 1 and len(t.match_items[0]) == 40
    assert t.missing == []
