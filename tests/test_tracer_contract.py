"""What ``bench/tracer.py`` reads of the program still has the shape it reads.

The benchmark's tracer wraps module attributes from outside and takes its
per-layer counts from the arguments and results of the calls it wraps.
When one of those changes shape, a traced run still exits 0 but drops the
layer's counts, and the benchmark's metrics with them.  This test runs the
tracer, unchanged, over ``match`` and ``sweep`` at ``--jobs 1`` (so every
bucket runs in this process) and checks that it counted what it counts.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from advmatch.cli import main
from advmatch.corpus import serialize_records

from conftest import multi_fold_corpus

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

COUNTED = ("scoring.rel_floor_entries", "scoring.pairs", "matcher.forbidden_entries",
           "matcher.weight_entries", "assignment.objective", "matcher.items")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced():
    """A tracer installed on every target, uninstalled after the test."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_counts_match_and_sweep(tmp_path, traced):
    records = multi_fold_corpus(n_keys=44, per_key=3, seed=0)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(records), encoding="utf-8")
    grid = (1.0, 0.1)
    assert main(["match", str(corpus), "--seed", "7", "--jobs", "1",
                 "--out", str(tmp_path / "items.jsonl")]) == 0
    assert main(["sweep", str(corpus), "--seed", "7", "--jobs", "1",
                 "--grid", ",".join(map(str, grid)),
                 "--out", str(tmp_path / "sweep.txt")]) == 0

    assert not [m for m in traced.missing if m.startswith("counts of ")]
    assert set(COUNTED) <= set(traced.counts)
    assert traced.counts["scoring.pairs"] > 0
    # one run per command and grid point; the match streams its items, so
    # only the sweep's runs keep theirs
    assert len(traced.match_items) == 1 + len(grid)
    assert all(len(items) == len(records) for items in traced.match_items[1:])
