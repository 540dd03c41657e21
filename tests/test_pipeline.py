"""Worker pool of run_match: every start method gives the serial items,
and what the workers send back (text, attacker hits) is exact."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import advmatch
from advmatch.corpus import serialize_records
from advmatch.diagnostics import (format_sweep_csv, format_sweep_table, lambda_sweep,
                                  machine_accuracy, overlap_attacker)
from advmatch.matcher import MatchConfig, write_items
from advmatch.pipeline import PipelineError, run_match

from conftest import make_record, multi_fold_corpus

# Runs run_match at jobs=2 under the start method given as argv[1], on the
# corpus file argv[2], and prints the items.
_POOLED_MATCH = """
import multiprocessing, sys
from advmatch.corpus import parse_records
from advmatch.matcher import MatchConfig, write_items
from advmatch.pipeline import run_match

multiprocessing.set_start_method(sys.argv[1])
with open(sys.argv[2], "rb") as f:
    records = parse_records(f)
result = run_match(records, MatchConfig(seed=5, n_folds=3), jobs=2)
sys.stdout.write(write_items(result.items))
"""


# Runs lambda_sweep at jobs=2 under the start method given as argv[1], on
# the corpus file argv[2], and prints its rows, table and CSV.
_POOLED_SWEEP = """
import multiprocessing, sys
from advmatch.corpus import parse_records
from advmatch.diagnostics import format_sweep_csv, format_sweep_table, lambda_sweep
from advmatch.matcher import MatchConfig

multiprocessing.set_start_method(sys.argv[1])
with open(sys.argv[2], "rb") as f:
    records = parse_records(f)
rows = lambda_sweep(records, [1.0, 0.01], MatchConfig(seed=5, n_folds=3), jobs=2)
sys.stdout.write(repr(rows) + "\\n" + format_sweep_table(rows) + format_sweep_csv(rows))
"""


def _run_pooled(script: str, method: str, records, tmp_path) -> str:
    """Stdout of ``script`` run with ``method`` on a file of ``records``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(serialize_records(records), encoding="utf-8")
    src = str(Path(advmatch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, method, str(corpus)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_items_identical_under_start_method(tmp_path, method):
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    pooled = _run_pooled(_POOLED_MATCH, method, records, tmp_path)
    serial = run_match(records, MatchConfig(seed=5, n_folds=3), jobs=1)
    assert len(serial.buckets) > 1  # the pool is used
    assert pooled == write_items(serial.items)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_sweep_identical_under_start_method(tmp_path, method):
    # the attacker travels to the workers with the tasks, so it must pickle
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    pooled = _run_pooled(_POOLED_SWEEP, method, records, tmp_path)
    rows = lambda_sweep(records, [1.0, 0.01], MatchConfig(seed=5, n_folds=3), jobs=1)
    assert pooled == (repr(rows) + "\n" + format_sweep_table(rows)
                      + format_sweep_csv(rows))


# Object classes drawn per record.  A record whose objects hold neither a
# tag's class nor a person makes remapping spell the class out as
# "the <class>"; no generated word is "the", so that text comes only from
# this fallback.
_CLASSES = ("person", "dog", "cat", "car")
_WORDS = ("holding", "near", "ball", "hat", "red", "running", "sits")


@st.composite
def _tagged_corpus(draw):
    records = []
    for i in range(draw(st.integers(6, 14))):
        objects = tuple(draw(st.lists(st.sampled_from(_CLASSES),
                                      min_size=1, max_size=3)))

        def tag() -> str:
            k = draw(st.integers(1, len(objects)))
            return f"[{objects[k - 1]}:{k}]"

        words = " ".join(draw(st.lists(st.sampled_from(_WORDS),
                                       min_size=1, max_size=3)))
        records.append(make_record(
            i, f"src{i}", query=f"why is {tag()} {words} q{i} ?",
            gold=f"{tag()} {draw(st.sampled_from(_WORDS))} {tag()} g{i} .",
            objects=objects))
    return records


@settings(max_examples=15, deadline=None)
@given(records=_tagged_corpus(), lam=st.floats(0.01, 2.0),
       seed=st.integers(0, 2 ** 16), target_size=st.integers(4, 8))
def test_lazy_items_and_worker_accuracy_are_exact(records, lam, seed, target_size):
    config = MatchConfig(seed=seed, n_folds=1, target_size=target_size)
    attacker = overlap_attacker(config.eps)
    texts = set()
    for jobs in (1, 2):
        result = run_match(records, config.with_lambda(lam), jobs=jobs)
        items = result.items
        # parsing the text back reproduces the emitted bytes
        assert write_items(items) == result.text
        texts.add(result.text)
        [row] = lambda_sweep(records, [lam], config, jobs=jobs)
        expected = machine_accuracy(items, attacker)
        assert (row.machine_accuracy, repr(row.machine_accuracy)) == \
            (expected, repr(expected))
    assert len(texts) == 1


def test_jobs_below_one_rejected():
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    with pytest.raises(PipelineError, match="jobs"):
        run_match(records, MatchConfig(seed=5, n_folds=3), jobs=0)
