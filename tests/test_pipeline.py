"""Worker pool of run_match: every start method gives the serial items."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import advmatch
from advmatch.corpus import serialize_records
from advmatch.matcher import MatchConfig, write_items
from advmatch.pipeline import PipelineError, run_match

from conftest import multi_fold_corpus

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


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_items_identical_under_start_method(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(serialize_records(records), encoding="utf-8")
    src = str(Path(advmatch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_MATCH, method, str(corpus)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    serial = run_match(records, MatchConfig(seed=5, n_folds=3), jobs=1)
    assert len(serial.buckets) > 1  # the pool is used
    assert proc.stdout == write_items(serial.items)


def test_jobs_below_one_rejected():
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    with pytest.raises(PipelineError, match="jobs"):
        run_match(records, MatchConfig(seed=5, n_folds=3), jobs=0)
