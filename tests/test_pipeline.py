"""Worker pool of run_match: every start method gives the serial items,
what the workers send back (text, attacker hits) is exact, and each
bucket's text reaches ``write`` as soon as the buckets before it are done."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import advmatch
from advmatch import pipeline
from advmatch.corpus import serialize_records
from advmatch.diagnostics import format_sweep_csv, format_sweep_table, lambda_sweep
from advmatch.matcher import MatchConfig, parse_items, write_items
from advmatch.pipeline import PipelineError, plan_buckets, run_match
from advmatch.scoring import ScorerSpec, score_bucket, write_score_matrix

from conftest import blas_env, make_record, multi_fold_corpus, simple_bucket_corpus
from oracles import machine_accuracy, relevance_overlap

# the benchmark's output checker, loaded as a file: one item contract for
# the tests and the benchmark
_CHECK = Path(__file__).resolve().parents[1] / "bench" / "check.py"
_check_spec = importlib.util.spec_from_file_location("bench_check", _CHECK)
check = importlib.util.module_from_spec(_check_spec)
# dataclasses resolves the module's string annotations through sys.modules
sys.modules[_check_spec.name] = check
_check_spec.loader.exec_module(check)

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
    attacker = functools.partial(relevance_overlap, eps=config.eps)
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


@pytest.mark.parametrize("rel_kind", ["embedding_cosine", "external_matrix"])
def test_attacker_is_overlap_whatever_the_relevance_scorer(tmp_path, rel_kind):
    # the attacker is scored apart from the relevance that drives matching
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    config = MatchConfig(seed=5, n_folds=3, lambda_=0.5)
    if rel_kind == "external_matrix":
        # random relevance on file, one matrix per planned bucket
        rng = np.random.default_rng(0)
        for k, b in enumerate(plan_buckets(records, config)[1]):
            n = len(b.members)
            write_score_matrix(tmp_path / f"b{k}.scm", "relevance",
                               rng.uniform(0, 1, size=(n, n)),
                               [r.id for r in b.members])
        rel_spec = ScorerSpec(rel_kind, str(tmp_path))
    else:
        rel_spec = ScorerSpec(rel_kind)
    attacker = functools.partial(relevance_overlap, eps=config.eps)
    for jobs in (1, 2):
        result = run_match(records, config, rel_spec=rel_spec, jobs=jobs)
        assert len(result.buckets) > 1  # the pool is used
        expected = machine_accuracy(result.items, attacker)
        hits = sum(br.attack_hits for br in result.buckets)
        assert hits / result.item_count == expected
        [row] = lambda_sweep(records, [0.5], config, rel_spec=rel_spec, jobs=jobs)
        assert (row.machine_accuracy, repr(row.machine_accuracy)) == \
            (expected, repr(expected))


def test_a_library_run_floors_every_score_at_the_config_eps(monkeypatch):
    # overlap relevance is the attacker's: no bucket scores it twice
    def second_scoring(*args):
        raise AssertionError("overlap relevance scored a second time")

    monkeypatch.setattr(pipeline, "relevance_values", second_scoring)
    eps = 1e-3
    # no query shares a content word with another record's gold
    records = [make_record(i, f"s{i}", f"why is q{i} here ?", f"g{i} stays .")
               for i in range(8)]
    result = run_match(records, MatchConfig(seed=5, n_folds=1, eps=eps),
                       ScorerSpec("overlap"), ScorerSpec("overlap"))
    matched = np.concatenate([br.matched for br in result.buckets])
    assert (matched[:, 0] == eps).all()
    assert ((matched >= eps) & (matched <= 1 - eps)).all()


# Prints the BLAS threads a pool worker runs with: the getter _init_worker
# found beside its setter, read after it ran, or "none".
_WORKER_BLAS_THREADS = """
from advmatch import pipeline

blas = pipeline._blas_threads()
if blas is None:
    print("none")
else:
    pipeline._init_worker([])
    print(blas[0]())
"""


# Runs run_match at jobs=1 on the corpus file argv[1], once through and
# once failing in its second bucket, and prints, per run, the OpenBLAS
# thread count before it, the count each bucket read and the count after
# it, as JSON; or "none".
_RUN_BLAS_THREADS = """
import json, sys
from advmatch import pipeline
from advmatch.corpus import parse_records
from advmatch.matcher import MatchConfig

blas = pipeline._blas_threads()
if blas is None:
    print("none")
    sys.exit()
get = blas[0]
with open(sys.argv[1], "rb") as f:
    records = parse_records(f)
real = pipeline._process_bucket
for fail in (False, True):
    seen = []

    def counted(args):
        seen.append(get())
        if fail and len(seen) == 2:
            raise RuntimeError("bucket failed")
        return real(args)

    pipeline._process_bucket = counted
    before = get()
    try:
        pipeline.run_match(records, MatchConfig(seed=5, n_folds=3))
    except RuntimeError:
        pass
    print(json.dumps([before, seen, get()]))
"""


def test_worker_initializer_caps_blas_threads():
    # without a thread setting in the environment, OpenBLAS starts a thread
    # per CPU; a pool worker must run one
    proc = subprocess.run([sys.executable, "-c", _WORKER_BLAS_THREADS], env=blas_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "none":
        pytest.skip("numpy's BLAS exports no OpenBLAS thread getter and setter")
    assert proc.stdout.strip() == "1"


def test_run_caps_the_callers_blas_threads_and_restores_them(tmp_path):
    # a --jobs 1 run matches in the calling process: one BLAS thread in
    # every bucket, and the count the process had comes back after the
    # run, also when a bucket fails
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(serialize_records(multi_fold_corpus(n_keys=12, per_key=3, seed=4)),
                      encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _RUN_BLAS_THREADS, str(corpus)],
                          env=blas_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "none":
        pytest.skip("numpy's BLAS exports no OpenBLAS thread getter and setter")
    (before, seen, after), (failed_before, failed_seen, failed_after) = map(
        json.loads, proc.stdout.splitlines())
    assert seen == [1, 1, 1] and after == before
    assert failed_seen == [1, 1] and failed_after == failed_before == before


# Plans a small qa corpus and a small qar corpus, then matches one bucket
# of each, and prints every module the two buckets imported.
_BUCKET_IMPORTS = """
import sys
import advmatch
from advmatch.matcher import MatchConfig
from advmatch.pipeline import _process_bucket, plan_buckets
from advmatch.scoring import ScorerSpec
from conftest import simple_bucket_corpus

config = MatchConfig(seed=1, n_folds=1, target_size=8)
tasks = []
for mode in ("qa", "qar"):
    _, buckets = plan_buckets(simple_bucket_corpus(16, mode=mode), config)
    tasks.append((buckets[0], config, ScorerSpec("overlap"), ScorerSpec("overlap"), None))
loaded = set(sys.modules)
for task in tasks:
    _process_bucket(task)
print(" ".join(sorted(set(sys.modules) - loaded)))
"""


def test_bucket_worker_imports_nothing_after_planning():
    # a fresh pool worker pays for every module its first bucket imports;
    # np.unique, for one, imports numpy.ma under numpy 2.x
    env = blas_env()
    env["PYTHONPATH"] = os.pathsep.join((str(Path(__file__).resolve().parent),
                                         env["PYTHONPATH"]))
    proc = subprocess.run([sys.executable, "-c", _BUCKET_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_jobs_below_one_rejected():
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    with pytest.raises(PipelineError, match="jobs"):
        run_match(records, MatchConfig(seed=5, n_folds=3), jobs=0)


def test_first_bucket_is_written_before_the_last_is_matched(monkeypatch):
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    events = []
    real_rounds = pipeline.run_rounds

    def recorded(members, *args):
        events.append("rounds")
        return real_rounds(members, *args)

    monkeypatch.setattr(pipeline, "run_rounds", recorded)
    result = run_match(records, MatchConfig(seed=5, n_folds=3), jobs=1,
                       write=lambda text: events.append("write"))
    assert len(result.buckets) > 1
    assert events == ["rounds", "write"] * len(result.buckets)


@pytest.mark.parametrize("jobs", [1, 2])
def test_written_texts_concatenate_to_the_kept_text(jobs):
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
    config = MatchConfig(seed=5, n_folds=3)
    kept = run_match(records, config, jobs=jobs)
    written = []
    streamed = run_match(records, config, jobs=jobs, write=written.append)
    assert len(written) == len(kept.buckets) > 1
    assert "".join(written) == kept.text
    assert streamed.text == "" and streamed.items == []
    assert [br.bucket for br in streamed.buckets] == [br.bucket for br in kept.buckets]
    for a, b in zip(streamed.buckets, kept.buckets):
        assert a.matched.dtype == np.float64
        assert a.matched.shape == (config.rounds * len(a.bucket.members), 2)
        assert np.array_equal(a.matched, b.matched)
        assert a.attack_hits == b.attack_hits


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_repeated_record_id_is_named(seed):
    # record 5 takes record 2's id; every planning path rejects it by name
    records = simple_bucket_corpus(12, seed=seed)
    records[5] = dataclasses.replace(records[5], id=records[2].id)
    config = MatchConfig(seed=seed, n_folds=1)
    with pytest.raises(PipelineError, match=r"more than once: 'r0002'$"):
        plan_buckets(records, config)
    with pytest.raises(PipelineError, match="'r0002'"):
        run_match(records, config)


def test_empty_corpus_is_refused_before_its_mode_is_resolved():
    for config in (MatchConfig(seed=0), MatchConfig(seed=0, mode="qa")):
        with pytest.raises(PipelineError, match="^corpus is empty$"):
            plan_buckets([], config)


def test_plan_resolves_the_mode_before_it_checks_ids():
    # a corpus that mixes modes and repeats an id fails on its modes first,
    # unless the config names the mode
    records = simple_bucket_corpus(12, seed=0)
    records[5] = dataclasses.replace(records[5], id=records[2].id, task_mode="qar")
    with pytest.raises(PipelineError, match="mixes task modes"):
        plan_buckets(records, MatchConfig(seed=0, n_folds=1))
    with pytest.raises(PipelineError, match="more than once"):
        plan_buckets(records, MatchConfig(seed=0, n_folds=1, mode="qa"))


def test_matched_rows_equal_score_matrices_at_provenance():
    # row by row: queries in member order, each query's distractors in the
    # round order its item's provenance gives
    records = multi_fold_corpus(n_keys=12, per_key=3, seed=8)
    config = MatchConfig(seed=6, n_folds=3, target_size=100)
    rel_spec = ScorerSpec("overlap")
    sim_spec = ScorerSpec("embedding_cosine")
    result = run_match(records, config, sim_spec=sim_spec, jobs=2)
    assert len(result.buckets) > 1
    for br in result.buckets:
        members = br.bucket.members
        rel, sim = score_bucket(members, config, rel_spec, sim_spec)
        index = {r.id: pos for pos, r in enumerate(members)}
        items = parse_items(br.text.splitlines())
        assert [it.id for it in items] == [r.id for r in members]
        want = []
        for i, item in enumerate(items):
            picks = sorted((p.round_index, index[p.source_id])
                           for p in item.provenance if p.kind == "distractor")
            assert [t for t, _ in picks] == list(range(1, config.rounds + 1))
            want.extend((rel.values[i, j], sim.values[i, j]) for _, j in picks)
        assert np.array_equal(br.matched, np.array(want))


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(["multi_fold", "simple_bucket"]),
       size=st.integers(8, 16), seed=st.integers(0, 2 ** 16),
       lam=st.sampled_from([1.0, 0.1, 0.01]), rounds=st.integers(2, 3))
def test_items_keep_the_benchmark_checkers_guarantees(shape, size, seed, lam, rounds):
    # every rule bench/check.py holds the program to, on drawn corpora and
    # the benchmark's sweep grid, and the same bytes from one process and a
    # pool.  A repeated choice is a known defect the checker reports apart.
    if shape == "multi_fold":
        records = multi_fold_corpus(n_keys=size, per_key=3, seed=seed)
        config = MatchConfig(seed=seed, lambda_=lam, rounds=rounds, n_folds=3,
                             target_size=12)
    else:
        records = simple_bucket_corpus(2 * size, seed=seed, n_sources=4)
        config = MatchConfig(seed=seed, lambda_=lam, rounds=rounds, n_folds=2)
    text = write_items(run_match(records, config, jobs=1).items)
    assert write_items(run_match(records, config, jobs=2).items) == text
    golds = check.corpus_golds(serialize_records(records).encode("utf-8"))
    result = check.check_items(text.splitlines(), golds, rounds)
    assert result.items == len(records)
    assert result.broken_guarantees == 0, result.summary()
