"""CLI command behavior: exit codes, outputs, manifests, determinism."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch import cli, scoring
from advmatch.cli import build_parser, digest_file, main
from advmatch.corpus import CorpusError, parse_records, serialize_records
from advmatch.matcher import MatchConfig, MatchingError, parse_items
from advmatch import pipeline
from advmatch.pipeline import plan_buckets, run_match
from advmatch.scoring import ScorerSpec, read_score_matrix, score_bucket

from conftest import blas_env, make_record, multi_fold_corpus, simple_bucket_corpus


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(serialize_records(simple_bucket_corpus(8, seed=3)),
                      encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 7, "n_folds": 1, "target_size": 500,
                                  "rounds": 3}), encoding="utf-8")
    return tmp_path, corpus, config


class TestValidate:
    def test_valid_corpus_exit_zero(self, workspace, capsys):
        _, corpus, _ = workspace
        assert main(["validate", str(corpus)]) == 0
        assert "8 records ok" in capsys.readouterr().out

    def test_dangling_tag_exit_one_names_record(self, tmp_path, capsys):
        bad = make_record(0, "m", "why is [person:1] sad ?", "[person:2] left .")
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(
            serialize_records([bad]).replace("[person:2]", "[person:5]"),
            encoding="utf-8")
        assert main(["validate", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "r0000" in out
        assert "dangling" in out

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.jsonl")]) == 2

    def test_non_string_query_exit_one_names_field(self, workspace, capsys):
        tmp, corpus, _ = workspace
        lines = corpus.read_text(encoding="utf-8").splitlines()
        bad = tmp / "bad.jsonl"
        bad.write_text("\n".join([*lines[:2], json.dumps({**json.loads(lines[2]),
                                                         "query": None})]),
                       encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "line 3: field 'query' must be a string", f"1 problem(s) in {bad}"]

    def test_lone_surrogate_exit_one_names_field(self, workspace, capsys):
        tmp, corpus, config = workspace
        lines = corpus.read_text(encoding="utf-8").splitlines()
        # json.dumps writes the lone surrogate as the JSON escape \ud800
        lines[2] = json.dumps({**json.loads(lines[2]), "gold": "it \ud800 rains ."})
        bad = tmp / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = ("line 3: field 'gold' cannot be encoded as UTF-8 "
                   "(surrogates not allowed)")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            message, f"1 problem(s) in {bad}"]
        out = tmp / "items.jsonl"
        assert main(["match", str(bad), "--config", str(config),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_empty_corpus_exit_one(self, tmp_path, capsys, text):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text(text, encoding="utf-8")
        assert main(["validate", str(corpus)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "corpus is empty", f"1 problem(s) in {corpus}"]

    def test_duplicate_id_reported(self, tmp_path, capsys):
        r = make_record(0, "m", "why go ?", "home .")
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text(serialize_records([r, r]), encoding="utf-8")
        assert main(["validate", str(corpus)]) == 1
        assert "duplicate id" in capsys.readouterr().out


# The flags of each config command: those of the command before it and the
# flags of the values it reads.
COMMAND_FLAGS = {
    "split": ("--config", "--seed", "--out"),
    "buckets": ("--config", "--seed", "--out", "--rounds", "--mode"),
    "score": ("--config", "--seed", "--out", "--rounds", "--mode",
              "--rel-matrix", "--sim-matrix"),
    "match": ("--config", "--seed", "--out", "--rounds", "--mode",
              "--rel-matrix", "--sim-matrix", "--lambda", "--jobs"),
    "sweep": ("--config", "--seed", "--out", "--rounds", "--mode",
              "--rel-matrix", "--sim-matrix", "--lambda", "--jobs", "--grid"),
}
FLAG_VALUES = {"--config": "c.json", "--seed": "1", "--out": "o", "--rounds": "2",
               "--mode": "qar", "--rel-matrix": "m", "--sim-matrix": "m",
               "--lambda": "5", "--jobs": "8", "--grid": "0.5"}


def _parser_flags() -> dict[str, set[str]]:
    """Every command's option strings, read from the parser itself."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in p._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")}
            for name, p in sub.choices.items()}


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        flags = _parser_flags()
        assert {c: flags[c] for c in COMMAND_FLAGS} == {
            c: set(f) for c, f in COMMAND_FLAGS.items()}
        assert flags["validate"] == set()
        assert flags["probe"] == {"--train"}
        assert sum(map(len, flags.values())) == 35

    @pytest.mark.parametrize("command, flag", [
        (c, f) for c in COMMAND_FLAGS for f in FLAG_VALUES if f not in COMMAND_FLAGS[c]])
    def test_flag_the_command_does_not_read_exits_two(self, workspace, capsys,
                                                      command, flag):
        tmp, corpus, config = workspace
        out = tmp / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, str(corpus), "--config", str(config), "--out", str(out),
                  flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (c, f) for c, flags in COMMAND_FLAGS.items() for f in flags])
    def test_flag_the_command_reads_is_taken(self, command, flag):
        parser = build_parser()
        bare = parser.parse_args([command, "corpus.jsonl"])
        args = parser.parse_args([command, "corpus.jsonl", flag, FLAG_VALUES[flag]])
        assert args.func is getattr(cli, f"cmd_{command}")
        changed = {k for k, v in vars(args).items() if v != vars(bare)[k]}
        assert len(changed) == 1


def test_every_command_splits_lines_alike(workspace):
    # a bare CR is JSON whitespace inside a line, not a line break
    tmp, corpus, config = workspace
    text = corpus.read_text(encoding="utf-8")
    corpus.write_bytes(text.replace(',"source_key"', ',\r"source_key"').encode())
    assert main(["validate", str(corpus)]) == 0
    assert main(["split", str(corpus), "--config", str(config),
                 "--out", str(tmp / "folds.jsonl")]) == 0
    assert main(["match", str(corpus), "--config", str(config),
                 "--out", str(tmp / "items.jsonl")]) == 0


def _planted_line(fault: str, base: str) -> bytes:
    """A corpus line built from ``base`` that carries one kind of fault."""
    obj = json.loads(base)
    if fault != "duplicate_id":
        obj["id"] = "planted"
    if fault == "missing_field":
        del obj["gold"]
    elif fault == "violation":
        obj["gold"] = "[person:9] waves ."
    elif fault == "embedding_length":
        obj["embedding"] = [1.0, 2.0, 3.0]
    line = json.dumps(obj).encode("utf-8")
    if fault == "utf8":
        return b"\xff" + line
    if fault == "json":
        return line[:-1]
    if fault == "not_object":
        return b"[" + line + b"]"
    return line


FAULTS = ("utf8", "json", "not_object", "missing_field", "violation",
          "duplicate_id", "embedding_length")


class TestValidateAgreesWithParse:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
           fault=st.sampled_from((None, *FAULTS)), where=st.integers(0, 5),
           base=st.integers(0, 4), blank=st.booleans())
    def test_validate_exits_zero_exactly_when_parse_succeeds(
            self, tmp_path_factory, n, seed, fault, where, base, blank):
        lines = serialize_records(simple_bucket_corpus(n, seed=seed)).encode(
            "utf-8").splitlines()
        if fault is not None:
            lines.insert(where % (n + 1),
                         _planted_line(fault, lines[base % n].decode("utf-8")))
        if blank:
            lines.insert(1, b"   ")
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["validate", str(path)])
        printed = stdout.getvalue().splitlines()
        try:
            with open(path, "rb") as f:
                parse_records(f)
        except CorpusError as exc:
            assert code == 1
            assert printed[0] == str(exc)
            assert printed[-1] == f"{len(printed) - 1} problem(s) in {path}"
        else:
            assert code == 0
            assert printed == [f"{n} records ok"]
        assert (code == 0) == (fault is None)


class TestMatch:
    def test_size_arithmetic(self, workspace):
        tmp, corpus, config = workspace
        out = tmp / "items.jsonl"
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(out)]) == 0
        items = parse_items(out.read_text(encoding="utf-8").splitlines())
        assert len(items) == 8
        assert all(len(it.choices) == 4 for it in items)

    def test_byte_identical_reruns(self, workspace):
        tmp, corpus, config = workspace
        a, b = tmp / "a.jsonl", tmp / "b.jsonl"
        assert main(["match", str(corpus), "--config", str(config), "--out", str(a)]) == 0
        assert main(["match", str(corpus), "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bucket_of_four_forces_other_golds(self, tmp_path):
        records = simple_bucket_corpus(4, seed=1)
        corpus = tmp_path / "four.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        config = tmp_path / "single_fold.json"
        config.write_text(json.dumps({"n_folds": 1}), encoding="utf-8")
        out = tmp_path / "items.jsonl"
        assert main(["match", str(corpus), "--config", str(config),
                     "--seed", "3", "--out", str(out)]) == 0
        items = parse_items(out.read_text(encoding="utf-8").splitlines())
        all_ids = {r.id for r in records}
        for it in items:
            sources = {p.source_id for p in it.provenance if p.kind == "distractor"}
            assert sources == all_ids - {it.id}

    def test_manifest_digests_recomputable(self, workspace):
        tmp, corpus, config = workspace
        out = tmp / "items.jsonl"
        main(["match", str(corpus), "--config", str(config), "--out", str(out)])
        manifest = json.loads((tmp / "items.jsonl.manifest.json").read_text())
        assert manifest["inputs"][str(corpus)] == digest_bytes(corpus.read_bytes())
        assert manifest["outputs"][str(out)] == digest_bytes(out.read_bytes())
        assert manifest["config"]["seed"] == 7
        assert "match" in manifest["timings"]
        assert set(manifest["outputs"]) == {str(out), "fold_plan", "buckets"}

    def test_manifest_bucket_digest_is_the_buckets_output(self, tmp_path):
        records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        argv = [str(corpus), "--seed", "5", "--rounds", "2"]
        plan = tmp_path / "buckets.jsonl"
        assert main(["buckets", *argv, "--out", str(plan)]) == 0
        assert len(plan.read_text().splitlines()) > 1
        out = tmp_path / "items.jsonl"
        assert main(["match", *argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "items.jsonl.manifest.json").read_text())
        assert manifest["outputs"]["buckets"] == digest_bytes(plan.read_bytes())

    def test_out_dash_writes_only_items_to_stdout(self, workspace, capsys,
                                                    monkeypatch):
        tmp, corpus, config = workspace
        monkeypatch.chdir(tmp)
        out = tmp / "items.jsonl"
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text(encoding="utf-8")
        assert len(parse_items(captured.out.splitlines())) == 8
        assert captured.err == "wrote 8 items to -\n"
        assert not list(tmp.glob("-*"))  # no manifest named after stdout

    @pytest.mark.parametrize("command", ["match", "split"])
    def test_out_dash_writes_utf8_to_an_ascii_stdout(self, workspace, monkeypatch,
                                                     command):
        tmp, corpus, config = workspace
        text = corpus.read_text(encoding="utf-8").replace(' ."', ' café ."')
        assert "café" in text
        corpus.write_text(text, encoding="utf-8")
        out = tmp / "out.jsonl"
        argv = [command, str(corpus), "--config", str(config)]
        assert main([*argv, "--out", str(out)]) == 0
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([*argv, "--out", "-"]) == 0
        assert stdout.buffer.getvalue() == out.read_bytes()

    def test_manifest_config_pinned(self, workspace):
        tmp, corpus, _ = workspace
        config = tmp / "every_key.json"
        config.write_text(json.dumps({
            "seed": 7, "lambda": 0.5, "rounds": 2, "eps": 0.002,
            "p_reuse": 0.25, "n_folds": 1, "target_size": 40, "mode": "qa",
            "holdout_folds": [0], "relevance_scorer": {"kind": "overlap"},
            "similarity_scorer": {"kind": "embedding_cosine"},
        }), encoding="utf-8")
        out = tmp / "items.jsonl"
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(out), "--jobs", "2"]) == 0
        manifest = json.loads((tmp / "items.jsonl.manifest.json").read_text())
        assert manifest["config"] == {
            "seed": 7, "lambda": 0.5, "rounds": 2, "eps": 0.002,
            "p_reuse": 0.25, "n_folds": 1, "target_size": 40, "mode": "qa",
            "holdout_folds": [0],
            "relevance_scorer": {"kind": "overlap", "path": None},
            "similarity_scorer": {"kind": "embedding_cosine", "path": None},
            "jobs": 2,
        }

    def test_manifest_records_external_matrix_digests(self, workspace):
        tmp, corpus, config = workspace
        scores = tmp / "scores"
        main(["score", str(corpus), "--config", str(config), "--out", str(scores)])
        out = tmp / "ext.jsonl"
        main(["match", str(corpus), "--config", str(config), "--out", str(out),
              "--rel-matrix", str(scores), "--sim-matrix", str(scores)])
        manifest = json.loads((tmp / "ext.jsonl.manifest.json").read_text())
        matrix_files = sorted(scores.iterdir())
        assert matrix_files
        for f in matrix_files:
            assert manifest["inputs"][str(f)] == digest_bytes(f.read_bytes())
        assert manifest["config"]["relevance_scorer"]["path"] == str(scores)

    def test_directory_named_by_both_flags_is_hashed_once(self, workspace,
                                                          monkeypatch):
        tmp, corpus, config = workspace
        scores = tmp / "scores"
        main(["score", str(corpus), "--config", str(config), "--out", str(scores)])
        calls = Counter()
        real_digest = cli.digest_file

        def counted(path):
            calls[str(path)] += 1
            return real_digest(path)

        monkeypatch.setattr(cli, "digest_file", counted)
        out = tmp / "ext.jsonl"
        assert main(["match", str(corpus), "--config", str(config), "--out", str(out),
                     "--rel-matrix", str(scores), "--sim-matrix", str(scores)]) == 0
        matrix_files = sorted(scores.iterdir())
        assert len(matrix_files) == 2
        assert calls == {str(f): 1 for f in matrix_files}
        # the corpus and every matrix file, each with the digest of its bytes
        manifest = json.loads((tmp / "ext.jsonl.manifest.json").read_text())
        assert manifest["inputs"] == {
            str(f): digest_bytes(f.read_bytes()) for f in [corpus, *matrix_files]}

    def test_manifest_digests_the_files_the_store_indexes(self, workspace,
                                                          monkeypatch):
        # a nested directory is skipped by both: its copy of a matrix would
        # clash with the original if the store indexed it
        tmp, corpus, config = workspace
        scores = tmp / "scores"
        main(["score", str(corpus), "--config", str(config), "--out", str(scores)])
        top = sorted(scores.iterdir())
        (scores / "old").mkdir()
        (scores / "old" / top[0].name).write_bytes(top[0].read_bytes())
        indexed = set()  # indexed, then read again for the bucket's values
        real_header = scoring._read_header

        def recorded(stream, path):
            indexed.add(str(path))
            return real_header(stream, path)

        monkeypatch.setattr(scoring, "_read_header", recorded)
        out = tmp / "ext.jsonl"
        assert main(["match", str(corpus), "--config", str(config), "--out", str(out),
                     "--rel-matrix", str(scores), "--sim-matrix", str(scores)]) == 0
        manifest = json.loads((tmp / "ext.jsonl.manifest.json").read_text())
        assert sorted(indexed) == sorted(set(manifest["inputs"]) - {str(corpus)}) \
            == [str(f) for f in top]

    def test_file_digest_reads_in_chunks(self, tmp_path, monkeypatch):
        data = bytes(range(256)) * 9
        path = tmp_path / "matrix.npy"
        path.write_bytes(data)
        reads = []
        real_open = open

        class Recording:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def read(self, size=-1):
                reads.append(size)
                return self.f.read(size)

        monkeypatch.setattr(cli, "DIGEST_CHUNK", 1000)
        monkeypatch.setattr(cli, "open",
                            lambda *a, **k: Recording(real_open(*a, **k)),
                            raising=False)
        assert digest_file(path) == digest_bytes(data)
        assert reads and all(0 < size <= 1000 for size in reads)

    def test_seed_required(self, workspace, capsys):
        tmp, corpus, _ = workspace
        noseed = tmp / "noseed.json"
        noseed.write_text("{}", encoding="utf-8")
        assert main(["match", str(corpus), "--config", str(noseed)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["match", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, workspace, capsys, command, jobs):
        tmp, corpus, config = workspace
        assert main([command, str(corpus), "--config", str(config),
                     "--out", str(tmp / "x"), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    @pytest.mark.parametrize("lam", ["inf", "nan", "-1"])
    def test_bad_lambda_is_a_config_error(self, workspace, capsys, lam):
        tmp, corpus, config = workspace
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(tmp / "x"), "--lambda", lam]) == 2
        assert "lambda must be finite and > 0" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_infinite_config_lambda_is_a_config_error(self, workspace, capsys):
        tmp, corpus, _ = workspace
        config = tmp / "inf.json"
        config.write_text('{"seed": 1, "n_folds": 1, "lambda": Infinity}',
                          encoding="utf-8")
        assert main(["match", str(corpus), "--config", str(config)]) == 2
        assert "lambda must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [",", "", "-1", "0", "0.1,nan", "0.1,inf",
                                      "0.1,x"])
    def test_bad_grid_rejected_before_matching(self, workspace, capsys,
                                               monkeypatch, grid):
        tmp, corpus, config = workspace

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("advmatch.cli.lambda_sweep", no_sweep)
        assert main(["sweep", str(corpus), "--config", str(config),
                     "--out", str(tmp / "s.txt"), "--grid", grid]) == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp / "s.txt").exists()

    @pytest.mark.parametrize("bad, key", [
        ({"seed": "x"}, "seed"),
        ({"seed": 1.9}, "seed"),
        ({"seed": True}, "seed"),
        ({"rounds": 1.5}, "rounds"),
        ({"lambda": "abc"}, "lambda"),
        ({"holdout_folds": 3}, "holdout_folds"),
        ({"holdout_folds": [0.5]}, "holdout_folds"),
        ({"relevance_scorer": {"kind": "external_matrix", "path": 3}},
         "relevance_scorer.path"),
    ])
    def test_wrong_config_type_is_a_config_error(self, workspace, capsys, bad, key):
        tmp, corpus, _ = workspace
        config = tmp / "typed.json"
        config.write_text(json.dumps({"seed": 1, "n_folds": 1, **bad}),
                          encoding="utf-8")
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(tmp / "x")]) == 2
        assert f"config {key!r} must be" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_config_that_is_not_utf8_is_a_config_error(self, workspace, capsys):
        tmp, corpus, _ = workspace
        config = tmp / "latin1.json"
        config.write_bytes('{"seed": 1, "mode": "qà"}'.encode("latin-1"))
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(tmp / "x")]) == 2
        assert capsys.readouterr().err == (
            f"error: {config}: not valid UTF-8 ('utf-8' codec can't decode byte 0xe0 "
            "in position 22: invalid continuation byte)\n")
        assert not (tmp / "x").exists()

    def test_integral_float_is_an_integer(self, workspace):
        tmp, corpus, _ = workspace
        config = tmp / "float_rounds.json"
        config.write_text(json.dumps({"seed": 7.0, "n_folds": 1, "rounds": 2.0}),
                          encoding="utf-8")
        out = tmp / "items.jsonl"
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp / "items.jsonl.manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["rounds"] == 2

    @pytest.mark.parametrize("scorer, message", [
        ({"kind": "overlap", "epss": 0.3},
         "config 'relevance_scorer' has unknown keys ['epss']"),
        ({"kind": "overlap", "path": "scores"}, "overlap scorer takes no path"),
        ({"kind": "embedding_cosine", "path": "scores"},
         "embedding_cosine scorer takes no path"),
        # every scorer floors its scores at the config's one eps
        ({"kind": "overlap", "eps": 0.01},
         "config 'relevance_scorer' has unknown keys ['eps']; "
         "a scorer takes 'kind' and 'path'"),
    ])
    def test_scorer_takes_only_what_it_reads(self, workspace, capsys, scorer,
                                             message):
        tmp, corpus, _ = workspace
        config = tmp / "scorer.json"
        config.write_text(json.dumps({"seed": 1, "n_folds": 1,
                                      "relevance_scorer": scorer}), encoding="utf-8")
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(tmp / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_unknown_config_key_rejected(self, workspace, capsys):
        tmp, corpus, _ = workspace
        typo = tmp / "typo.json"
        typo.write_text(json.dumps({"seed": 1, "lamda": 0.5}), encoding="utf-8")
        assert main(["match", str(corpus), "--config", str(typo)]) == 2
        assert "lamda" in capsys.readouterr().err

    def test_flags_override_config(self, workspace):
        tmp, corpus, config = workspace
        out1, out2 = tmp / "l1.jsonl", tmp / "l2.jsonl"
        main(["match", str(corpus), "--config", str(config), "--out", str(out1),
              "--lambda", "5.0"])
        main(["match", str(corpus), "--config", str(config), "--out", str(out2),
              "--lambda", "0.001"])
        m1 = json.loads((tmp / "l1.jsonl.manifest.json").read_text())
        assert m1["config"]["lambda"] == 5.0

    def test_failed_last_bucket_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 5, "n_folds": 3}), encoding="utf-8")
        _, buckets = plan_buckets(records, MatchConfig(seed=5, n_folds=3))
        assert len(buckets) > 1
        calls = []
        real_rounds = pipeline.run_rounds

        def fail_last(members, *args):
            calls.append(members)
            if len(calls) == len(buckets):
                raise MatchingError("planted failure in the last bucket")
            return real_rounds(members, *args)

        monkeypatch.setattr(pipeline, "run_rounds", fail_last)
        out = tmp_path / "items.jsonl"
        argv = ["match", str(corpus), "--config", str(config), "--out", str(out)]
        assert main(argv) == 1
        assert "planted failure" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "cfg.json"]
        # an earlier output at that path stays as it was
        out.write_bytes(b"earlier output\n")
        calls.clear()
        assert main(argv) == 1
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.jsonl", "cfg.json", "items.jsonl"]
        # on stdout the buckets written before the failure stay
        calls.clear()
        capsys.readouterr()
        assert main([*argv[:-1], "-"]) == 1
        written = parse_items(capsys.readouterr().out.splitlines())
        assert len(written) == sum(len(b.members) for b in buckets[:-1])

    def test_directory_at_the_manifest_path_is_refused_first(self, workspace,
                                                             capsys, monkeypatch):
        tmp, corpus, config = workspace
        (tmp / "items.jsonl.manifest.json").mkdir()
        monkeypatch.setattr(cli, "run_match", lambda *a, **k: pytest.fail("ran"))
        out = tmp / "items.jsonl"
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(out)]) == 2
        assert "items.jsonl.manifest.json is a directory" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(p.name for p in tmp.iterdir()) == [
            "config.json", "corpus.jsonl", "items.jsonl.manifest.json"]

    @pytest.mark.parametrize("command", ["split", "buckets", "match", "sweep"])
    def test_directory_at_out_is_refused_before_the_corpus_is_read(
            self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, str(tmp_path / "missing.jsonl"), "--seed", "1",
                     "--out", str(out)]) == 2
        assert f"{out} is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command", ["split", "buckets", "match", "sweep"])
    def test_unwritable_out_is_refused_before_the_corpus_is_read(
            self, tmp_path, capsys, command):
        out = tmp_path / "nodir" / "out"
        assert main([command, str(tmp_path / "missing.jsonl"), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(out.parent) in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["buckets", "score", "match", "sweep"])
    def test_empty_corpus_is_refused_as_empty(self, tmp_path, capsys, command):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("", encoding="utf-8")
        assert main([command, str(corpus), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: corpus is empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["empty.jsonl"]

    def test_infeasible_corpus_exit_one(self, tmp_path, capsys):
        records = simple_bucket_corpus(3, seed=0)  # below rounds + 1
        corpus = tmp_path / "small.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_folds": 1, "seed": 1}), encoding="utf-8")
        assert main(["match", str(corpus), "--config", str(config)]) == 1
        assert "at least 4" in capsys.readouterr().err


class TestSplitAndBuckets:
    def test_split_appends_fold(self, tmp_path):
        records = multi_fold_corpus(n_keys=12, per_key=2, seed=0)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        out = tmp_path / "folds.jsonl"
        assert main(["split", str(corpus), "--seed", "2", "--out", str(out)]) == 0
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert all("fold" in obj for obj in lines)
        folds_by_key = {}
        for obj in lines:
            folds_by_key.setdefault(obj["source_key"], set()).add(obj["fold"])
        assert all(len(v) == 1 for v in folds_by_key.values())
        # split output stays a valid corpus: parses back with fold intact
        reparsed = parse_records(out.read_text().splitlines())
        assert reparsed == records

    def test_buckets_manifest(self, workspace):
        tmp, corpus, config = workspace
        out = tmp / "buckets.jsonl"
        assert main(["buckets", str(corpus), "--config", str(config),
                     "--out", str(out)]) == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["key"] == "neutral/explanation"
        assert len(rows[0]["members"]) == 8

    def test_buckets_and_score_follow_the_match_plan(self, tmp_path):
        records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 5, "n_folds": 3}), encoding="utf-8")
        match_config = MatchConfig(seed=5, n_folds=3)
        result = run_match(records, match_config)
        out = tmp_path / "buckets.jsonl"
        assert main(["buckets", str(corpus), "--config", str(config),
                     "--out", str(out)]) == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert [(r["fold"], r["bucket"], r["members"]) for r in rows] == [
            (br.bucket.fold, br.bucket.bucket_id, [m.id for m in br.bucket.members])
            for br in result.buckets]
        scores = tmp_path / "scores"
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 0
        spec = ScorerSpec("overlap")
        for br in result.buckets:
            safe = br.bucket.bucket_id.replace(":", "_").replace("/", "-")
            matrices = score_bucket(br.bucket.members, match_config, spec, spec)
            for role, matrix in zip(("relevance", "similarity"), matrices):
                stored_role, values, ids = read_score_matrix(
                    scores / f"{safe}.{role}.scm")
                assert stored_role == role
                assert ids == [r.id for r in br.bucket.members]
                expected = matrix.values.astype(np.float32).astype(np.float64)
                assert np.array_equal(values, expected)


# Runs advmatch score on the corpus argv[1] with the config argv[2] into
# the directory argv[3], once through and once with the second bucket's
# relevance file missing, and prints, per run, the exit code, the OpenBLAS
# thread count before it, the count each bucket read and the count after
# it, as JSON; or "none".
_SCORE_BLAS_THREADS = """
import contextlib, io, json, os, shutil, sys
from advmatch import cli, pipeline

blas = pipeline._blas_threads()
if blas is None:
    print("none")
    sys.exit()
get = blas[0]
corpus, config, work = sys.argv[1:]
real = cli.score_bucket
seen = []

def counted(*args):
    seen.append(get())
    return real(*args)

def run(*argv):
    seen.clear()
    before = get()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["score", corpus, "--config", config, *argv])
    print(json.dumps([code, before, seen, get()]))
    return printed.getvalue().split()

cli.score_bucket = counted
written = run("--out", os.path.join(work, "scores"))
shutil.copytree(os.path.join(work, "scores"), os.path.join(work, "partial"))
os.remove(os.path.join(work, "partial", os.path.basename(written[2])))
run("--rel-matrix", os.path.join(work, "partial"), "--out", os.path.join(work, "failed"))
"""


class TestScoreAndExternalMatrices:
    def test_score_caps_blas_threads_and_restores_them(self, tmp_path):
        # score runs its buckets in this process, as a --jobs 1 match does:
        # one BLAS thread in every bucket, and the count the process had
        # comes back after the command, also when a bucket fails
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(multi_fold_corpus(n_keys=12, per_key=3, seed=4)),
                          encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 5, "n_folds": 3}), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", _SCORE_BLAS_THREADS, str(corpus), str(config),
             str(tmp_path)], env=blas_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "none":
            pytest.skip("numpy's BLAS exports no OpenBLAS thread getter and setter")
        (code, before, seen, after), failed = map(json.loads, proc.stdout.splitlines())
        assert code == 0 and len(seen) > 1
        assert seen == [1] * len(seen) and after == before
        assert failed == [1, before, [1, 1], before]
        assert "no external relevance matrix" in proc.stderr

    def test_score_then_match_with_external(self, workspace, capsys):
        tmp, corpus, config = workspace
        scores = tmp / "scores"
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 0
        written = sorted(p.name for p in scores.iterdir())
        assert len(written) == 2  # one bucket: relevance + similarity
        out = tmp / "ext.jsonl"
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(out),
                     "--rel-matrix", str(scores), "--sim-matrix", str(scores)]) == 0
        items = parse_items(out.read_text(encoding="utf-8").splitlines())
        assert len(items) == 8

    def test_score_out_dash_is_a_config_error(self, workspace, monkeypatch, capsys):
        # every other command reads "-" as stdout; score writes a directory
        tmp, corpus, config = workspace
        monkeypatch.chdir(tmp)
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", "-"]) == 2
        assert not (tmp / "-").exists()
        assert "directory" in capsys.readouterr().err

    def test_each_bucket_reads_only_its_own_matrices(self, tmp_path, monkeypatch):
        import advmatch.scoring

        records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 5, "n_folds": 3}), encoding="utf-8")
        scores = tmp_path / "scores"
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 0
        buckets = len(list(scores.iterdir())) // 2
        assert buckets > 1
        reads = []
        original = advmatch.scoring.read_score_matrix

        def counted(path):
            role, values, ids = original(path)
            reads.append((role, tuple(ids)))
            return role, values, ids

        monkeypatch.setattr(advmatch.scoring, "read_score_matrix", counted)
        # the same directory behind both flags is indexed once
        assert main(["match", str(corpus), "--config", str(config),
                     "--out", str(tmp_path / "ext.jsonl"),
                     "--rel-matrix", str(scores), "--sim-matrix", str(scores)]) == 0
        assert len(reads) == 2 * buckets
        assert len(set(reads)) == len(reads)
        assert sorted(role for role, _ in reads) == (
            ["relevance"] * buckets + ["similarity"] * buckets)

    def test_score_indexes_external_matrices_once(self, tmp_path, monkeypatch):
        import advmatch.scoring

        records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 5, "n_folds": 3}), encoding="utf-8")
        scores = tmp_path / "scores"
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 0
        files = sorted(scores.iterdir())
        assert len(files) > 2
        headers, reads = Counter(), Counter()
        real_header = advmatch.scoring._read_header
        real_read = advmatch.scoring.read_score_matrix

        def header(f, path):
            headers[Path(path)] += 1
            return real_header(f, path)

        def read(path):
            reads[Path(path)] += 1
            return real_read(path)

        monkeypatch.setattr(advmatch.scoring, "_read_header", header)
        monkeypatch.setattr(advmatch.scoring, "read_score_matrix", read)
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(tmp_path / "rescored"),
                     "--rel-matrix", str(scores), "--sim-matrix", str(scores)]) == 0
        # each header is read once to index the run's one store, and once
        # more where its bucket reads the values
        assert set(reads) == set(files)
        assert {f: headers[f] - reads[f] for f in files} == {f: 1 for f in files}

    def test_failed_score_leaves_no_file(self, tmp_path, capsys):
        records = multi_fold_corpus(n_keys=12, per_key=3, seed=4)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(serialize_records(records), encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 5, "n_folds": 3}), encoding="utf-8")
        scores = tmp_path / "scores"
        capsys.readouterr()
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 0
        # in bucket order: the first bucket's two files, then the second's
        written = [Path(p) for p in capsys.readouterr().out.splitlines()]
        written[2].unlink()
        out = tmp_path / "rescored"
        out.mkdir()
        (out / written[0].name).write_bytes(b"kept")
        assert main(["score", str(corpus), "--config", str(config), "--out", str(out),
                     "--rel-matrix", str(scores)]) == 1
        assert "no external relevance matrix" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [written[0].name]
        assert (out / written[0].name).read_bytes() == b"kept"

    def test_failed_score_removes_the_out_directory_it_made(self, workspace,
                                                            capsys):
        tmp, corpus, config = workspace
        argv = ["score", str(corpus), "--config", str(config),
                "--rel-matrix", str(tmp / "missing")]
        out = tmp / "new" / "scores"
        assert main([*argv, "--out", str(out)]) == 2
        assert "missing" in capsys.readouterr().err
        assert not (tmp / "new").exists()
        # an --out that was there keeps what it held
        out.mkdir(parents=True)
        (out / "kept.scm").write_bytes(b"kept")
        assert main([*argv, "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["kept.scm"]
        assert (out / "kept.scm").read_bytes() == b"kept"

    def test_directory_at_a_matrix_path_is_refused_before_scoring(
            self, workspace, capsys, monkeypatch):
        tmp, corpus, config = workspace
        scores = tmp / "scores"
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 0
        (similarity,) = scores.glob("*.similarity.scm")
        similarity.unlink()
        similarity.mkdir()
        (relevance,) = scores.glob("*.relevance.scm")
        kept = relevance.read_bytes()
        monkeypatch.setattr(cli, "score_bucket", lambda *a: pytest.fail("scored"))
        capsys.readouterr()
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 2
        assert f"{similarity} is a directory" in capsys.readouterr().err
        assert sorted(scores.iterdir()) == [relevance, similarity]
        assert relevance.read_bytes() == kept

    def test_two_matrices_for_one_bucket_exit_one_naming_both(self, workspace,
                                                               capsys):
        tmp, corpus, config = workspace
        scores = tmp / "scores"
        assert main(["score", str(corpus), "--config", str(config),
                     "--out", str(scores)]) == 0
        (written,) = scores.glob("*.relevance.scm")
        copy = scores / "copy.relevance.scm"
        copy.write_bytes(written.read_bytes())
        capsys.readouterr()
        assert main(["match", str(corpus), "--config", str(config),
                     "--rel-matrix", str(scores), "--out", str(tmp / "x.jsonl")]) == 1
        err = capsys.readouterr().err
        assert str(written) in err and str(copy) in err
        assert not (tmp / "x.jsonl").exists()

    def test_mismatched_external_exit_one(self, workspace, tmp_path):
        tmp, corpus, config = workspace
        other = tmp_path / "other.jsonl"
        other.write_text(serialize_records(simple_bucket_corpus(5, seed=9)),
                         encoding="utf-8")
        scores = tmp / "scores"
        main(["score", str(corpus), "--config", str(config), "--out", str(scores)])
        assert main(["match", str(other), "--config", str(config),
                     "--rel-matrix", str(scores),
                     "--out", str(tmp / "x.jsonl")]) == 1


class TestSweepAndProbe:
    def test_sweep_grid_rows(self, workspace, capsys):
        tmp, corpus, config = workspace
        out = tmp / "sweep.txt"
        assert main(["sweep", str(corpus), "--config", str(config),
                     "--grid", "1.0,0.1,0.01", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [ln.split("\t")[0] for ln in lines[1:]] == ["1.0", "0.1", "0.01"]
        assert (tmp / "sweep.txt.csv").exists()

    def test_failed_csv_write_leaves_no_file(self, workspace, monkeypatch):
        tmp, corpus, config = workspace
        # a lone surrogate cannot be encoded, so the write fails part way
        monkeypatch.setattr(cli, "format_sweep_csv", lambda rows: "\ud800")
        with pytest.raises(UnicodeEncodeError):
            main(["sweep", str(corpus), "--config", str(config), "--grid", "1.0",
                  "--out", str(tmp / "sweep.txt")])
        assert not (tmp / "sweep.txt.csv").exists()
        assert not (tmp / "sweep.txt").exists()
        assert not list(tmp.glob(".*.tmp"))

    def test_directory_at_the_csv_path_is_refused_first(self, workspace, capsys,
                                                        monkeypatch):
        tmp, corpus, config = workspace
        (tmp / "sweep.txt.csv").mkdir()
        monkeypatch.setattr(cli, "lambda_sweep", lambda *a, **k: pytest.fail("ran"))
        assert main(["sweep", str(corpus), "--config", str(config), "--grid", "1.0",
                     "--out", str(tmp / "sweep.txt")]) == 2
        assert "sweep.txt.csv is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp.iterdir()) == [
            "config.json", "corpus.jsonl", "sweep.txt.csv"]

    def test_unwritable_out_is_refused_before_the_sweep(self, workspace, capsys,
                                                         monkeypatch):
        tmp, corpus, config = workspace
        monkeypatch.setattr(cli, "lambda_sweep", lambda *a, **k: pytest.fail("ran"))
        assert main(["sweep", str(corpus), "--config", str(config), "--grid", "1.0",
                     "--out", str(tmp / "nodir" / "sweep.txt")]) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp.iterdir()) == ["config.json", "corpus.jsonl"]

    def test_sweep_out_dash_prints_the_table_once(self, workspace, capsys,
                                                  monkeypatch):
        tmp, corpus, config = workspace
        monkeypatch.chdir(tmp)
        out = tmp / "sweep.txt"
        argv = ["sweep", str(corpus), "--config", str(config), "--grid", "1.0,0.1"]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")
        assert not list(tmp.glob("-*"))  # no CSV named after stdout

    def test_sweep_default_lambda_from_mode(self, workspace):
        tmp, corpus, config = workspace
        out = tmp / "sweep.txt"
        assert main(["sweep", str(corpus), "--config", str(config),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].split("\t")[0] == "0.1"  # qa default

    def test_sweep_without_grid_sweeps_the_lambda_flag(self, workspace):
        tmp, corpus, config = workspace
        out = tmp / "sweep.txt"
        argv = ["sweep", str(corpus), "--config", str(config), "--out", str(out),
                "--lambda", "0.5"]
        assert main(argv) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].split("\t")[0] == "0.5"
        # --grid overrides lambda
        assert main([*argv, "--grid", "1.0"]) == 0
        assert [r.split("\t")[0] for r in out.read_text().splitlines()[1:]] == ["1.0"]

    def test_probe_command(self, workspace, capsys):
        tmp, corpus, config = workspace
        items = tmp / "items.jsonl"
        main(["match", str(corpus), "--config", str(config), "--out", str(items)])
        assert main(["probe", str(items)]) == 0
        out = capsys.readouterr().out
        assert "frequency_prior_accuracy" in out
        assert "chance\t0.25" in out

    def test_probe_fits_the_prior_on_the_train_items(self, workspace, capsys):
        # train on the items of the odd records, evaluate on the others: an
        # even record's gold is only ever a distractor in the train items,
        # so its rate is 0, below that of every odd record's gold
        tmp, corpus, config = workspace
        items = tmp / "items.jsonl"
        main(["match", str(corpus), "--config", str(config), "--out", str(items)])
        lines = items.read_text(encoding="utf-8").splitlines(keepends=True)
        odd = [int(json.loads(line)["id"][1:]) % 2 for line in lines]
        train, evaluate = tmp / "train.jsonl", tmp / "eval.jsonl"
        train.write_text("".join(l for l, o in zip(lines, odd) if o), encoding="utf-8")
        evaluate.write_text("".join(l for l, o in zip(lines, odd) if not o),
                            encoding="utf-8")
        # every evaluated item has a distractor from an odd record
        assert all(any(int(p.source_id[1:]) % 2 for p in it.provenance if p.source_id)
                   for it in parse_items(evaluate.read_bytes().splitlines()))
        capsys.readouterr()
        assert main(["probe", str(evaluate), "--train", str(train)]) == 0
        trained = capsys.readouterr().out
        assert "frequency_prior_accuracy\t0.0\n" in trained
        assert main(["probe", str(evaluate)]) == 0
        assert capsys.readouterr().out != trained

    @pytest.mark.parametrize("line, message", [
        (lambda item: {k: v for k, v in item.items() if k != "provenance"},
         "line 2: item has no 'provenance' field"),
        (lambda item: list(item.values()),
         "line 2: item must be a JSON object, got list"),
        (lambda item: {k: v for k, v in item.items() if k != "task_mode"},
         "line 2: item has no 'task_mode' field"),
        (lambda item: {**item, "id": 12345},
         "line 2: field 'id' must be a string, got 12345"),
        (lambda item: {**item, "gold_index": 1.9},
         "line 2: field 'gold_index' must be an integer, got 1.9"),
        (lambda item: {**item, "gold_index": True},
         "line 2: field 'gold_index' must be an integer, got True"),
        (lambda item: b"\xff" + json.dumps(item).encode("utf-8"),
         "line 2: not valid UTF-8 ('utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte)"),
        (lambda item: {**item, "task_mode": 5},
         "line 2: field 'task_mode' must be 'qa' or 'qar', got 5"),
        (lambda item: {**item, "fold": "x"},
         "line 2: field 'fold' must be an integer or null, got 'x'"),
        (lambda item: {**item, "fold": True},
         "line 2: field 'fold' must be an integer or null, got True"),
        (lambda item: {**item, "bucket": 3},
         "line 2: field 'bucket' must be a string or null, got 3"),
        (lambda item: {**item, "provenance": [
            {"kind": "distractor", "source": 7, "round": "r"} if p["kind"] != "gold" else p
            for p in item["provenance"]]},
         "line 2: field 'provenance' entry 0: 'source' must be a string, got 7"),
        (lambda item: {**item, "provenance": [
            {**p, "round": 0} if p["kind"] != "gold" else p for p in item["provenance"]]},
         "line 2: field 'provenance' entry 0: 'round' must be an integer >= 1, got 0"),
        (lambda item: {**item, "provenance": [
            {**p, "kind": "weird"} if p["kind"] != "gold" else p for p in item["provenance"]]},
         "line 2: field 'provenance' entry 0: 'kind' must be 'gold' or 'distractor', "
         "got 'weird'"),
        (lambda item: {**item, "gold_index": 0, "provenance": [{"kind": "gold"}, {
            "kind": "distractor", "source": "r0001", "round": 1}]},
         "line 2: field 'provenance' has 2 entries for 4 choices"),
    ], ids=["no-provenance", "array", "no-task-mode", "id-not-text", "gold-index-float",
            "gold-index-bool", "not-utf8", "task-mode-int", "fold-text", "fold-bool",
            "bucket-int", "source-int", "round-zero", "kind-weird", "provenance-short"])
    def test_probe_names_the_malformed_line(self, workspace, capsys, line, message):
        tmp, corpus, config = workspace
        items = tmp / "items.jsonl"
        main(["match", str(corpus), "--config", str(config), "--out", str(items)])
        first, second, *rest = items.read_bytes().splitlines()
        second = line(json.loads(second))
        if not isinstance(second, bytes):
            second = json.dumps(second).encode("utf-8")
        bad = tmp / "bad.jsonl"
        bad.write_bytes(b"\n".join([first, second, *rest]))
        capsys.readouterr()
        assert main(["probe", str(bad)]) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"


class TestPipelineOrderInvariance:
    def test_items_identical_for_shuffled_corpus(self, tmp_path):
        # bucketing and export key everything by record id, so even the
        # corpus line order must not matter
        records = multi_fold_corpus(n_keys=14, per_key=2, seed=5)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 3, "n_folds": 2, "target_size": 50}),
                          encoding="utf-8")
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        (tmp_path / "fwd.jsonl").write_text(serialize_records(records),
                                            encoding="utf-8")
        (tmp_path / "rev.jsonl").write_text(serialize_records(records[::-1]),
                                            encoding="utf-8")
        assert main(["match", str(tmp_path / "fwd.jsonl"), "--config", str(config),
                     "--out", str(a_path)]) == 0
        assert main(["match", str(tmp_path / "rev.jsonl"), "--config", str(config),
                     "--out", str(b_path)]) == 0
        assert a_path.read_bytes() == b_path.read_bytes()
